//! The steps the Chaitin-family baselines share: coalescing (the merge
//! direction, the cost fold and the conservative test), stack coloring,
//! and mapping the representatives' outcome back onto every node. Each
//! baseline keeps only the policy that sets it apart.

use crate::build::CopyRel;
use crate::ifg::InterferenceGraph;
use crate::node::{NodeId, NodeMap};
use crate::pipeline::{ClassCtx, RoundOutcome};
use crate::select::{taken, RegFile};
use crate::simplify::{simplify_in, SimplifyMode, SimplifyResult};
use pdgc_arena::RowTable;
use pdgc_obs::{Phase, PhaseTimer, Tracer};
use pdgc_target::{PhysReg, TargetDesc};

/// Merges copy-related pairs to a fixpoint: each sweep merges, in copy
/// order, every pair of distinct, non-interfering representatives that
/// `admit` accepts.
pub(crate) fn coalesce_copies(
    ifg: &mut InterferenceGraph,
    copies: &[CopyRel],
    costs: &mut [u64],
    admit: impl Fn(&InterferenceGraph, NodeId, NodeId) -> bool,
) {
    loop {
        let mut merged = false;
        for c in copies {
            let (a, b) = (ifg.rep(c.dst), ifg.rep(c.src));
            if a != b && !ifg.interferes(a, b) && admit(ifg, a, b) {
                merge_pair(ifg, costs, a, b);
                merged = true;
            }
        }
        if !merged {
            return;
        }
    }
}

/// Merges the representatives `a` and `b`: a precolored node absorbs the
/// other (two precolored nodes always interfere, so at most one is),
/// otherwise `b` merges into `a`. The survivor's spill cost absorbs the
/// other's, saturating, so an unspillable (`u64::MAX`) member poisons it.
pub(crate) fn merge_pair(ifg: &mut InterferenceGraph, costs: &mut [u64], a: NodeId, b: NodeId) {
    let (keep, gone) = if ifg.is_precolored(b) { (b, a) } else { (a, b) };
    ifg.merge(keep, gone);
    costs[keep.index()] = costs[keep.index()].saturating_add(costs[gone.index()]);
}

/// The conservative test for merging representatives `a` and `b`:
/// George's criterion toward a precolored node, Briggs' otherwise.
pub(crate) fn conservative_ok(ifg: &InterferenceGraph, a: NodeId, b: NodeId, k: usize) -> bool {
    if ifg.is_precolored(a) {
        george_ok(ifg, a, b, k)
    } else if ifg.is_precolored(b) {
        george_ok(ifg, b, a, k)
    } else {
        briggs_ok(ifg, a, b, k)
    }
}

/// Briggs' criterion: merging `a` and `b` is safe if the combined node
/// would have fewer than `k` neighbors of significant degree. A neighbor
/// of both loses one degree in the merge. Removed neighbors count at
/// their frozen degree.
fn briggs_ok(ifg: &InterferenceGraph, a: NodeId, b: NodeId, k: usize) -> bool {
    let shared = |x: NodeId| ifg.interferes(x, b) as usize;
    let from_a = ifg
        .neighbors_slice(a)
        .iter()
        .map(|&x| ifg.degree(x).saturating_sub(shared(x)));
    let from_b = ifg
        .neighbors_slice(b)
        .iter()
        .filter(|&&x| !ifg.interferes(x, a));
    let significant = from_a
        .chain(from_b.map(|&x| ifg.degree(x)))
        .filter(|&d| d >= k);
    significant.take(k).count() < k
}

/// George's criterion for merging `b` into the precolored `a`: every
/// neighbor of `b` either already interferes with `a` or has
/// insignificant degree.
fn george_ok(ifg: &InterferenceGraph, a: NodeId, b: NodeId, k: usize) -> bool {
    ifg.neighbors_slice(b)
        .iter()
        .all(|&t| t == a || ifg.interferes(t, a) || ifg.degree(t) < k)
}

/// The aggressive baselines' coalesce phase, timed as a `Coalesce` span:
/// merges every copy-related pair that does not interfere. Returns the
/// spill costs folded onto the surviving representatives.
pub(crate) fn coalesce_aggressively(ctx: &mut ClassCtx<'_>, tracer: &mut dyn Tracer) -> Vec<u64> {
    let mut costs = ctx.spill_costs.clone();
    let timer = PhaseTimer::start(Phase::Coalesce, ctx.round as u32, Some(ctx.class));
    coalesce_copies(&mut ctx.ifg, &ctx.copies, &mut costs, |_, _, _| true);
    timer.stop(&mut ctx.scratch.select.metrics, tracer);
    costs
}

/// Simplifies the coalesced graph under `mode`, timed as a `Simplify`
/// span. Recycle the result into `ctx.scratch.simplify`.
pub(crate) fn simplify_timed(
    ctx: &mut ClassCtx<'_>,
    costs: &[u64],
    mode: SimplifyMode,
    tracer: &mut dyn Tracer,
) -> SimplifyResult {
    let timer = PhaseTimer::start(Phase::Simplify, ctx.round as u32, Some(ctx.class));
    let sr = simplify_in(&mut ctx.ifg, ctx.k, costs, mode, &mut ctx.scratch.simplify);
    ctx.scratch
        .simplify
        .flush_counters(&mut ctx.scratch.select.metrics);
    timer.stop(&mut ctx.scratch.select.metrics, tracer);
    sr
}

/// Chaitin/Briggs select, timed as a `Select` span: pops `stack` in
/// reverse (last removed first) and gives each node the lowest register
/// its colored neighbors leave free, non-volatile first (§6.2). A node
/// with no free register spills.
///
/// `biased` enables Briggs' biased coloring: the register of the first
/// copy partner, in copy order, that holds a free one is taken first.
pub(crate) fn color_stack(
    ctx: &mut ClassCtx<'_>,
    stack: &[NodeId],
    target: &TargetDesc,
    biased: bool,
    tracer: &mut dyn Tracer,
) -> RoundOutcome {
    let timer = PhaseTimer::start(Phase::Select, ctx.round as u32, Some(ctx.class));
    let (ifg, regs) = (&ctx.ifg, RegFile::new(target, ctx.class));
    let partners = biased.then(|| CopyPartners::new(ifg, &ctx.copies));
    let mut assignment: Vec<Option<PhysReg>> = ctx.nodes.precolored().collect();
    let mut spilled = Vec::new();
    for &n in stack.iter().rev() {
        let free = regs.free(taken(ifg.neighbors_slice(n), |x| assignment[x.index()]));
        let partner_reg = |p: &NodeId| assignment[p.index()].filter(|r| free >> r.index() & 1 == 1);
        let reg = partners
            .as_ref()
            .and_then(|partners| partners.of(n).iter().find_map(partner_reg))
            .or_else(|| regs.pick(free, true));
        match reg {
            Some(r) => assignment[n.index()] = Some(r),
            None => spilled.push(n),
        }
    }
    let outcome = expand_merged(ifg, &ctx.nodes, assignment, &spilled);
    timer.stop(&mut ctx.scratch.select.metrics, tracer);
    outcome
}

/// Each representative's copy partners, in copy order: a copy between
/// distinct representatives `x` and `y` lists `y` under `x` and `x` under
/// `y`. One row per node.
pub(super) struct CopyPartners {
    partners: RowTable<NodeId>,
}

impl CopyPartners {
    pub(super) fn new(ifg: &InterferenceGraph, copies: &[CopyRel]) -> Self {
        let mut partners = RowTable::new();
        partners.fill_counted(ifg.num_nodes(), || {
            copies
                .iter()
                .map(|c| (ifg.rep(c.dst), ifg.rep(c.src)))
                .filter(|(x, y)| x != y)
                .flat_map(|(x, y)| [(x.index(), y), (y.index(), x)])
        });
        CopyPartners { partners }
    }

    /// The copy partners of representative `n`.
    pub(super) fn of(&self, n: NodeId) -> &[NodeId] {
        self.partners.row(n.index())
    }
}

/// Maps the representatives' outcome back onto every node: a merged node
/// takes its representative's register, and each spilled representative
/// spills its non-precolored members — representatives in the order
/// given, each one's members in node order.
pub(crate) fn expand_merged(
    ifg: &InterferenceGraph,
    nodes: &NodeMap,
    mut assignment: Vec<Option<PhysReg>>,
    spilled_reps: &[NodeId],
) -> RoundOutcome {
    let mut rep_spilled = vec![false; nodes.num_nodes()];
    for s in spilled_reps {
        rep_spilled[s.index()] = true;
    }
    for n in nodes.live_range_nodes() {
        let r = ifg.rep(n).index();
        assignment[n.index()] = if rep_spilled[r] { None } else { assignment[r] };
    }
    // Row `r`: the members of spilled representative `r`, in node order.
    let mut members = RowTable::new();
    members.fill_counted(nodes.num_nodes(), || {
        nodes.live_range_nodes().filter_map(|n| {
            let r = ifg.rep(n).index();
            rep_spilled[r].then_some((r, n))
        })
    });
    let spilled = spilled_reps
        .iter()
        .flat_map(|s| members.row(s.index()).iter().copied())
        .collect();
    RoundOutcome {
        assignment,
        spilled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgc_ir::{Block, Function, FunctionBuilder, RegClass};
    use pdgc_obs::NoopTracer;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn copy(dst: usize, src: usize) -> CopyRel {
        CopyRel {
            dst: n(dst),
            src: n(src),
            freq: 1,
            block: Block::ENTRY,
            index: 0,
        }
    }

    fn aggressive(g: &mut InterferenceGraph, copies: &[CopyRel]) {
        let mut costs = vec![0; g.num_nodes()];
        coalesce_copies(g, copies, &mut costs, |_, _, _| true);
    }

    /// A function with `m` loads off one base pointer: on the
    /// three-register figure7 target its int universe is nodes 0..3
    /// (precolored), the base pointer (node 3) and the loads (4..4+m).
    fn func_with(m: usize) -> Function {
        let mut b = FunctionBuilder::new("t", vec![], None);
        let base = b.iconst(0);
        let vals: Vec<_> = (0..m).map(|i| b.load(base, 128 * (i as i32 + 1))).collect();
        for v in vals {
            b.store(v, base, 0);
        }
        b.ret(None);
        b.finish()
    }

    #[test]
    fn aggressive_merges_chains() {
        let mut g = InterferenceGraph::new(4, 0);
        g.add_edge(n(0), n(3));
        aggressive(&mut g, &[copy(1, 0), copy(2, 1)]);
        assert_eq!(g.rep(n(0)), n(2));
        assert_eq!(g.rep(n(1)), n(2));
        assert!(g.interferes(n(2), n(3)));
    }

    #[test]
    fn aggressive_respects_interference() {
        let mut g = InterferenceGraph::new(2, 0);
        g.add_edge(n(0), n(1));
        aggressive(&mut g, &[copy(0, 1)]);
        assert!(!g.is_merged(n(0)) && !g.is_merged(n(1)));
    }

    #[test]
    fn aggressive_absorbs_into_precolored() {
        let mut g = InterferenceGraph::new(3, 2);
        aggressive(&mut g, &[copy(2, 0)]);
        assert_eq!(g.rep(n(2)), n(0));
    }

    #[test]
    fn conservative_sweep_admits_only_safe_merges() {
        // 2-3 and 3-4 are copy related; 3 interferes with 5, which
        // interferes with 2 and 4 too. With K=1 no merge is safe.
        let mut g = InterferenceGraph::new(6, 2);
        for (a, b) in [(3, 5), (2, 5), (4, 5)] {
            g.add_edge(n(a), n(b));
        }
        let copies = [copy(2, 3), copy(3, 4)];
        let mut costs = vec![0; 6];
        coalesce_copies(&mut g, &copies, &mut costs, |g, a, b| {
            conservative_ok(g, a, b, 1)
        });
        assert!((2..5).all(|i| !g.is_merged(n(i))));
        coalesce_copies(&mut g, &copies, &mut costs, |g, a, b| {
            conservative_ok(g, a, b, 3)
        });
        assert_eq!(g.rep(n(3)), n(2));
        assert_eq!(g.rep(n(4)), n(2));
    }

    #[test]
    fn briggs_criterion() {
        // a-b copy related; shared neighbor x with high degree.
        let mut g = InterferenceGraph::new(6, 0);
        // x (node 2) neighbors: a, b, 3, 4 → degree 4.
        for t in [0, 1, 3, 4] {
            g.add_edge(n(2), n(t));
        }
        // With k=2 the combined node sees x at degree 3 (shared) >= 2:
        // one significant neighbor < k=2? 1 < 2 → ok.
        assert!(conservative_ok(&g, n(0), n(1), 2));
        // With k=1, 1 significant neighbor is not < 1 → reject.
        assert!(!conservative_ok(&g, n(0), n(1), 1));
    }

    #[test]
    fn george_criterion() {
        let mut g = InterferenceGraph::new(5, 1);
        // b=2 has neighbors 3 (degree 1, low) and 4.
        g.add_edge(n(2), n(3));
        g.add_edge(n(2), n(4));
        g.add_edge(n(4), n(0)); // 4 interferes with a=0
        assert!(conservative_ok(&g, n(0), n(2), 2));
        assert!(conservative_ok(&g, n(2), n(0), 2), "symmetric in its ends");
        // Raising 3's degree makes it significant while still not
        // interfering with a=0, so the criterion must reject.
        g.add_edge(n(3), n(4));
        assert!(!conservative_ok(&g, n(0), n(2), 2));
    }

    #[test]
    fn george_criterion_rejects() {
        let mut g = InterferenceGraph::new(5, 1);
        g.add_edge(n(2), n(3));
        g.add_edge(n(3), n(4)); // 3: degree 2, significant for k=2
        assert!(!conservative_ok(&g, n(0), n(2), 2));
    }

    #[test]
    fn merge_folds_each_cost_once() {
        // Chained merges fold each member's cost into its survivor once:
        // 1 into 0 (30), 3 into 2 (70), then 0 into 2 (100).
        let mut g = InterferenceGraph::new(4, 0);
        let mut costs = vec![10, 20, 30, 40];
        merge_pair(&mut g, &mut costs, n(0), n(1));
        merge_pair(&mut g, &mut costs, n(2), n(3));
        assert_eq!((costs[0], costs[2]), (30, 70));
        merge_pair(&mut g, &mut costs, n(2), n(0));
        assert_eq!(costs[2], 100);
        assert_eq!(g.rep(n(1)), n(2));
    }

    #[test]
    fn merge_keeps_unspillable_poison() {
        let mut g = InterferenceGraph::new(3, 1);
        let mut costs = vec![0, 5, u64::MAX];
        merge_pair(&mut g, &mut costs, n(1), n(2));
        assert_eq!(costs[1], u64::MAX);
        // A precolored end survives whichever side it is on.
        merge_pair(&mut g, &mut costs, n(1), n(0));
        assert_eq!(g.rep(n(1)), n(0));
    }

    #[test]
    fn color_stack_gives_distinct_neighbors_distinct_regs() {
        let f = func_with(3);
        let target = TargetDesc::figure7();
        let pinned = vec![None; f.num_vregs()];
        let nodes = NodeMap::build(&f, &target, RegClass::Int, &pinned);
        let mut ifg = InterferenceGraph::new(nodes.num_nodes(), nodes.num_phys());
        for (a, b) in [(4, 5), (4, 6), (5, 6)] {
            ifg.add_edge(n(a), n(b));
        }
        let mut ctx = ClassCtx {
            round: 1,
            class: RegClass::Int,
            func: &f,
            spill_costs: vec![1; nodes.num_nodes()],
            no_spill: vec![false; nodes.num_nodes()],
            nodes,
            ifg,
            copies: Vec::new(),
            k: 3,
            scratch: Default::default(),
        };
        let out = color_stack(
            &mut ctx,
            &[n(4), n(5), n(6)],
            &target,
            false,
            &mut NoopTracer,
        );
        assert!(out.spilled.is_empty());
        let mut regs: Vec<_> = (4..7).map(|i| out.assignment[i].unwrap()).collect();
        regs.sort();
        regs.dedup();
        assert_eq!(regs.len(), 3);
    }

    #[test]
    fn expand_merged_orders_spills_by_representative_then_node() {
        let f = func_with(6);
        let target = TargetDesc::figure7();
        let pinned = vec![None; f.num_vregs()];
        let nodes = NodeMap::build(&f, &target, RegClass::Int, &pinned);
        // Node 3 is the base pointer, 4..10 the loads: 7 and 4 merge into
        // 5, 8 into 6, and 9 into 3.
        let mut g = InterferenceGraph::new(nodes.num_nodes(), nodes.num_phys());
        for (keep, gone) in [(5, 7), (5, 4), (6, 8), (3, 9)] {
            g.merge(n(keep), n(gone));
        }
        let mut assignment: Vec<_> = nodes.precolored().collect();
        assignment[3] = Some(PhysReg::int(2));
        let out = expand_merged(&g, &nodes, assignment, &[n(6), n(5)]);
        assert_eq!(out.spilled, vec![n(6), n(8), n(4), n(5), n(7)]);
        assert!((4..9).all(|i| out.assignment[i].is_none()));
        assert_eq!(out.assignment[9], Some(PhysReg::int(2)));
        assert_eq!(out.assignment[0], Some(PhysReg::int(0)));
    }
}
