//! Park–Moon optimistic register coalescing — Figure 2(b); the paper's
//! strongest coalescing baseline ("optimistic" in Figures 9–11).
//!
//! Coalescing is performed *aggressively* up front to exploit its positive
//! effect on colorability; if a coalesced node later fails to get a color,
//! the *undo coalesce* phase splits it back into its primitive live ranges
//! and colors as many of them as possible (deferring stubborn ones, then
//! spilling).

use super::coalesce::{coalesce_aggressively, simplify_timed};
use crate::node::NodeId;
use crate::pipeline::{Analyses, ClassCtx, ClassStrategy, RoundOutcome};
use crate::select::{taken, RegFile};
use crate::simplify::SimplifyMode;
use crate::RegisterAllocator;
use pdgc_obs::{Phase, PhaseTimer, Tracer};
use pdgc_target::{PhysReg, TargetDesc};

/// The optimistic-coalescing allocator.
#[derive(Clone, Copy, Debug, Default)]
pub struct OptimisticAllocator;

impl ClassStrategy for OptimisticAllocator {
    fn allocate_class(
        &self,
        ctx: &mut ClassCtx<'_>,
        _analyses: &Analyses,
        target: &TargetDesc,
        tracer: &mut dyn Tracer,
    ) -> RoundOutcome {
        // Keep the pre-coalescing graph: undoing needs primitive
        // interference.
        let pristine = ctx.ifg.clone();
        let costs = coalesce_aggressively(ctx, tracer);
        let sr = simplify_timed(ctx, &costs, SimplifyMode::Optimistic, tracer);
        ctx.ifg.restore_all();

        let timer = PhaseTimer::start(Phase::Select, ctx.round as u32, Some(ctx.class));
        let nn = ctx.nodes.num_nodes();
        let regs = RegFile::new(target, ctx.class);
        let mut assignment: Vec<Option<PhysReg>> = ctx.nodes.precolored().collect();
        let mut spilled: Vec<NodeId> = Vec::new();
        let mut split: Vec<bool> = vec![false; nn]; // primitives colored separately

        for &n in sr.stack.iter().rev() {
            // Forbidden: colors of the merged node's neighbors.
            let used = taken(ctx.ifg.neighbors_slice(n), |x| assignment[x.index()]);
            if let Some(reg) = regs.pick(regs.free(used), true) {
                assignment[n.index()] = Some(reg);
                continue;
            }
            // Undo coalescing: split into primitive nodes.
            let primitives: Vec<NodeId> = (0..nn)
                .map(NodeId::new)
                .filter(|&p| ctx.ifg.rep(p) == n && !ctx.nodes.is_precolored(p))
                .collect();
            if primitives.len() <= 1 {
                spilled.extend(primitives);
                continue;
            }
            // Color primitives individually against the pristine graph,
            // costliest first; a failed primitive gets one deferred retry,
            // then spills.
            let mut order: Vec<NodeId> = primitives.clone();
            order.sort_by_key(|p| {
                std::cmp::Reverse(ctx.spill_costs.get(p.index()).copied().unwrap_or(0))
            });
            let mut deferred: Vec<NodeId> = Vec::new();
            let mut group_colors: Vec<PhysReg> = Vec::new();
            let try_color = |p: NodeId,
                                 assignment: &mut Vec<Option<PhysReg>>,
                                 group_colors: &mut Vec<PhysReg>|
             -> bool {
                // A neighbor's color: its own if split, else its
                // representative's.
                let used = taken(pristine.neighbors_slice(p), |x| {
                    assignment[x.index()].or_else(|| assignment[ctx.ifg.rep(x).index()])
                });
                // Prefer a color the group already uses (fewest distinct
                // colors), then non-volatile-first.
                let choice = group_colors
                    .iter()
                    .copied()
                    .find(|r| used >> r.index() & 1 == 0)
                    .or_else(|| regs.pick(regs.free(used), true));
                match choice {
                    Some(r) => {
                        assignment[p.index()] = Some(r);
                        if !group_colors.contains(&r) {
                            group_colors.push(r);
                        }
                        true
                    }
                    None => false,
                }
            };
            for p in order {
                if !try_color(p, &mut assignment, &mut group_colors) {
                    deferred.push(p);
                }
            }
            for p in deferred {
                if !try_color(p, &mut assignment, &mut group_colors) {
                    spilled.push(p);
                }
            }
            for p in &primitives {
                split[p.index()] = true;
            }
        }

        // Non-split merged members inherit the representative's register.
        for i in 0..nn {
            let p = NodeId::new(i);
            if ctx.ifg.is_merged(p) && !split[i] && assignment[i].is_none() {
                assignment[i] = assignment[ctx.ifg.rep(p).index()];
            }
        }
        timer.stop(&mut ctx.scratch.select.metrics, tracer);
        sr.recycle(&mut ctx.scratch.simplify);
        RoundOutcome {
            assignment,
            spilled,
        }
    }
}

impl RegisterAllocator for OptimisticAllocator {
    fn name(&self) -> &'static str {
        "optimistic-coalescing"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AllocSession;
    use pdgc_ir::{BinOp, FunctionBuilder, RegClass};
    use pdgc_target::PressureModel;

    #[test]
    fn coalesces_like_aggressive_in_easy_cases() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let a = b.copy(p);
        let c = b.copy(a);
        b.ret(Some(c));
        let f = b.finish();
        let target = TargetDesc::ia64_like(PressureModel::High);
        let out = OptimisticAllocator
            .allocate(&f, &target, &mut AllocSession::default())
            .unwrap();
        assert_eq!(out.stats.copies_remaining, 0);
        assert_eq!(out.stats.spill_instructions, 0);
    }

    #[test]
    fn undo_splits_instead_of_spilling_when_possible() {
        // Copy-related values that, once coalesced, conflict under
        // pressure: optimism + undo must keep spills low and the code
        // valid.
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let vals: Vec<_> = (0..5).map(|i| b.load(p, 16 + 32 * i)).collect();
        let copies: Vec<_> = vals.iter().map(|&v| b.copy(v)).collect();
        let mut acc = copies[0];
        for &v in &copies[1..] {
            acc = b.bin(BinOp::Add, acc, v);
        }
        let mut acc2 = vals[0];
        for &v in &vals[1..] {
            acc2 = b.bin(BinOp::Add, acc2, v);
        }
        let r = b.bin(BinOp::Add, acc, acc2);
        b.ret(Some(r));
        let f = b.finish();
        let target = TargetDesc::toy(4);
        let out = OptimisticAllocator
            .allocate(&f, &target, &mut AllocSession::default())
            .unwrap();
        assert!(out.lowered.verify().is_ok());
    }
}
