//! Property-based tests (proptest) for the toolkit's core invariants.
//!
//! The headline property is the paper's §5.2 theorem: **any** topological
//! order of the Coloring Precedence Graph preserves the colorability
//! established by simplification — selection in any CPG order finds a
//! color for every node when simplification needed no optimistic spills.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pdgc::analysis::{Cfg, Spl};
use pdgc::core::cpg::{Cpg, CpgScratch};
use pdgc::core::ifg::{IfgScratch, InterferenceGraph};
use pdgc::core::node::NodeId;
use pdgc::core::simplify::{simplify, simplify_with_cpg_in, SimplifyMode, SimplifyScratch};
use pdgc::core::spill::{insert_spill_code, insert_spill_code_fwd};
use pdgc::prelude::*;
use pdgc::workloads::WorkloadProfile;

/// A random interference graph over `num_phys` precolored nodes (a
/// clique) and `n` live ranges, every other pair of nodes interfering with
/// the given probability.
fn random_ifg(n: usize, num_phys: usize, edge_prob: f64, seed: u64) -> InterferenceGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let total = num_phys + n;
    let mut g = InterferenceGraph::new_in(total, num_phys, &mut IfgScratch::default());
    for a in 0..total {
        for b in (a + 1).max(num_phys)..total {
            if rng.gen_bool(edge_prob) {
                g.add_edge(NodeId::new(a), NodeId::new(b));
            }
        }
    }
    g
}

/// Merges up to `tries` random non-interfering pairs that pass Briggs's
/// conservative test: the merged node keeps fewer than `k` neighbors of
/// degree `k` or more. The survivor may be precolored.
fn conservative_merges(g: &mut InterferenceGraph, k: usize, tries: usize, rng: &mut StdRng) {
    for _ in 0..tries {
        let a = g.rep(NodeId::new(rng.gen_range(0..g.num_nodes())));
        let b = g.rep(NodeId::new(rng.gen_range(g.num_phys()..g.num_nodes())));
        if a == b || g.is_precolored(b) || g.interferes(a, b) {
            continue;
        }
        let mut union = g.neighbors(a);
        union.extend(g.neighbors(b));
        union.sort_unstable();
        union.dedup();
        if union.iter().filter(|&&x| g.degree(x) >= k).count() < k {
            g.merge(a, b);
        }
    }
}

/// Colors the CPG in a random topological order with a first-fit rule;
/// returns false if any node finds no free color.
fn color_in_random_topo_order(
    ifg: &InterferenceGraph,
    cpg: &Cpg,
    k: usize,
    seed: u64,
) -> bool {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = ifg.num_nodes();
    let mut pred_remaining: Vec<usize> = (0..n).map(|i| cpg.pred_count(NodeId::new(i))).collect();
    let mut queue: Vec<NodeId> = cpg.initial_queue();
    let mut color: Vec<Option<usize>> = vec![None; n];
    let mut done = 0;
    let total = cpg.nodes().count();
    while !queue.is_empty() {
        let pick = rng.gen_range(0..queue.len());
        let node = queue.swap_remove(pick);
        let mut used = vec![false; k];
        for x in ifg.neighbors(node) {
            if let Some(c) = color[x.index()] {
                used[c] = true;
            }
        }
        match (0..k).find(|&c| !used[c]) {
            Some(c) => color[node.index()] = Some(c),
            None => return false,
        }
        done += 1;
        for &s in cpg.succs(node) {
            pred_remaining[s.index()] -= 1;
            if pred_remaining[s.index()] == 0 {
                queue.push(s);
            }
        }
    }
    done == total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// §5.2's guarantee: when simplification succeeds without optimistic
    /// removals, *every* topological order of the CPG colors successfully.
    #[test]
    fn any_cpg_topological_order_preserves_colorability(
        n in 2usize..40,
        edge_prob in 0.05f64..0.6,
        k in 2usize..8,
        graph_seed in any::<u64>(),
        order_seed in any::<u64>(),
    ) {
        let mut g = random_ifg(n, 0, edge_prob, graph_seed);
        let costs = vec![1u64; n];
        let sr = simplify(&mut g, k, &costs, SimplifyMode::Optimistic);
        g.restore_all();
        let cpg = Cpg::build(&g, &sr.stack, &sr.optimistic, k);
        prop_assert!(cpg.is_acyclic());
        // Every stack node participates in the CPG.
        for &s in &sr.stack {
            prop_assert!(cpg.contains(s));
        }
        if sr.optimistic.is_empty() {
            // Three independent random orders must all succeed.
            for i in 0..3 {
                prop_assert!(
                    color_in_random_topo_order(&g, &cpg, k, order_seed.wrapping_add(i)),
                    "a topological order failed to color (n={n}, k={k})"
                );
            }
        }
    }

    /// The CPG simplify builds as it removes is the one §5.2's replay of
    /// its stack builds: the same nodes, sentinel flags, predecessor
    /// counts and successor rows, in order. The graphs have precolored
    /// nodes, random spill costs and K, and some have conservative merges.
    /// The stack and optimistic removals are plain simplify's, and the
    /// working degrees step 4 starts from count live-range neighbors only.
    #[test]
    fn cpg_built_during_simplify_equals_the_replay_of_its_stack(
        n in 1usize..40,
        num_phys in 0usize..6,
        edge_prob in 0.05f64..0.6,
        k in 1usize..8,
        merges in prop_oneof![Just(0usize), 1usize..16],
        graph_seed in any::<u64>(),
    ) {
        let mut g = random_ifg(n, num_phys, edge_prob, graph_seed);
        let mut rng = StdRng::seed_from_u64(graph_seed ^ 0xc0);
        let costs: Vec<u64> = (0..g.num_nodes()).map(|_| rng.gen_range(1..1000)).collect();
        conservative_merges(&mut g, k, merges, &mut rng);
        let mut plain = g.clone();
        let sr = simplify(&mut plain, k, &costs, SimplifyMode::Optimistic);
        let (mut scratch, mut cpg_scratch) = (SimplifyScratch::new(), CpgScratch::new());
        let (fused, cpg) = simplify_with_cpg_in(&mut g, k, &costs, &mut scratch, &mut cpg_scratch);
        prop_assert_eq!(&fused.stack, &sr.stack);
        prop_assert_eq!(&fused.optimistic, &sr.optimistic);
        g.restore_all();
        let replay = Cpg::build(&g, &sr.stack, &sr.optimistic, k);
        prop_assert_eq!(cpg.k(), replay.k());
        prop_assert_eq!(cpg.nodes().collect::<Vec<_>>(), replay.nodes().collect::<Vec<_>>());
        for x in (0..g.num_nodes()).map(NodeId::new) {
            prop_assert_eq!(cpg.from_top(x), replay.from_top(x), "top -> {}", x);
            prop_assert_eq!(cpg.to_bottom(x), replay.to_bottom(x), "{} -> bottom", x);
            prop_assert_eq!(cpg.pred_count(x), replay.pred_count(x), "predecessors of {}", x);
            prop_assert_eq!(cpg.succs(x), replay.succs(x), "successors of {}", x);
        }
        // Step 4's working degree, read off the matrix row, is the number
        // of live-range neighbors: below K, or an optimistic removal, is
        // what points a node at bottom.
        for x in cpg.nodes() {
            let degree = g.neighbors_slice(x).iter().filter(|&&y| !g.is_precolored(y)).count();
            let bottom = degree < k || sr.optimistic.contains(&x);
            prop_assert_eq!(cpg.to_bottom(x), bottom, "{} -> bottom, degree {}", x, degree);
        }
    }

    /// The built CPG keeps edges its transitive reduction drops, and the
    /// two are interchangeable for select: the same reachability between
    /// every pair of nodes (hence the same ready frontier at every step),
    /// no reduction edge implied by a longer path, and §5.2's
    /// colorability guarantee on both.
    #[test]
    fn cpg_and_its_transitive_reduction_are_interchangeable(
        n in 2usize..32,
        edge_prob in 0.05f64..0.6,
        k in 1usize..6,
        graph_seed in any::<u64>(),
        order_seed in any::<u64>(),
    ) {
        let mut g = random_ifg(n, 0, edge_prob, graph_seed);
        let costs = vec![1u64; n];
        let sr = simplify(&mut g, k, &costs, SimplifyMode::Optimistic);
        g.restore_all();
        let cpg = Cpg::build(&g, &sr.stack, &sr.optimistic, k);
        let red = cpg.transitive_reduction();
        prop_assert!(red.is_acyclic());
        prop_assert_eq!(red.initial_queue(), cpg.initial_queue());
        for a in 0..n {
            let a = NodeId::new(a);
            prop_assert_eq!(red.contains(a), cpg.contains(a));
            prop_assert_eq!(red.from_top(a), cpg.from_top(a));
            prop_assert_eq!(red.to_bottom(a), cpg.to_bottom(a));
            for b in 0..n {
                let b = NodeId::new(b);
                prop_assert_eq!(
                    red.reachable(a, b),
                    cpg.reachable(a, b),
                    "reachability {:?} -> {:?} differs", a, b
                );
            }
            // A reduction edge a → v is implied by a longer path iff v is
            // reachable from another successor of a.
            for &v in red.succs(a) {
                prop_assert!(cpg.has_edge(a, v));
                for &w in red.succs(a) {
                    prop_assert!(
                        w == v || !red.reachable(w, v),
                        "reduction keeps {:?} -> {:?}, implied via {:?}", a, v, w
                    );
                }
            }
        }
        if sr.optimistic.is_empty() {
            prop_assert!(color_in_random_topo_order(&g, &cpg, k, order_seed));
            prop_assert!(color_in_random_topo_order(&g, &red, k, order_seed));
        }
    }

    /// The interference graph is symmetric and irreflexive under arbitrary
    /// edge insertions and merges.
    #[test]
    fn ifg_symmetric_irreflexive_after_merges(
        n in 2usize..30,
        edges in proptest::collection::vec((0usize..30, 0usize..30), 0..80),
        merges in proptest::collection::vec((0usize..30, 0usize..30), 0..8),
    ) {
        let mut g = InterferenceGraph::new_in(n, 0, &mut IfgScratch::default());
        for (a, b) in edges {
            let (a, b) = (a % n, b % n);
            if a != b {
                g.add_edge(NodeId::new(a), NodeId::new(b));
            }
        }
        for (a, b) in merges {
            let (a, b) = (NodeId::new(a % n), NodeId::new(b % n));
            if g.rep(a) != g.rep(b) && !g.interferes(a, b) {
                g.merge(a, b);
            }
        }
        for i in 0..n {
            let a = NodeId::new(i);
            // interferes(a, a) resolves through reps and must be false.
            prop_assert!(!g.interferes(a, a));
            for j in 0..n {
                let b = NodeId::new(j);
                prop_assert_eq!(g.interferes(a, b), g.interferes(b, a));
            }
            if !g.is_merged(a) && !g.is_removed(a) {
                // Degree equals the number of distinct live neighbors.
                prop_assert_eq!(g.degree(a), g.live_neighbors(a).len());
            }
        }
    }

    /// Degree accounting under random interleavings of `add_edge`,
    /// `merge`, `remove`, and `restore_all`:
    ///
    /// * every **live** node's degree equals its live-neighbor count;
    /// * every **removed** node's degree stays *frozen* at its
    ///   removal-time value until `restore_all` recomputes it.
    ///
    /// The frozen half is the sharp edge: the pre-fix `merge()` guarded
    /// its degree decrements on the merged node `b` (asserted unremoved
    /// four lines up — a dead check) instead of on the affected neighbor,
    /// so a shared neighbor that was already removed had its meaningless-
    /// but-frozen degree mutated. This test fails on that version.
    #[test]
    fn ifg_degree_accounting_under_random_interleavings(
        n in 2usize..20,
        ops in proptest::collection::vec((0usize..6, 0usize..20, 0usize..20), 1..60),
    ) {
        let mut g = InterferenceGraph::new_in(n, 0, &mut IfgScratch::default());
        // frozen[i] = the degree node i carried when it was removed.
        let mut frozen: Vec<Option<usize>> = vec![None; n];
        for (kind, x, y) in ops {
            let (a, b) = (NodeId::new(x % n), NodeId::new(y % n));
            match kind {
                // add_edge weighted 3x so graphs grow dense enough for
                // merges to hit the shared-neighbor path.
                0 | 1 | 2 => {
                    g.add_edge(a, b);
                }
                3 => {
                    let (ra, rb) = (g.rep(a), g.rep(b));
                    if ra != rb
                        && !g.interferes(ra, rb)
                        && !g.is_removed(ra)
                        && !g.is_removed(rb)
                    {
                        g.merge(ra, rb);
                    }
                }
                4 => {
                    let r = g.rep(a);
                    if !g.is_removed(r) {
                        g.remove(r, |_, _| {});
                        frozen[r.index()] = Some(g.degree(r));
                    }
                }
                _ => {
                    g.restore_all();
                    frozen.iter_mut().for_each(|f| *f = None);
                }
            }
            for i in 0..n {
                let node = NodeId::new(i);
                if g.is_merged(node) {
                    continue;
                }
                if g.is_removed(node) {
                    prop_assert_eq!(
                        Some(g.degree(node)),
                        frozen[i],
                        "removed node {}'s frozen degree mutated (op {:?})",
                        i,
                        (kind, x, y)
                    );
                } else {
                    prop_assert_eq!(
                        g.degree(node),
                        g.live_neighbors(node).len(),
                        "live node {}'s degree drifted (op {:?})",
                        i,
                        (kind, x, y)
                    );
                }
            }
        }
    }

    /// Allocation is semantics-preserving on randomly generated programs
    /// for every allocator (beyond the fixed-seed differential suite).
    #[test]
    fn random_programs_allocate_equivalently(
        seed in any::<u64>(),
        ops in 10usize..60,
        call_density in 0.0f64..0.5,
        pressure in 4usize..14,
        loop_depth in 0u32..3,
    ) {
        let prof = WorkloadProfile {
            name: "prop".into(),
            seed,
            num_funcs: 1,
            ops_per_func: ops,
            loop_depth,
            call_density,
            float_ratio: 0.3,
            paired_density: 0.3,
            byte_density: 0.15,
            pressure,
            diamond_density: 0.3,
            pair_stride: 8,
            pair_align: 1,
        };
        let w = generate(&prof);
        let func = &w.funcs[0];
        prop_assume!(func.verify().is_ok());
        let args = default_args(func);
        let reference = run_ir(func, &args, DEFAULT_FUEL).unwrap();
        let target = TargetDesc::ia64_like(PressureModel::High);
        for alloc in pdgc::all_allocators() {
            let out = alloc.allocate(func, &target, &mut AllocSession::default()).unwrap();
            let mach = run_mach(&out.mach, &target, &args, DEFAULT_FUEL).unwrap();
            prop_assert!(
                check_equivalent(&reference, &mach).is_ok(),
                "{} diverged on seed {seed}",
                alloc.name()
            );
        }
    }

    /// The textual printer and parser round-trip structurally on any
    /// generated program (φs, floats, byte loads, calls, loops included).
    #[test]
    fn printer_parser_roundtrip(seed in any::<u64>(), ops in 10usize..70) {
        let prof = WorkloadProfile {
            name: "rt".into(),
            seed,
            num_funcs: 1,
            ops_per_func: ops,
            loop_depth: 2,
            call_density: 0.25,
            float_ratio: 0.35,
            paired_density: 0.2,
            byte_density: 0.2,
            pressure: 9,
            diamond_density: 0.35,
            pair_stride: 8,
            pair_align: 1,
        };
        let w = generate(&prof);
        let func = &w.funcs[0];
        let text = func.to_string();
        let reparsed = pdgc::ir::parse_function(&text)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{text}")))?;
        // Textual round-trip: printing the reparse reproduces the text
        // exactly. (Structural equality can differ in callee-table
        // interning order, which is not observable.)
        prop_assert_eq!(reparsed.to_string(), text);
        // And the reparse behaves identically.
        let args = default_args(func);
        let a = run_ir(func, &args, DEFAULT_FUEL).unwrap();
        let b = run_ir(&reparsed, &args, DEFAULT_FUEL).unwrap();
        prop_assert!(check_equivalent(&a, &b).is_ok());
    }

    /// φ-lowering preserves semantics.
    #[test]
    fn phi_lowering_preserves_semantics(seed in any::<u64>(), ops in 10usize..50) {
        let prof = WorkloadProfile {
            name: "phi".into(),
            seed,
            num_funcs: 1,
            ops_per_func: ops,
            loop_depth: 1,
            call_density: 0.1,
            float_ratio: 0.2,
            paired_density: 0.1,
            byte_density: 0.0,
            pressure: 8,
            diamond_density: 0.6, // many φs
            pair_stride: 8,
            pair_align: 1,
        };
        let w = generate(&prof);
        let func = &w.funcs[0];
        let args = default_args(func);
        let before = run_ir(func, &args, DEFAULT_FUEL).unwrap();
        let mut lowered = func.clone();
        pdgc::ir::lower_phis(&mut lowered);
        prop_assert!(lowered.verify().is_ok());
        let after = run_ir(&lowered, &args, DEFAULT_FUEL).unwrap();
        prop_assert!(check_equivalent(&before, &after).is_ok());
    }

    /// Spill-code insertion preserves semantics for arbitrary spill
    /// choices (any subset of defined, unpinned registers), with and
    /// without reload forwarding.
    #[test]
    fn spill_insertion_preserves_semantics(
        seed in any::<u64>(),
        spill_mask in any::<u64>(),
    ) {
        let prof = WorkloadProfile {
            name: "spill".into(),
            seed,
            num_funcs: 1,
            ops_per_func: 30,
            loop_depth: 1,
            call_density: 0.15,
            float_ratio: 0.2,
            paired_density: 0.2,
            byte_density: 0.1,
            pressure: 8,
            diamond_density: 0.2,
            pair_stride: 8,
            pair_align: 1,
        };
        let w = generate(&prof);
        let mut func = w.funcs[0].clone();
        pdgc::ir::lower_phis(&mut func);
        let args = default_args(&func);
        let before = run_ir(&func, &args, DEFAULT_FUEL).unwrap();
        // Spill every defined vreg whose bit is set in the mask.
        let mut has_def = vec![false; func.num_vregs()];
        for b in func.block_ids() {
            for inst in &func.block(b).insts {
                if let Some(d) = inst.def() {
                    has_def[d.index()] = true;
                }
            }
        }
        let spilled: Vec<VReg> = (0..func.num_vregs())
            .filter(|&i| has_def[i] && (spill_mask >> (i % 64)) & 1 == 1)
            .map(VReg::new)
            .collect();
        let mut plain_func = func.clone();
        let mut plain_slots = 0;
        let plain = insert_spill_code(&mut plain_func, &spilled, &mut plain_slots);
        prop_assert!(plain_func.verify().is_ok());
        let after = run_ir(&plain_func, &args, DEFAULT_FUEL).unwrap();
        prop_assert!(check_equivalent(&before, &after).is_ok());

        // Forwarding along the SPL decomposition's linear runs: the same
        // semantics, stores and frame, with some reloads turned into reuses.
        let spl = Spl::compute(&Cfg::compute(&func));
        let mut fwd_func = func.clone();
        let mut fwd_slots = 0;
        let fwd = insert_spill_code_fwd(&mut fwd_func, &spilled, &mut fwd_slots, Some(&spl));
        prop_assert!(fwd_func.verify().is_ok());
        let after = run_ir(&fwd_func, &args, DEFAULT_FUEL).unwrap();
        prop_assert!(check_equivalent(&before, &after).is_ok());
        prop_assert_eq!(fwd.stores, plain.stores);
        prop_assert_eq!(fwd_slots, plain_slots);
        prop_assert_eq!(fwd.loads + fwd.forwarded, plain.loads);
        // A temp that served extra uses was widened and dropped from
        // `new_temps`; every temp left there has one reader.
        let mut readers = vec![0usize; fwd_func.num_vregs()];
        for b in fwd_func.block_ids() {
            for inst in &fwd_func.block(b).insts {
                let mut read: Vec<VReg> = Vec::new();
                inst.visit_uses(|u| {
                    if !read.contains(&u) {
                        read.push(u);
                    }
                });
                for u in read {
                    readers[u.index()] += 1;
                }
            }
        }
        for t in &fwd.new_temps {
            prop_assert_eq!(readers[t.index()], 1, "temp {} has other than one reader", t);
        }
    }
}

/// The interference graph's adjacency as it was kept before the flat row
/// table: one `Vec` per node, mutated by `add_edge`, `merge`, `remove` and
/// `restore_all` exactly as those were written then. The row-table graph
/// must match it entry for entry, in order, after every operation: simplify,
/// the CPG build and select break ties by that order.
#[derive(Clone, Debug)]
struct VecIfg {
    adj: Vec<Vec<NodeId>>,
    bits: Vec<Vec<bool>>,
    alias: Vec<NodeId>,
    merged: Vec<bool>,
    removed: Vec<bool>,
    degree: Vec<usize>,
}

impl VecIfg {
    /// The model of `g`, which nothing has merged or removed yet.
    fn of(g: &InterferenceGraph) -> Self {
        let n = g.num_nodes();
        let adj: Vec<Vec<NodeId>> = (0..n)
            .map(|i| g.neighbors_slice(NodeId::new(i)).to_vec())
            .collect();
        let mut bits = vec![vec![false; n]; n];
        for (a, row) in adj.iter().enumerate() {
            for b in row {
                bits[a][b.index()] = true;
            }
        }
        VecIfg {
            degree: adj.iter().map(Vec::len).collect(),
            adj,
            bits,
            alias: (0..n).map(NodeId::new).collect(),
            merged: vec![false; n],
            removed: vec![false; n],
        }
    }

    fn rep(&self, n: NodeId) -> NodeId {
        let mut cur = n;
        while self.merged[cur.index()] {
            cur = self.alias[cur.index()];
        }
        cur
    }

    fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        let (a, b) = (self.rep(a), self.rep(b));
        if a == b || self.bits[a.index()][b.index()] {
            return false;
        }
        self.bits[a.index()][b.index()] = true;
        self.bits[b.index()][a.index()] = true;
        self.adj[a.index()].push(b);
        self.adj[b.index()].push(a);
        if !self.removed[a.index()] && !self.removed[b.index()] {
            self.degree[a.index()] += 1;
            self.degree[b.index()] += 1;
        }
        true
    }

    /// Merges `b` into `a`; returns how many entries it appended to `a`'s
    /// list.
    fn merge(&mut self, a: NodeId, b: NodeId) -> usize {
        let (a, b) = (self.rep(a), self.rep(b));
        let b_adj = std::mem::take(&mut self.adj[b.index()]);
        let mut appended = 0;
        for &x in &b_adj {
            let pos = self.adj[x.index()].iter().position(|&y| y == b).unwrap();
            if self.bits[a.index()][x.index()] {
                self.adj[x.index()].remove(pos);
                if !self.removed[x.index()] {
                    self.degree[x.index()] -= 1;
                }
            } else {
                self.adj[x.index()][pos] = a;
                self.bits[a.index()][x.index()] = true;
                self.bits[x.index()][a.index()] = true;
                self.adj[a.index()].push(x);
                appended += 1;
                if !self.removed[x.index()] {
                    self.degree[a.index()] += 1;
                }
            }
        }
        self.merged[b.index()] = true;
        self.alias[b.index()] = a;
        appended
    }

    /// Removes `n`; returns each live neighbor with its lowered degree,
    /// in row order.
    fn remove(&mut self, n: NodeId) -> Vec<(NodeId, usize)> {
        let n = self.rep(n);
        self.removed[n.index()] = true;
        let mut lowered = Vec::new();
        for &x in &self.adj[n.index()] {
            if !self.removed[x.index()] {
                self.degree[x.index()] -= 1;
                lowered.push((x, self.degree[x.index()]));
            }
        }
        lowered
    }

    fn restore_all(&mut self) {
        self.removed.iter_mut().for_each(|r| *r = false);
        for i in 0..self.adj.len() {
            if !self.merged[i] {
                self.degree[i] = self.adj[i].len();
            }
        }
    }
}

/// Every node's representative, neighbor order, degree and removal mark
/// agree between the graph and its model.
fn same_as_model(g: &InterferenceGraph, m: &VecIfg, step: usize) -> TestCaseResult {
    for i in 0..g.num_nodes() {
        let x = NodeId::new(i);
        let r = m.rep(x);
        prop_assert_eq!(g.rep(x), r, "rep of {} after step {}", x, step);
        prop_assert_eq!(
            g.neighbors_slice(x),
            &m.adj[r.index()][..],
            "neighbors of {} after step {}",
            x,
            step
        );
        prop_assert_eq!(
            g.degree(x),
            m.degree[r.index()],
            "degree of {} after step {}",
            x,
            step
        );
        prop_assert_eq!(
            g.is_removed(x),
            m.removed[x.index()],
            "{} removed after step {}",
            x,
            step
        );
    }
    Ok(())
}

/// Applies one `(kind, x, y)` operation to the graph and its model —
/// `add_edge`, `merge`, `remove` or `restore_all`, skipping a merge or
/// removal the graph would refuse — and checks they still agree, a
/// removal's visitor included: it sees each of the model's live neighbors
/// once, in row order, with its degree after the removal. Returns
/// the entries a merge appended to the surviving node's row.
fn apply_to_both(
    g: &mut InterferenceGraph,
    m: &mut VecIfg,
    (kind, x, y): (usize, usize, usize),
    step: usize,
) -> Result<usize, TestCaseError> {
    let n = g.num_nodes();
    let (a, b) = (NodeId::new(x % n), NodeId::new(y % n));
    let mut appended = 0;
    match kind {
        0..=2 => prop_assert_eq!(g.add_edge(a, b), m.add_edge(a, b)),
        3..=5 => {
            let (ra, rb) = (g.rep(a), g.rep(b));
            if ra != rb
                && !g.interferes(ra, rb)
                && !g.is_precolored(rb)
                && !g.is_removed(ra)
                && !g.is_removed(rb)
            {
                g.merge(ra, rb);
                appended = m.merge(ra, rb);
            }
        }
        6 => {
            let r = g.rep(a);
            if !g.is_precolored(r) && !g.is_removed(r) {
                let mut visited = Vec::new();
                g.remove(r, |x, degree| visited.push((x, degree)));
                let lowered = m.remove(r);
                prop_assert_eq!(visited, lowered, "{}'s visitor at step {}", r, step);
            }
        }
        _ => {
            g.restore_all();
            m.restore_all();
        }
    }
    same_as_model(g, m, step)?;
    Ok(appended)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hand-built graphs: every row starts empty. The fixed prefix gives
    /// the last node six neighbors while the others' rows grow between its
    /// pushes, so its row outgrows its slot and moves.
    #[test]
    fn row_table_ifg_matches_the_vec_model_on_hand_built_graphs(
        n in 10usize..24,
        num_phys in 0usize..4,
        ops in proptest::collection::vec((0usize..8, 0usize..24, 0usize..24), 1..120),
    ) {
        let mut g = InterferenceGraph::new_in(n, num_phys, &mut IfgScratch::default());
        let mut m = VecIfg::of(&g);
        same_as_model(&g, &m, 0)?;
        let last = n - 1;
        for b in num_phys..num_phys + 6 {
            apply_to_both(&mut g, &mut m, (0, last, b), b)?;
        }
        prop_assert_eq!(g.neighbors_slice(NodeId::new(last)).len(), 6);
        for (step, op) in ops.into_iter().enumerate() {
            apply_to_both(&mut g, &mut m, op, step + 7)?;
        }
    }

    /// Graphs `build_ifg` returns, then mutated as the coalescers do.
    /// The build lays every row out in a slot exactly its size, so the
    /// first merge — chosen to append to the surviving row — outgrows it.
    #[test]
    fn row_table_ifg_matches_the_vec_model_on_built_graphs(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0usize..8, 0usize..200, 0usize..200), 1..120),
    ) {
        let prof = WorkloadProfile {
            name: "rows".into(),
            seed,
            num_funcs: 1,
            ops_per_func: 40,
            loop_depth: 1,
            call_density: 0.2,
            float_ratio: 0.2,
            paired_density: 0.2,
            byte_density: 0.1,
            pressure: 8,
            diamond_density: 0.3,
            pair_stride: 8,
            pair_align: 1,
        };
        let func = generate(&prof).funcs.swap_remove(0);
        let target = TargetDesc::ia64_like(PressureModel::High);
        let lowered = pdgc::core::lower::lower_abi(&func, &target).unwrap();
        let analyses = pdgc::core::pipeline::analyze(&lowered.func);
        let nodes = pdgc::core::node::NodeMap::build(
            &lowered.func,
            &target,
            RegClass::Int,
            &lowered.pinned,
        );
        let mut g = pdgc::core::build::build_ifg(&lowered.func, &analyses.liveness, &nodes);
        let mut m = VecIfg::of(&g);
        same_as_model(&g, &m, 0)?;
        let n = g.num_nodes();
        let splice = nodes.live_range_nodes().flat_map(|a| {
            nodes.live_range_nodes().map(move |b| (a, b))
        }).find(|&(a, b)| {
            a != b
                && !g.interferes(a, b)
                && g.neighbors_slice(b).iter().any(|&x| !g.interferes(a, x) && x != a)
        });
        prop_assume!(splice.is_some());
        let (a, b) = splice.unwrap();
        let first = (3, a.index(), b.index());
        prop_assert!(apply_to_both(&mut g, &mut m, first, 1)? > 0);
        for (step, (kind, x, y)) in ops.into_iter().enumerate() {
            apply_to_both(&mut g, &mut m, (kind, x % n, y % n), step + 2)?;
        }
    }
}
