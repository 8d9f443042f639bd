//! The Coloring Precedence Graph (CPG) — §5.2 of the paper.
//!
//! Simplification produces a *total* order of register selection. That
//! order is sufficient for colorability but needlessly restrictive: many
//! nodes could be selected earlier or later without losing the guarantee.
//! The CPG relaxes the total order into a *partial* order — a DAG over live
//! ranges, with `top` and `bottom` sentinels — such that **any**
//! topological order preserves the colorability obtained by simplification.
//! The preference-directed select phase ([`crate::select`]) then walks the
//! DAG frontier, free to pick whichever ready node has the most at stake.
//!
//! Construction follows the paper's nine steps: replay the simplification
//! stack against a working interference graph (physical-register nodes
//! removed), detect which removals *enable* which ("removing one enables
//! the other's removal"), and record those enabling constraints as edges.
//! The built DAG keeps every enabling edge, including the ones a longer
//! path already implies: it has the same reachability as the transitively
//! reduced DAG the paper draws, hence the same ready frontier at every
//! select step, and dropping those edges would cost a reachability sweep
//! per removal. [`Cpg::transitive_reduction`] yields the reduced DAG for
//! display (`--dump-graphs` and the Figure 7 walkthrough).

use crate::ifg::InterferenceGraph;
use crate::node::NodeId;
use pdgc_arena::{RowTable, VecPool};

/// Reusable storage for [`Cpg::build_in`]: the DAG's own vectors and
/// successor table plus the construction temporaries (working-graph flags
/// and degrees). One scratch serves any number of sequential builds;
/// recycle each [`Cpg`] with [`Cpg::recycle`] when done so the next build
/// is allocation-free.
#[derive(Debug, Default)]
pub struct CpgScratch {
    flags: VecPool<bool>,
    succs: RowTable<NodeId>,
    counts: VecPool<usize>,
}

impl CpgScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The Coloring Precedence Graph over one class's live-range nodes.
///
/// An edge `u → v` means `u` must be selected (colored) before `v`.
/// `from_top(n)` marks edges from the `top` sentinel; `to_bottom(n)` marks
/// edges to the `bottom` sentinel. Select reads only successor lists and
/// predecessor counts, so predecessors are stored as a count. The
/// successor lists are the rows of one [`RowTable`], each in the order the
/// build's replay produced its edges.
#[derive(Clone, Debug)]
pub struct Cpg {
    k: usize,
    present: Vec<bool>,
    succs: RowTable<NodeId>,
    pred_count: Vec<usize>,
    from_top: Vec<bool>,
    to_bottom: Vec<bool>,
}

impl Cpg {
    /// Builds the CPG from the (fully restored) interference graph and a
    /// simplification result.
    ///
    /// * `stack` — nodes in removal order (the reverse of the coloring
    ///   order), as produced by [`crate::simplify::simplify`];
    /// * `optimistic` — the potential-spill subset of `stack` (step 4
    ///   creates them eagerly but unready);
    /// * `k` — the number of colors.
    ///
    /// Precolored and merged nodes never appear in the CPG; the working
    /// graph counts only live-range neighbors (the paper's step 2 removes
    /// physical-register nodes).
    pub fn build(
        ifg: &InterferenceGraph,
        stack: &[NodeId],
        optimistic: &[NodeId],
        k: usize,
    ) -> Cpg {
        Self::build_in(ifg, stack, optimistic, k, &mut CpgScratch::default())
    }

    /// Like [`Cpg::build`], drawing the DAG's storage and every
    /// construction temporary from pooled scratch. Return the DAG with
    /// [`Cpg::recycle`] when done.
    pub fn build_in(
        ifg: &InterferenceGraph,
        stack: &[NodeId],
        optimistic: &[NodeId],
        k: usize,
        scratch: &mut CpgScratch,
    ) -> Cpg {
        let n = ifg.num_nodes();
        let mut cpg = Cpg {
            k,
            present: scratch.flags.take_filled(n, false),
            succs: std::mem::take(&mut scratch.succs),
            pred_count: scratch.counts.take_filled(n, 0),
            from_top: scratch.flags.take_filled(n, false),
            to_bottom: scratch.flags.take_filled(n, false),
        };

        let is_lr = |x: NodeId| !ifg.is_precolored(x) && !ifg.is_merged(x);
        // Working interference graph: live-range nodes of the stack.
        let mut removed = scratch.flags.take_filled(n, false);
        let mut degree = scratch.counts.take_filled(n, 0);
        for &x in stack {
            degree[x.index()] = ifg
                .neighbors_slice(x)
                .iter()
                .filter(|&&y| is_lr(y))
                .count();
        }

        let mut ready = scratch.flags.take_filled(n, false);

        // Step 4: initial low-degree nodes, then spilled (optimistic) nodes.
        for &x in stack {
            if degree[x.index()] < k {
                cpg.present[x.index()] = true;
                cpg.to_bottom[x.index()] = true;
                ready[x.index()] = true;
            }
        }
        for &x in optimistic {
            if !cpg.present[x.index()] {
                cpg.present[x.index()] = true;
                cpg.to_bottom[x.index()] = true;
                // not ready
            }
        }

        // Steps 5–9: replay removals. Every edge points *into* the node
        // being popped, from a working-graph neighbor that is not yet
        // ready: its removal was enabled by `popped`'s. So a node ready from
        // the start has no successors, and another's are among the
        // working-graph neighbors it has now: its row has room for its
        // degree and fills in place, in replay order.
        let room = (0..n).map(|i| if ready[i] { 0 } else { degree[i] });
        cpg.succs.reset_with_room(room, NodeId::new(0));
        for &popped in stack {
            removed[popped.index()] = true;
            cpg.present[popped.index()] = true;
            for &x in ifg.neighbors_slice(popped) {
                if !is_lr(x) || removed[x.index()] {
                    continue;
                }
                cpg.present[x.index()] = true;
                if !ready[x.index()] {
                    cpg.succs.push(x.index(), popped);
                    cpg.pred_count[popped.index()] += 1;
                }
                // Step 8: removal may make the neighbor low-degree.
                degree[x.index()] -= 1;
                if degree[x.index()] < k {
                    ready[x.index()] = true;
                }
            }
            cpg.from_top[popped.index()] = cpg.pred_count[popped.index()] == 0;
        }
        scratch.flags.put(removed);
        scratch.flags.put(ready);
        scratch.counts.put(degree);
        cpg
    }

    /// The transitive reduction of this DAG: the same nodes, sentinels and
    /// reachability, minus every edge `u → v` that a longer path
    /// `u → w →* v` already implies. This is the CPG as §5.2 draws it
    /// (Figure 7(e)); select does not need it, so only the graph dumps and
    /// the Figure 7 walkthrough compute it. Unpooled, O(nodes × edges).
    pub fn transitive_reduction(&self) -> Cpg {
        let n = self.succs.num_rows();
        let mut red = self.clone();
        // `longer[x]`: x is reachable from the current `u` by a path of at
        // least two edges.
        let mut longer = vec![false; n];
        let mut stack = Vec::new();
        red.succs.reset(n);
        for u in 0..n {
            longer.fill(false);
            for &w in self.succs.row(u) {
                stack.extend_from_slice(self.succs.row(w.index()));
            }
            while let Some(x) = stack.pop() {
                if !longer[x.index()] {
                    longer[x.index()] = true;
                    stack.extend_from_slice(self.succs.row(x.index()));
                }
            }
            let kept = self.succs.row(u).iter().filter(|v| !longer[v.index()]);
            red.succs.fill_row(u, kept.copied());
        }
        red.pred_count.fill(0);
        for u in 0..n {
            for &v in red.succs.row(u) {
                red.pred_count[v.index()] += 1;
            }
        }
        red
    }

    /// Returns the DAG's storage to `scratch` for the next build.
    pub fn recycle(self, scratch: &mut CpgScratch) {
        scratch.flags.put(self.present);
        scratch.flags.put(self.from_top);
        scratch.flags.put(self.to_bottom);
        scratch.succs = self.succs;
        scratch.counts.put(self.pred_count);
    }

    /// Whether `to` is reachable from `from` along CPG edges (reflexive).
    pub fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.succs.num_rows()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        while let Some(x) = stack.pop() {
            for &y in self.succs.row(x.index()) {
                if y == to {
                    return true;
                }
                if !seen[y.index()] {
                    seen[y.index()] = true;
                    stack.push(y);
                }
            }
        }
        false
    }

    /// The number of colors the CPG was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether `n` participates in the CPG.
    pub fn contains(&self, n: NodeId) -> bool {
        self.present[n.index()]
    }

    /// All CPG nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.present
            .iter()
            .enumerate()
            .filter(|(_, &p)| p)
            .map(|(i, _)| NodeId::new(i))
    }

    /// Successors of `n` (excluding `bottom`).
    pub fn succs(&self, n: NodeId) -> &[NodeId] {
        self.succs.row(n.index())
    }

    /// The number of predecessors of `n` (excluding `top`).
    pub fn pred_count(&self, n: NodeId) -> usize {
        self.pred_count[n.index()]
    }

    /// The number of edges between live-range nodes (sentinel edges
    /// excluded).
    pub fn num_edges(&self) -> usize {
        self.pred_count.iter().sum()
    }

    /// Whether `top → n` exists.
    pub fn from_top(&self, n: NodeId) -> bool {
        self.from_top[n.index()]
    }

    /// Whether `n → bottom` exists.
    pub fn to_bottom(&self, n: NodeId) -> bool {
        self.to_bottom[n.index()]
    }

    /// Whether the explicit edge `u → v` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.succs(u).contains(&v)
    }

    /// The initial ready frontier: the successors of `top`.
    pub fn initial_queue(&self) -> Vec<NodeId> {
        self.nodes().filter(|&n| self.pred_count(n) == 0).collect()
    }

    /// Checks acyclicity (used by property tests).
    pub fn is_acyclic(&self) -> bool {
        let n = self.succs.num_rows();
        let mut indeg = vec![0usize; n];
        for u in self.nodes() {
            for &v in self.succs(u) {
                indeg[v.index()] += 1;
            }
        }
        let mut queue: Vec<NodeId> = self.nodes().filter(|&x| indeg[x.index()] == 0).collect();
        let mut seen = 0;
        while let Some(u) = queue.pop() {
            seen += 1;
            for &v in self.succs(u) {
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    queue.push(v);
                }
            }
        }
        seen == self.nodes().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// The paper's Figure 7 interference graph over v0..v4 (nodes 0..4),
    /// no precolored nodes (the WIG drops them anyway).
    fn figure7_ifg() -> InterferenceGraph {
        let mut g = InterferenceGraph::new(5, 0);
        g.add_edge(n(0), n(1)); // v0 - v1
        g.add_edge(n(0), n(2)); // v0 - v2
        g.add_edge(n(1), n(2)); // v1 - v2
        g.add_edge(n(1), n(3)); // v1 - v3
        g.add_edge(n(2), n(3)); // v2 - v3
        g.add_edge(n(3), n(4)); // v3 - v4
        g
    }

    /// Figure 7(d)/(e): the paper's stack (removal order v0, v4, v1, v2,
    /// v3) yields exactly the CPG of Figure 7(e) for K = 3.
    #[test]
    fn figure7_cpg_k3() {
        let g = figure7_ifg();
        let stack = vec![n(0), n(4), n(1), n(2), n(3)];
        let cpg = Cpg::build(&g, &stack, &[], 3);

        // v0, v4 are the initial ready nodes pointing at bottom.
        assert!(cpg.to_bottom(n(0)));
        assert!(cpg.to_bottom(n(4)));
        assert!(!cpg.to_bottom(n(1)));
        // Edges of Figure 7(e).
        assert!(cpg.has_edge(n(1), n(0)));
        assert!(cpg.has_edge(n(2), n(0)));
        assert!(cpg.has_edge(n(3), n(4)));
        // Top feeds v1, v2, v3.
        assert!(cpg.from_top(n(1)));
        assert!(cpg.from_top(n(2)));
        assert!(cpg.from_top(n(3)));
        assert!(!cpg.from_top(n(0)));
        assert!(!cpg.from_top(n(4)));
        // And nothing else.
        let total_edges: usize = cpg.nodes().map(|x| cpg.succs(x).len()).sum();
        assert_eq!(total_edges, 3);
        assert_eq!(cpg.initial_queue(), vec![n(1), n(2), n(3)]);
        assert!(cpg.is_acyclic());
    }

    /// Figure 7(f): with K ≥ 4 every node is initially low-degree, so the
    /// order collapses — top feeds everything, everything points at bottom.
    #[test]
    fn figure7_cpg_k4_fully_parallel() {
        let g = figure7_ifg();
        let stack = vec![n(0), n(4), n(1), n(2), n(3)];
        let cpg = Cpg::build(&g, &stack, &[], 4);
        for i in 0..5 {
            assert!(cpg.from_top(n(i)), "v{i} should hang off top");
            assert!(cpg.to_bottom(n(i)), "v{i} should point at bottom");
            assert!(cpg.succs(n(i)).is_empty());
        }
        assert_eq!(cpg.initial_queue().len(), 5);
    }

    /// A different (also valid) simplification order yields a different
    /// but still colorability-preserving partial order.
    #[test]
    fn alternative_stack_still_acyclic_and_covering() {
        let g = figure7_ifg();
        let stack = vec![n(0), n(1), n(2), n(3), n(4)];
        let cpg = Cpg::build(&g, &stack, &[], 3);
        assert!(cpg.is_acyclic());
        assert_eq!(cpg.nodes().count(), 5);
        // v0 was removed while v1, v2 were significant: both precede it.
        assert!(cpg.has_edge(n(1), n(0)));
        assert!(cpg.has_edge(n(2), n(0)));
    }

    /// Optimistically spilled nodes join the CPG unready: they acquire
    /// predecessors like everyone else but never gate others from the
    /// start.
    #[test]
    fn optimistic_node_enters_unready() {
        // K4 complete graph with K=3: one node spills optimistically.
        let mut g = InterferenceGraph::new(4, 0);
        for a in 0..4 {
            for b in (a + 1)..4 {
                g.add_edge(n(a), n(b));
            }
        }
        // Stack as Briggs would produce: 0 removed blocked (optimistic),
        // then 1, 2, 3.
        let stack = vec![n(0), n(1), n(2), n(3)];
        let cpg = Cpg::build(&g, &stack, &[n(0)], 3);
        assert!(cpg.to_bottom(n(0)));
        assert!(cpg.is_acyclic());
        // 0 is unready at its creation, so when it is popped its
        // (non-ready) neighbors point at it... all of 1,2,3 become ready
        // after 0's removal (degree 2 < 3), so they are pointed from top.
        assert!(cpg.from_top(n(1)));
        assert!(cpg.from_top(n(2)));
        assert!(cpg.from_top(n(3)));
        // 0 has predecessors 1, 2, 3 — wait: edges point from non-ready
        // neighbors *to the popped node*; when 0 popped, neighbors 1, 2, 3
        // are non-ready (degree 3), so 1→0, 2→0, 3→0.
        assert_eq!(cpg.pred_count(n(0)), 3);
        assert_eq!(cpg.initial_queue(), vec![n(1), n(2), n(3)]);
    }

    #[test]
    fn transitive_reduction_drops_redundant_edge() {
        // Path graph 0-1, 1-2, 0-2 (triangle) with K=1: removal order
        // 0, 1, 2 forces chains.
        let mut g = InterferenceGraph::new(3, 0);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(0), n(2));
        let stack = vec![n(0), n(1), n(2)];
        let cpg = Cpg::build(&g, &stack, &[n(0), n(1), n(2)], 1);
        // With K=1 nothing is ever ready: popping 0 adds 1→0 and 2→0;
        // popping 1 adds 2→1. The built CPG keeps the implied 2→0.
        assert!(cpg.has_edge(n(2), n(0)));
        assert_eq!(cpg.num_edges(), 3);
        // Its reduction drops it (2→1→0 implies it) and keeps the path.
        let red = cpg.transitive_reduction();
        assert!(red.has_edge(n(1), n(0)));
        assert!(red.has_edge(n(2), n(1)));
        assert!(!red.has_edge(n(2), n(0)));
        assert!(red.reachable(n(2), n(0)));
        assert_eq!(red.pred_count(n(0)), 1);
        assert_eq!(red.initial_queue(), cpg.initial_queue());
        assert!(red.is_acyclic());
    }
}
