//! Graph simplification (the *simplify* phase of Chaitin-style coloring).
//!
//! Repeatedly removes a low-degree node (fewer than K live neighbors) and
//! records the removal order. When only significant-degree nodes remain, a
//! spill candidate is chosen by the classic `spill_cost / degree` metric:
//!
//! * in [`SimplifyMode::Chaitin`] the candidate is marked for spilling and
//!   excluded from the stack — the caller must insert spill code and retry;
//! * in [`SimplifyMode::Optimistic`] (Briggs) the candidate is removed
//!   *optimistically* and pushed like any other node, deferring the spill
//!   decision to the select phase.
//!
//! The low-degree scan is worklist-driven: a min-heap of candidate node
//! ids is seeded with every initially low-degree node, and each removal
//! pushes exactly the neighbors whose degree crosses below K. Because no
//! edges are added during simplification, degrees only fall, so a node
//! enters the heap at most once and the heap minimum is always the
//! lowest-id low-degree active node — the same node the previous
//! full-rescan implementation picked, preserving removal order (and
//! therefore the pinned decision traces) bit for bit.

use crate::ifg::InterferenceGraph;
use crate::node::NodeId;
use pdgc_arena::{Taken, VecPool};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Resettable scratch for [`simplify_in`]: the worklist heap plus pooled
/// result vectors.
#[derive(Debug, Default)]
pub struct SimplifyScratch {
    heap: BinaryHeap<Reverse<usize>>,
    nodes: VecPool<NodeId>,
}

impl SimplifyScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Which spill policy simplification follows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimplifyMode {
    /// Chaitin: blocked graphs yield definite spill decisions.
    Chaitin,
    /// Briggs: blocked graphs yield optimistic (potential) spills.
    Optimistic,
}

/// The outcome of simplification.
#[derive(Clone, Debug)]
pub struct SimplifyResult {
    /// Nodes in removal order (index 0 removed first). Chaitin select
    /// colors in *reverse* of this order.
    pub stack: Vec<NodeId>,
    /// The subset of `stack` removed optimistically (potential spills).
    pub optimistic: Vec<NodeId>,
    /// Chaitin mode only: nodes decided to spill (not on the stack).
    pub chaitin_spills: Vec<NodeId>,
}

impl SimplifyResult {
    /// Whether a Chaitin-mode run decided any spills.
    pub fn must_spill(&self) -> bool {
        !self.chaitin_spills.is_empty()
    }

    /// Returns this result's vectors to `scratch` for reuse.
    pub fn recycle(self, scratch: &mut SimplifyScratch) {
        scratch.nodes.put(self.stack);
        scratch.nodes.put(self.optimistic);
        scratch.nodes.put(self.chaitin_spills);
    }
}

/// Runs simplification on (a mutable view of) the interference graph.
///
/// `k` is the number of colors; `spill_costs[n]` is the (frequency-
/// weighted) cost of spilling node `n`, with `u64::MAX` marking nodes that
/// must never be chosen (spill temporaries). Precolored nodes are never
/// removed. The graph is left with all live-range nodes removed; callers
/// typically [`InterferenceGraph::restore_all`] before the select phase.
///
/// # Panics
///
/// Panics if the graph blocks and every remaining candidate is unspillable
/// — this means spill temporaries alone exceed the register file, which no
/// Chaitin-family allocator can handle.
pub fn simplify(
    ifg: &mut InterferenceGraph,
    k: usize,
    spill_costs: &[u64],
    mode: SimplifyMode,
) -> SimplifyResult {
    simplify_in(ifg, k, spill_costs, mode, &mut SimplifyScratch::default())
}

/// Like [`simplify`], drawing the worklist heap and result vectors from
/// pooled scratch. Recycle the result with [`SimplifyResult::recycle`].
///
/// The heap is held through a [`Taken`] drop-guard: even the
/// unspillable-blocked panic path restores its buffer to the scratch, so
/// reuse never degrades to per-call allocation.
pub fn simplify_in(
    ifg: &mut InterferenceGraph,
    k: usize,
    spill_costs: &[u64],
    mode: SimplifyMode,
    scratch: &mut SimplifyScratch,
) -> SimplifyResult {
    let mut result = SimplifyResult {
        stack: scratch.nodes.take(),
        optimistic: scratch.nodes.take(),
        chaitin_spills: scratch.nodes.take(),
    };
    // Min-heap of low-degree candidates, by node id: popping the minimum
    // reproduces the lowest-id-first removal order of a full rescan.
    let mut worklist = Taken::new(&mut scratch.heap);
    worklist.clear();
    worklist.extend(
        (ifg.num_phys()..ifg.num_nodes())
            .map(NodeId::new)
            .filter(|&n| !ifg.is_merged(n) && !ifg.is_removed(n) && ifg.degree(n) < k)
            .map(|n| Reverse(n.index())),
    );
    let mut remaining = (ifg.num_phys()..ifg.num_nodes())
        .map(NodeId::new)
        .filter(|&n| !ifg.is_merged(n) && !ifg.is_removed(n))
        .count();

    // Removes `n`, pushing neighbors whose degree just crossed below K.
    let pop_neighbors =
        |ifg: &mut InterferenceGraph, n: NodeId, worklist: &mut BinaryHeap<Reverse<usize>>| {
            ifg.remove(n);
            for &x in ifg.neighbors_slice(n) {
                if !ifg.is_removed(x) && !ifg.is_precolored(x) && ifg.degree(x) + 1 == k {
                    worklist.push(Reverse(x.index()));
                }
            }
        };

    while remaining > 0 {
        // Drain the worklist, skipping stale entries defensively (the
        // threshold-crossing push discipline should never produce one).
        if let Some(Reverse(i)) = worklist.pop() {
            let n = NodeId::new(i);
            if ifg.is_removed(n) {
                continue;
            }
            debug_assert!(ifg.degree(n) < k, "worklist entry regained degree");
            pop_neighbors(ifg, n, &mut *worklist);
            result.stack.push(n);
            remaining -= 1;
            continue;
        }
        // Blocked: every active node is significant-degree. Scan for the
        // best spill candidate without materializing the active set.
        let active = (ifg.num_phys()..ifg.num_nodes())
            .map(NodeId::new)
            .filter(|&n| !ifg.is_merged(n) && !ifg.is_removed(n));
        let cand = spill_candidate(ifg, k, spill_costs, active);
        pop_neighbors(ifg, cand, &mut *worklist);
        remaining -= 1;
        match mode {
            SimplifyMode::Chaitin => result.chaitin_spills.push(cand),
            SimplifyMode::Optimistic => {
                result.stack.push(cand);
                result.optimistic.push(cand);
            }
        }
    }
    result
}

/// The spill candidate of a blocked graph among `active`: the least
/// `spill_costs[n] / degree(n)`, ties to the lower id; a `u64::MAX`
/// (unspillable) node is never chosen.
///
/// # Panics
///
/// Panics if every node of `active` is unspillable: spill temporaries
/// alone exceed the `k` registers, which no Chaitin-family allocator can
/// handle.
pub(crate) fn spill_candidate(
    ifg: &InterferenceGraph,
    k: usize,
    spill_costs: &[u64],
    active: impl IntoIterator<Item = NodeId>,
) -> NodeId {
    active
        .into_iter()
        .filter(|&n| spill_costs[n.index()] != u64::MAX)
        .min_by(|&a, &b| {
            // Cross-multiplied to stay in integers.
            let lhs = spill_costs[a.index()] as u128 * ifg.degree(b) as u128;
            let rhs = spill_costs[b.index()] as u128 * ifg.degree(a) as u128;
            lhs.cmp(&rhs).then(a.index().cmp(&b.index()))
        })
        .unwrap_or_else(|| panic!("graph blocked with only unspillable nodes (K={k})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// K4 over nodes 0..4 (no precolored).
    fn k4() -> InterferenceGraph {
        let mut g = InterferenceGraph::new(4, 0);
        for a in 0..4 {
            for b in (a + 1)..4 {
                g.add_edge(n(a), n(b));
            }
        }
        g
    }

    #[test]
    fn triangle_simplifies_with_three_colors() {
        let mut g = InterferenceGraph::new(3, 0);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(0), n(2));
        let costs = vec![10; 3];
        let r = simplify(&mut g, 3, &costs, SimplifyMode::Optimistic);
        assert_eq!(r.stack.len(), 3);
        assert!(r.optimistic.is_empty());
        assert!(r.chaitin_spills.is_empty());
    }

    #[test]
    fn k4_with_three_colors_chaitin_spills_cheapest() {
        let mut g = k4();
        let costs = vec![40, 10, 30, 20];
        let r = simplify(&mut g, 3, &costs, SimplifyMode::Chaitin);
        assert_eq!(r.chaitin_spills, vec![n(1)]); // cheapest spill cost
        assert_eq!(r.stack.len(), 3); // the rest simplified after removal
    }

    #[test]
    fn k4_with_three_colors_optimistic_pushes_candidate() {
        let mut g = k4();
        let costs = vec![40, 10, 30, 20];
        let r = simplify(&mut g, 3, &costs, SimplifyMode::Optimistic);
        assert_eq!(r.stack.len(), 4);
        assert_eq!(r.optimistic, vec![n(1)]);
        assert_eq!(r.stack[0], n(1)); // removed first (while blocked)
    }

    #[test]
    fn unspillable_nodes_skipped_as_candidates() {
        let mut g = k4();
        let costs = vec![u64::MAX, u64::MAX, 30, 20];
        let r = simplify(&mut g, 3, &costs, SimplifyMode::Optimistic);
        assert_eq!(r.optimistic, vec![n(3)]);
    }

    #[test]
    fn spill_metric_divides_by_degree() {
        // Node 0: cost 30, degree 3; node 4: cost 20, degree 1 after
        // surrounding structure... build: star where center 0 has degree 3
        // (cost/deg = 10) vs leaf pair with cost/deg 20. K=1 forces spills.
        let mut g = InterferenceGraph::new(4, 0);
        g.add_edge(n(0), n(1));
        g.add_edge(n(0), n(2));
        g.add_edge(n(0), n(3));
        g.add_edge(n(1), n(2));
        g.add_edge(n(1), n(3));
        g.add_edge(n(2), n(3));
        let costs = vec![30, 80, 80, 80];
        let r = simplify(&mut g, 2, &costs, SimplifyMode::Chaitin);
        // All degrees equal (3): candidate is pure lowest cost.
        assert_eq!(r.chaitin_spills[0], n(0));
    }

    #[test]
    fn precolored_nodes_stay() {
        let mut g = InterferenceGraph::new(4, 2);
        g.add_edge(n(2), n(3));
        let costs = vec![0, 0, 5, 5];
        let r = simplify(&mut g, 2, &costs, SimplifyMode::Optimistic);
        assert_eq!(r.stack.len(), 2);
        assert!(!g.is_removed(n(0)));
        assert!(!g.is_removed(n(1)));
    }

    #[test]
    fn stack_order_low_degree_first_by_id() {
        // Chain 0-1-2: all low-degree for K=3; removal order is by id.
        let mut g = InterferenceGraph::new(3, 0);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        let costs = vec![1; 3];
        let r = simplify(&mut g, 3, &costs, SimplifyMode::Optimistic);
        assert_eq!(r.stack, vec![n(0), n(1), n(2)]);
    }

    #[test]
    fn worklist_matches_rescan_order_on_unblocking_chain() {
        // A "caterpillar" where removing the blocked candidate unblocks
        // lower-id nodes: the worklist must still emit them lowest-id
        // first, exactly like the old full rescan.
        let mut g = InterferenceGraph::new(6, 0);
        for a in 0..5 {
            for b in (a + 1)..5 {
                g.add_edge(n(a), n(b)); // K5 over 0..5
            }
        }
        g.add_edge(n(5), n(0));
        let costs = vec![50, 40, 30, 20, 10, 60];
        let r = simplify(&mut g, 3, &costs, SimplifyMode::Optimistic);
        // 5 is low-degree (1) and lowest-available first; then the K5
        // blocks, spilling cheapest 4, then 3; then 0,1,2 drain by id.
        assert_eq!(r.stack, vec![n(5), n(4), n(3), n(0), n(1), n(2)]);
        assert_eq!(r.optimistic, vec![n(4), n(3)]);
    }
}
