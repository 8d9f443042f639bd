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
//! Both picks come off heaps, never a scan of the graph:
//!
//! * the low-degree worklist is a min-heap of `(key, id)`, seeded with
//!   every initially low-degree node; each removal pushes exactly the
//!   neighbors whose degree crosses below K. No edge is added during
//!   simplification, so degrees only fall, a node enters the heap at most
//!   once, and the minimum is the low-degree active node of least key,
//!   ties to the lower id. [`simplify_in`] keys every node alike (pure id
//!   order); the call-cost baseline keys by priority;
//! * the spill candidate comes off a `SpillHeap`, built at the first
//!   block.

use crate::ifg::InterferenceGraph;
use crate::node::NodeId;
use pdgc_arena::VecPool;
use pdgc_obs::{Counter, MetricsRegistry};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Resettable scratch for [`simplify_in`]: the worklist heap, the spill
/// heap, and pooled result vectors.
#[derive(Debug, Default)]
pub struct SimplifyScratch {
    heap: BinaryHeap<Reverse<(i64, usize)>>,
    pub(crate) spill: SpillHeap,
    nodes: VecPool<NodeId>,
}

impl SimplifyScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the spill-heap pops tallied since the last call into
    /// `metrics`.
    pub(crate) fn flush_counters(&mut self, metrics: &mut MetricsRegistry) {
        metrics.add(
            Counter::SimplifySpillPops,
            std::mem::take(&mut self.spill.pops),
        );
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

/// Like [`simplify`], drawing the worklist heap, the spill heap and the
/// result vectors from pooled scratch. Recycle the result with
/// [`SimplifyResult::recycle`].
pub fn simplify_in(
    ifg: &mut InterferenceGraph,
    k: usize,
    spill_costs: &[u64],
    mode: SimplifyMode,
    scratch: &mut SimplifyScratch,
) -> SimplifyResult {
    simplify_keyed_in(ifg, k, spill_costs, mode, |_| 0, scratch)
}

/// [`simplify_in`] that removes, among the low-degree nodes, the one of
/// least `(key(n), id)` first. `key` is read once per node, when it
/// enters the worklist, so it must not change during the call.
pub(crate) fn simplify_keyed_in(
    ifg: &mut InterferenceGraph,
    k: usize,
    spill_costs: &[u64],
    mode: SimplifyMode,
    key: impl Fn(NodeId) -> i64,
    scratch: &mut SimplifyScratch,
) -> SimplifyResult {
    let mut result = SimplifyResult {
        stack: scratch.nodes.take(),
        optimistic: scratch.nodes.take(),
        chaitin_spills: scratch.nodes.take(),
    };
    let (worklist, spill) = (&mut scratch.heap, &mut scratch.spill);
    worklist.clear();
    spill.reset();
    let entry = |n: NodeId| Reverse((key(n), n.index()));
    worklist.extend(
        (ifg.num_phys()..ifg.num_nodes())
            .map(NodeId::new)
            .filter(|&n| !ifg.is_merged(n) && !ifg.is_removed(n) && ifg.degree(n) < k)
            .map(entry),
    );
    let mut remaining = (ifg.num_phys()..ifg.num_nodes())
        .map(NodeId::new)
        .filter(|&n| !ifg.is_merged(n) && !ifg.is_removed(n))
        .count();

    while remaining > 0 {
        // Drain the worklist, skipping stale entries defensively (the
        // threshold-crossing push discipline should never produce one).
        let (n, blocked) = match worklist.pop() {
            Some(Reverse((_, i))) if ifg.is_removed(NodeId::new(i)) => continue,
            Some(Reverse((_, i))) => (NodeId::new(i), false),
            // Blocked: every active node is significant-degree.
            None => (spill.pop(ifg, k, spill_costs), true),
        };
        debug_assert!(
            blocked || ifg.degree(n) < k,
            "worklist entry regained degree"
        );
        ifg.remove(n);
        for &x in ifg.neighbors_slice(n) {
            if !ifg.is_removed(x) && !ifg.is_precolored(x) && ifg.degree(x) + 1 == k {
                worklist.push(entry(x));
            }
        }
        remaining -= 1;
        match (blocked, mode) {
            (false, _) => result.stack.push(n),
            (true, SimplifyMode::Chaitin) => result.chaitin_spills.push(n),
            (true, SimplifyMode::Optimistic) => {
                result.stack.push(n);
                result.optimistic.push(n);
            }
        }
    }
    result
}

/// The spill candidate of a blocked graph: the active node of least
/// `cost / degree`, ties to the lower id, never an unspillable
/// (`u64::MAX`) one. Shared by simplify's blocked branch, `iterated`'s
/// step 4 and the call-cost baseline's blocked branch.
///
/// A lazily re-keyed min-heap. Each entry keeps the cost and degree its
/// node had when pushed; entries compare by cost × degree cross-multiplied
/// in `u128`, then by id. A popped entry whose node is gone (merged or
/// removed) or whose cost has changed is dropped; one whose degree has
/// changed is pushed back with the current degree. The pick is exact as
/// long as every candidate holds an entry whose key does not exceed its
/// true one:
///
/// * degrees only fall between merges, so a stale degree only lowers a key;
/// * a merge survivor can gain degree and cost, so coalescing loops push a
///   fresh entry for it ([`SpillHeap::push`]);
/// * the heap is seeded at the first block, when every active node has
///   degree at least K, and only nodes of degree at least K ever enter, so
///   every degree it compares is at least 1.
#[derive(Debug, Default)]
pub(crate) struct SpillHeap {
    heap: BinaryHeap<Reverse<SpillKey>>,
    built: bool,
    /// Entries popped, stale ones included, since the last
    /// [`SimplifyScratch::flush_counters`].
    pops: u64,
}

/// A spill-heap entry: a node with the cost and degree it was keyed at.
#[derive(Clone, Copy, Debug)]
struct SpillKey {
    cost: u64,
    degree: usize,
    node: NodeId,
}

impl Ord for SpillKey {
    fn cmp(&self, other: &Self) -> Ordering {
        let lhs = self.cost as u128 * other.degree as u128;
        let rhs = other.cost as u128 * self.degree as u128;
        lhs.cmp(&rhs)
            .then(self.node.index().cmp(&other.node.index()))
    }
}

impl PartialOrd for SpillKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for SpillKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for SpillKey {}

impl SpillHeap {
    /// Forgets every entry: the next [`pop`](Self::pop) seeds afresh.
    pub(crate) fn reset(&mut self) {
        self.heap.clear();
        self.built = false;
    }

    /// Gives the live range `n` an entry at its current cost and degree,
    /// if the heap is built, `n` is spillable and its degree is at least
    /// `k`. A node below that degree leaves no entry: it cannot block
    /// until it gains degree, which only a merge gives it.
    pub(crate) fn push(&mut self, ifg: &InterferenceGraph, k: usize, costs: &[u64], n: NodeId) {
        let (cost, degree) = (costs[n.index()], ifg.degree(n));
        if self.built && cost != u64::MAX && degree >= k {
            self.heap.push(Reverse(SpillKey {
                cost,
                degree,
                node: n,
            }));
        }
    }

    /// Picks the spill candidate of a blocked graph, in which every
    /// active live range has degree at least `k`. The caller removes it.
    ///
    /// # Panics
    ///
    /// Panics if every active node is unspillable: spill temporaries
    /// alone exceed the `k` registers, which no Chaitin-family allocator
    /// can handle.
    pub(crate) fn pop(&mut self, ifg: &InterferenceGraph, k: usize, costs: &[u64]) -> NodeId {
        if !self.built {
            self.built = true;
            for n in (ifg.num_phys()..ifg.num_nodes()).map(NodeId::new) {
                if !ifg.is_merged(n) && !ifg.is_removed(n) {
                    self.push(ifg, k, costs, n);
                }
            }
        }
        loop {
            let Some(Reverse(entry)) = self.heap.pop() else {
                panic!("graph blocked with only unspillable nodes (K={k})");
            };
            self.pops += 1;
            let n = entry.node;
            if ifg.is_merged(n) || ifg.is_removed(n) || costs[n.index()] != entry.cost {
                continue;
            }
            let degree = ifg.degree(n);
            debug_assert!(degree >= k, "spill candidate {n} is not blocked");
            if degree == entry.degree {
                return n;
            }
            self.heap.push(Reverse(SpillKey { degree, ..entry }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ifg::IfgScratch;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// K4 over nodes 0..4 (no precolored).
    fn k4() -> InterferenceGraph {
        let mut g = InterferenceGraph::new_in(4, 0, &mut IfgScratch::default());
        for a in 0..4 {
            for b in (a + 1)..4 {
                g.add_edge(n(a), n(b));
            }
        }
        g
    }

    #[test]
    fn triangle_simplifies_with_three_colors() {
        let mut g = InterferenceGraph::new_in(3, 0, &mut IfgScratch::default());
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
        let mut g = InterferenceGraph::new_in(4, 0, &mut IfgScratch::default());
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
        let mut g = InterferenceGraph::new_in(4, 2, &mut IfgScratch::default());
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
        let mut g = InterferenceGraph::new_in(3, 0, &mut IfgScratch::default());
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
        let mut g = InterferenceGraph::new_in(6, 0, &mut IfgScratch::default());
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
