//! The interference graph.
//!
//! Chaitin-style: nodes are allocation nodes (precolored registers and live
//! ranges), edges join nodes that are simultaneously live. The graph
//! supports the three mutations the allocators need:
//!
//! * **edge insertion** during construction;
//! * **coalescing** — merging one node into another (aggressive and
//!   conservative coalescers in [`crate::baselines`] use this);
//! * **removal marks** with live degree tracking, driving simplification.
//!
//! # Adjacency representation
//!
//! The per-node adjacency lists are kept **canonical** at all times: for an
//! unmerged node `n`, `adj[n]` holds exactly the distinct current
//! representatives adjacent to `n` — no duplicates, no stale merged
//! entries. [`add_edge`](InterferenceGraph::add_edge) inserts
//! canonically and [`merge`](InterferenceGraph::merge) rewrites the
//! neighbors' lists in place, so
//! [`neighbors_slice`](InterferenceGraph::neighbors_slice) and
//! [`live_neighbors_iter`](InterferenceGraph::live_neighbors_iter) are
//! allocation-free: the select and simplify hot paths iterate adjacency
//! directly instead of materializing a fresh `Vec` + seen-set per call.
//!
//! # Degree accounting
//!
//! `degree[n]` of a **live** (unmerged, unremoved) node is the number of
//! its live neighbors. The degree of a **removed** node is *frozen* at its
//! removal-time value: no mutation may touch it until
//! [`restore_all`](InterferenceGraph::restore_all) recomputes every
//! degree from the adjacency lists. This freeze is what a future
//! partial-restore needs to stay correct, and it is enforced by the
//! degree-accounting property test in `tests/properties.rs`.

use crate::node::NodeId;
use pdgc_arena::{NestedPool, VecPool};

/// Resettable scratch pools for [`InterferenceGraph::new_in`].
///
/// The bit matrix is the single largest per-function allocation in the
/// pipeline (`n²` bits); the adjacency lists are the most numerous. Both
/// come out of these pools and go back via
/// [`InterferenceGraph::recycle`], so a worker colors a stream of
/// functions with a steady-state allocation count of zero here.
#[derive(Debug, Default)]
pub struct IfgScratch {
    words: VecPool<u64>,
    adj: NestedPool<NodeId>,
    alias: VecPool<NodeId>,
    flags: VecPool<bool>,
    degree: VecPool<usize>,
}

impl IfgScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pooled bit-matrix buffers (diagnostic; used by reuse
    /// tests).
    pub fn pooled_matrices(&self) -> usize {
        self.words.pooled()
    }
}

/// An undirected interference graph over a dense node universe.
///
/// The bit matrix is one flat row-major `Vec<u64>` (a single allocation
/// bump-style, rather than one `BitSet` per row) so pooled reuse is a
/// single buffer swap and row probes stay cache-local.
#[derive(Clone, Debug)]
pub struct InterferenceGraph {
    num_phys: usize,
    num_nodes: usize,
    /// Words per bit-matrix row.
    stride: usize,
    /// `num_nodes * stride` words; bit `b` of row `a` means `a` ↔ `b`.
    words: Vec<u64>,
    adj: Vec<Vec<NodeId>>,
    alias: Vec<NodeId>,
    merged: Vec<bool>,
    removed: Vec<bool>,
    degree: Vec<usize>,
}

impl InterferenceGraph {
    /// Creates a graph with `n` nodes, the first `num_phys` of which are
    /// precolored. Distinct precolored nodes are made mutually interfering.
    pub fn new(n: usize, num_phys: usize) -> Self {
        Self::new_in(n, num_phys, &mut IfgScratch::default())
    }

    /// Like [`InterferenceGraph::new`], drawing all storage from pooled
    /// scratch. Return the graph with [`InterferenceGraph::recycle`] when
    /// done to keep its buffers pooled.
    pub fn new_in(n: usize, num_phys: usize, scratch: &mut IfgScratch) -> Self {
        let stride = n.div_ceil(64);
        let mut alias = scratch.alias.take();
        alias.extend((0..n).map(NodeId::new));
        let mut g = InterferenceGraph {
            num_phys,
            num_nodes: n,
            stride,
            words: scratch.words.take_filled(n * stride, 0),
            adj: scratch.adj.take(n),
            alias,
            merged: scratch.flags.take_filled(n, false),
            removed: scratch.flags.take_filled(n, false),
            degree: scratch.degree.take_filled(n, 0),
        };
        for a in 0..num_phys {
            for b in (a + 1)..num_phys {
                g.add_edge(NodeId::new(a), NodeId::new(b));
            }
        }
        g
    }

    /// Returns this graph's storage to `scratch` for reuse.
    pub fn recycle(self, scratch: &mut IfgScratch) {
        scratch.words.put(self.words);
        scratch.adj.put(self.adj);
        scratch.alias.put(self.alias);
        scratch.flags.put(self.merged);
        scratch.flags.put(self.removed);
        scratch.degree.put(self.degree);
    }

    /// Number of nodes in the universe.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Whether matrix bit (`a`, `b`) is set.
    fn bit(&self, a: usize, b: usize) -> bool {
        self.words[a * self.stride + b / 64] & (1 << (b % 64)) != 0
    }

    /// Sets matrix bit (`a`, `b`).
    fn set_bit(&mut self, a: usize, b: usize) {
        self.words[a * self.stride + b / 64] |= 1 << (b % 64);
    }

    /// Number of precolored nodes.
    pub fn num_phys(&self) -> usize {
        self.num_phys
    }

    /// Whether `n` is precolored.
    pub fn is_precolored(&self, n: NodeId) -> bool {
        n.index() < self.num_phys
    }

    /// The representative of `n` after coalescing (`n` itself if unmerged).
    pub fn rep(&self, n: NodeId) -> NodeId {
        let mut cur = n;
        while self.merged[cur.index()] {
            cur = self.alias[cur.index()];
        }
        cur
    }

    /// Whether `n` has been merged into another node.
    pub fn is_merged(&self, n: NodeId) -> bool {
        self.merged[n.index()]
    }

    /// Whether `n` is currently removed (simplified away).
    pub fn is_removed(&self, n: NodeId) -> bool {
        self.removed[n.index()]
    }

    /// Adds an interference edge between the representatives of `a` and
    /// `b`. Self-edges are ignored. Returns `true` if the edge is new.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        let (a, b) = (self.rep(a), self.rep(b));
        if a == b || self.bit(a.index(), b.index()) {
            return false;
        }
        self.set_bit(a.index(), b.index());
        self.set_bit(b.index(), a.index());
        self.adj[a.index()].push(b);
        self.adj[b.index()].push(a);
        // Degrees are maintained for live nodes only; a removed endpoint
        // neither counts toward the other's degree nor has its own frozen
        // degree touched.
        if !self.removed[a.index()] && !self.removed[b.index()] {
            self.degree[a.index()] += 1;
            self.degree[b.index()] += 1;
        }
        true
    }

    /// Whether the representatives of `a` and `b` interfere.
    pub fn interferes(&self, a: NodeId, b: NodeId) -> bool {
        let (a, b) = (self.rep(a), self.rep(b));
        self.bit(a.index(), b.index())
    }

    /// The current degree of `n` — the number of distinct, non-removed
    /// neighbors. For a removed node this is frozen at its removal-time
    /// value; meaningless for merged nodes.
    pub fn degree(&self, n: NodeId) -> usize {
        self.degree[self.rep(n).index()]
    }

    /// The distinct current neighbors of `n`'s representative as a slice
    /// (merged entries already resolved, removed nodes *included*).
    /// Allocation-free; the canonical adjacency invariant guarantees the
    /// slice has no duplicates and no merged entries.
    pub fn neighbors_slice(&self, n: NodeId) -> &[NodeId] {
        &self.adj[self.rep(n).index()]
    }

    /// Iterates the non-removed neighbors of `n`'s representative without
    /// allocating.
    pub fn live_neighbors_iter(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors_slice(n)
            .iter()
            .copied()
            .filter(|&x| !self.removed[x.index()])
    }

    /// The distinct current neighbors of `n`'s representative (merged
    /// entries resolved, removed nodes *included*). Prefer
    /// [`neighbors_slice`](Self::neighbors_slice) on hot paths — this
    /// allocates a fresh `Vec` for callers that need ownership.
    pub fn neighbors(&self, n: NodeId) -> Vec<NodeId> {
        self.neighbors_slice(n).to_vec()
    }

    /// Like [`neighbors`](Self::neighbors), skipping removed nodes.
    /// Prefer [`live_neighbors_iter`](Self::live_neighbors_iter) on hot
    /// paths.
    pub fn live_neighbors(&self, n: NodeId) -> Vec<NodeId> {
        self.live_neighbors_iter(n).collect()
    }

    /// Merges node `b` into node `a` (coalescing). The merged node's
    /// interferences become the union of both. `b`'s queries afterwards
    /// resolve through [`rep`](Self::rep).
    ///
    /// Degree accounting: a neighbor `x` shared by `a` and `b` loses one
    /// distinct neighbor (the `a`/`b` pair collapses), a neighbor of `b`
    /// alone swaps `b` for `a` (count unchanged) — and in both cases the
    /// degree of a *removed* `x` is left frozen.
    ///
    /// # Panics
    ///
    /// Panics if the nodes interfere, are equal, either is removed, or `b`
    /// is precolored.
    pub fn merge(&mut self, a: NodeId, b: NodeId) {
        let (a, b) = (self.rep(a), self.rep(b));
        assert_ne!(a, b, "merging a node with itself");
        assert!(!self.interferes(a, b), "merging interfering nodes");
        assert!(!self.is_precolored(b), "merging a precolored node away");
        assert!(!self.removed[a.index()] && !self.removed[b.index()]);
        // Audit note (mem::take scratch pattern): taking `b`'s list is
        // intentional — a merged node's adjacency must stay empty so the
        // canonical-adjacency invariant holds. No fallible path runs before
        // the buffer is restored (cleared) below, and restoring it keeps
        // its capacity alive for pooled reuse instead of dropping it.
        let mut b_adj = std::mem::take(&mut self.adj[b.index()]);
        for &x in &b_adj {
            let pos = self.adj[x.index()]
                .iter()
                .position(|&y| y == b)
                .expect("canonical adjacency is symmetric");
            if self.bit(a.index(), x.index()) {
                // `x` was adjacent to both: drop the `b` entry; `x` has one
                // fewer distinct neighbor (if `x` is live — a removed
                // node's degree stays frozen).
                self.adj[x.index()].remove(pos);
                if !self.removed[x.index()] {
                    self.degree[x.index()] -= 1;
                }
            } else {
                // `x` was adjacent to `b` alone: splice `a` into `b`'s
                // slot. `x`'s distinct-neighbor count is unchanged; `a`
                // gains a neighbor (counted only if `x` is live).
                self.adj[x.index()][pos] = a;
                self.set_bit(a.index(), x.index());
                self.set_bit(x.index(), a.index());
                self.adj[a.index()].push(x);
                if !self.removed[x.index()] {
                    self.degree[a.index()] += 1;
                }
            }
        }
        b_adj.clear();
        self.adj[b.index()] = b_adj;
        self.merged[b.index()] = true;
        self.alias[b.index()] = a;
    }

    /// Marks `n` as removed (simplified), decrementing live neighbors'
    /// degrees. `n`'s own degree is frozen at its current value.
    ///
    /// # Panics
    ///
    /// Panics if `n` is precolored, merged, or already removed.
    pub fn remove(&mut self, n: NodeId) {
        let n = self.rep(n);
        assert!(!self.is_precolored(n), "removing precolored {n}");
        assert!(!self.removed[n.index()], "removing {n} twice");
        self.removed[n.index()] = true;
        for j in 0..self.adj[n.index()].len() {
            let x = self.adj[n.index()][j];
            if !self.removed[x.index()] {
                self.degree[x.index()] -= 1;
            }
        }
    }

    /// Clears all removal marks and recomputes degrees (used between the
    /// simplify and select phases, which work on the full graph).
    pub fn restore_all(&mut self) {
        self.removed.iter_mut().for_each(|r| *r = false);
        // The recompute below counts *every* adjacency entry, which is
        // only the live-neighbor count because the clearing loop above ran
        // first. A partial-restore refactor that leaves any node marked
        // removed here would silently corrupt every degree.
        debug_assert!(
            self.removed.iter().all(|r| !*r),
            "restore_all: recomputing degrees while nodes are still removed"
        );
        for i in 0..self.num_nodes() {
            if self.merged[i] {
                continue;
            }
            self.degree[i] = self.adj[i].len();
        }
    }

    /// The active (unmerged, unremoved) live-range nodes.
    pub fn active_live_ranges(&self) -> Vec<NodeId> {
        (self.num_phys..self.num_nodes())
            .map(NodeId::new)
            .filter(|&n| !self.merged[n.index()] && !self.removed[n.index()])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn precolored_mutually_interfere() {
        let g = InterferenceGraph::new(5, 3);
        assert!(g.interferes(n(0), n(1)));
        assert!(g.interferes(n(1), n(2)));
        assert!(!g.interferes(n(0), n(3)));
        assert_eq!(g.degree(n(0)), 2);
    }

    #[test]
    fn add_edge_and_degree() {
        let mut g = InterferenceGraph::new(4, 0);
        assert!(g.add_edge(n(0), n(1)));
        assert!(!g.add_edge(n(1), n(0)));
        assert!(g.interferes(n(0), n(1)));
        assert_eq!(g.degree(n(0)), 1);
        assert_eq!(g.neighbors(n(0)), vec![n(1)]);
        assert_eq!(g.neighbors_slice(n(0)), &[n(1)]);
    }

    #[test]
    fn remove_updates_degrees() {
        let mut g = InterferenceGraph::new(3, 0);
        g.add_edge(n(0), n(1));
        g.add_edge(n(0), n(2));
        assert_eq!(g.degree(n(0)), 2);
        g.remove(n(1));
        assert_eq!(g.degree(n(0)), 1);
        assert!(g.is_removed(n(1)));
        assert_eq!(g.live_neighbors(n(0)), vec![n(2)]);
        assert_eq!(g.neighbors(n(0)).len(), 2);
        assert_eq!(g.live_neighbors_iter(n(0)).count(), 1);
        g.restore_all();
        assert!(!g.is_removed(n(1)));
        assert_eq!(g.degree(n(0)), 2);
    }

    #[test]
    fn merge_unions_neighbors() {
        let mut g = InterferenceGraph::new(5, 0);
        g.add_edge(n(0), n(2));
        g.add_edge(n(1), n(3));
        g.add_edge(n(0), n(4));
        g.add_edge(n(1), n(4));
        // Merge 1 into 0: 0 gains 3; 4's degree drops from 2 to 1.
        g.merge(n(0), n(1));
        assert_eq!(g.rep(n(1)), n(0));
        assert!(g.is_merged(n(1)));
        assert!(g.interferes(n(0), n(3)));
        assert!(g.interferes(n(1), n(2))); // resolves through rep
        let mut nb = g.neighbors(n(0));
        nb.sort();
        assert_eq!(nb, vec![n(2), n(3), n(4)]);
        assert_eq!(g.degree(n(0)), 3);
        assert_eq!(g.degree(n(4)), 1);
        assert_eq!(g.degree(n(2)), 1);
        assert_eq!(g.active_live_ranges(), vec![n(0), n(2), n(3), n(4)]);
        // Canonical adjacency: 4's list resolved 1 → 0 in place, no dups.
        assert_eq!(g.neighbors_slice(n(4)), &[n(0)]);
    }

    #[test]
    fn merge_leaves_removed_neighbor_degree_frozen() {
        // 2 is adjacent to both 0 and 1; 3 is adjacent to 1 alone. Remove
        // both, then merge 1 into 0: the frozen degrees must not move.
        let mut g = InterferenceGraph::new(4, 0);
        g.add_edge(n(0), n(2));
        g.add_edge(n(1), n(2));
        g.add_edge(n(1), n(3));
        g.remove(n(2));
        g.remove(n(3));
        let (d2, d3) = (g.degree(n(2)), g.degree(n(3)));
        g.merge(n(0), n(1));
        assert_eq!(g.degree(n(2)), d2, "shared removed neighbor mutated");
        assert_eq!(g.degree(n(3)), d3, "spliced removed neighbor mutated");
        // Live accounting still holds for the representative: its only
        // live neighbor count excludes the removed 2 and 3.
        assert_eq!(g.degree(n(0)), g.live_neighbors(n(0)).len());
    }

    #[test]
    fn add_edge_to_removed_node_freezes_its_degree() {
        let mut g = InterferenceGraph::new(3, 0);
        g.add_edge(n(0), n(1));
        g.remove(n(1));
        let frozen = g.degree(n(1));
        assert!(g.add_edge(n(1), n(2)));
        assert_eq!(g.degree(n(1)), frozen);
        // The live endpoint gains no live neighbor either.
        assert_eq!(g.degree(n(2)), 0);
        g.restore_all();
        assert_eq!(g.degree(n(1)), 2);
        assert_eq!(g.degree(n(2)), 1);
    }

    #[test]
    #[should_panic(expected = "interfering")]
    fn merge_interfering_panics() {
        let mut g = InterferenceGraph::new(2, 0);
        g.add_edge(n(0), n(1));
        g.merge(n(0), n(1));
    }

    #[test]
    fn merge_into_precolored() {
        let mut g = InterferenceGraph::new(4, 2);
        g.add_edge(n(2), n(3));
        g.merge(n(0), n(2));
        assert_eq!(g.rep(n(2)), n(0));
        assert!(g.interferes(n(0), n(3)));
        // Precolored-precolored edge still present.
        assert!(g.interferes(n(0), n(1)));
    }

    #[test]
    fn chained_merges_resolve() {
        let mut g = InterferenceGraph::new(4, 0);
        g.merge(n(0), n(1));
        g.merge(n(2), n(0));
        assert_eq!(g.rep(n(1)), n(2));
        assert_eq!(g.rep(n(0)), n(2));
        assert_eq!(g.active_live_ranges(), vec![n(2), n(3)]);
    }

    #[test]
    fn merge_keeps_merged_adjacency_capacity() {
        let mut g = InterferenceGraph::new(6, 0);
        g.add_edge(n(1), n(2));
        g.add_edge(n(1), n(3));
        g.add_edge(n(1), n(4));
        g.merge(n(0), n(1));
        // The merged node's list is empty (canonical invariant) but its
        // allocation must survive for pooled reuse.
        assert!(g.neighbors_slice(n(1)).is_empty() || g.rep(n(1)) == n(0));
        assert!(g.adj[1].is_empty());
        assert!(g.adj[1].capacity() >= 3, "merge dropped the taken buffer");
    }

    #[test]
    fn scratch_reuse_matches_fresh_graph() {
        let mut scratch = IfgScratch::new();
        let build = |scratch: &mut IfgScratch| {
            let mut g = InterferenceGraph::new_in(5, 2, scratch);
            g.add_edge(n(2), n(3));
            g.add_edge(n(3), n(4));
            g.remove(n(3));
            g
        };
        let g1 = build(&mut scratch);
        let deg1: Vec<usize> = (0..5).map(|i| g1.degree(n(i))).collect();
        g1.recycle(&mut scratch);
        assert_eq!(scratch.pooled_matrices(), 1);
        // Second build reuses the pooled buffers and must behave fresh.
        let g2 = build(&mut scratch);
        assert_eq!(scratch.pooled_matrices(), 0);
        let deg2: Vec<usize> = (0..5).map(|i| g2.degree(n(i))).collect();
        assert_eq!(deg1, deg2);
        assert!(g2.interferes(n(0), n(1)));
        assert!(g2.interferes(n(2), n(3)));
        assert!(!g2.interferes(n(2), n(4)));
        assert!(g2.is_removed(n(3)));
    }

    #[test]
    fn restore_all_requires_full_clear_and_recomputes() {
        let mut g = InterferenceGraph::new(4, 0);
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(2), n(3));
        g.remove(n(1));
        g.remove(n(2));
        g.restore_all();
        for i in 0..4 {
            assert!(!g.is_removed(n(i)));
            assert_eq!(g.degree(n(i)), g.live_neighbors(n(i)).len());
        }
    }
}
