//! The interference graph.
//!
//! Chaitin-style: nodes are allocation nodes (precolored registers and live
//! ranges), edges join nodes that are simultaneously live. The graph
//! supports the three mutations the allocators need:
//!
//! * **edge insertion** during construction — row by row for the
//!   pipeline's build ([`crate::build`]), edge by edge
//!   ([`add_edge`](InterferenceGraph::add_edge)) for hand-built graphs;
//! * **coalescing** — merging one node into another (aggressive and
//!   conservative coalescers in [`crate::baselines`] use this);
//! * **removal marks** with live degree tracking, driving simplification.
//!
//! # Adjacency representation
//!
//! The adjacency lists live in one [`RowTable`]: a row per node, every row
//! in one flat array. They are kept **canonical** at all times: for an
//! unmerged node `n`, row `n` holds exactly the distinct current
//! representatives adjacent to `n` — no duplicates, no stale merged
//! entries. The build ([`crate::build`]) fills each row from its matrix
//! row in ascending node order;
//! [`add_edge`](InterferenceGraph::add_edge) appends canonically and
//! [`merge`](InterferenceGraph::merge) rewrites the neighbors' rows in
//! place, appending to the surviving node's row (a full row moves to the
//! end of the array). So
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
use pdgc_arena::{RowTable, VecPool};

/// Resettable scratch pools for [`InterferenceGraph::new_in`].
///
/// The bit matrix is the single largest per-function allocation in the
/// pipeline (`n²` bits); the adjacency table is the next. Both come out of
/// this scratch and go back via [`InterferenceGraph::recycle`], so a
/// worker colors a stream of functions with a steady-state allocation
/// count of zero here.
#[derive(Debug, Default)]
pub struct IfgScratch {
    words: VecPool<u64>,
    adj: RowTable<NodeId>,
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
    /// Row `n`: the canonical adjacency list of `n`.
    adj: RowTable<NodeId>,
    alias: Vec<NodeId>,
    merged: Vec<bool>,
    removed: Vec<bool>,
    degree: Vec<usize>,
}

impl InterferenceGraph {
    /// Creates a graph with `n` nodes, the first `num_phys` of which are
    /// precolored, drawing all storage from pooled scratch. Distinct
    /// precolored nodes are made mutually interfering. Return the graph
    /// with [`InterferenceGraph::recycle`] when done to keep its buffers
    /// pooled.
    pub fn new_in(n: usize, num_phys: usize, scratch: &mut IfgScratch) -> Self {
        let stride = n.div_ceil(64);
        let mut adj = std::mem::take(&mut scratch.adj);
        adj.reset(n);
        let mut alias = scratch.alias.take();
        alias.extend((0..n).map(NodeId::new));
        let mut g = InterferenceGraph {
            num_phys,
            num_nodes: n,
            stride,
            words: scratch.words.take_filled(n * stride, 0),
            adj,
            alias,
            merged: scratch.flags.take_filled(n, false),
            removed: scratch.flags.take_filled(n, false),
            degree: scratch.degree.take_filled(n, 0),
        };
        // The precolored clique, each row ascending, as adding its edges
        // in (a, b) order would leave it.
        for a in 0..num_phys {
            let others = (0..num_phys).filter(|&b| b != a);
            others.clone().for_each(|b| g.set_bit(a, b));
            g.adj.fill_row(a, others.map(NodeId::new));
            g.degree[a] = num_phys.saturating_sub(1);
        }
        g
    }

    /// Returns this graph's storage to `scratch` for reuse.
    pub fn recycle(self, scratch: &mut IfgScratch) {
        scratch.words.put(self.words);
        scratch.adj = self.adj;
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
        self.adj.push(a.index(), b);
        self.adj.push(b.index(), a);
        // Degrees are maintained for live nodes only; a removed endpoint
        // neither counts toward the other's degree nor has its own frozen
        // degree touched.
        if !self.removed[a.index()] && !self.removed[b.index()] {
            self.degree[a.index()] += 1;
            self.degree[b.index()] += 1;
        }
        true
    }

    /// ORs `row`, a node-indexed bit row of [`Self::row_words`] words,
    /// into `a`'s matrix row, leaving bit `a` and bit `keep` as they were.
    ///
    /// Construction only: the graph must be fresh (nothing merged or
    /// removed), and the new bits reach the transpose, the adjacency lists
    /// and the degrees when [`close_rows`](Self::close_rows) runs.
    pub(crate) fn or_row(&mut self, a: NodeId, row: &[u64], keep: Option<NodeId>) {
        let base = a.index() * self.stride;
        let kept = keep.map(|k| (k.index(), self.bit(a.index(), k.index())));
        for (dst, &src) in self.words[base..base + self.stride].iter_mut().zip(row) {
            *dst |= src;
        }
        self.words[base + a.index() / 64] &= !(1 << (a.index() % 64));
        if let Some((k, was)) = kept {
            let mask = 1 << (k % 64);
            let word = &mut self.words[base + k / 64];
            *word = if was { *word | mask } else { *word & !mask };
        }
    }

    /// Words per bit-matrix row.
    pub(crate) fn row_words(&self) -> usize {
        self.stride
    }

    /// Completes a graph whose edges were written one way by
    /// [`or_row`](Self::or_row): sets the transpose of every matrix bit,
    /// then refills the adjacency table row by row, each row in ascending
    /// node order, and sets each degree to its row's length. Returns the
    /// number of undirected edges.
    pub(crate) fn close_rows(&mut self) -> usize {
        debug_assert!(
            !self.merged.iter().chain(&self.removed).any(|&f| f),
            "closing the rows of a graph that was already coalesced or simplified"
        );
        let stride = self.stride;
        for a in 0..self.num_nodes {
            for w in 0..stride {
                let mut bits = self.words[a * stride + w];
                while bits != 0 {
                    let b = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.words[b * stride + a / 64] |= 1 << (a % 64);
                }
            }
        }
        let mut ends = 0;
        self.adj.reset(self.num_nodes);
        for a in 0..self.num_nodes {
            let row = &self.words[a * stride..(a + 1) * stride];
            self.adj.fill_row(a, set_bits(row).map(NodeId::new));
            self.degree[a] = self.adj.row(a).len();
            ends += self.degree[a];
        }
        ends / 2
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
        self.adj.row(self.rep(n).index())
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
        // `b`'s row is read by index: pushes into `a`'s row may move that
        // row (and grow the array), but never touch `b`'s slot.
        for j in 0..self.adj.row(b.index()).len() {
            let x = self.adj.row(b.index())[j];
            let pos = self
                .adj
                .row(x.index())
                .iter()
                .position(|&y| y == b)
                .expect("canonical adjacency is symmetric");
            if self.bit(a.index(), x.index()) {
                // `x` was adjacent to both: drop the `b` entry; `x` has one
                // fewer distinct neighbor (if `x` is live — a removed
                // node's degree stays frozen).
                self.adj.remove(x.index(), pos);
                if !self.removed[x.index()] {
                    self.degree[x.index()] -= 1;
                }
            } else {
                // `x` was adjacent to `b` alone: splice `a` into `b`'s
                // slot. `x`'s distinct-neighbor count is unchanged; `a`
                // gains a neighbor (counted only if `x` is live).
                self.adj.row_mut(x.index())[pos] = a;
                self.set_bit(a.index(), x.index());
                self.set_bit(x.index(), a.index());
                self.adj.push(a.index(), x);
                if !self.removed[x.index()] {
                    self.degree[a.index()] += 1;
                }
            }
        }
        // A merged node's row stays empty: the canonical invariant.
        self.adj.clear_row(b.index());
        self.merged[b.index()] = true;
        self.alias[b.index()] = a;
    }

    /// Marks `n` as removed (simplified), decrementing live neighbors'
    /// degrees. `n`'s own degree is frozen at its current value.
    ///
    /// `visit` receives each live neighbor (precolored ones included) with
    /// its degree after the decrement, once each, in row order: the one
    /// walk over `n`'s row, which simplify also uses to refill its
    /// worklist and build the CPG.
    ///
    /// # Panics
    ///
    /// Panics if `n` is precolored, merged, or already removed.
    pub fn remove(&mut self, n: NodeId, mut visit: impl FnMut(NodeId, usize)) {
        let n = self.rep(n);
        assert!(!self.is_precolored(n), "removing precolored {n}");
        assert!(!self.removed[n.index()], "removing {n} twice");
        self.removed[n.index()] = true;
        for &x in self.adj.row(n.index()) {
            if !self.removed[x.index()] {
                self.degree[x.index()] -= 1;
                visit(x, self.degree[x.index()]);
            }
        }
    }

    /// The number of precolored neighbors of the live range `n`, read off
    /// its matrix row in O(1): precolored nodes are `0..num_phys` and a
    /// class has at most 64 registers, so their bits all sit in the row's
    /// first word. [`merge`](Self::merge) sets the survivor's bit for every
    /// neighbor it gains and never merges a precolored node away, so the
    /// count matches `n`'s adjacency row.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than 64 precolored nodes.
    pub(crate) fn precolored_degree(&self, n: NodeId) -> usize {
        assert!(self.num_phys <= 64, "more than 64 precolored nodes");
        let mask = u64::MAX.checked_shr(64 - self.num_phys as u32).unwrap_or(0);
        (self.words[self.rep(n).index() * self.stride] & mask).count_ones() as usize
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
            self.degree[i] = self.adj.row(i).len();
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

/// The indices of the set bits of `words`, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    let mut rest = words.iter();
    let (mut base, mut next_base, mut bits) = (0, 0, 0u64);
    std::iter::from_fn(move || {
        while bits == 0 {
            bits = *rest.next()?;
            base = next_base;
            next_base += 64;
        }
        let b = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        Some(base + b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn precolored_mutually_interfere() {
        let g = InterferenceGraph::new_in(5, 3, &mut IfgScratch::default());
        assert!(g.interferes(n(0), n(1)));
        assert!(g.interferes(n(1), n(2)));
        assert!(!g.interferes(n(0), n(3)));
        assert_eq!(g.degree(n(0)), 2);
    }

    #[test]
    fn add_edge_and_degree() {
        let mut g = InterferenceGraph::new_in(4, 0, &mut IfgScratch::default());
        assert!(g.add_edge(n(0), n(1)));
        assert!(!g.add_edge(n(1), n(0)));
        assert!(g.interferes(n(0), n(1)));
        assert_eq!(g.degree(n(0)), 1);
        assert_eq!(g.neighbors(n(0)), vec![n(1)]);
        assert_eq!(g.neighbors_slice(n(0)), &[n(1)]);
    }

    #[test]
    fn remove_updates_degrees() {
        let mut g = InterferenceGraph::new_in(3, 0, &mut IfgScratch::default());
        g.add_edge(n(0), n(1));
        g.add_edge(n(0), n(2));
        assert_eq!(g.degree(n(0)), 2);
        g.remove(n(1), |_, _| {});
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
        let mut g = InterferenceGraph::new_in(5, 0, &mut IfgScratch::default());
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
        let mut g = InterferenceGraph::new_in(4, 0, &mut IfgScratch::default());
        g.add_edge(n(0), n(2));
        g.add_edge(n(1), n(2));
        g.add_edge(n(1), n(3));
        g.remove(n(2), |_, _| {});
        g.remove(n(3), |_, _| {});
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
        let mut g = InterferenceGraph::new_in(3, 0, &mut IfgScratch::default());
        g.add_edge(n(0), n(1));
        g.remove(n(1), |_, _| {});
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
        let mut g = InterferenceGraph::new_in(2, 0, &mut IfgScratch::default());
        g.add_edge(n(0), n(1));
        g.merge(n(0), n(1));
    }

    #[test]
    fn merge_into_precolored() {
        let mut g = InterferenceGraph::new_in(4, 2, &mut IfgScratch::default());
        g.add_edge(n(2), n(3));
        g.merge(n(0), n(2));
        assert_eq!(g.rep(n(2)), n(0));
        assert!(g.interferes(n(0), n(3)));
        // Precolored-precolored edge still present.
        assert!(g.interferes(n(0), n(1)));
    }

    #[test]
    fn chained_merges_resolve() {
        let mut g = InterferenceGraph::new_in(4, 0, &mut IfgScratch::default());
        g.merge(n(0), n(1));
        g.merge(n(2), n(0));
        assert_eq!(g.rep(n(1)), n(2));
        assert_eq!(g.rep(n(0)), n(2));
        assert_eq!(g.active_live_ranges(), vec![n(2), n(3)]);
    }

    #[test]
    fn merge_empties_the_merged_row_and_moves_a_full_one() {
        // 0 and 1 have exact rows after the build-style fill; merging 1
        // into 0 pushes 1's neighbors onto 0's full row, which moves.
        let mut g = InterferenceGraph::new_in(6, 0, &mut IfgScratch::default());
        g.or_row(n(0), &[1 << 5], None);
        g.or_row(n(1), &[(1 << 2) | (1 << 3) | (1 << 4)], None);
        g.close_rows();
        assert_eq!(g.neighbors_slice(n(0)), &[n(5)]);
        g.merge(n(0), n(1));
        // The merged row is empty (canonical invariant).
        assert!(g.adj.row(1).is_empty());
        // The moved row kept its entry and gained 1's, in splice order.
        assert_eq!(g.neighbors_slice(n(0)), &[n(5), n(2), n(3), n(4)]);
        assert_eq!(g.neighbors_slice(n(1)), g.neighbors_slice(n(0)));
        // The neighbors' rows were rewritten in place.
        for x in [2, 3, 4] {
            assert_eq!(g.neighbors_slice(n(x)), &[n(0)]);
        }
        assert_eq!(g.degree(n(0)), 4);
    }

    #[test]
    fn scratch_reuse_matches_fresh_graph() {
        let mut scratch = IfgScratch::new();
        let build = |scratch: &mut IfgScratch| {
            let mut g = InterferenceGraph::new_in(5, 2, scratch);
            g.add_edge(n(2), n(3));
            g.add_edge(n(3), n(4));
            g.remove(n(3), |_, _| {});
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
        let mut g = InterferenceGraph::new_in(4, 0, &mut IfgScratch::default());
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(2), n(3));
        g.remove(n(1), |_, _| {});
        g.remove(n(2), |_, _| {});
        g.restore_all();
        for i in 0..4 {
            assert!(!g.is_removed(n(i)));
            assert_eq!(g.degree(n(i)), g.live_neighbors(n(i)).len());
        }
    }
}
