//! George–Appel iterated register coalescing — Figure 2(a).
//!
//! Simplification removes only non-move-related low-degree nodes; when it
//! blocks, a *conservative* coalesce (Briggs' criterion, George's toward
//! precolored nodes) is attempted; failing that, one low-degree
//! move-related node is *frozen* (its moves abandoned); failing that, a
//! potential spill is removed optimistically. Select uses biased coloring
//! to recover some of the frozen moves.
//!
//! The loop runs over worklists, as George and Appel define it, not over
//! rescans of the graph. Each step makes the pick a rescan would make:
//! the lowest-id node for steps 1 and 3, the first live copy in copy
//! order for step 2, and the `SpillHeap` candidate for step 4.

use super::coalesce::{color_stack, conservative_ok, merge_pair};
use crate::build::CopyRel;
use crate::ifg::InterferenceGraph;
use crate::node::NodeId;
use crate::pipeline::{Analyses, ClassCtx, ClassStrategy, RoundOutcome};
use crate::simplify::SpillHeap;
use crate::RegisterAllocator;
use pdgc_obs::{Phase, PhaseTimer, Tracer};
use pdgc_target::TargetDesc;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The iterated-coalescing allocator.
#[derive(Clone, Copy, Debug, Default)]
pub struct IteratedAllocator;

impl ClassStrategy for IteratedAllocator {
    fn allocate_class(
        &self,
        ctx: &mut ClassCtx<'_>,
        _analyses: &Analyses,
        target: &TargetDesc,
        tracer: &mut dyn Tracer,
    ) -> RoundOutcome {
        let mut costs = ctx.spill_costs.clone();
        // Simplify / conservative-coalesce / freeze / potential-spill are
        // interleaved in one worklist loop, so one Coalesce span covers it.
        let timer = PhaseTimer::start(Phase::Coalesce, ctx.round as u32, Some(ctx.class));
        let spill = &mut ctx.scratch.simplify.spill;
        let out = coalesce_iteratively(&mut ctx.ifg, &ctx.copies, &mut costs, ctx.k, spill);
        ctx.scratch
            .simplify
            .flush_counters(&mut ctx.scratch.select.metrics);
        timer.stop(&mut ctx.scratch.select.metrics, tracer);

        ctx.ifg.restore_all();
        color_stack(ctx, &out.stack, target, true, tracer)
    }
}

/// What the worklist loop decided, in order.
#[derive(Debug, Default)]
pub(crate) struct Iterated {
    /// Nodes in removal order; select colors in reverse.
    pub(crate) stack: Vec<NodeId>,
    /// Nodes frozen by step 3.
    pub(crate) frozen: Vec<NodeId>,
    /// Potential spills removed by step 4 (also on `stack`).
    pub(crate) spills: Vec<NodeId>,
}

/// The iterated-coalescing loop over `ifg` with `k` colors: simplify,
/// conservative coalesce, freeze and potential spill, each tried only when
/// the previous ones find nothing. Merges fold `costs`; every live range is
/// removed at the end.
///
/// A copy is *live* while its two representatives are distinct, unfrozen,
/// unremoved and non-interfering. A dead copy never revives: merges only
/// add interference, and freezes and removals are permanent.
pub(crate) fn coalesce_iteratively(
    ifg: &mut InterferenceGraph,
    copies: &[CopyRel],
    costs: &mut [u64],
    k: usize,
    spill: &mut SpillHeap,
) -> Iterated {
    let mut w = Worklists::new(ifg, copies, k);
    let mut out = Iterated::default();
    spill.reset();
    while w.remaining > 0 {
        // 1. Simplify a non-move-related low-degree node.
        if let Some(n) = w.pop_low(ifg, true) {
            w.remove(ifg, n);
            out.stack.push(n);
            continue;
        }
        // 2. Conservative coalesce: the first live copy that passes.
        w.live.retain(|&c| w.linked[c]);
        let mut ends = w.live.iter().map(|&c| w.ends(ifg, c));
        if let Some([a, b]) = ends.find(|&[a, b]| conservative_ok(ifg, a, b, k)) {
            w.merge(ifg, costs, a, b, spill);
            continue;
        }
        // 3. Freeze a low-degree move-related node.
        if let Some(n) = w.pop_low(ifg, false) {
            w.frozen[n.index()] = true;
            w.unlink_all(ifg, n);
            out.frozen.push(n);
            continue;
        }
        // 4. Potential spill (optimistic removal).
        let cand = spill.pop(ifg, k, costs);
        w.unlink_all(ifg, cand);
        w.remove(ifg, cand);
        out.stack.push(cand);
        out.spills.push(cand);
    }
    out
}

/// The worklist loop's state, indexed by node or by position in the copy
/// list.
struct Worklists<'c> {
    copies: &'c [CopyRel],
    k: usize,
    /// Active live ranges left.
    remaining: usize,
    /// Per node: the copies touching it, a superset of its live ones.
    moves: Vec<Vec<usize>>,
    /// Per copy: whether it is live and counted in `live_copies`.
    linked: Vec<bool>,
    /// Per node: its live copies.
    live_copies: Vec<usize>,
    /// Per node: frozen by step 3.
    frozen: Vec<bool>,
    /// The copies live at the start, in copy order; pruned lazily.
    live: Vec<usize>,
    /// Candidates for step 1 (low degree, no live copy) and step 3 (low
    /// degree), by id. Entries are checked when popped.
    simplify: BinaryHeap<Reverse<NodeId>>,
    freeze: BinaryHeap<Reverse<NodeId>>,
}

impl<'c> Worklists<'c> {
    fn new(ifg: &InterferenceGraph, copies: &'c [CopyRel], k: usize) -> Self {
        let nn = ifg.num_nodes();
        let mut w = Worklists {
            copies,
            k,
            remaining: 0,
            moves: vec![Vec::new(); nn],
            linked: vec![false; copies.len()],
            live_copies: vec![0; nn],
            frozen: vec![false; nn],
            live: Vec::new(),
            simplify: BinaryHeap::new(),
            freeze: BinaryHeap::new(),
        };
        for (c, copy) in copies.iter().enumerate() {
            let (a, b) = (ifg.rep(copy.dst), ifg.rep(copy.src));
            if a != b {
                w.moves[a.index()].push(c);
                w.moves[b.index()].push(c);
                if w.is_live(ifg, c) {
                    w.link(ifg, c);
                    w.live.push(c);
                }
            }
        }
        for n in (ifg.num_phys()..nn).map(NodeId::new) {
            if !ifg.is_merged(n) && !ifg.is_removed(n) {
                w.remaining += 1;
                if ifg.degree(n) < k {
                    w.queue_low(n);
                }
            }
        }
        w
    }

    fn ends(&self, ifg: &InterferenceGraph, c: usize) -> [NodeId; 2] {
        [ifg.rep(self.copies[c].dst), ifg.rep(self.copies[c].src)]
    }

    fn is_live(&self, ifg: &InterferenceGraph, c: usize) -> bool {
        let [a, b] = self.ends(ifg, c);
        a != b
            && !self.frozen[a.index()]
            && !self.frozen[b.index()]
            && !ifg.interferes(a, b)
            && !ifg.is_removed(a)
            && !ifg.is_removed(b)
    }

    fn link(&mut self, ifg: &InterferenceGraph, c: usize) {
        self.linked[c] = true;
        for n in self.ends(ifg, c) {
            self.live_copies[n.index()] += 1;
        }
    }

    fn unlink(&mut self, ifg: &InterferenceGraph, c: usize) {
        self.linked[c] = false;
        for n in self.ends(ifg, c) {
            self.live_copies[n.index()] -= 1;
        }
    }

    /// Queues `n` for step 1 once its last live copy has died.
    fn queue_if_unrelated(&mut self, n: NodeId) {
        if self.live_copies[n.index()] == 0 {
            self.simplify.push(Reverse(n));
        }
    }

    /// Queues the live range `n`, whose degree fell below K or which
    /// survived a merge, for steps 1 and 3.
    fn queue_low(&mut self, n: NodeId) {
        self.simplify.push(Reverse(n));
        self.freeze.push(Reverse(n));
    }

    /// Pops the lowest-id active node of degree below K, with no live copy
    /// when `unrelated` (step 1), dropping entries that no longer qualify.
    fn pop_low(&mut self, ifg: &InterferenceGraph, unrelated: bool) -> Option<NodeId> {
        let heap = if unrelated {
            &mut self.simplify
        } else {
            &mut self.freeze
        };
        while let Some(Reverse(n)) = heap.pop() {
            let active = !ifg.is_precolored(n) && !ifg.is_merged(n) && !ifg.is_removed(n);
            if active && ifg.degree(n) < self.k && !(unrelated && self.live_copies[n.index()] > 0) {
                return Some(n);
            }
        }
        None
    }

    /// Kills every live copy of `n` (frozen, or about to be removed).
    fn unlink_all(&mut self, ifg: &InterferenceGraph, n: NodeId) {
        for c in std::mem::take(&mut self.moves[n.index()]) {
            if self.linked[c] {
                self.unlink(ifg, c);
                for end in self.ends(ifg, c) {
                    self.queue_if_unrelated(end);
                }
            }
        }
    }

    /// Removes the live range `n`, queueing each neighbor whose degree
    /// falls below K.
    fn remove(&mut self, ifg: &mut InterferenceGraph, n: NodeId) {
        ifg.remove(n);
        for &x in ifg.neighbors_slice(n) {
            if !ifg.is_removed(x) && !ifg.is_precolored(x) && ifg.degree(x) + 1 == self.k {
                self.queue_low(x);
            }
        }
        self.remaining -= 1;
    }

    /// Merges the representatives `a` and `b` with [`merge_pair`]: unlinks
    /// every live copy of both, merges, then relinks the copies still
    /// live. The survivor is queued and gets a fresh spill-heap entry, and
    /// a neighbor of both whose degree falls below K is queued.
    fn merge(
        &mut self,
        ifg: &mut InterferenceGraph,
        costs: &mut [u64],
        a: NodeId,
        b: NodeId,
        spill: &mut SpillHeap,
    ) {
        let mut moves = std::mem::take(&mut self.moves[a.index()]);
        moves.append(&mut self.moves[b.index()]);
        moves.retain(|&c| {
            self.linked[c] && {
                self.unlink(ifg, c);
                true
            }
        });
        for &x in ifg.neighbors_slice(b) {
            let live = !ifg.is_removed(x) && !ifg.is_precolored(x);
            if live && ifg.interferes(x, a) && ifg.degree(x) == self.k {
                self.queue_low(x);
            }
        }
        merge_pair(ifg, costs, a, b);
        let keep = ifg.rep(a);
        for &c in &moves {
            if self.is_live(ifg, c) {
                self.link(ifg, c);
            }
        }
        for &c in &moves {
            if !self.linked[c] {
                for end in self.ends(ifg, c) {
                    self.queue_if_unrelated(end);
                }
            }
        }
        moves.retain(|&c| self.linked[c]);
        self.moves[keep.index()] = moves;
        self.remaining -= 1;
        if !ifg.is_precolored(keep) {
            self.queue_low(keep);
            spill.push(ifg, self.k, costs, keep);
        }
    }
}

impl RegisterAllocator for IteratedAllocator {
    fn name(&self) -> &'static str {
        "iterated-coalescing"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AllocSession;
    use pdgc_ir::{BinOp, FunctionBuilder, RegClass};
    use pdgc_target::PressureModel;

    #[test]
    fn coalesces_conservatively_without_spilling() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let a = b.copy(p);
        let c = b.copy(a);
        b.ret(Some(c));
        let f = b.finish();
        let target = TargetDesc::ia64_like(PressureModel::High);
        let out = IteratedAllocator
            .allocate(&f, &target, &mut AllocSession::default())
            .unwrap();
        assert_eq!(out.stats.spill_instructions, 0);
        // Low pressure: conservative coalescing removes every copy.
        assert_eq!(out.stats.copies_remaining, 0);
    }

    #[test]
    fn freezing_unblocks_move_heavy_pressure() {
        // Many copy-related values under tight pressure: freezing must
        // kick in rather than looping forever.
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let vals: Vec<_> = (0..5).map(|i| b.load(p, 16 + 32 * i)).collect();
        let copies: Vec<_> = vals.iter().map(|&v| b.copy(v)).collect();
        let mut acc = copies[0];
        for &v in &copies[1..] {
            acc = b.bin(BinOp::Add, acc, v);
        }
        // Keep the originals alive so copies cannot all coalesce.
        let mut acc2 = vals[0];
        for &v in &vals[1..] {
            acc2 = b.bin(BinOp::Add, acc2, v);
        }
        let r = b.bin(BinOp::Add, acc, acc2);
        b.ret(Some(r));
        let f = b.finish();
        let target = TargetDesc::toy(4);
        let out = IteratedAllocator
            .allocate(&f, &target, &mut AllocSession::default())
            .unwrap();
        assert!(out.lowered.verify().is_ok());
    }
}
