//! The integrated, preference-directed select phase — §5.3 of the paper.
//!
//! Select walks the ready frontier of the [`Cpg`]: at each step it
//!
//! 1. evaluates every frontier node's honorable preferences against prior
//!    register selections (paper steps 2.1–2.3),
//! 2. picks the node with the largest *strength differential* — the node
//!    with the most at stake between its best and worst register choice
//!    (step 3),
//! 3. assigns it a register by screening the available set through its
//!    preferences, strongest first (steps 4.1–4.4), reserving registers
//!    that not-yet-allocated preference partners will need (step 4.3),
//!    spilling when no register is available — or *actively* when the
//!    node's strongest preference is to live in memory (§5.4),
//! 4. releases its CPG successors (step 5).
//!
//! Spill decisions, coalescing (same-register selection), and every
//! preference type are thereby resolved simultaneously.
//!
//! Every register set is a `u64` mask over register indices (bit `i` is
//! register `i`): the target builder caps a class at 64 registers, so
//! screening, narrowing and the step 4.4 pick are mask operations. The
//! frontier is a max-heap keyed on (differential, lowest id), so a pick
//! costs O(log F) rather than a scan of all F frontier nodes.

use crate::cpg::Cpg;
use crate::ifg::InterferenceGraph;
use crate::node::{NodeId, NodeMap};
use crate::rpg::{PrefKind, PrefTarget, Preference, Rpg};
use pdgc_arena::{RowTable, VecPool};
use pdgc_ir::RegClass;
use pdgc_obs::{
    Considered, Counter, Decision, Event, MetricsRegistry, SpillReason, Tracer, ValueHist, Verdict,
};
use pdgc_target::{PhysReg, TargetDesc};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A frontier-heap entry: a node keyed by its differential, lowest id
/// first on ties.
type FrontierKey = (i64, Reverse<NodeId>);

/// Resettable scratch for [`select_traced_in`]: the reverse-preference
/// index, the `best` rows and `used` masks, the differential caches, the
/// frontier heap, and the per-select working vectors.
#[derive(Debug, Default)]
pub struct SelectScratch {
    rev_pref: RowTable<NodeId>,
    /// The reverse index's `(target, holder)` pairs, in holder order.
    rev_found: Vec<(NodeId, NodeId)>,
    assignments: VecPool<Option<PhysReg>>,
    bools: VecPool<bool>,
    diffs: VecPool<i64>,
    counts: VecPool<usize>,
    nodes: VecPool<NodeId>,
    /// Reused per-node screening list (honorable + deferred preferences).
    screens: Vec<ScreenEntry>,
    /// The per-node occupancy masks, parked between selects.
    used: Vec<u64>,
    /// The frontier heap, parked (empty) between selects.
    heap: BinaryHeap<FrontierKey>,
    /// Always-on screening-outcome counters (honored/deferred/skipped by
    /// preference kind, spill reasons, strength distribution) plus the
    /// strategy's per-class phase latencies. The pipeline drains this
    /// into the worker's `PhaseScratch` registry after every class.
    pub metrics: MetricsRegistry,
}

impl SelectScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Capacity of the pooled occupancy masks (diagnostic; a regression
    /// test asserts they come back after a select that spills for lack of
    /// registers).
    pub fn used_capacity(&self) -> usize {
        self.used.capacity()
    }
}

/// Tunables for the select phase.
#[derive(Clone, Copy, Debug)]
pub struct SelectConfig {
    /// Spill a node whose strongest preference is negative (it prefers
    /// memory). Enabled by the full-preference allocator, disabled in
    /// coalescing-only mode.
    pub active_spill: bool,
    /// When no preference discriminates among the remaining candidates,
    /// pick the lowest-index non-volatile register first (the "simple
    /// heuristic" the paper gives preference-unaware allocators); otherwise
    /// pick the lowest index overall.
    pub nonvolatile_first: bool,
}

impl Default for SelectConfig {
    fn default() -> Self {
        SelectConfig {
            active_spill: true,
            nonvolatile_first: false,
        }
    }
}

/// The outcome of selection for one class, and of every class strategy's
/// round ([`crate::pipeline::RoundOutcome`]).
#[derive(Clone, Debug)]
pub struct SelectResult {
    /// Register per node (precolored nodes prefilled; `None` = spilled or
    /// not part of this universe).
    pub assignment: Vec<Option<PhysReg>>,
    /// Live-range nodes that must be spilled.
    pub spilled: Vec<NodeId>,
}

impl SelectResult {
    /// Returns this result's vectors to `scratch` for reuse.
    pub fn recycle(self, scratch: &mut SelectScratch) {
        scratch.assignments.put(self.assignment);
        scratch.nodes.put(self.spilled);
    }
}

/// Runs preference-directed selection over one class, emitting one
/// [`Decision`] event per node resolved to `tracer` — the ready-frontier
/// size, the strength differential, every preference screened with its
/// strength, and the verdict (register or spill with its cost) — and
/// drawing every per-select vector — the reverse preference index,
/// assignment, differential caches, frontier heap, and occupancy masks —
/// from pooled scratch. Recycle the result with [`SelectResult::recycle`].
///
/// `no_spill[n]` marks spill temporaries that must receive registers.
/// `spill_costs` (per node, `u64::MAX` = unspillable) only feeds the spill
/// verdicts in the trace; pass `&[]` when untraced. `round` labels the
/// events with the pipeline's spill round.
///
/// # Panics
///
/// Panics if the CPG is cyclic (cannot happen for graphs built by
/// [`Cpg::build`]).
#[allow(clippy::too_many_arguments)]
pub fn select_traced_in(
    ifg: &InterferenceGraph,
    nodes: &NodeMap,
    rpg: &Rpg,
    cpg: &Cpg,
    target: &TargetDesc,
    no_spill: &[bool],
    spill_costs: &[u64],
    config: SelectConfig,
    round: u32,
    tracer: &mut dyn Tracer,
    scratch: &mut SelectScratch,
) -> SelectResult {
    // Reverse preference index: row m holds, once each, the CPG nodes
    // with a preference targeting (the representative of) m, in node
    // order. Assigning m makes exactly those nodes' differentials stale.
    let found = &mut scratch.rev_found;
    found.clear();
    for holder in cpg.nodes() {
        let first = found.len();
        for pref in rpg.prefs(holder) {
            if let PrefTarget::Node(m) = pref.target {
                let m = ifg.rep(m);
                if !found[first..].iter().any(|&(target, _)| target == m) {
                    found.push((m, holder));
                }
            }
        }
    }
    let mut rev_pref = std::mem::take(&mut scratch.rev_pref);
    let found = &scratch.rev_found;
    rev_pref.fill_counted(nodes.num_nodes(), || {
        found.iter().map(|&(m, holder)| (m.index(), holder))
    });
    let mut assignment = scratch.assignments.take();
    assignment.extend(nodes.precolored());
    let class = nodes.class();
    let k = target.num_regs(class);
    let (mut pair_first, mut pair_second) = ([0u64; 64], [0u64; 64]);
    if let Some(rule) = target.pair_rule(class) {
        for r in target.regs(class) {
            for s in target.regs(class).filter(|&s| rule.allows(r, s)) {
                pair_second[r.index()] |= 1 << s.index();
                pair_first[s.index()] |= 1 << r.index();
            }
        }
    }
    let mut used = std::mem::take(&mut scratch.used);
    used.clear();
    used.resize(nodes.num_nodes(), 0);
    let mut heap = std::mem::take(&mut scratch.heap);
    heap.clear();
    Selector {
        ifg,
        nodes,
        rpg,
        cpg,
        no_spill,
        spill_costs,
        config,
        round,
        assignment,
        spilled: scratch.bools.take_filled(nodes.num_nodes(), false),
        processed: scratch.bools.take_filled(nodes.num_nodes(), false),
        in_frontier: scratch.bools.take_filled(nodes.num_nodes(), false),
        rev_pref,
        regs: RegFile::new(target, class),
        pair_first,
        pair_second,
        k,
        best: scratch.diffs.take_filled(nodes.num_nodes() * k, NO_PREF),
        used,
        diff_cache: scratch.diffs.take_filled(nodes.num_nodes(), UNKEYED),
        diff_dirty: scratch.bools.take_filled(nodes.num_nodes(), true),
        heap,
        frontier_len: 0,
        screen_buf: std::mem::take(&mut scratch.screens),
        metrics: std::mem::take(&mut scratch.metrics),
    }
    .run(tracer, scratch)
}

struct Selector<'a> {
    ifg: &'a InterferenceGraph,
    nodes: &'a NodeMap,
    rpg: &'a Rpg,
    cpg: &'a Cpg,
    no_spill: &'a [bool],
    spill_costs: &'a [u64],
    config: SelectConfig,
    round: u32,
    assignment: Vec<Option<PhysReg>>,
    spilled: Vec<bool>,
    processed: Vec<bool>,
    /// Released by its CPG predecessors and not yet picked.
    in_frontier: Vec<bool>,
    /// Row `m`: nodes holding a preference that targets `m`'s
    /// representative.
    rev_pref: RowTable<NodeId>,
    /// The class's register file.
    regs: RegFile,
    /// `pair_first[p]`: the registers a paired load may write its first
    /// word to when `p` takes the second; `pair_second[p]`, the registers
    /// it may write the second word to when `p` takes the first.
    pair_first: [u64; 64],
    pair_second: [u64; 64],
    /// Registers in the class: the width of every `best` row.
    k: usize,
    /// `best[n * k + r]`: the strength of `n`'s strongest preference that
    /// register `r` honors under the current assignments, or [`NO_PREF`].
    best: Vec<i64>,
    /// `used[n]`: the registers `n`'s assigned interference neighbors hold.
    used: Vec<u64>,
    /// Step-3 strength differential per node — the key of its live heap
    /// entry once it is in the frontier — valid while the matching
    /// `diff_dirty` bit is clear.
    diff_cache: Vec<i64>,
    diff_dirty: Vec<bool>,
    /// The frontier, keyed on `diff_cache`. An entry is stale once its
    /// node has left the frontier or been re-keyed; every frontier node
    /// has a live entry, one whose key is its `diff_cache`.
    heap: BinaryHeap<FrontierKey>,
    /// Frontier nodes, counted.
    frontier_len: usize,
    /// Reused screening list, cleared between nodes.
    screen_buf: Vec<ScreenEntry>,
    /// Taken from the scratch for the duration of the select, parked back
    /// in `run`; every bump is an array write, never an allocation.
    metrics: MetricsRegistry,
}

/// One screened preference of the node being allocated: an *honorable*
/// preference carries the registers of the available set that honor it; a
/// *deferred* one (unallocated partner) carries none — it narrows to the
/// registers that keep the partner able to honor it later.
#[derive(Clone, Copy, Debug)]
struct ScreenEntry {
    strength: i64,
    pref: Preference,
    deferred: bool,
    regs: u64,
}

/// How one preference screen ended, for the scorecard.
#[derive(Clone, Copy)]
enum ScreenOutcome {
    /// Narrowed the candidate set with the partner already placed.
    Honored,
    /// Narrowed the set to keep an unallocated partner feasible (2.2).
    Deferred,
    /// Abandoned: the filter would have emptied the set (or added no
    /// gain).
    Skipped,
}

/// A `best` row entry no preference admits: the register satisfies
/// nothing, which step 3 scores as 0. The RPG uses `i64::MIN` only as the
/// "never" strength of the register kind a one-sided preference excludes,
/// and that preference never admits such a register, so no admitted
/// strength collides with it (the debug oracle in `rekey` would catch one
/// that did).
const NO_PREF: i64 = i64::MIN;

/// The `diff_cache` of a node never keyed. A differential is a spread
/// (non-negative) or `i64::MIN + 1`, never this, so a node's first
/// computation always pushes its entry.
const UNKEYED: i64 = i64::MIN;

/// The register indices in `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let r = (mask != 0).then(|| mask.trailing_zeros() as usize);
        mask &= mask.wrapping_sub(1);
        r
    })
}

/// One class's register file as masks over register indices. Select and
/// every baseline pick registers through it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RegFile {
    class: RegClass,
    /// Every register of the class.
    pub(crate) all: u64,
    /// Its volatile (caller-saved) registers.
    pub(crate) vol: u64,
}

impl RegFile {
    /// The register file of `class` on `target`.
    pub(crate) fn new(target: &TargetDesc, class: RegClass) -> Self {
        let mut file = RegFile {
            class,
            all: 0,
            vol: 0,
        };
        for r in target.regs(class) {
            file.all |= 1 << r.index();
            if target.is_volatile(r) {
                file.vol |= 1 << r.index();
            }
        }
        file
    }

    /// The registers of the file not in `taken`.
    pub(crate) fn free(&self, taken: u64) -> u64 {
        self.all & !taken
    }

    /// The §6.2 heuristic for preference-unaware picks: the non-volatile
    /// registers of `cand` when `nonvolatile_first` and one remains, else
    /// all of `cand`.
    pub(crate) fn narrow(&self, cand: u64, nonvolatile_first: bool) -> u64 {
        let nonvol = cand & !self.vol;
        if nonvolatile_first && nonvol != 0 {
            nonvol
        } else {
            cand
        }
    }

    /// The lowest register of `cand` after [`narrow`](Self::narrow), or
    /// `None` when `cand` is empty.
    pub(crate) fn pick(&self, cand: u64, nonvolatile_first: bool) -> Option<PhysReg> {
        let pick = self.narrow(cand, nonvolatile_first);
        (pick != 0).then(|| PhysReg::new(self.class, pick.trailing_zeros() as u8))
    }
}

/// The registers that `neighbors` hold, as `reg_of` reports them.
pub(crate) fn taken(neighbors: &[NodeId], reg_of: impl Fn(NodeId) -> Option<PhysReg>) -> u64 {
    neighbors
        .iter()
        .filter_map(|&x| reg_of(x))
        .fold(0, |taken, r| taken | 1 << r.index())
}

impl Selector<'_> {
    fn run(mut self, tracer: &mut dyn Tracer, scratch: &mut SelectScratch) -> SelectResult {
        self.fill_rows();
        let mut pred_remaining = scratch.counts.take();
        pred_remaining
            .extend((0..self.nodes.num_nodes()).map(|i| self.cpg.pred_count(NodeId::new(i))));
        let cpg = self.cpg;
        for n in cpg.nodes().filter(|&n| cpg.pred_count(n) == 0) {
            self.enter_frontier(n);
        }
        let total: usize = cpg.nodes().count();
        let mut done = 0;

        // Step 3: the frontier node with the largest differential (lowest
        // node id on ties) tops the heap. Differentials are cached and only
        // recomputed, in O(K) from the node's row, for nodes an assignment
        // actually invalidated — an interference neighbor or preference
        // holder of the assigned node — which are then re-keyed.
        while let Some((differential, Reverse(n))) = self.heap.pop() {
            self.metrics.bump(Counter::SelectHeapPops);
            if !self.in_frontier[n.index()] || self.diff_cache[n.index()] != differential {
                continue; // stale: picked already, or re-keyed since
            }
            let frontier = self.frontier_len as u32;
            self.metrics
                .add(Counter::SelectFrontierScanned, self.frontier_len as u64);
            self.in_frontier[n.index()] = false;
            self.frontier_len -= 1;

            self.allocate(n, frontier, differential, tracer);
            self.processed[n.index()] = true;
            done += 1;

            // Step 5: release successors.
            for &s in cpg.succs(n) {
                pred_remaining[s.index()] -= 1;
                if pred_remaining[s.index()] == 0 {
                    self.enter_frontier(s);
                }
            }
        }
        debug_assert_eq!(
            self.frontier_len, 0,
            "a frontier node lost its live heap entry"
        );
        assert_eq!(done, total, "CPG must drain completely (acyclic)");

        let mut spilled = scratch.nodes.take();
        spilled.extend(
            (0..self.nodes.num_nodes())
                .map(NodeId::new)
                .filter(|n| self.spilled[n.index()]),
        );
        // Park every internal buffer back in the scratch before returning:
        // the next select call reuses all of them.
        scratch.counts.put(pred_remaining);
        scratch.rev_pref = std::mem::take(&mut self.rev_pref);
        scratch.bools.put(self.spilled);
        scratch.bools.put(self.processed);
        scratch.bools.put(self.in_frontier);
        scratch.bools.put(self.diff_dirty);
        scratch.diffs.put(self.diff_cache);
        scratch.diffs.put(std::mem::take(&mut self.best));
        scratch.used = std::mem::take(&mut self.used);
        scratch.heap = std::mem::take(&mut self.heap);
        scratch.screens = std::mem::take(&mut self.screen_buf);
        scratch.metrics = std::mem::take(&mut self.metrics);
        SelectResult {
            assignment: self.assignment,
            spilled,
        }
    }

    /// Fills the `best` rows and `used` masks of every CPG node,
    /// preference-major: each preference the initial assignments (the
    /// precolored nodes) already decide folds into its holder's `best`
    /// row, and each precolored register marks the `used` mask of its
    /// interference neighbors.
    fn fill_rows(&mut self) {
        let rpg = self.rpg;
        for n in self.cpg.nodes() {
            for pref in rpg.prefs(n) {
                self.fold_pref(n, pref);
            }
        }
        for i in 0..self.nodes.num_nodes() {
            if let Some(r) = self.assignment[i] {
                for &x in self.ifg.neighbors_slice(NodeId::new(i)) {
                    self.used[x.index()] |= 1 << r.index();
                }
            }
        }
    }

    /// The registers that honor `pref` under the current assignments:
    /// none while its partner is unallocated (deferred, 2.2).
    fn admits(&self, pref: &Preference) -> u64 {
        match pref.target {
            PrefTarget::Volatile => self.regs.vol,
            PrefTarget::NonVolatile => self.regs.all & !self.regs.vol,
            PrefTarget::Set(mask) => mask & self.regs.all,
            PrefTarget::Node(m) => {
                // Resolve through coalesced representatives (pre-
                // coalescing merges nodes before selection).
                let Some(partner) = self.assignment[self.ifg.rep(m).index()] else {
                    return 0;
                };
                match pref.kind {
                    PrefKind::Coalesce => 1 << partner.index(),
                    PrefKind::SequentialPlus => self.pair_first[partner.index()],
                    PrefKind::SequentialMinus => self.pair_second[partner.index()],
                    PrefKind::Prefers => 0,
                }
            }
        }
    }

    /// The strength of honoring `pref` with register `r`.
    fn strength_at(&self, pref: &Preference, r: usize) -> i64 {
        if self.regs.vol >> r & 1 == 1 {
            pref.strength_vol
        } else {
            pref.strength_nonvol
        }
    }

    /// The strongest honoring of `pref` by a register of `regs`, or `None`
    /// when `regs` is empty.
    fn strength_over(&self, pref: &Preference, regs: u64) -> Option<i64> {
        let vol = (regs & self.regs.vol != 0).then_some(pref.strength_vol);
        let nonvol = (regs & !self.regs.vol != 0).then_some(pref.strength_nonvol);
        vol.max(nonvol)
    }

    /// Raises `n`'s `best` row to `pref`'s strength at every register
    /// `pref` admits under the current assignments.
    fn fold_pref(&mut self, n: NodeId, pref: &Preference) {
        for r in bits(self.admits(pref)) {
            let s = self.strength_at(pref, r);
            let cell = &mut self.best[n.index() * self.k + r];
            *cell = (*cell).max(s);
        }
    }

    /// Steps 2.1–2.2: screens the preferences of `n` into `out` — first
    /// the honorable ones (a non-empty honoring set within `avail`), then
    /// the deferred ones (partner not yet allocated), each in preference
    /// order so the later stable sort ties out by preference order.
    fn collect_screens(&self, n: NodeId, avail: u64, out: &mut Vec<ScreenEntry>) {
        let rpg = self.rpg;
        for &pref in rpg.prefs(n) {
            let regs = avail & self.admits(&pref);
            if let Some(strength) = self.strength_over(&pref, regs) {
                out.push(ScreenEntry {
                    strength,
                    pref,
                    deferred: false,
                    regs,
                });
            }
        }
        for &pref in rpg.prefs(n) {
            if let PrefTarget::Node(m) = pref.target {
                let m = self.ifg.rep(m);
                let pending = self.assignment[m.index()].is_none()
                    && !self.spilled[m.index()]
                    && !self.nodes.is_precolored(m)
                    && self.cpg.contains(m);
                if pending && !matches!(pref.kind, PrefKind::Prefers) {
                    out.push(ScreenEntry {
                        strength: pref.best_strength(),
                        pref,
                        deferred: true,
                        regs: 0,
                    });
                }
            }
        }
    }

    /// Puts `n` in the frontier and keys it.
    fn enter_frontier(&mut self, n: NodeId) {
        self.in_frontier[n.index()] = true;
        self.frontier_len += 1;
        self.rekey(n);
    }

    /// Recomputes the differential of frontier node `n` if a prior
    /// assignment marked it stale, and pushes a new heap entry when the
    /// key moved (the old one is then stale).
    fn rekey(&mut self, n: NodeId) {
        if !self.in_frontier[n.index()] || !self.diff_dirty[n.index()] {
            return;
        }
        let d = self.row_differential(n);
        #[cfg(debug_assertions)]
        assert_eq!(d, self.differential(n), "select rows out of date for {n}");
        self.diff_dirty[n.index()] = false;
        self.metrics.bump(Counter::SelectDiffRecomputes);
        if d != self.diff_cache[n.index()] {
            self.diff_cache[n.index()] = d;
            self.heap.push((d, Reverse(n)));
        }
    }

    /// Step 3's metric read off `n`'s row: the spread between the best
    /// and worst per-register preference satisfaction over the registers
    /// no assigned neighbor holds, in O(K).
    fn row_differential(&self, n: NodeId) -> i64 {
        let best = &self.best[n.index() * self.k..][..self.k];
        let avail = self.regs.free(self.used[n.index()]);
        if avail == 0 {
            return i64::MIN + 1; // will spill regardless of order
        }
        let mut hi = i64::MIN;
        let mut lo = i64::MAX;
        for r in bits(avail) {
            let s = if best[r] == NO_PREF { 0 } else { best[r] };
            hi = hi.max(s);
            lo = lo.min(s);
        }
        hi - lo
    }

    /// Brings the rows up to date with `n`'s new register, marks every
    /// node whose differential reads `n`'s assignment as stale — `n`'s
    /// interference neighbors (their available sets shrank) and the
    /// holders of preferences targeting `n` (those preferences just became
    /// honorable) — and re-keys those in the frontier. Spills change no
    /// assignment, so they invalidate nothing.
    fn invalidate_after_assign(&mut self, n: NodeId, reg: PhysReg) {
        let ifg = self.ifg;
        for &x in ifg.neighbors_slice(n) {
            self.used[x.index()] |= 1 << reg.index();
            self.diff_dirty[x.index()] = true;
        }
        let rpg = self.rpg;
        for i in 0..self.rev_pref.row(n.index()).len() {
            let holder = self.rev_pref.row(n.index())[i];
            self.diff_dirty[holder.index()] = true;
            if self.processed[holder.index()] {
                continue;
            }
            for pref in rpg.prefs(holder) {
                if matches!(pref.target, PrefTarget::Node(m) if ifg.rep(m) == n) {
                    self.fold_pref(holder, pref);
                }
            }
        }
        // Re-key only now: a node may be both a neighbor and a holder.
        for &x in ifg.neighbors_slice(n) {
            self.rekey(x);
        }
        for i in 0..self.rev_pref.row(n.index()).len() {
            self.rekey(self.rev_pref.row(n.index())[i]);
        }
    }

    /// Step 3's metric recomputed from scratch, the oracle for
    /// [`row_differential`](Self::row_differential): the spread between
    /// the best and worst per-register preference satisfaction over the
    /// currently available registers.
    #[cfg(debug_assertions)]
    fn differential(&self, n: NodeId) -> i64 {
        let used = taken(self.ifg.neighbors_slice(n), |x| self.assignment[x.index()]);
        let avail = self.regs.free(used);
        if avail == 0 {
            return i64::MIN + 1; // will spill regardless of order
        }
        let mut best = i64::MIN;
        let mut worst = i64::MAX;
        for r in bits(avail) {
            let s = self
                .rpg
                .prefs(n)
                .iter()
                .filter(|pref| self.admits(pref) >> r & 1 == 1)
                .map(|pref| self.strength_at(pref, r))
                .max()
                .unwrap_or(0);
            best = best.max(s);
            worst = worst.min(s);
        }
        best - worst
    }

    /// The trace label for a preference kind.
    fn kind_str(kind: PrefKind) -> &'static str {
        match kind {
            PrefKind::Coalesce => "coalesce",
            PrefKind::SequentialPlus => "seq+",
            PrefKind::SequentialMinus => "seq-",
            PrefKind::Prefers => "prefers",
        }
    }

    /// The scorecard counter for one screening outcome: the (kind,
    /// honored/deferred/skipped) cell of the Figure 5(a) table.
    fn screen_counter(kind: PrefKind, outcome: ScreenOutcome) -> Counter {
        use ScreenOutcome::*;
        match (kind, outcome) {
            (PrefKind::Coalesce, Honored) => Counter::PrefCoalesceHonored,
            (PrefKind::Coalesce, Deferred) => Counter::PrefCoalesceDeferred,
            (PrefKind::Coalesce, Skipped) => Counter::PrefCoalesceSkipped,
            (PrefKind::SequentialPlus, Honored) => Counter::PrefSeqPlusHonored,
            (PrefKind::SequentialPlus, Deferred) => Counter::PrefSeqPlusDeferred,
            (PrefKind::SequentialPlus, Skipped) => Counter::PrefSeqPlusSkipped,
            (PrefKind::SequentialMinus, Honored) => Counter::PrefSeqMinusHonored,
            (PrefKind::SequentialMinus, Deferred) => Counter::PrefSeqMinusDeferred,
            (PrefKind::SequentialMinus, Skipped) => Counter::PrefSeqMinusSkipped,
            (PrefKind::Prefers, Honored) => Counter::PrefPrefersHonored,
            (PrefKind::Prefers, Deferred) => Counter::PrefPrefersDeferred,
            (PrefKind::Prefers, Skipped) => Counter::PrefPrefersSkipped,
        }
    }

    /// The trace label for a preference target.
    fn target_str(&self, target: PrefTarget) -> String {
        match target {
            PrefTarget::Node(m) if self.nodes.is_precolored(m) => {
                self.nodes.phys_reg(m).to_string()
            }
            PrefTarget::Node(m) => format!("node:{}", m.index()),
            PrefTarget::Volatile => "volatile".to_string(),
            PrefTarget::NonVolatile => "non-volatile".to_string(),
            PrefTarget::Set(mask) => format!("set:{mask:#x}"),
        }
    }

    /// The spill cost reported in trace verdicts.
    fn cost_of(&self, n: NodeId) -> u64 {
        self.spill_costs.get(n.index()).copied().unwrap_or(0)
    }

    /// Emits the decision event for `n` (only called when tracing).
    #[allow(clippy::too_many_arguments)]
    fn emit_decision(
        &self,
        tracer: &mut dyn Tracer,
        n: NodeId,
        frontier: u32,
        differential: i64,
        available: u32,
        considered: Vec<Considered>,
        verdict: Verdict,
    ) {
        tracer.record(&Event::Decision(Decision {
            round: self.round,
            class: self.nodes.class(),
            node: n.index() as u32,
            members: self
                .nodes
                .members(n)
                .iter()
                .map(|v| v.index() as u32)
                .collect(),
            frontier,
            differential,
            available,
            considered,
            verdict,
        }));
    }

    /// Steps 4.1–4.4 for the chosen node, on register masks: a warm
    /// untraced select never allocates here.
    fn allocate(&mut self, n: NodeId, frontier: u32, differential: i64, tracer: &mut dyn Tracer) {
        let trace = tracer.enabled();
        let avail = self.regs.free(self.used[n.index()]);
        let navail = avail.count_ones();
        if avail == 0 {
            self.spill(n);
            self.metrics.bump(Counter::SelectSpilledNoRegister);
            if trace {
                let verdict = Verdict::Spilled {
                    reason: SpillReason::NoRegister,
                    cost: self.cost_of(n),
                };
                self.emit_decision(tracer, n, frontier, differential, 0, Vec::new(), verdict);
            }
            return;
        }
        let mut screens = std::mem::take(&mut self.screen_buf);
        debug_assert!(screens.is_empty());
        self.collect_screens(n, avail, &mut screens);
        // §5.4 active spilling: the strongest preference is for memory.
        if self.config.active_spill && !self.no_spill[n.index()] {
            let strongest = screens
                .iter()
                .filter(|e| !e.deferred)
                .map(|e| e.strength)
                .max();
            if let Some(s) = strongest {
                if s < 0 {
                    self.spill(n);
                    self.metrics.bump(Counter::SelectSpilledPreferMemory);
                    if trace {
                        let considered = screens
                            .iter()
                            .filter(|e| !e.deferred)
                            .map(|e| Considered {
                                kind: Self::kind_str(e.pref.kind),
                                target: self.target_str(e.pref.target),
                                strength: e.strength,
                                deferred: false,
                                narrowed: false,
                                survivors: navail,
                            })
                            .collect();
                        let verdict = Verdict::Spilled {
                            reason: SpillReason::PreferMemory,
                            cost: self.cost_of(n),
                        };
                        self.emit_decision(
                            tracer,
                            n,
                            frontier,
                            differential,
                            navail,
                            considered,
                            verdict,
                        );
                    }
                    screens.clear();
                    self.screen_buf = screens;
                    return;
                }
            }
        }

        // Steps 4.2–4.3: screen strongest-to-weakest over *all* of n's
        // preferences, honorable and deferred alike. An honorable
        // preference narrows the candidate set when it can still be
        // honored within it; a deferred (unallocated-partner) preference
        // narrows to the registers that leave the partner able to honor
        // it later. Interleaving by strength matters: a strong deferred
        // pairing must be able to veto a weaker coalesce before the
        // coalesce pins the candidate set (Figure 5(a)).
        screens.sort_by_key(|e| Reverse(e.strength));
        let mut considered: Vec<Considered> = Vec::new();
        let mut cand = avail;
        for e in screens.drain(..) {
            let mut entry = trace.then(|| Considered {
                kind: Self::kind_str(e.pref.kind),
                target: self.target_str(e.pref.target),
                strength: e.strength,
                deferred: e.deferred,
                narrowed: false,
                survivors: cand.count_ones(),
            });
            let narrowed = if !e.deferred {
                let narrowed = cand & e.regs;
                let gain = self.strength_over(&e.pref, narrowed).unwrap_or(0);
                if gain > 0 {
                    narrowed
                } else {
                    0
                }
            } else if e.strength > 0 {
                self.partner_feasible(&e.pref, cand)
            } else {
                0
            };
            // A filter that would empty the set is skipped: the
            // preference is abandoned rather than hurting this node.
            if narrowed == 0 {
                self.metrics
                    .bump(Self::screen_counter(e.pref.kind, ScreenOutcome::Skipped));
            } else {
                if let Some(en) = &mut entry {
                    en.narrowed = true;
                    en.survivors = narrowed.count_ones();
                }
                cand = narrowed;
                if e.deferred {
                    self.metrics
                        .bump(Self::screen_counter(e.pref.kind, ScreenOutcome::Deferred));
                } else {
                    self.metrics
                        .bump(Self::screen_counter(e.pref.kind, ScreenOutcome::Honored));
                    self.metrics
                        .observe_value(ValueHist::PrefStrengthHonored, e.strength.max(0) as u64);
                }
            }
            considered.extend(entry);
        }
        self.screen_buf = screens;

        // Step 4.4: pick the lowest candidate, non-volatile first when
        // configured and one remains.
        let pick = self.regs.narrow(cand, self.config.nonvolatile_first);
        let reg = PhysReg::new(self.nodes.class(), pick.trailing_zeros() as u8);
        self.assignment[n.index()] = Some(reg);
        self.metrics.bump(Counter::SelectAssigned);
        self.invalidate_after_assign(n, reg);
        if trace {
            self.emit_decision(
                tracer,
                n,
                frontier,
                differential,
                navail,
                considered,
                Verdict::Assigned { reg },
            );
        }
    }

    /// The registers of `cand` that do not prevent the deferred preference
    /// `pref` from being honored later:
    ///
    /// * a *coalesce* partner must later be able to take the same register
    ///   we pick, so registers already blocked by the partner's allocated
    ///   neighbors (its `used` mask) are removed;
    /// * a *sequential* partner must later find an unblocked register that
    ///   pairs with ours under the target rule.
    fn partner_feasible(&self, pref: &Preference, cand: u64) -> u64 {
        let PrefTarget::Node(m) = pref.target else {
            return cand;
        };
        let partner_free = self.regs.free(self.used[self.ifg.rep(m).index()]);
        match pref.kind {
            PrefKind::Coalesce => cand & partner_free,
            PrefKind::SequentialPlus | PrefKind::SequentialMinus => bits(cand)
                .filter(|&r| {
                    let partners = match pref.kind {
                        PrefKind::SequentialPlus => self.pair_second[r],
                        _ => self.pair_first[r],
                    };
                    partners & partner_free & !(1 << r) != 0
                })
                .fold(0, |feasible, r| feasible | 1 << r),
            PrefKind::Prefers => cand,
        }
    }

    fn spill(&mut self, n: NodeId) {
        assert!(
            !self.no_spill[n.index()],
            "select: forced to spill unspillable temporary {n}"
        );
        self.spilled[n.index()] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplify::{simplify, SimplifyMode};
    use pdgc_ir::RegClass;
    use pdgc_obs::NoopTracer;
    use pdgc_target::TargetDesc;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    /// Universe with 3 precolored + the given interference edges among
    /// live ranges 3..3+m.
    fn setup(m: usize, edges: &[(usize, usize)]) -> (InterferenceGraph, NodeMap) {
        use pdgc_ir::FunctionBuilder;
        // NodeMap needs a function; build one with m int vregs all used.
        let mut b = FunctionBuilder::new("t", vec![], None);
        let base = b.iconst(0);
        let mut vs = vec![];
        for i in 0..m {
            let v = b.load(base, (i * 16) as i32 + 128);
            vs.push(v);
        }
        // keep them all live to the end via stores
        for &v in &vs {
            b.store(v, base, 0);
        }
        b.ret(None);
        let f = b.finish();
        let target = TargetDesc::figure7();
        let pinned = vec![None; f.num_vregs()];
        let nm = NodeMap::build(&f, &target, RegClass::Int, &pinned);
        let mut g = InterferenceGraph::new(nm.num_nodes(), nm.num_phys());
        for &(a, b2) in edges {
            g.add_edge(n(a), n(b2));
        }
        (g, nm)
    }

    fn run_select(
        g: &mut InterferenceGraph,
        nm: &NodeMap,
        rpg: &Rpg,
        config: SelectConfig,
    ) -> SelectResult {
        let target = TargetDesc::figure7();
        let costs = vec![10u64; nm.num_nodes()];
        let sr = simplify(g, 3, &costs, SimplifyMode::Optimistic);
        g.restore_all();
        let cpg = Cpg::build(g, &sr.stack, &sr.optimistic, 3);
        let no_spill = vec![false; nm.num_nodes()];
        select_traced_in(
            g,
            nm,
            rpg,
            &cpg,
            &target,
            &no_spill,
            &[],
            config,
            1,
            &mut NoopTracer,
            &mut SelectScratch::new(),
        )
    }

    #[test]
    fn triangle_gets_three_distinct_registers() {
        // Nodes 3,4,5 mutually interfere (a triangle), node 6 is free.
        let (mut g, nm) = setup(3, &[(3, 4), (3, 5), (4, 5)]);
        let rpg = Rpg::new(nm.num_nodes());
        let r = run_select(&mut g, &nm, &rpg, SelectConfig::default());
        assert!(r.spilled.is_empty());
        let mut regs: Vec<_> = (3..6).map(|i| r.assignment[i].unwrap()).collect();
        regs.sort();
        regs.dedup();
        assert_eq!(regs.len(), 3);
    }

    #[test]
    fn k4_with_three_colors_spills_exactly_one() {
        let (mut g, nm) = setup(3, &[(3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)]);
        let rpg = Rpg::new(nm.num_nodes());
        let r = run_select(&mut g, &nm, &rpg, SelectConfig::default());
        assert_eq!(r.spilled.len() + (3..7).filter(|&i| r.assignment[i].is_some()).count(), 4);
        // All allocated nodes have distinct registers (they all interfere).
        let mut regs: Vec<_> = (3..7).filter_map(|i| r.assignment[i]).collect();
        let before = regs.len();
        regs.sort();
        regs.dedup();
        assert_eq!(regs.len(), before);
    }

    #[test]
    fn coalesce_preference_matches_partner_register() {
        // Two non-interfering nodes 4 and 5, copy-related; 4 also
        // interferes with nothing else. Force processing order via CPG and
        // check 5 lands on 4's register.
        let (mut g, nm) = setup(2, &[(3, 4), (3, 5)]);
        let mut rpg = Rpg::new(nm.num_nodes());
        for (a, b) in [(4, 5), (5, 4)] {
            rpg.add(
                n(a),
                Preference {
                    kind: PrefKind::Coalesce,
                    target: PrefTarget::Node(n(b)),
                    strength_vol: 40,
                    strength_nonvol: 38,
                },
            );
        }
        let r = run_select(&mut g, &nm, &rpg, SelectConfig::default());
        assert!(r.spilled.is_empty());
        assert_eq!(r.assignment[4], r.assignment[5]);
    }

    #[test]
    fn dedicated_register_preference_honored() {
        // Node 4 copy-related to precolored r2 (node 2).
        let (mut g, nm) = setup(1, &[(3, 4)]);
        let mut rpg = Rpg::new(nm.num_nodes());
        rpg.add(
            n(4),
            Preference {
                kind: PrefKind::Coalesce,
                target: PrefTarget::Node(n(2)),
                strength_vol: 10,
                strength_nonvol: 10,
            },
        );
        let r = run_select(&mut g, &nm, &rpg, SelectConfig::default());
        assert_eq!(r.assignment[4], Some(pdgc_target::PhysReg::int(2)));
    }

    #[test]
    fn prefers_nonvolatile_honored() {
        let (mut g, nm) = setup(1, &[(3, 4)]);
        let mut rpg = Rpg::new(nm.num_nodes());
        rpg.add(
            n(4),
            Preference {
                kind: PrefKind::Prefers,
                target: PrefTarget::NonVolatile,
                strength_vol: i64::MIN,
                strength_nonvol: 25,
            },
        );
        rpg.add(
            n(4),
            Preference {
                kind: PrefKind::Prefers,
                target: PrefTarget::Volatile,
                strength_vol: 5,
                strength_nonvol: i64::MIN,
            },
        );
        let r = run_select(&mut g, &nm, &rpg, SelectConfig::default());
        // figure7 target: r2 is the only non-volatile register.
        assert_eq!(r.assignment[4], Some(pdgc_target::PhysReg::int(2)));
    }

    #[test]
    fn active_spill_on_memory_preference() {
        let (mut g, nm) = setup(1, &[(3, 4)]);
        let mut rpg = Rpg::new(nm.num_nodes());
        for (t, sv, snv) in [
            (PrefTarget::Volatile, -5i64, i64::MIN),
            (PrefTarget::NonVolatile, i64::MIN, -7),
        ] {
            rpg.add(
                n(4),
                Preference {
                    kind: PrefKind::Prefers,
                    target: t,
                    strength_vol: sv,
                    strength_nonvol: snv,
                },
            );
        }
        let cfg = SelectConfig {
            active_spill: true,
            nonvolatile_first: false,
        };
        let r = run_select(&mut g, &nm, &rpg, cfg);
        assert_eq!(r.spilled, vec![n(4)]);
        // With active spilling off the node gets a register.
        let (mut g2, nm2) = setup(1, &[(3, 4)]);
        let cfg = SelectConfig {
            active_spill: false,
            nonvolatile_first: false,
        };
        let r2 = run_select(&mut g2, &nm2, &rpg, cfg);
        assert!(r2.spilled.is_empty());
    }

    #[test]
    fn nonvolatile_first_fallback() {
        let (mut g, nm) = setup(1, &[(3, 4)]);
        let rpg = Rpg::new(nm.num_nodes());
        let cfg = SelectConfig {
            active_spill: false,
            nonvolatile_first: true,
        };
        let r = run_select(&mut g, &nm, &rpg, cfg);
        // The first node processed (lowest id on ties: the base at node 3)
        // takes the sole non-volatile register r2; its neighbor falls back
        // to the first volatile register.
        assert_eq!(r.assignment[3], Some(pdgc_target::PhysReg::int(2)));
        assert_eq!(r.assignment[4], Some(pdgc_target::PhysReg::int(0)));
    }

    #[test]
    fn differential_early_return_keeps_occupancy_buffer() {
        // K4 on three registers forces a node to spill with no register
        // available (the differential's early return). Select must still
        // park its occupancy masks back in the scratch — if a refactor
        // drops them, the scratch comes back with zero capacity and
        // steady-state reuse silently degrades to per-call allocation.
        let (mut g, nm) = setup(3, &[(3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)]);
        let rpg = Rpg::new(nm.num_nodes());
        let target = TargetDesc::figure7();
        let costs = vec![10u64; nm.num_nodes()];
        let sr = simplify(&mut g, 3, &costs, SimplifyMode::Optimistic);
        g.restore_all();
        let cpg = Cpg::build(&g, &sr.stack, &sr.optimistic, 3);
        let no_spill = vec![false; nm.num_nodes()];
        let mut scratch = SelectScratch::new();
        let r1 = select_traced_in(
            &g,
            &nm,
            &rpg,
            &cpg,
            &target,
            &no_spill,
            &[],
            SelectConfig::default(),
            1,
            &mut NoopTracer,
            &mut scratch,
        );
        assert!(!r1.spilled.is_empty(), "K4 on 3 regs must spill");
        assert!(
            scratch.used_capacity() > 0,
            "select dropped its occupancy masks"
        );
        // Reuse: a second run from the same scratch is bit-identical.
        let r2 = select_traced_in(
            &g,
            &nm,
            &rpg,
            &cpg,
            &target,
            &no_spill,
            &[],
            SelectConfig::default(),
            1,
            &mut NoopTracer,
            &mut scratch,
        );
        assert_eq!(r1.assignment, r2.assignment);
        assert_eq!(r1.spilled, r2.spilled);
        r1.recycle(&mut scratch);
        r2.recycle(&mut scratch);
    }

    #[test]
    fn sequential_pairing_after_partner_allocated() {
        // 4 and 5 interfere (paired values are simultaneously live).
        let (mut g, nm) = setup(2, &[(3, 4), (3, 5), (4, 5)]);
        let mut rpg = Rpg::new(nm.num_nodes());
        rpg.add(
            n(4),
            Preference {
                kind: PrefKind::SequentialPlus,
                target: PrefTarget::Node(n(5)),
                strength_vol: 50,
                strength_nonvol: 48,
            },
        );
        rpg.add(
            n(5),
            Preference {
                kind: PrefKind::SequentialMinus,
                target: PrefTarget::Node(n(4)),
                strength_vol: 50,
                strength_nonvol: 48,
            },
        );
        let r = run_select(&mut g, &nm, &rpg, SelectConfig::default());
        let (a, b) = (r.assignment[4].unwrap(), r.assignment[5].unwrap());
        // figure7 uses the different-parity rule.
        assert!(TargetDesc::figure7().pair_allows(a, b));
    }
}
