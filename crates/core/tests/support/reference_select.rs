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

use pdgc_core::cpg::Cpg;
use pdgc_core::ifg::InterferenceGraph;
use pdgc_core::node::{NodeId, NodeMap};
use pdgc_core::rpg::{PrefKind, PrefTarget, Preference, Rpg};
use pdgc_arena::{NestedPool, VecPool};
use pdgc_obs::{
    Considered, Counter, Decision, Event, MetricsRegistry, SpillReason, Tracer, ValueHist, Verdict,
};
use pdgc_target::{PhysReg, TargetDesc};

/// Resettable scratch for [`select_traced_in`]: the reverse-preference
/// index, the per-register rows, the differential caches, and the
/// per-select working vectors.
#[derive(Debug, Default)]
pub struct SelectScratch {
    rev_pref: NestedPool<NodeId>,
    assignments: VecPool<Option<PhysReg>>,
    bools: VecPool<bool>,
    diffs: VecPool<i64>,
    counts: VecPool<usize>,
    nodes: VecPool<NodeId>,
    /// Pool for candidate-register sets: the available set, per-preference
    /// honoring sets, and narrowed candidate sets.
    phys: VecPool<PhysReg>,
    /// Reused per-node screening list (honorable + deferred preferences).
    screens: Vec<ScreenEntry>,
    /// The per-node occupancy rows, parked between selects.
    used: Vec<bool>,
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

    /// Capacity of the pooled occupancy rows (diagnostic; a regression
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

/// The outcome of selection for one class.
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
/// assignment, differential caches, and occupancy buffers — from pooled
/// scratch. Recycle the result with [`SelectResult::recycle`].
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
    // Reverse preference index: rev_pref[m] holds, once each, the CPG
    // nodes with a preference targeting (the representative of) m.
    // Assigning m makes exactly those nodes' differentials stale.
    let mut rev_pref = scratch.rev_pref.take(nodes.num_nodes());
    for holder in cpg.nodes() {
        for pref in rpg.prefs(holder) {
            if let PrefTarget::Node(m) = pref.target {
                let holders = &mut rev_pref[ifg.rep(m).index()];
                if holders.last() != Some(&holder) {
                    holders.push(holder);
                }
            }
        }
    }
    let mut assignment = scratch.assignments.take();
    assignment.extend((0..nodes.num_nodes()).map(|i| {
        let n = NodeId::new(i);
        nodes.is_precolored(n).then(|| nodes.phys_reg(n))
    }));
    let k = target.num_regs(nodes.class());
    let mut used = std::mem::take(&mut scratch.used);
    used.clear();
    used.resize(nodes.num_nodes() * k, false);
    Selector {
        ifg,
        nodes,
        rpg,
        cpg,
        target,
        no_spill,
        spill_costs,
        config,
        round,
        assignment,
        spilled: scratch.bools.take_filled(nodes.num_nodes(), false),
        processed: scratch.bools.take_filled(nodes.num_nodes(), false),
        rev_pref,
        k,
        best: scratch.diffs.take_filled(nodes.num_nodes() * k, NO_PREF),
        used,
        diff_cache: scratch.diffs.take_filled(nodes.num_nodes(), 0),
        diff_dirty: scratch.bools.take_filled(nodes.num_nodes(), true),
        phys: std::mem::take(&mut scratch.phys),
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
    target: &'a TargetDesc,
    no_spill: &'a [bool],
    spill_costs: &'a [u64],
    config: SelectConfig,
    round: u32,
    assignment: Vec<Option<PhysReg>>,
    spilled: Vec<bool>,
    processed: Vec<bool>,
    /// `rev_pref[m]`: nodes holding a preference that targets `m`'s
    /// representative.
    rev_pref: Vec<Vec<NodeId>>,
    /// Registers in the class: the width of every per-node row.
    k: usize,
    /// `best[n * k + r]`: the strength of `n`'s strongest preference that
    /// register `r` honors under the current assignments, or [`NO_PREF`].
    best: Vec<i64>,
    /// `used[n * k + r]`: an assigned interference neighbor of `n` holds
    /// register `r`.
    used: Vec<bool>,
    /// Cached step-3 strength differential per node; valid while the
    /// matching `diff_dirty` bit is clear.
    diff_cache: Vec<i64>,
    diff_dirty: Vec<bool>,
    /// Pool for the per-node candidate-register vectors.
    phys: VecPool<PhysReg>,
    /// Reused screening list, cleared between nodes.
    screen_buf: Vec<ScreenEntry>,
    /// Taken from the scratch for the duration of the select, parked back
    /// in `run`; every bump is an array write, never an allocation.
    metrics: MetricsRegistry,
}

/// One screened preference of the node being allocated: an *honorable*
/// preference carries the registers of the available set that honor it; a
/// *deferred* one (unallocated partner) carries no set — it narrows to the
/// registers that keep the partner able to honor it later.
#[derive(Debug)]
struct ScreenEntry {
    strength: i64,
    pref: Preference,
    deferred: bool,
    regs: Vec<PhysReg>,
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
/// strength collides with it (the debug oracle in `cached_differential`
/// would catch one that did).
const NO_PREF: i64 = i64::MIN;

impl Selector<'_> {
    fn run(mut self, tracer: &mut dyn Tracer, scratch: &mut SelectScratch) -> SelectResult {
        self.fill_rows();
        let mut pred_remaining = scratch.counts.take();
        pred_remaining
            .extend((0..self.nodes.num_nodes()).map(|i| self.cpg.pred_count(NodeId::new(i))));
        let mut queue = scratch.nodes.take();
        queue.extend(self.cpg.initial_queue());
        let total: usize = self.cpg.nodes().count();
        let mut done = 0;

        while !queue.is_empty() {
            // Step 3: the frontier node with the largest differential
            // (lowest node id on ties). Differentials are cached and only
            // recomputed, in O(K) from the node's rows, for nodes an
            // assignment actually invalidated — an interference neighbor
            // or preference holder of the assigned node.
            self.metrics
                .add(Counter::SelectFrontierScanned, queue.len() as u64);
            let mut best: Option<(usize, i64)> = None;
            for i in 0..queue.len() {
                let n = queue[i];
                let d = self.cached_differential(n);
                let better = match best {
                    None => true,
                    Some((bi, bd)) => d > bd || (d == bd && n.index() < queue[bi].index()),
                };
                if better {
                    best = Some((i, d));
                }
            }
            let (qi, differential) = best.expect("non-empty queue");
            let frontier = queue.len() as u32;
            let n = queue.swap_remove(qi);

            self.allocate(n, frontier, differential, tracer);
            self.processed[n.index()] = true;
            done += 1;

            // Step 5: release successors.
            for &s in self.cpg.succs(n) {
                pred_remaining[s.index()] -= 1;
                if pred_remaining[s.index()] == 0 {
                    queue.push(s);
                }
            }
        }
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
        scratch.nodes.put(queue);
        scratch.rev_pref.put(self.rev_pref);
        scratch.bools.put(self.spilled);
        scratch.bools.put(self.processed);
        scratch.bools.put(self.diff_dirty);
        scratch.diffs.put(self.diff_cache);
        scratch.diffs.put(std::mem::take(&mut self.best));
        scratch.used = std::mem::take(&mut self.used);
        scratch.phys = std::mem::take(&mut self.phys);
        scratch.screens = std::mem::take(&mut self.screen_buf);
        scratch.metrics = std::mem::take(&mut self.metrics);
        SelectResult {
            assignment: self.assignment,
            spilled,
        }
    }

    /// `n`'s occupancy row: entry `r` is set when an assigned
    /// interference neighbor holds register `r`.
    fn used_row(&self, n: NodeId) -> &[bool] {
        &self.used[n.index() * self.k..][..self.k]
    }

    /// Fills both rows of every CPG node, preference-major: each
    /// preference the initial assignments (the precolored nodes) already
    /// decide folds into its holder's `best` row, and each precolored
    /// register marks the `used` row of its interference neighbors.
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
                    self.used[x.index() * self.k + r.index()] = true;
                }
            }
        }
    }

    /// Raises `n`'s `best` row to `pref`'s strength at every register
    /// `pref` admits under the current assignments.
    fn fold_pref(&mut self, n: NodeId, pref: &Preference) {
        for r in self.target.regs(self.nodes.class()) {
            if let Some(s) = self.pref_strength_if_admits(pref, r) {
                let cell = &mut self.best[n.index() * self.k + r.index()];
                *cell = (*cell).max(s);
            }
        }
    }

    /// Registers not used by already-allocated interference neighbors,
    /// written into `out`.
    fn collect_available(&self, n: NodeId, out: &mut Vec<PhysReg>) {
        let used = self.used_row(n);
        out.extend(
            self.target
                .regs(self.nodes.class())
                .filter(|r| !used[r.index()]),
        );
    }

    /// Steps 2.1–2.2: screens the preferences of `n` into `out` — first
    /// the honorable ones (a non-empty honoring set within `avail`), then
    /// the deferred ones (partner not yet allocated), each in preference
    /// order so the later stable sort ties out exactly like the unpooled
    /// path did.
    fn collect_screens(&mut self, n: NodeId, avail: &[PhysReg], out: &mut Vec<ScreenEntry>) {
        let rpg = self.rpg;
        for &pref in rpg.prefs(n) {
            let mut regs = self.phys.take();
            match pref.target {
                PrefTarget::Volatile => {
                    regs.extend(avail.iter().copied().filter(|&r| self.target.is_volatile(r)));
                }
                PrefTarget::NonVolatile => {
                    regs.extend(avail.iter().copied().filter(|&r| !self.target.is_volatile(r)));
                }
                PrefTarget::Set(mask) => {
                    regs.extend(
                        avail
                            .iter()
                            .copied()
                            .filter(|&r| r.index() < 64 && (mask >> r.index()) & 1 == 1),
                    );
                }
                PrefTarget::Node(m) => {
                    // Resolve through coalesced representatives (pre-
                    // coalescing merges nodes before selection). An
                    // unallocated partner leaves the set empty: the
                    // preference is deferred (2.2), handled below.
                    let m = self.ifg.rep(m);
                    if let Some(partner) = self.assignment[m.index()] {
                        match pref.kind {
                            PrefKind::Coalesce => {
                                regs.extend(avail.iter().copied().filter(|&r| r == partner));
                            }
                            PrefKind::SequentialPlus => {
                                regs.extend(
                                    avail
                                        .iter()
                                        .copied()
                                        .filter(|&r| self.target.pair_allows(r, partner)),
                                );
                            }
                            PrefKind::SequentialMinus => {
                                regs.extend(
                                    avail
                                        .iter()
                                        .copied()
                                        .filter(|&r| self.target.pair_allows(partner, r)),
                                );
                            }
                            PrefKind::Prefers => {}
                        }
                    }
                }
            }
            if regs.is_empty() {
                self.phys.put(regs);
            } else {
                let strength = regs
                    .iter()
                    .map(|&r| pref.strength_with(r, self.target))
                    .max()
                    .unwrap_or(i64::MIN);
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
                        regs: Vec::new(),
                    });
                }
            }
        }
    }

    /// The cached step-3 differential of `n`, recomputed from its rows
    /// only when a prior assignment marked it stale.
    fn cached_differential(&mut self, n: NodeId) -> i64 {
        if self.diff_dirty[n.index()] {
            let d = self.row_differential(n);
            #[cfg(debug_assertions)]
            assert_eq!(d, self.differential(n), "select rows out of date for {n}");
            self.diff_cache[n.index()] = d;
            self.diff_dirty[n.index()] = false;
            self.metrics.bump(Counter::SelectDiffRecomputes);
        }
        self.diff_cache[n.index()]
    }

    /// Step 3's metric read off `n`'s rows: the spread between the best
    /// and worst per-register preference satisfaction over the registers
    /// no assigned neighbor holds, in O(K).
    fn row_differential(&self, n: NodeId) -> i64 {
        let best = &self.best[n.index() * self.k..][..self.k];
        let mut hi = i64::MIN;
        let mut lo = i64::MAX;
        let mut any_available = false;
        for (&used, &b) in self.used_row(n).iter().zip(best) {
            if used {
                continue;
            }
            any_available = true;
            let s = if b == NO_PREF { 0 } else { b };
            hi = hi.max(s);
            lo = lo.min(s);
        }
        if !any_available {
            return i64::MIN + 1; // will spill regardless of order
        }
        hi - lo
    }

    /// Brings the rows up to date with `n`'s new register and marks every
    /// node whose differential reads `n`'s assignment as stale: `n`'s
    /// interference neighbors (their available sets shrank) and the
    /// holders of preferences targeting `n` (those preferences just became
    /// honorable). Spills change no assignment, so they invalidate nothing.
    fn invalidate_after_assign(&mut self, n: NodeId, reg: PhysReg) {
        for &x in self.ifg.neighbors_slice(n) {
            self.used[x.index() * self.k + reg.index()] = true;
            self.diff_dirty[x.index()] = true;
        }
        let rpg = self.rpg;
        for i in 0..self.rev_pref[n.index()].len() {
            let holder = self.rev_pref[n.index()][i];
            self.diff_dirty[holder.index()] = true;
            if self.processed[holder.index()] {
                continue;
            }
            for pref in rpg.prefs(holder) {
                if matches!(pref.target, PrefTarget::Node(m) if self.ifg.rep(m) == n) {
                    self.fold_pref(holder, pref);
                }
            }
        }
    }

    /// The strength of honoring `pref` with register `r` under the current
    /// assignments, or `None` when `r` does not honor it (mirrors the
    /// per-register filters of [`collect_screens`](Self::collect_screens)).
    fn pref_strength_if_admits(&self, pref: &Preference, r: PhysReg) -> Option<i64> {
        let admits = match pref.target {
            PrefTarget::Volatile => self.target.is_volatile(r),
            PrefTarget::NonVolatile => !self.target.is_volatile(r),
            PrefTarget::Set(mask) => r.index() < 64 && (mask >> r.index()) & 1 == 1,
            PrefTarget::Node(m) => {
                let m = self.ifg.rep(m);
                let partner = self.assignment[m.index()]?; // deferred (2.2)
                match pref.kind {
                    PrefKind::Coalesce => r == partner,
                    PrefKind::SequentialPlus => self.target.pair_allows(r, partner),
                    PrefKind::SequentialMinus => self.target.pair_allows(partner, r),
                    PrefKind::Prefers => false,
                }
            }
        };
        admits.then(|| pref.strength_with(r, self.target))
    }

    /// Step 3's metric recomputed from scratch, the oracle for
    /// [`row_differential`](Self::row_differential): the spread between
    /// the best and worst per-register preference satisfaction over the
    /// currently available registers.
    #[cfg(debug_assertions)]
    fn differential(&self, n: NodeId) -> i64 {
        let mut used = [false; 1 << u8::BITS]; // a register index is a u8
        for &x in self.ifg.neighbors_slice(n) {
            if let Some(r) = self.assignment[x.index()] {
                used[r.index()] = true;
            }
        }
        let mut best = i64::MIN;
        let mut worst = i64::MAX;
        let mut any_available = false;
        for r in self.target.regs(self.nodes.class()) {
            if used[r.index()] {
                continue;
            }
            any_available = true;
            let s = self
                .rpg
                .prefs(n)
                .iter()
                .filter_map(|pref| self.pref_strength_if_admits(pref, r))
                .max()
                .unwrap_or(0);
            best = best.max(s);
            worst = worst.min(s);
        }
        if !any_available {
            return i64::MIN + 1; // will spill regardless of order
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

    /// Steps 4.1–4.4 for the chosen node. Every candidate-register vector
    /// is drawn from the selector's pool and returned to it, so a warm
    /// untraced select never allocates here.
    fn allocate(&mut self, n: NodeId, frontier: u32, differential: i64, tracer: &mut dyn Tracer) {
        let trace = tracer.enabled();
        let mut avail = self.phys.take();
        self.collect_available(n, &mut avail);
        let navail = avail.len() as u32;
        if avail.is_empty() {
            self.phys.put(avail);
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
        self.collect_screens(n, &avail, &mut screens);
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
                    self.phys.put(avail);
                    self.recycle_screens(screens);
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
        screens.sort_by_key(|e| std::cmp::Reverse(e.strength));
        let mut considered: Vec<Considered> = Vec::new();
        let mut cand = avail;
        for mut e in screens.drain(..) {
            let mut entry = if trace {
                Some(Considered {
                    kind: Self::kind_str(e.pref.kind),
                    target: self.target_str(e.pref.target),
                    strength: e.strength,
                    deferred: e.deferred,
                    narrowed: false,
                    survivors: cand.len() as u32,
                })
            } else {
                None
            };
            let regs = std::mem::take(&mut e.regs);
            let mut narrowed = self.phys.take();
            if !e.deferred {
                narrowed.extend(cand.iter().copied().filter(|r| regs.contains(r)));
                let gain = narrowed
                    .iter()
                    .map(|&r| e.pref.strength_with(r, self.target))
                    .max()
                    .unwrap_or(0);
                if gain <= 0 {
                    narrowed.clear();
                }
            } else if e.strength > 0 {
                self.partner_feasible_into(&e.pref, &cand, &mut narrowed);
            }
            // A filter that would empty the set is skipped: the
            // preference is abandoned rather than hurting this node.
            if narrowed.is_empty() {
                self.phys.put(narrowed);
                self.metrics
                    .bump(Self::screen_counter(e.pref.kind, ScreenOutcome::Skipped));
            } else {
                if let Some(en) = &mut entry {
                    en.narrowed = true;
                    en.survivors = narrowed.len() as u32;
                }
                self.phys.put(std::mem::replace(&mut cand, narrowed));
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
            if regs.capacity() > 0 {
                self.phys.put(regs);
            }
            considered.extend(entry);
        }
        self.screen_buf = screens;

        // Step 4.4: pick.
        let reg = if self.config.nonvolatile_first {
            cand.iter()
                .copied()
                .find(|&r| !self.target.is_volatile(r))
                .unwrap_or(cand[0])
        } else {
            cand[0]
        };
        self.phys.put(cand);
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

    /// Returns a drained-or-not screening list's vectors to the pool and
    /// parks the list itself for the next node.
    fn recycle_screens(&mut self, mut screens: Vec<ScreenEntry>) {
        for e in screens.drain(..) {
            if e.regs.capacity() > 0 {
                self.phys.put(e.regs);
            }
        }
        self.screen_buf = screens;
    }

    /// Appends to `out` the registers of `cand` that do not prevent the
    /// deferred preference `pref` from being honored later:
    ///
    /// * a *coalesce* partner must later be able to take the same register
    ///   we pick, so registers already blocked by the partner's allocated
    ///   neighbors (its occupancy row) are removed;
    /// * a *sequential* partner must later find an unblocked register that
    ///   pairs with ours under the target rule.
    fn partner_feasible_into(&self, pref: &Preference, cand: &[PhysReg], out: &mut Vec<PhysReg>) {
        let PrefTarget::Node(m) = pref.target else {
            out.extend_from_slice(cand);
            return;
        };
        let partner_blocked = self.used_row(self.ifg.rep(m));
        out.extend(cand.iter().copied().filter(|&r| match pref.kind {
            PrefKind::Coalesce => !partner_blocked[r.index()],
            PrefKind::SequentialPlus | PrefKind::SequentialMinus => {
                self.target.regs(self.nodes.class()).any(|s| {
                    s != r
                        && !partner_blocked[s.index()]
                        && match pref.kind {
                            PrefKind::SequentialPlus => self.target.pair_allows(r, s),
                            _ => self.target.pair_allows(s, r),
                        }
                })
            }
            PrefKind::Prefers => true,
        }));
    }

    fn spill(&mut self, n: NodeId) {
        assert!(
            !self.no_spill[n.index()],
            "select: forced to spill unspillable temporary {n}"
        );
        self.spilled[n.index()] = true;
    }
}
