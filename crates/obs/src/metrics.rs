//! Always-on metrics: named counters and fixed-bucket log-scale
//! histograms with a zero-allocation hot path.
//!
//! The [`Tracer`](crate::Tracer) event stream is opt-in and allocating —
//! far too expensive to leave on while a batch worker pushes thousands of
//! functions through the pipeline. A [`MetricsRegistry`] is the always-on
//! counterpart: plain `u64` bumps into fixed-size arrays indexed by enum,
//! no locks, no strings, no heap. One registry lives in each worker's
//! `PhaseScratch`; the batch driver drains it per function and merges the
//! per-function registries at the slot-keyed join, exactly like results.
//!
//! # Merge contract
//!
//! Every operation is an element-wise `u64` addition (plus `min`/`max`
//! for the histogram extrema), so merging is commutative and associative:
//! the merged registry is **bit-identical regardless of worker count or
//! claim order**. That determinism only covers values that are themselves
//! deterministic — the [`Counter`]s and the *scorecard* histograms
//! ([`ValueHist`]). The per-phase *latency* histograms record wall-clock
//! and vary run to run; snapshots keep them in a separate JSON section
//! (`latency_hists`) so consumers can diff the deterministic sections
//! exactly.
//!
//! # Bucket layout
//!
//! [`Histogram`] has 64 fixed log₂ buckets: bucket 0 holds the value 0,
//! and bucket `b ≥ 1` holds values in `[2^(b-1), 2^b - 1]` (i.e. the
//! bucket index is the value's bit length, clamped to 63). `count`,
//! `sum`, `min`, and `max` ride along for exact means and extrema.

use crate::json::JsonObject;
use crate::Phase;

/// Log₂ buckets per histogram.
pub const HIST_BUCKETS: usize = 64;

metric_enum! {
    /// A named monotonic counter.
    ///
    /// The discriminant is the index into the registry's counter array; the
    /// stable snake_case name ([`Counter::name`]) is what snapshots and the
    /// `pdgc report` gate key on. A counter's [`Gate`], if it has one, is
    /// how `pdgc report` judges it against a baseline.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    #[repr(usize)]
    pub enum Counter named name, gated {
        /// Functions pushed through the pipeline to completion.
        FuncsAllocated = "funcs_allocated", Gate::Exact;
        /// Sum of per-function round counts.
        RoundsTotal = "rounds_total", Gate::HigherIsWorse(2);
        /// Copies present before allocation (post ABI/φ lowering).
        CopiesBefore = "copies_before";
        /// Copies removed by coalescing.
        MovesEliminated = "moves_eliminated", Gate::LowerIsWorse(2);
        /// Copies remaining in machine code.
        CopiesRemaining = "copies_remaining", Gate::HigherIsWorse(2);
        /// Reloads inserted by spilling.
        SpillLoads = "spill_loads", Gate::HigherIsWorse(2);
        /// Stores inserted by spilling.
        SpillStores = "spill_stores", Gate::HigherIsWorse(2);
        /// Total spill instructions.
        SpillInstructions = "spill_instructions", Gate::HigherIsWorse(2);
        /// Caller-side save/restore instructions around calls.
        CallerSaveInsts = "caller_save_insts", Gate::HigherIsWorse(5);
        /// Distinct non-volatile registers used (prologue/epilogue cost).
        NonvolatilesUsed = "nonvolatiles_used";
        /// Loads whose fusion window contained an address partner (a fusion
        /// *opportunity*, whether or not register constraints allowed it).
        PairedLoadCandidates = "paired_load_candidates";
        /// Paired loads actually fused by the rewriter.
        PairedLoadsFused = "paired_loads_fused", Gate::LowerIsWorse(2);
        /// Zero-extensions inserted after byte loads.
        ZeroExtensions = "zero_extensions", Gate::HigherIsWorse(5);
        /// Frame slots used.
        FrameSlots = "frame_slots";
        /// Select verdicts: node received a register.
        SelectAssigned = "select_assigned";
        /// Select verdicts: spilled because no register was available.
        SelectSpilledNoRegister = "select_spilled_no_register";
        /// Select verdicts: §5.4 active spill (strongest preference negative).
        SelectSpilledPreferMemory = "select_spilled_prefer_memory";
        // Work done by the interference-graph build, the RPG build,
        // simplify's worklist and spill-candidate heap, the CPG build and
        // select's frontier loop. Each is an exact function of the
        // allocation, so any growth means a hot loop does more work for the
        // same result.
        /// Undirected edges of every interference graph the build produced
        /// (the precolored clique included).
        BuildIfgEdges = "build_ifg_edges", Gate::HigherIsWorse(0);
        /// Words the build ORed into interference-matrix rows: one row's
        /// worth per definition in the class, and per entry live-in.
        BuildRowWords = "build_row_words", Gate::HigherIsWorse(0);
        /// Nodes of every class universe the build produced (precolored
        /// included), summed over every build.
        BuildNodes = "build_nodes", Gate::HigherIsWorse(0);
        /// Bit-matrix words every build zeroed: nodes × row words per graph.
        BuildMatrixWords = "build_matrix_words", Gate::HigherIsWorse(0);
        /// Preferences of every Register Preference Graph built.
        RpgPrefs = "rpg_prefs", Gate::HigherIsWorse(0);
        /// Entries simplify popped off its low-degree worklist, stale ones
        /// included (simplify and the call-cost baseline's keyed simplify).
        SimplifyWorklistPops = "simplify_worklist_pops", Gate::HigherIsWorse(0);
        /// Entries simplify popped off its spill-candidate heap, stale ones
        /// included (simplify's blocked branch, `iterated`'s step 4 and the
        /// call-cost baseline's blocked branch).
        SimplifySpillPops = "simplify_spill_pops", Gate::HigherIsWorse(0);
        /// Edges built into Coloring Precedence Graphs (sentinel edges
        /// excluded).
        CpgEdges = "cpg_edges", Gate::HigherIsWorse(0);
        /// Ready-frontier size at each select pick, summed over the picks.
        SelectFrontierScanned = "select_frontier_scanned", Gate::HigherIsWorse(0);
        /// Strength differentials select recomputed after an assignment made
        /// them stale.
        SelectDiffRecomputes = "select_diff_recomputes", Gate::HigherIsWorse(0);
        /// Entries select popped off its frontier heap, stale ones included.
        SelectHeapPops = "select_heap_pops", Gate::HigherIsWorse(0);
        /// Coalesce preferences whose screen narrowed the candidate set.
        PrefCoalesceHonored = "pref_coalesce_honored", Gate::LowerIsWorse(5);
        /// Coalesce preferences screened for an unallocated partner (2.2).
        PrefCoalesceDeferred = "pref_coalesce_deferred";
        /// Coalesce preferences skipped (screen would empty the set / no gain).
        PrefCoalesceSkipped = "pref_coalesce_skipped";
        /// Plus-stride sequential-pair preferences honored.
        PrefSeqPlusHonored = "pref_seq_plus_honored", Gate::LowerIsWorse(5);
        /// Plus-stride sequential-pair preferences deferred.
        PrefSeqPlusDeferred = "pref_seq_plus_deferred";
        /// Plus-stride sequential-pair preferences skipped.
        PrefSeqPlusSkipped = "pref_seq_plus_skipped";
        /// Minus-stride sequential-pair preferences honored.
        PrefSeqMinusHonored = "pref_seq_minus_honored", Gate::LowerIsWorse(5);
        /// Minus-stride sequential-pair preferences deferred.
        PrefSeqMinusDeferred = "pref_seq_minus_deferred";
        /// Minus-stride sequential-pair preferences skipped.
        PrefSeqMinusSkipped = "pref_seq_minus_skipped";
        /// Register/set preferences (`prefers`) honored.
        PrefPrefersHonored = "pref_prefers_honored", Gate::LowerIsWorse(5);
        /// Register/set preferences deferred.
        PrefPrefersDeferred = "pref_prefers_deferred";
        /// Register/set preferences skipped.
        PrefPrefersSkipped = "pref_prefers_skipped";
        /// Symbolic-checker invocations.
        CheckRuns = "check_runs";
        /// Reachable blocks the checker proved.
        CheckBlocksProven = "check_blocks_proven";
        /// IR instructions the checker matched.
        CheckIrInsts = "check_ir_insts";
        /// Machine instructions the checker consumed.
        CheckMachInsts = "check_mach_insts";
        /// Fused paired loads the checker validated.
        CheckPairedLoads = "check_paired_loads";
        /// Rules broken across all checker rejections.
        CheckViolations = "check_violations", Gate::HigherIsWorse(0);
        /// JSONL requests a `pdgc serve` session received (well-formed or not).
        ServeRequests = "serve_requests";
        /// Requests answered with an error response (parse/validation/allocation).
        ServeErrors = "serve_errors";
        /// Requests whose handling panicked, answered with an `internal error`
        /// response (each is also a serve error).
        ServePanics = "serve_panics";
        /// Allocation-cache lookups answered from the cache.
        CacheHits = "cache_hits";
        /// Allocation-cache lookups that had to allocate.
        CacheMisses = "cache_misses";
        /// Entries inserted into the allocation cache.
        CacheInsertions = "cache_insertions";
        /// Entries evicted to keep the cache under its capacity.
        CacheEvictions = "cache_evictions";
        /// Cache hits re-proven by the sampled symbolic check.
        CacheHitChecks = "cache_hit_checks";
        // SPL coverage: fewer decomposed rounds, or more fallbacks, means
        // the recognizer stopped matching shapes it used to handle, so
        // reload forwarding runs less. Region counts are workload shape.
        /// Analysis rounds whose CFG decomposed into SPL regions: the rounds
        /// where reload forwarding may run.
        SplAnalysesFast = "spl_analyses_fast", Gate::LowerIsWorse(0);
        /// Analysis rounds whose CFG did not decompose (no forwarding).
        SplAnalysesFallback = "spl_analyses_fallback", Gate::HigherIsWorse(0);
        /// Composite SPL regions built across all analysis rounds.
        SplRegions = "spl_regions", Gate::Exact;
        /// Loop regions (while-shaped plus self-loops) among them.
        SplLoopRegions = "spl_loop_regions", Gate::Exact;
        /// Reloads avoided by forwarding along SPL linear runs.
        SplForwardedReloads = "spl_forwarded_reloads";
    }
}

/// How `pdgc report` gates a counter against its baseline value: the
/// direction of change that regresses it, with a tolerance in percent of
/// the baseline. Every gated counter is also a regression when it is
/// missing from the current snapshot, or zero there while nonzero in the
/// baseline: it stopped counting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Gate {
    /// Growth beyond the tolerance is a regression (spills, rounds, hot-loop
    /// work, …).
    HigherIsWorse(u32),
    /// Shrinkage beyond the tolerance is a regression (coalesced moves,
    /// honored preferences, …).
    LowerIsWorse(u32),
    /// Any change is a regression (workload shape).
    Exact,
}

impl Gate {
    /// The tolerance in percent of the baseline value.
    pub fn tolerance_pct(self) -> u32 {
        match self {
            Gate::HigherIsWorse(tol) | Gate::LowerIsWorse(tol) => tol,
            Gate::Exact => 0,
        }
    }

    /// The direction of change that regresses the counter.
    pub fn direction(self) -> &'static str {
        match self {
            Gate::HigherIsWorse(_) => "higher-is-worse",
            Gate::LowerIsWorse(_) => "lower-is-worse",
            Gate::Exact => "exact",
        }
    }

    /// Whether moving from `baseline` to `current` changes the counter by
    /// more than the tolerance in the regressing direction. Integer
    /// threshold math, with no rounding slack.
    pub fn regressed(self, baseline: u64, current: u64) -> bool {
        let (b, c) = (u128::from(baseline), u128::from(current));
        match self {
            Gate::HigherIsWorse(tol) => c * 100 > b * (100 + u128::from(tol)),
            Gate::LowerIsWorse(tol) => c * 100 < b * 100u128.saturating_sub(tol.into()),
            Gate::Exact => c != b,
        }
    }
}

metric_enum! {
    /// A deterministic scorecard histogram (distinct from the wall-clock
    /// latency histograms, which are keyed by [`Phase`]).
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    #[repr(usize)]
    pub enum ValueHist named name {
        /// Rounds used per function (1 = no spill iteration).
        RoundsPerFunc = "rounds_per_func";
        /// Spill instructions inserted per function.
        SpillsPerFunc = "spills_per_func";
        /// `Str(V, P)` strength of every honored preference screen — the
        /// Figure 5(a) screening outcome distribution.
        PrefStrengthHonored = "pref_strength_honored";
    }
}

/// A fixed-bucket log₂ histogram: 64 buckets, no heap, mergeable by
/// element-wise addition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[0]` counts the value 0; `buckets[b]` (b ≥ 1) counts
    /// values whose bit length is `b`, i.e. `[2^(b-1), 2^b - 1]`.
    pub buckets: [u64; HIST_BUCKETS],
    /// Observations recorded.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Smallest observation (`u64::MAX` while empty).
    pub min: u64,
    /// Largest observation (0 while empty).
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// The log₂ bucket a value lands in: its bit length, clamped to the last
/// bucket (so bucket 0 ⇔ value 0).
pub fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).min(HIST_BUCKETS - 1)
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Element-wise merge (order-independent).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean of the observations (0.0 while empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The histogram as a JSON object. Buckets past the last non-zero one
    /// are dropped (the layout is fixed, so the reader can re-pad).
    pub fn to_json(&self) -> String {
        let last = self
            .buckets
            .iter()
            .rposition(|&b| b != 0)
            .map_or(0, |i| i + 1);
        let buckets: Vec<String> = self.buckets[..last].iter().map(u64::to_string).collect();
        JsonObject::new()
            .u64("count", self.count)
            .u64("sum", self.sum)
            .u64("min", if self.count == 0 { 0 } else { self.min })
            .u64("max", self.max)
            .raw("buckets", &crate::json::array(buckets))
            .finish()
    }
}

/// A set of counters plus scorecard and per-phase latency histograms.
///
/// Everything is a fixed-size array: bumping a counter or observing a
/// histogram value never touches the heap, so the registry is safe to
/// leave always-on inside the allocation hot path. See the module docs
/// for the merge contract.
#[derive(Clone, Debug)]
pub struct MetricsRegistry {
    counters: [u64; Counter::COUNT],
    values: [Histogram; ValueHist::COUNT],
    latency: [Histogram; Phase::COUNT],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            counters: [0; Counter::COUNT],
            values: std::array::from_fn(|_| Histogram::default()),
            latency: std::array::from_fn(|_| Histogram::default()),
        }
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments `c` by one.
    #[inline]
    pub fn bump(&mut self, c: Counter) {
        self.counters[c.index()] += 1;
    }

    /// Increments `c` by `n`.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counters[c.index()] += n;
    }

    /// Current value of `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// Records one observation into a scorecard histogram.
    #[inline]
    pub fn observe_value(&mut self, h: ValueHist, value: u64) {
        self.values[h.index()].observe(value);
    }

    /// Records one phase latency observation (nanoseconds).
    #[inline]
    pub fn observe_latency(&mut self, phase: Phase, nanos: u64) {
        self.latency[phase.index()].observe(nanos);
    }

    /// The scorecard histogram for `h`.
    pub fn value_hist(&self, h: ValueHist) -> &Histogram {
        &self.values[h.index()]
    }

    /// The latency histogram for `phase`.
    pub fn latency_hist(&self, phase: Phase) -> &Histogram {
        &self.latency[phase.index()]
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
            && self.values.iter().all(|h| h.count == 0)
            && self.latency.iter().all(|h| h.count == 0)
    }

    /// Element-wise merge. Addition commutes, so merging per-worker (or
    /// per-function) registries in any order yields the same totals.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        for (a, b) in self.values.iter_mut().zip(&other.values) {
            a.merge(b);
        }
        for (a, b) in self.latency.iter_mut().zip(&other.latency) {
            a.merge(b);
        }
    }

    /// Merges `self` into `dst` and resets `self` to empty — the batch
    /// driver's per-function hand-off, free of heap traffic.
    pub fn drain_into(&mut self, dst: &mut MetricsRegistry) {
        dst.merge(self);
        *self = MetricsRegistry::default();
    }

    /// Whether the *deterministic* sections (counters and scorecard
    /// histograms) of two registries are identical. Latency histograms
    /// are excluded: wall-clock is never reproducible.
    pub fn deterministic_eq(&self, other: &MetricsRegistry) -> bool {
        self.counters == other.counters && self.values == other.values
    }

    /// The counters section as a JSON object (`{"name": value, ...}`),
    /// every counter present, in [`Counter::ALL`] order.
    pub fn counters_json(&self) -> String {
        let mut o = JsonObject::new();
        for c in Counter::ALL {
            o = o.u64(c.name(), self.get(c));
        }
        o.finish()
    }

    /// The scorecard-histogram section as a JSON object.
    pub fn scorecard_hists_json(&self) -> String {
        let mut o = JsonObject::new();
        for h in ValueHist::ALL {
            o = o.raw(h.name(), &self.value_hist(h).to_json());
        }
        o.finish()
    }

    /// The latency-histogram section as a JSON object keyed by phase name.
    pub fn latency_hists_json(&self) -> String {
        let mut o = JsonObject::new();
        for p in Phase::ALL {
            o = o.raw(p.as_str(), &self.latency_hist(p).to_json());
        }
        o.finish()
    }

    /// `{"lower": <ms>, ...}`: each phase's summed latency in fractional
    /// milliseconds, the `phases_ms` figure of every bench result.
    pub fn latency_ms_json(&self) -> String {
        let mut o = JsonObject::new();
        for p in Phase::ALL {
            o = o.f64(p.as_str(), self.latency_hist(p).sum as f64 / 1e6);
        }
        o.finish()
    }

    /// The whole registry as a JSON object with the deterministic
    /// sections (`counters`, `scorecard_hists`) separated from the
    /// nondeterministic one (`latency_hists`).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .raw("counters", &self.counters_json())
            .raw("scorecard_hists", &self.scorecard_hists_json())
            .raw("latency_hists", &self.latency_hists_json())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each generated enum's indices are dense, in `ALL` order, and its
    /// names unique; counter and scorecard names share the snapshot's
    /// namespace, so they are unique across both.
    #[test]
    fn metric_names_are_unique_and_indices_dense() {
        fn check<T: Copy>(
            all: &[T],
            index: fn(T) -> usize,
            name: fn(T) -> &'static str,
            names: &mut std::collections::HashSet<&'static str>,
        ) {
            for (i, &x) in all.iter().enumerate() {
                assert_eq!(index(x), i);
                assert!(names.insert(name(x)), "duplicate name {}", name(x));
            }
        }
        let mut snapshot = std::collections::HashSet::new();
        check(&Counter::ALL, Counter::index, Counter::name, &mut snapshot);
        check(
            &ValueHist::ALL,
            ValueHist::index,
            ValueHist::name,
            &mut snapshot,
        );
        assert_eq!(snapshot.len(), Counter::COUNT + ValueHist::COUNT);
        let mut phases = std::collections::HashSet::new();
        check(&Phase::ALL, Phase::index, Phase::as_str, &mut phases);
        assert_eq!(phases.len(), Phase::COUNT);
    }

    #[test]
    fn gates_apply_their_tolerance_in_their_direction() {
        let higher = Gate::HigherIsWorse(2);
        assert!(!higher.regressed(100, 102));
        assert!(higher.regressed(100, 103));
        assert!(!higher.regressed(100, 0));
        let lower = Gate::LowerIsWorse(5);
        assert!(!lower.regressed(100, 95));
        assert!(lower.regressed(100, 94));
        assert!(!lower.regressed(100, 1000));
        assert!(Gate::HigherIsWorse(0).regressed(7, 8));
        assert!(Gate::Exact.regressed(7, 6) && Gate::Exact.regressed(7, 8));
        assert!(!Gate::Exact.regressed(7, 7));
        assert_eq!(Gate::Exact.tolerance_pct(), 0);
    }

    #[test]
    fn bucket_layout_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_tracks_count_sum_extrema() {
        let mut h = Histogram::default();
        for v in [0, 1, 7, 7, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1015);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        assert_eq!(h.buckets[0], 1); // the 0
        assert_eq!(h.buckets[3], 2); // the 7s
        assert!((h.mean() - 203.0).abs() < 1e-9);
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.bump(Counter::SpillLoads);
        a.observe_value(ValueHist::RoundsPerFunc, 3);
        b.add(Counter::SpillLoads, 4);
        b.observe_value(ValueHist::RoundsPerFunc, 1);
        b.observe_latency(Phase::Select, 1234);

        let mut ab = MetricsRegistry::new();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = MetricsRegistry::new();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab.to_json(), ba.to_json());
        assert_eq!(ab.get(Counter::SpillLoads), 5);
        assert_eq!(ab.value_hist(ValueHist::RoundsPerFunc).count, 2);
    }

    #[test]
    fn latency_ms_accumulates_and_merges() {
        let mut a = MetricsRegistry::new();
        a.observe_latency(Phase::Select, 1_500_000);
        a.observe_latency(Phase::Select, 500_000);
        assert_eq!(a.latency_hist(Phase::Select).sum, 2_000_000);
        assert_eq!(a.latency_hist(Phase::Select).count, 2);
        let mut b = MetricsRegistry::new();
        b.merge(&a);
        let ms = b.latency_ms_json();
        assert!(ms.contains("\"select\":2"), "{ms}");
        assert!(ms.contains("\"simplify\":0"), "{ms}");
    }

    #[test]
    fn drain_resets_the_source() {
        let mut a = MetricsRegistry::new();
        let mut dst = MetricsRegistry::new();
        a.bump(Counter::FuncsAllocated);
        a.observe_latency(Phase::Lower, 10);
        a.drain_into(&mut dst);
        assert!(a.is_empty());
        assert_eq!(dst.get(Counter::FuncsAllocated), 1);
        assert_eq!(dst.latency_hist(Phase::Lower).count, 1);
    }

    #[test]
    fn deterministic_eq_ignores_latency() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.bump(Counter::PairedLoadsFused);
        b.bump(Counter::PairedLoadsFused);
        a.observe_latency(Phase::Rewrite, 10);
        b.observe_latency(Phase::Rewrite, 99999);
        assert!(a.deterministic_eq(&b));
        b.bump(Counter::SpillStores);
        assert!(!a.deterministic_eq(&b));
    }

    #[test]
    fn json_snapshot_has_all_sections() {
        let mut m = MetricsRegistry::new();
        m.add(Counter::MovesEliminated, 12);
        m.observe_value(ValueHist::SpillsPerFunc, 0);
        let s = m.to_json();
        assert!(s.contains("\"counters\":{"));
        assert!(s.contains("\"moves_eliminated\":12"));
        assert!(s.contains("\"scorecard_hists\":{"));
        assert!(s.contains("\"spills_per_func\":{\"count\":1"));
        assert!(s.contains("\"latency_hists\":{"));
        // Round-trips through the reader.
        let parsed = crate::json::Json::parse(&s).expect("valid json");
        assert_eq!(
            parsed["counters"]["moves_eliminated"].as_u64(),
            Some(12)
        );
    }

    #[test]
    fn empty_histogram_serializes_zero_min() {
        let h = Histogram::default();
        let s = h.to_json();
        assert!(s.contains("\"min\":0"));
        assert!(s.contains("\"buckets\":[]"));
    }
}
