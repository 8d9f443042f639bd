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

/// Number of pipeline phases ([`Phase::ALL`]).
const N_PHASES: usize = Phase::ALL.len();

/// Log₂ buckets per histogram.
pub const HIST_BUCKETS: usize = 64;

/// A named monotonic counter.
///
/// The discriminant is the index into the registry's counter array; the
/// stable snake_case name ([`Counter::name`]) is what snapshots and the
/// `pdgc report` gate key on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Counter {
    /// Functions pushed through the pipeline to completion.
    FuncsAllocated,
    /// Sum of per-function round counts.
    RoundsTotal,
    /// Copies present before allocation (post ABI/φ lowering).
    CopiesBefore,
    /// Copies removed by coalescing.
    MovesEliminated,
    /// Copies remaining in machine code.
    CopiesRemaining,
    /// Reloads inserted by spilling.
    SpillLoads,
    /// Stores inserted by spilling.
    SpillStores,
    /// Total spill instructions.
    SpillInstructions,
    /// Caller-side save/restore instructions around calls.
    CallerSaveInsts,
    /// Distinct non-volatile registers used (prologue/epilogue cost).
    NonvolatilesUsed,
    /// Loads whose fusion window contained an address partner (a fusion
    /// *opportunity*, whether or not register constraints allowed it).
    PairedLoadCandidates,
    /// Paired loads actually fused by the rewriter.
    PairedLoadsFused,
    /// Zero-extensions inserted after byte loads.
    ZeroExtensions,
    /// Frame slots used.
    FrameSlots,
    /// Select verdicts: node received a register.
    SelectAssigned,
    /// Select verdicts: spilled because no register was available.
    SelectSpilledNoRegister,
    /// Select verdicts: §5.4 active spill (strongest preference negative).
    SelectSpilledPreferMemory,
    /// Undirected edges of every interference graph the build produced
    /// (the precolored clique included).
    BuildIfgEdges,
    /// Words the build ORed into interference-matrix rows: one row's
    /// worth per definition in the class, and per entry live-in.
    BuildRowWords,
    /// Entries simplify popped off its spill-candidate heap, stale ones
    /// included (simplify's blocked branch, `iterated`'s step 4 and the
    /// call-cost baseline's blocked branch).
    SimplifySpillPops,
    /// Edges built into Coloring Precedence Graphs (sentinel edges
    /// excluded).
    CpgEdges,
    /// Ready-frontier size at each select pick, summed over the picks.
    SelectFrontierScanned,
    /// Strength differentials select recomputed after an assignment made
    /// them stale.
    SelectDiffRecomputes,
    /// Entries select popped off its frontier heap, stale ones included.
    SelectHeapPops,
    /// Coalesce preferences whose screen narrowed the candidate set.
    PrefCoalesceHonored,
    /// Coalesce preferences screened for an unallocated partner (2.2).
    PrefCoalesceDeferred,
    /// Coalesce preferences skipped (screen would empty the set / no gain).
    PrefCoalesceSkipped,
    /// Plus-stride sequential-pair preferences honored.
    PrefSeqPlusHonored,
    /// Plus-stride sequential-pair preferences deferred.
    PrefSeqPlusDeferred,
    /// Plus-stride sequential-pair preferences skipped.
    PrefSeqPlusSkipped,
    /// Minus-stride sequential-pair preferences honored.
    PrefSeqMinusHonored,
    /// Minus-stride sequential-pair preferences deferred.
    PrefSeqMinusDeferred,
    /// Minus-stride sequential-pair preferences skipped.
    PrefSeqMinusSkipped,
    /// Register/set preferences (`prefers`) honored.
    PrefPrefersHonored,
    /// Register/set preferences deferred.
    PrefPrefersDeferred,
    /// Register/set preferences skipped.
    PrefPrefersSkipped,
    /// Symbolic-checker invocations.
    CheckRuns,
    /// Reachable blocks the checker proved.
    CheckBlocksProven,
    /// IR instructions the checker matched.
    CheckIrInsts,
    /// Machine instructions the checker consumed.
    CheckMachInsts,
    /// Fused paired loads the checker validated.
    CheckPairedLoads,
    /// Rules broken across all checker rejections.
    CheckViolations,
    /// JSONL requests a `pdgc serve` session received (well-formed or not).
    ServeRequests,
    /// Requests answered with an error response (parse/validation/allocation).
    ServeErrors,
    /// Requests whose handling panicked, answered with an `internal error`
    /// response (each is also a serve error).
    ServePanics,
    /// Allocation-cache lookups answered from the cache.
    CacheHits,
    /// Allocation-cache lookups that had to allocate.
    CacheMisses,
    /// Entries inserted into the allocation cache.
    CacheInsertions,
    /// Entries evicted to keep the cache under its capacity.
    CacheEvictions,
    /// Cache hits re-proven by the sampled symbolic check.
    CacheHitChecks,
    /// Analysis rounds whose CFG decomposed into SPL regions: the rounds
    /// where reload forwarding may run.
    SplAnalysesFast,
    /// Analysis rounds whose CFG did not decompose (no forwarding).
    SplAnalysesFallback,
    /// Composite SPL regions built across all analysis rounds.
    SplRegions,
    /// Loop regions (while-shaped plus self-loops) among them.
    SplLoopRegions,
    /// Reloads avoided by forwarding along SPL linear runs.
    SplForwardedReloads,
}

impl Counter {
    /// Every counter, in array order.
    pub const ALL: [Counter; 55] = [
        Counter::FuncsAllocated,
        Counter::RoundsTotal,
        Counter::CopiesBefore,
        Counter::MovesEliminated,
        Counter::CopiesRemaining,
        Counter::SpillLoads,
        Counter::SpillStores,
        Counter::SpillInstructions,
        Counter::CallerSaveInsts,
        Counter::NonvolatilesUsed,
        Counter::PairedLoadCandidates,
        Counter::PairedLoadsFused,
        Counter::ZeroExtensions,
        Counter::FrameSlots,
        Counter::SelectAssigned,
        Counter::SelectSpilledNoRegister,
        Counter::SelectSpilledPreferMemory,
        Counter::BuildIfgEdges,
        Counter::BuildRowWords,
        Counter::SimplifySpillPops,
        Counter::CpgEdges,
        Counter::SelectFrontierScanned,
        Counter::SelectDiffRecomputes,
        Counter::SelectHeapPops,
        Counter::PrefCoalesceHonored,
        Counter::PrefCoalesceDeferred,
        Counter::PrefCoalesceSkipped,
        Counter::PrefSeqPlusHonored,
        Counter::PrefSeqPlusDeferred,
        Counter::PrefSeqPlusSkipped,
        Counter::PrefSeqMinusHonored,
        Counter::PrefSeqMinusDeferred,
        Counter::PrefSeqMinusSkipped,
        Counter::PrefPrefersHonored,
        Counter::PrefPrefersDeferred,
        Counter::PrefPrefersSkipped,
        Counter::CheckRuns,
        Counter::CheckBlocksProven,
        Counter::CheckIrInsts,
        Counter::CheckMachInsts,
        Counter::CheckPairedLoads,
        Counter::CheckViolations,
        Counter::ServeRequests,
        Counter::ServeErrors,
        Counter::ServePanics,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheInsertions,
        Counter::CacheEvictions,
        Counter::CacheHitChecks,
        Counter::SplAnalysesFast,
        Counter::SplAnalysesFallback,
        Counter::SplRegions,
        Counter::SplLoopRegions,
        Counter::SplForwardedReloads,
    ];

    /// Number of counters.
    pub const COUNT: usize = Counter::ALL.len();

    /// Stable snake_case name used in snapshots and the regression gate.
    pub fn name(self) -> &'static str {
        match self {
            Counter::FuncsAllocated => "funcs_allocated",
            Counter::RoundsTotal => "rounds_total",
            Counter::CopiesBefore => "copies_before",
            Counter::MovesEliminated => "moves_eliminated",
            Counter::CopiesRemaining => "copies_remaining",
            Counter::SpillLoads => "spill_loads",
            Counter::SpillStores => "spill_stores",
            Counter::SpillInstructions => "spill_instructions",
            Counter::CallerSaveInsts => "caller_save_insts",
            Counter::NonvolatilesUsed => "nonvolatiles_used",
            Counter::PairedLoadCandidates => "paired_load_candidates",
            Counter::PairedLoadsFused => "paired_loads_fused",
            Counter::ZeroExtensions => "zero_extensions",
            Counter::FrameSlots => "frame_slots",
            Counter::SelectAssigned => "select_assigned",
            Counter::SelectSpilledNoRegister => "select_spilled_no_register",
            Counter::SelectSpilledPreferMemory => "select_spilled_prefer_memory",
            Counter::BuildIfgEdges => "build_ifg_edges",
            Counter::BuildRowWords => "build_row_words",
            Counter::SimplifySpillPops => "simplify_spill_pops",
            Counter::CpgEdges => "cpg_edges",
            Counter::SelectFrontierScanned => "select_frontier_scanned",
            Counter::SelectDiffRecomputes => "select_diff_recomputes",
            Counter::SelectHeapPops => "select_heap_pops",
            Counter::PrefCoalesceHonored => "pref_coalesce_honored",
            Counter::PrefCoalesceDeferred => "pref_coalesce_deferred",
            Counter::PrefCoalesceSkipped => "pref_coalesce_skipped",
            Counter::PrefSeqPlusHonored => "pref_seq_plus_honored",
            Counter::PrefSeqPlusDeferred => "pref_seq_plus_deferred",
            Counter::PrefSeqPlusSkipped => "pref_seq_plus_skipped",
            Counter::PrefSeqMinusHonored => "pref_seq_minus_honored",
            Counter::PrefSeqMinusDeferred => "pref_seq_minus_deferred",
            Counter::PrefSeqMinusSkipped => "pref_seq_minus_skipped",
            Counter::PrefPrefersHonored => "pref_prefers_honored",
            Counter::PrefPrefersDeferred => "pref_prefers_deferred",
            Counter::PrefPrefersSkipped => "pref_prefers_skipped",
            Counter::CheckRuns => "check_runs",
            Counter::CheckBlocksProven => "check_blocks_proven",
            Counter::CheckIrInsts => "check_ir_insts",
            Counter::CheckMachInsts => "check_mach_insts",
            Counter::CheckPairedLoads => "check_paired_loads",
            Counter::CheckViolations => "check_violations",
            Counter::ServeRequests => "serve_requests",
            Counter::ServeErrors => "serve_errors",
            Counter::ServePanics => "serve_panics",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::CacheInsertions => "cache_insertions",
            Counter::CacheEvictions => "cache_evictions",
            Counter::CacheHitChecks => "cache_hit_checks",
            Counter::SplAnalysesFast => "spl_analyses_fast",
            Counter::SplAnalysesFallback => "spl_analyses_fallback",
            Counter::SplRegions => "spl_regions",
            Counter::SplLoopRegions => "spl_loop_regions",
            Counter::SplForwardedReloads => "spl_forwarded_reloads",
        }
    }

    /// Dense index (position in [`Counter::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A deterministic scorecard histogram (distinct from the wall-clock
/// latency histograms, which are keyed by [`Phase`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum ValueHist {
    /// Rounds used per function (1 = no spill iteration).
    RoundsPerFunc,
    /// Spill instructions inserted per function.
    SpillsPerFunc,
    /// `Str(V, P)` strength of every honored preference screen — the
    /// Figure 5(a) screening outcome distribution.
    PrefStrengthHonored,
}

impl ValueHist {
    /// Every scorecard histogram, in array order.
    pub const ALL: [ValueHist; 3] = [
        ValueHist::RoundsPerFunc,
        ValueHist::SpillsPerFunc,
        ValueHist::PrefStrengthHonored,
    ];

    /// Number of scorecard histograms.
    pub const COUNT: usize = ValueHist::ALL.len();

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            ValueHist::RoundsPerFunc => "rounds_per_func",
            ValueHist::SpillsPerFunc => "spills_per_func",
            ValueHist::PrefStrengthHonored => "pref_strength_honored",
        }
    }

    /// Dense index (position in [`ValueHist::ALL`]).
    pub fn index(self) -> usize {
        self as usize
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
    latency: [Histogram; N_PHASES],
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

    #[test]
    fn counter_names_are_unique_and_indices_dense() {
        let mut names = std::collections::HashSet::new();
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(names.insert(c.name()), "duplicate name {}", c.name());
        }
        for (i, h) in ValueHist::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
            assert!(names.insert(h.name()), "duplicate name {}", h.name());
        }
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
        assert!(ms.contains("\"cpg\":0"), "{ms}");
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
