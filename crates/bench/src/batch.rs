//! The parallel batch-allocation driver.
//!
//! [`run_batch`] allocates every function of a set of workloads across a
//! hand-rolled [`std::thread::scope`] worker pool: functions form one
//! global task list, workers claim tasks through an atomic cursor, and
//! each function is allocated independently (the allocator takes `&self`
//! and every pipeline run owns its graphs), so results are **bit-identical
//! at every job count** — per-function outputs are written into a slot
//! vector keyed by task index (the *only* ordering authority; nothing is
//! sorted after the fact), and nothing about a function's allocation
//! depends on which worker ran it or when.
//!
//! # Per-worker scratch
//!
//! Each worker owns one [`PhaseScratch`] for its whole lifetime and every
//! allocation on that worker runs in an [`AllocSession`] over it, so the
//! arena-backed pools (liveness bitsets, IFG adjacency, worklists, select
//! caches, checker state) are allocated once per worker and reset between
//! functions instead of hitting the global allocator per function — that
//! allocator contention is what made `--jobs 2` *slower* than serial
//! before. Because a session reuses capacity but never state, results
//! stay bit-identical to a fresh session's.
//!
//! Under batch, the symbolic checker runs in [`CheckScope::Rewritten`]:
//! structural correspondence, calling-convention, pair, and frame rules
//! are still proven for every instruction, while the expensive converged
//! value replay is restricted to blocks the rewriter actually changed.
//! Single-function entry points keep the full-replay default.
//!
//! # Tracer thread-safety contract
//!
//! [`Tracer`]s are `&mut`-based single-threaded sinks and are **never
//! shared across workers**: the driver builds one sink per *function*
//! (whatever [`run_batch_traced`]'s factory returns) on the worker that
//! allocates it, and hands the collected sinks back to the caller after
//! the pool joins. Phase times need no sink: they come from each
//! function's always-on metrics, merged on the calling thread.

use crate::fingerprint_mach;
use pdgc_core::{AllocSession, AllocStats, CheckMode, CheckScope, PhaseScratch, RegisterAllocator};
use pdgc_obs::{MetricsRegistry, Tracer};
use pdgc_target::TargetDesc;
use pdgc_workloads::Workload;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The allocation of one function within a batch.
#[derive(Clone, Debug)]
pub struct BatchFuncResult {
    /// Position in the flattened task list (stable across job counts).
    pub index: usize,
    /// The workload the function came from.
    pub workload: String,
    /// Function name.
    pub func: String,
    /// Allocation statistics.
    pub stats: AllocStats,
    /// FNV-1a hash of the rewritten machine function's printed form: two
    /// batch runs produced identical rewrite output iff these match.
    pub fingerprint: u64,
    /// Always-on metrics drained from the worker's scratch after this
    /// function (counters, scorecard, and per-phase latency).
    pub metrics: MetricsRegistry,
}

/// The outcome of one batch run.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Allocator name.
    pub allocator: &'static str,
    /// Target name.
    pub target: String,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock of the whole allocation pool (task claim to join).
    pub elapsed: Duration,
    /// Per-function results, in task order.
    pub funcs: Vec<BatchFuncResult>,
    /// Statistics summed over all functions.
    pub stats: AllocStats,
    /// Metrics merged over all functions **in task order** at the
    /// slot-keyed join, so the deterministic sections (counters and
    /// scorecard histograms) are bit-identical at every job count. Its
    /// latency sums are the run's phase times (CPU time, so with
    /// `jobs > 1` they exceed `elapsed`).
    pub metrics: MetricsRegistry,
}

impl BatchResult {
    /// Functions allocated per wall-clock second.
    pub fn funcs_per_sec(&self) -> f64 {
        self.funcs.len() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Whether two runs produced bit-identical allocations: same functions
    /// in the same order with equal statistics and rewrite fingerprints.
    pub fn same_allocations(&self, other: &BatchResult) -> bool {
        self.funcs.len() == other.funcs.len()
            && self
                .funcs
                .iter()
                .zip(&other.funcs)
                .all(|(a, b)| a.stats == b.stats && a.fingerprint == b.fingerprint)
    }
}

/// Allocates every function of `workloads` with `alloc` across `jobs`
/// worker threads. `jobs` is clamped to at least 1; `jobs == 1` runs on
/// the calling thread with no pool.
///
/// # Panics
///
/// Panics if any allocation fails (the shipped workloads all allocate) or
/// a worker thread panics.
pub fn run_batch(
    alloc: &(dyn RegisterAllocator + Sync),
    workloads: &[Workload],
    target: &TargetDesc,
    jobs: usize,
) -> BatchResult {
    run_batch_checked(alloc, workloads, target, jobs, CheckMode::Off)
}

/// [`run_batch`] with the symbolic checker ([`pdgc_core::CheckMode`]) run
/// on every allocation. A checker violation panics with the full violation
/// list, like any other allocation failure.
///
/// # Panics
///
/// Same as [`run_batch`], plus checker violations under `check`.
pub fn run_batch_checked(
    alloc: &(dyn RegisterAllocator + Sync),
    workloads: &[Workload],
    target: &TargetDesc,
    jobs: usize,
    check: CheckMode,
) -> BatchResult {
    run_batch_traced_checked(alloc, workloads, target, jobs, |_| pdgc_obs::NoopTracer, check).0
}

/// [`run_batch`] with a caller-supplied per-function trace sink: `make(i)`
/// builds the sink for task `i` (on the worker thread that claims it), and
/// the sinks are returned in task order after the pool joins. Use this to
/// attach a `RecordingTracer` or `JsonLinesSink` per function without any
/// cross-thread sharing.
///
/// # Panics
///
/// Same as [`run_batch`].
pub fn run_batch_traced<T, F>(
    alloc: &(dyn RegisterAllocator + Sync),
    workloads: &[Workload],
    target: &TargetDesc,
    jobs: usize,
    make: F,
) -> (BatchResult, Vec<T>)
where
    T: Tracer + Send,
    F: Fn(usize) -> T + Sync,
{
    run_batch_traced_checked(alloc, workloads, target, jobs, make, CheckMode::Off)
}

/// [`run_batch_traced`] with the symbolic checker run on every allocation.
/// Checker failures are recorded as [`pdgc_obs::Event::CheckFailed`] in
/// the function's sink before the driver panics.
///
/// # Panics
///
/// Same as [`run_batch`], plus checker violations under `check`.
pub fn run_batch_traced_checked<T, F>(
    alloc: &(dyn RegisterAllocator + Sync),
    workloads: &[Workload],
    target: &TargetDesc,
    jobs: usize,
    make: F,
    check: CheckMode,
) -> (BatchResult, Vec<T>)
where
    T: Tracer + Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.max(1);
    let tasks: Vec<(usize, &Workload, &pdgc_ir::Function)> = workloads
        .iter()
        .flat_map(|w| w.funcs.iter().map(move |f| (w, f)))
        .enumerate()
        .map(|(i, (w, f))| (i, w, f))
        .collect();

    let cursor = AtomicUsize::new(0);
    // Slot per task, keyed by task index. Workers fill their claimed slots;
    // the index *is* the order — no sort happens after the pool joins, so
    // any claim/merge bug surfaces as an unfilled slot, not a reordering.
    let collected: Mutex<Vec<Option<(BatchFuncResult, T)>>> =
        Mutex::new((0..tasks.len()).map(|_| None).collect());

    let run_one =
        |i: usize, workload: &Workload, func: &pdgc_ir::Function, scratch: &mut PhaseScratch| {
            let mut sink = make(i);
            // The sink lives for this function only, so the worker's pools
            // move into a session that traces to it and move back after.
            let mut session = AllocSession {
                scratch: std::mem::take(scratch),
                check,
                scope: CheckScope::Rewritten,
                tracer: Some(&mut sink),
            };
            let out = alloc.allocate(func, target, &mut session);
            *scratch = session.scratch;
            let out =
                out.unwrap_or_else(|e| panic!("{} failed on {}: {e}", alloc.name(), func.name));
            let fingerprint = fingerprint_mach(&out.mach);
            let stats = out.stats.clone();
            // The result is consumed here (stats + fingerprint); hand its
            // buffers back so the next function on this worker reuses them.
            out.recycle(scratch);
            (
                BatchFuncResult {
                    index: i,
                    workload: workload.name.clone(),
                    func: func.name.clone(),
                    stats,
                    fingerprint,
                    // Drain the always-on registry so each function's
                    // metrics travel with its slot; the worker's scratch
                    // starts the next function empty.
                    metrics: std::mem::take(&mut scratch.metrics),
                },
                sink,
            )
        };
    let place = |slots: &mut Vec<Option<(BatchFuncResult, T)>>,
                 pair: (BatchFuncResult, T)| {
        let slot = pair.0.index;
        debug_assert!(slots[slot].is_none(), "task {slot} claimed twice");
        slots[slot] = Some(pair);
    };

    let start = Instant::now();
    if jobs == 1 {
        let mut scratch = PhaseScratch::new();
        let mut slots = collected.lock().expect("unpoisoned");
        for &(i, w, f) in &tasks {
            let pair = run_one(i, w, f, &mut scratch);
            place(&mut slots, pair);
        }
    } else {
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| {
                    // One scratch per worker, warm after the first function.
                    let mut scratch = PhaseScratch::new();
                    let mut local: Vec<(BatchFuncResult, T)> = Vec::new();
                    loop {
                        let t = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&(i, w, f)) = tasks.get(t) else { break };
                        local.push(run_one(i, w, f, &mut scratch));
                    }
                    let mut slots = collected.lock().expect("unpoisoned");
                    for pair in local {
                        place(&mut slots, pair);
                    }
                });
            }
        });
    }
    let elapsed = start.elapsed();

    let slots = collected.into_inner().expect("unpoisoned");
    let mut stats = AllocStats::default();
    let mut metrics = MetricsRegistry::default();
    let mut funcs = Vec::with_capacity(slots.len());
    let mut sinks = Vec::with_capacity(slots.len());
    for (i, pair) in slots.into_iter().enumerate() {
        let (r, s) = pair.unwrap_or_else(|| panic!("task {i} was never claimed"));
        debug_assert_eq!(r.index, i);
        stats.accumulate(&r.stats);
        metrics.merge(&r.metrics);
        funcs.push(r);
        sinks.push(s);
    }
    (
        BatchResult {
            allocator: alloc.name(),
            target: target.name.clone(),
            jobs,
            elapsed,
            funcs,
            stats,
            metrics,
        },
        sinks,
    )
}

/// A serial run and a parallel run of the same batch, for throughput
/// reporting and determinism gating.
#[derive(Debug)]
pub struct BatchComparison {
    /// The `jobs == 1` run.
    pub serial: BatchResult,
    /// The `jobs == N` run.
    pub parallel: BatchResult,
    /// Wall-clock repeats each run is the best of.
    pub repeat: usize,
    /// Wall-clock of every serial repeat, in run order (the kept run is
    /// the minimum). Lets `pdgc report` compute run-to-run variance
    /// instead of seeing only the best-of point.
    pub serial_repeats: Vec<Duration>,
    /// Wall-clock of every parallel repeat, in run order.
    pub parallel_repeats: Vec<Duration>,
}

impl BatchComparison {
    /// Whether the parallel run reproduced the serial allocations exactly.
    pub fn identical(&self) -> bool {
        self.serial.same_allocations(&self.parallel)
    }

    /// Parallel throughput over serial throughput.
    pub fn speedup(&self) -> f64 {
        self.parallel.funcs_per_sec() / self.serial.funcs_per_sec().max(1e-9)
    }

    fn run_json(&self, r: &BatchResult, repeats: &[Duration]) -> String {
        pdgc_obs::json::JsonObject::new()
            .u64("jobs", r.jobs as u64)
            .u64("functions", r.funcs.len() as u64)
            .f64("elapsed_ms", r.elapsed.as_secs_f64() * 1e3)
            .raw(
                "repeats_ms",
                &pdgc_obs::json::array(
                    repeats
                        .iter()
                        .map(|d| format!("{:.3}", d.as_secs_f64() * 1e3)),
                ),
            )
            .f64("functions_per_sec", r.funcs_per_sec())
            .f64(
                "speedup_vs_1_thread",
                r.funcs_per_sec() / self.serial.funcs_per_sec().max(1e-9),
            )
            .raw("phases_ms", &r.metrics.latency_ms_json())
            .finish()
    }

    /// The comparison as the `results/bench_batch.json` object.
    pub fn json(&self) -> String {
        pdgc_obs::json::JsonObject::new()
            .str("figure", "bench_batch")
            .str("allocator", self.serial.allocator)
            .str("target", &self.serial.target)
            .u64("functions", self.serial.funcs.len() as u64)
            .u64("repeat", self.repeat as u64)
            .bool("identical", self.identical())
            .f64("speedup", self.speedup())
            .raw("serial", &self.run_json(&self.serial, &self.serial_repeats))
            .raw(
                "parallel",
                &self.run_json(&self.parallel, &self.parallel_repeats),
            )
            .finish()
    }

    /// Writes [`Self::json`] to `results/bench_batch.json`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&self) -> std::io::Result<std::path::PathBuf> {
        let dir = std::path::Path::new("results");
        std::fs::create_dir_all(dir)?;
        let path = dir.join("bench_batch.json");
        std::fs::write(&path, self.json() + "\n")?;
        Ok(path)
    }
}

/// Runs the batch at `jobs == 1` and at `jobs`, `repeat` times each
/// (keeping the best wall clock per job count), and pairs the results.
///
/// # Panics
///
/// Panics if any allocation fails, or if repeats of the *same* job count
/// disagree — that would mean allocation is not a pure function of its
/// input, which the whole driver depends on.
pub fn compare_jobs(
    alloc: &(dyn RegisterAllocator + Sync),
    workloads: &[Workload],
    target: &TargetDesc,
    jobs: usize,
    repeat: usize,
) -> BatchComparison {
    compare_jobs_checked(alloc, workloads, target, jobs, repeat, CheckMode::Off)
}

/// [`compare_jobs`] with the symbolic checker run on every allocation of
/// both the serial and the parallel runs.
///
/// # Panics
///
/// Same as [`compare_jobs`], plus checker violations under `check`.
pub fn compare_jobs_checked(
    alloc: &(dyn RegisterAllocator + Sync),
    workloads: &[Workload],
    target: &TargetDesc,
    jobs: usize,
    repeat: usize,
    check: CheckMode,
) -> BatchComparison {
    let repeat = repeat.max(1);
    let (serial, serial_repeats) = best_of(alloc, workloads, target, 1, repeat, check);
    let (parallel, parallel_repeats) = best_of(alloc, workloads, target, jobs, repeat, check);
    BatchComparison {
        serial,
        parallel,
        repeat,
        serial_repeats,
        parallel_repeats,
    }
}

/// [`compare_jobs_checked`] across several job counts at once: the serial
/// baseline is run **once** (best of `repeat`) and shared by every
/// comparison, instead of being re-measured per jobs value.
///
/// # Panics
///
/// Same as [`compare_jobs`].
pub fn compare_jobs_sweep(
    alloc: &(dyn RegisterAllocator + Sync),
    workloads: &[Workload],
    target: &TargetDesc,
    jobs_list: &[usize],
    repeat: usize,
    check: CheckMode,
) -> Vec<BatchComparison> {
    let repeat = repeat.max(1);
    let (serial, serial_repeats) = best_of(alloc, workloads, target, 1, repeat, check);
    jobs_list
        .iter()
        .map(|&jobs| {
            let (parallel, parallel_repeats) =
                best_of(alloc, workloads, target, jobs, repeat, check);
            BatchComparison {
                serial: serial.clone(),
                parallel,
                repeat,
                serial_repeats: serial_repeats.clone(),
                parallel_repeats,
            }
        })
        .collect()
}

/// Runs the batch `repeat` times at one job count, asserting all repeats
/// produce identical allocations, and keeps the best wall clock. Every
/// repeat's wall-clock is returned alongside (in run order) so callers
/// can report run-to-run variance, not just the kept minimum.
fn best_of(
    alloc: &(dyn RegisterAllocator + Sync),
    workloads: &[Workload],
    target: &TargetDesc,
    jobs: usize,
    repeat: usize,
    check: CheckMode,
) -> (BatchResult, Vec<Duration>) {
    let mut best: Option<BatchResult> = None;
    let mut repeats = Vec::with_capacity(repeat);
    for _ in 0..repeat {
        let r = run_batch_checked(alloc, workloads, target, jobs, check);
        repeats.push(r.elapsed);
        match &mut best {
            Some(prev) => {
                assert!(
                    prev.same_allocations(&r),
                    "allocations diverged between repeats at jobs={jobs}"
                );
                if r.elapsed < prev.elapsed {
                    best = Some(r);
                }
            }
            None => best = Some(r),
        }
    }
    (best.expect("repeat >= 1"), repeats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgc_core::PreferenceAllocator;
    use pdgc_obs::{Event, RecordingTracer};
    use pdgc_target::PressureModel;

    fn small_workloads() -> Vec<Workload> {
        let profiles = pdgc_workloads::specjvm_suite();
        let mut w = pdgc_workloads::generate(&profiles[6]); // jack: smallest
        w.funcs.truncate(4);
        vec![w]
    }

    #[test]
    fn batch_matches_across_job_counts() {
        let target = TargetDesc::ia64_like(PressureModel::Middle);
        let alloc = PreferenceAllocator::full();
        let workloads = small_workloads();
        let serial = run_batch(&alloc, &workloads, &target, 1);
        let parallel = run_batch(&alloc, &workloads, &target, 3);
        assert_eq!(serial.funcs.len(), 4);
        assert!(serial.same_allocations(&parallel));
        assert_eq!(serial.stats, parallel.stats);
        // Counters and scorecard histograms merge commutatively at the
        // slot-keyed join, so they match bit-for-bit across job counts.
        assert!(serial.metrics.deterministic_eq(&parallel.metrics));
        assert!(!serial.metrics.is_empty());
        assert_eq!(parallel.jobs, 3);
        assert!(serial.funcs_per_sec() > 0.0);
    }

    #[test]
    fn per_function_sinks_observe_their_own_allocation() {
        let target = TargetDesc::ia64_like(PressureModel::Middle);
        let alloc = PreferenceAllocator::full();
        let workloads = small_workloads();
        let (result, sinks) = run_batch_traced(&alloc, &workloads, &target, 2, |_| {
            let mut t = RecordingTracer::default();
            t.set_enabled(true);
            t
        });
        assert_eq!(sinks.len(), result.funcs.len());
        for sink in &sinks {
            // Every function's own sink saw its pipeline finish.
            assert!(sink
                .events()
                .iter()
                .any(|e| matches!(e, Event::Finish { .. })));
        }
        // Phase times were metered alongside the user sinks.
        assert!(result.metrics.latency_hist(pdgc_obs::Phase::Select).sum > 0);
    }

    #[test]
    fn batch_runs_green_under_the_checker() {
        let target = TargetDesc::ia64_like(PressureModel::High);
        let alloc = PreferenceAllocator::full();
        let workloads = small_workloads();
        let r = run_batch_checked(&alloc, &workloads, &target, 2, CheckMode::Always);
        assert_eq!(r.funcs.len(), 4);
    }

    #[test]
    fn task_order_is_stable_and_indexed() {
        let target = TargetDesc::ia64_like(PressureModel::Middle);
        let alloc = PreferenceAllocator::full();
        let workloads = small_workloads();
        let r = run_batch(&alloc, &workloads, &target, 2);
        for (i, f) in r.funcs.iter().enumerate() {
            assert_eq!(f.index, i);
        }
    }
}
