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
//! Each worker owns one [`AllocSession`], and with it one [`PhaseScratch`],
//! for its whole lifetime; every allocation on that worker runs in it, so
//! the arena-backed pools (liveness bitsets, IFG adjacency, worklists, select
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
//! # Tracing
//!
//! Batch sessions trace nothing (`tracer: None`). A `Tracer` is a
//! `&mut`-based single-threaded sink, and phase times need none: they come
//! from each function's always-on metrics, merged on the calling thread.

use crate::fingerprint_mach;
use pdgc_core::{AllocSession, AllocStats, CheckMode, CheckScope, PhaseScratch, RegisterAllocator};
use pdgc_obs::MetricsRegistry;
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
/// worker threads, running the symbolic checker on every allocation as
/// `check` says. `jobs` is clamped to at least 1; `jobs == 1` runs on the
/// calling thread with no pool.
///
/// # Panics
///
/// Panics if any allocation fails (the shipped workloads all allocate),
/// the checker rejects one (with the full violation list), or a worker
/// thread panics.
pub fn run_batch(
    alloc: &(dyn RegisterAllocator + Sync),
    workloads: &[Workload],
    target: &TargetDesc,
    jobs: usize,
    check: CheckMode,
) -> BatchResult {
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
    let collected: Mutex<Vec<Option<BatchFuncResult>>> =
        Mutex::new((0..tasks.len()).map(|_| None).collect());

    // One session per worker, warm after the first function.
    let new_session = || AllocSession {
        scratch: PhaseScratch::new(),
        check,
        scope: CheckScope::Rewritten,
        tracer: None,
    };
    let run_one =
        |i: usize, workload: &Workload, func: &pdgc_ir::Function, session: &mut AllocSession| {
            let out = alloc
                .allocate(func, target, session)
                .unwrap_or_else(|e| panic!("{} failed on {}: {e}", alloc.name(), func.name));
            let fingerprint = fingerprint_mach(&out.mach);
            let stats = out.stats;
            // The result is consumed here (stats + fingerprint); hand its
            // buffers back so the next function on this worker reuses them.
            out.recycle(&mut session.scratch);
            BatchFuncResult {
                index: i,
                workload: workload.name.clone(),
                func: func.name.clone(),
                stats,
                fingerprint,
                // Drain the always-on registry so each function's metrics
                // travel with its slot; the worker's scratch starts the
                // next function empty.
                metrics: std::mem::take(&mut session.scratch.metrics),
            }
        };
    let place = |slots: &mut Vec<Option<BatchFuncResult>>, r: BatchFuncResult| {
        let slot = r.index;
        debug_assert!(slots[slot].is_none(), "task {slot} claimed twice");
        slots[slot] = Some(r);
    };

    let start = Instant::now();
    if jobs == 1 {
        let mut session = new_session();
        let mut slots = collected.lock().expect("unpoisoned");
        for &(i, w, f) in &tasks {
            let r = run_one(i, w, f, &mut session);
            place(&mut slots, r);
        }
    } else {
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| {
                    let mut session = new_session();
                    let mut local: Vec<BatchFuncResult> = Vec::new();
                    loop {
                        let t = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&(i, w, f)) = tasks.get(t) else {
                            break;
                        };
                        local.push(run_one(i, w, f, &mut session));
                    }
                    let mut slots = collected.lock().expect("unpoisoned");
                    for r in local {
                        place(&mut slots, r);
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
    for (i, r) in slots.into_iter().enumerate() {
        let r = r.unwrap_or_else(|| panic!("task {i} was never claimed"));
        debug_assert_eq!(r.index, i);
        stats.accumulate(&r.stats);
        metrics.merge(&r.metrics);
        funcs.push(r);
    }
    BatchResult {
        allocator: alloc.name(),
        target: target.name.clone(),
        jobs,
        elapsed,
        funcs,
        stats,
        metrics,
    }
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
/// (keeping the best wall clock per job count), with the symbolic checker
/// run on every allocation as `check` says, and pairs the results.
///
/// # Panics
///
/// Panics if any allocation fails or the checker rejects one, or if
/// repeats of the *same* job count disagree — that would mean allocation
/// is not a pure function of its input, which the whole driver depends on.
pub fn compare_jobs(
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
        let r = run_batch(alloc, workloads, target, jobs, check);
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
        let serial = run_batch(&alloc, &workloads, &target, 1, CheckMode::Off);
        let parallel = run_batch(&alloc, &workloads, &target, 3, CheckMode::Off);
        assert_eq!(serial.funcs.len(), 4);
        assert!(serial.same_allocations(&parallel));
        assert_eq!(serial.stats, parallel.stats);
        // Counters and scorecard histograms merge commutatively at the
        // slot-keyed join, so they match bit-for-bit across job counts.
        assert!(serial.metrics.deterministic_eq(&parallel.metrics));
        assert!(!serial.metrics.is_empty());
        // Phase times are metered without any trace sink attached.
        for r in [&serial, &parallel] {
            assert!(r.metrics.latency_hist(pdgc_obs::Phase::Select).sum > 0);
        }
        assert_eq!(parallel.jobs, 3);
        assert!(serial.funcs_per_sec() > 0.0);
    }

    #[test]
    fn batch_runs_green_under_the_checker() {
        let target = TargetDesc::ia64_like(PressureModel::High);
        let alloc = PreferenceAllocator::full();
        let workloads = small_workloads();
        let r = run_batch(&alloc, &workloads, &target, 2, CheckMode::Always);
        assert_eq!(r.funcs.len(), 4);
    }

    #[test]
    fn task_order_is_stable_and_indexed() {
        let target = TargetDesc::ia64_like(PressureModel::Middle);
        let alloc = PreferenceAllocator::full();
        let workloads = small_workloads();
        let r = run_batch(&alloc, &workloads, &target, 2, CheckMode::Off);
        for (i, f) in r.funcs.iter().enumerate() {
            assert_eq!(f.index, i);
        }
    }
}
