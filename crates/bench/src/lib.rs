//! Benchmark harness shared by the figure-regeneration binaries
//! (`fig7`, `fig9`, `fig10`, `fig11`) and the Criterion benches.
//!
//! The quantities mirror the paper's §6:
//!
//! * **eliminated moves** and **generated spill code**, per register
//!   class, ratioed against the Chaitin-aggressive base (Figure 9);
//! * **elapsed time** as machine-interpreter dynamic cycles summed over a
//!   workload (Figures 10 and 11).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod corpus;
pub mod serve;

use pdgc_core::{AllocSession, AllocStats, ClassStats, RegisterAllocator};
use pdgc_obs::json::JsonObject;
use pdgc_obs::MetricsRegistry;
use pdgc_sim::{run_mach, DEFAULT_FUEL};
use pdgc_target::TargetDesc;
use pdgc_workloads::{default_args, Workload};

/// Aggregated results of allocating and executing one workload with one
/// allocator.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// Allocator name.
    pub allocator: &'static str,
    /// Workload name.
    pub workload: String,
    /// Target name (e.g. `ia64-24`).
    pub target: String,
    /// Summed allocation statistics.
    pub stats: AllocStats,
    /// Summed dynamic cycles over all functions (simulated elapsed time).
    pub cycles: u64,
    /// This workload's always-on metrics: counters, scorecard, and the
    /// per-phase latency histograms its `phases_ms` are summed from.
    pub metrics: MetricsRegistry,
}

/// Allocates and executes every function of `workload`, folding the
/// allocator's always-on metrics (counters, scorecard, latency
/// histograms) into `metrics` as well as into the result.
///
/// # Panics
///
/// Panics if allocation or execution fails (the differential test suite
/// guarantees they do not for the shipped workloads and targets).
pub fn run_workload(
    alloc: &dyn RegisterAllocator,
    workload: &Workload,
    target: &TargetDesc,
    metrics: &mut MetricsRegistry,
) -> WorkloadResult {
    let mut stats = AllocStats::default();
    let mut cycles = 0u64;
    let mut session = AllocSession::default();
    for func in &workload.funcs {
        let out = alloc
            .allocate(func, target, &mut session)
            .unwrap_or_else(|e| panic!("{} failed on {}: {e}", alloc.name(), func.name));
        stats.accumulate(&out.stats);
        let exec = run_mach(&out.mach, target, &default_args(func), DEFAULT_FUEL)
            .unwrap_or_else(|e| panic!("{} produced diverging {}: {e}", alloc.name(), func.name));
        cycles += exec.cycles;
    }
    metrics.merge(&session.scratch.metrics);
    WorkloadResult {
        allocator: alloc.name(),
        workload: workload.name.clone(),
        target: target.name.clone(),
        stats,
        cycles,
        metrics: session.scratch.metrics,
    }
}

fn class_json(c: &ClassStats) -> String {
    JsonObject::new()
        .u64("copies_before", c.copies_before as u64)
        .u64("moves_eliminated", c.moves_eliminated as u64)
        .u64("copies_remaining", c.copies_remaining as u64)
        .u64("spill_loads", c.spill_loads as u64)
        .u64("spill_stores", c.spill_stores as u64)
        .finish()
}

/// Renders an [`AllocStats`] scorecard as a JSON object — the `"stats"`
/// payload of batch rows and serve responses.
pub fn stats_json(s: &AllocStats) -> String {
    JsonObject::new()
        .u64("copies_before", s.copies_before as u64)
        .u64("moves_eliminated", s.moves_eliminated as u64)
        .u64("copies_remaining", s.copies_remaining as u64)
        .u64("spill_loads", s.spill_loads as u64)
        .u64("spill_stores", s.spill_stores as u64)
        .u64("spill_instructions", s.spill_instructions as u64)
        .u64("caller_save_insts", s.caller_save_insts as u64)
        .u64("nonvolatiles_used", s.nonvolatiles_used as u64)
        .u64("paired_loads", s.paired_loads as u64)
        .u64("paired_candidates", s.paired_candidates as u64)
        .u64("zero_extensions", s.zero_extensions as u64)
        .u64("rounds", s.rounds as u64)
        .u64("frame_slots", u64::from(s.frame_slots))
        .raw("int", &class_json(&s.int))
        .raw("float", &class_json(&s.float))
        .finish()
}

/// One [`WorkloadResult`] as a JSON object (workload, allocator, target,
/// statistics, cycles, and per-phase milliseconds).
pub fn result_json(r: &WorkloadResult) -> String {
    JsonObject::new()
        .str("workload", &r.workload)
        .str("allocator", r.allocator)
        .str("target", &r.target)
        .u64("cycles", r.cycles)
        .raw("stats", &stats_json(&r.stats))
        .raw("phases_ms", &r.metrics.latency_ms_json())
        .finish()
}

/// Writes `results/<figure>.json`: a machine-readable record of a bench
/// run — `{"figure": ..., "results": [...]}`.
///
/// # Errors
///
/// Propagates filesystem errors (directory creation, file write).
pub fn write_results(
    figure: &str,
    results: &[WorkloadResult],
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{figure}.json"));
    let body = JsonObject::new()
        .str("figure", figure)
        .raw(
            "results",
            &pdgc_obs::json::array(results.iter().map(result_json)),
        )
        .finish();
    std::fs::write(&path, body + "\n")?;
    Ok(path)
}

/// One metrics snapshot as the `results/metrics.json` object: run
/// provenance (`source`, `allocator`, `target`) plus the registry's
/// three sections (`counters`, `scorecard_hists`, `latency_hists`).
/// `pdgc report` diffs two of these.
pub fn metrics_snapshot_json(
    source: &str,
    allocator: &str,
    target: &str,
    m: &MetricsRegistry,
) -> String {
    JsonObject::new()
        .str("source", source)
        .str("allocator", allocator)
        .str("target", target)
        .raw("counters", &m.counters_json())
        .raw("scorecard_hists", &m.scorecard_hists_json())
        .raw("latency_hists", &m.latency_hists_json())
        .finish()
}

/// Writes [`metrics_snapshot_json`] to `results/metrics.json`.
///
/// # Errors
///
/// Propagates filesystem errors (directory creation, file write).
pub fn write_metrics(
    source: &str,
    allocator: &str,
    target: &str,
    m: &MetricsRegistry,
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join("metrics.json");
    std::fs::write(&path, metrics_snapshot_json(source, allocator, target, m) + "\n")?;
    Ok(path)
}

/// FNV-1a hash of a machine function's printed form — a compact
/// fingerprint of the complete post-rewrite output, used by the batch
/// driver to certify that two runs produced identical code.
pub fn fingerprint_mach(mach: &pdgc_target::MachFunction) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in mach.to_string().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The geometric mean of positive values.
pub fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Formats a ratio, using `-` for undefined (0/0) entries.
pub fn fmt_ratio(num: usize, den: usize) -> String {
    if den == 0 {
        if num == 0 {
            "    -".to_string()
        } else {
            format!("{:>5}", format!("+{num}"))
        }
    } else {
        format!("{:5.2}", num as f64 / den as f64)
    }
}

/// Prints an aligned table: a header row then data rows, first column
/// left-aligned and 14 wide, the rest right-aligned and 12 wide.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let head: String = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            if i == 0 {
                format!("{h:<14}")
            } else {
                format!("{h:>14}")
            }
        })
        .collect();
    println!("{head}");
    println!("{}", "-".repeat(head.len()));
    for row in rows {
        let line: String = row
            .iter()
            .enumerate()
            .map(|(i, c)| {
                if i == 0 {
                    format!("{c:<14}")
                } else {
                    format!("{c:>14}")
                }
            })
            .collect();
        println!("{line}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_mean_of_equal_values() {
        assert!((geo_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn geo_mean_mixed() {
        assert!((geo_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(0, 0).trim(), "-");
        assert_eq!(fmt_ratio(5, 10).trim(), "0.50");
    }

    #[test]
    fn run_workload_smoke() {
        use pdgc_core::PreferenceAllocator;
        use pdgc_target::PressureModel;
        let prof = &pdgc_workloads::specjvm_suite()[6]; // jack: smallest
        let mut w = pdgc_workloads::generate(prof);
        w.funcs.truncate(2);
        let target = TargetDesc::ia64_like(PressureModel::Middle);
        let mut metrics = MetricsRegistry::default();
        let r = run_workload(&PreferenceAllocator::full(), &w, &target, &mut metrics);
        assert!(r.cycles > 0);
        assert!(r.stats.copies_before > 0);
        assert!(r.metrics.latency_hist(pdgc_obs::Phase::Select).sum > 0);
        assert!(r.metrics.deterministic_eq(&metrics));
    }
}
