//! The batch-allocation throughput bench: allocates the whole SPECjvm98
//! analog suite through the parallel batch driver, at `--jobs 1` and at
//! the requested job count, and writes `results/bench_batch.json` with
//! functions/sec, per-phase milliseconds, thread count, and the speedup
//! over the serial run.
//!
//! The serial and parallel runs must produce bit-identical allocations
//! (same per-function statistics and rewrite fingerprints); the process
//! exits non-zero if they diverge, so CI can gate on determinism.
//!
//! Pass `--check` (or `--check=debug`) to run the post-allocation symbolic
//! checker (`pdgc-check`) on every allocation of both runs; under batch the
//! checker replays values only in rewritten blocks (structural, pair, and
//! frame rules still cover everything). A violation aborts with the full
//! violation list.
//!
//! Pass `--min-speedup 1.5` to exit non-zero when the parallel run fails to
//! beat serial throughput by that factor — this is how CI asserts that the
//! per-worker scratch arenas keep batch allocation scaling with threads.
//!
//! ```text
//! cargo run --release -p pdgc-bench --bin batch -- --jobs 4 [--repeat 3] [--target risc16] [--check] [--min-speedup 1.5]
//! ```

use pdgc_bench::batch::compare_jobs;
use pdgc_bench::{print_table, write_metrics};
use pdgc_core::{CheckMode, PreferenceAllocator};
use pdgc_target::TargetRegistry;
use pdgc_workloads::{generate, specjvm_suite, Workload};

fn parse_str_flag(args: &[String], name: &str) -> Option<String> {
    let eq = format!("{name}=");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            return it.next().cloned();
        }
        if let Some(v) = a.strip_prefix(&eq) {
            return Some(v.to_string());
        }
    }
    None
}

fn parse_flag(args: &[String], name: &str) -> Option<usize> {
    parse_str_flag(args, name).and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = parse_flag(&args, "--jobs")
        .or_else(|| std::thread::available_parallelism().ok().map(usize::from))
        .unwrap_or(1);
    let repeat = parse_flag(&args, "--repeat").unwrap_or(1).max(1);
    let check = if args.iter().any(|a| a == "--check") {
        CheckMode::Always
    } else {
        parse_str_flag(&args, "--check")
            .map(|v| CheckMode::parse(&v).expect("bad --check mode (off, debug, always)"))
            .unwrap_or(CheckMode::Off)
    };
    let min_speedup: Option<f64> =
        parse_str_flag(&args, "--min-speedup").map(|v| v.parse().expect("bad --min-speedup"));
    let target_name = parse_str_flag(&args, "--target").unwrap_or_else(|| "ia64-24".to_string());
    let registry = TargetRegistry::builtin();
    let target = match registry.resolve(&target_name) {
        Ok(t) => t.clone(),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let workloads: Vec<Workload> = specjvm_suite()
        .iter()
        .map(|p| generate(&p.for_target(&target)))
        .collect();
    let total_funcs: usize = workloads.iter().map(|w| w.funcs.len()).sum();
    let alloc = PreferenceAllocator::full();
    println!(
        "batch bench: {total_funcs} functions x {repeat} repeat(s), target {}, jobs 1 vs {jobs}",
        target.name
    );

    let cmp = compare_jobs(&alloc, &workloads, &target, jobs, repeat, check);
    if check.should_check() {
        println!("symbolic check: every allocation of both runs proven ({check} mode)");
    }

    let rows = [&cmp.serial, &cmp.parallel]
        .iter()
        .map(|r| {
            vec![
                format!("jobs={}", r.jobs),
                format!("{:.1}", r.elapsed.as_secs_f64() * 1e3),
                format!("{:.1}", r.funcs_per_sec()),
                format!(
                    "{:.2}x",
                    r.funcs_per_sec() / cmp.serial.funcs_per_sec().max(1e-9)
                ),
            ]
        })
        .collect::<Vec<_>>();
    print_table(&["run", "elapsed-ms", "funcs/sec", "speedup"], &rows);
    println!(
        "allocations identical across job counts: {}",
        if cmp.identical() { "yes" } else { "NO — DIVERGENCE" }
    );

    let path = cmp.write_json().expect("write bench_batch.json");
    println!("wrote {}", path.display());

    // The always-on metrics merge commutatively at the slot-keyed join,
    // so the deterministic sections (counters + scorecard histograms)
    // must be bit-identical across job counts — gate on it like the
    // allocation fingerprints above.
    let metrics_deterministic = cmp.serial.metrics.deterministic_eq(&cmp.parallel.metrics);
    println!(
        "metrics identical across job counts: {}",
        if metrics_deterministic {
            "yes"
        } else {
            "NO — DIVERGENCE"
        }
    );
    let mpath = write_metrics("bench_batch", cmp.serial.allocator, &target.name, &cmp.serial.metrics)
        .expect("write metrics.json");
    println!("wrote {}", mpath.display());

    if !cmp.identical() {
        eprintln!("error: parallel allocation diverged from serial");
        std::process::exit(1);
    }
    if !metrics_deterministic {
        eprintln!("error: parallel metrics diverged from serial");
        std::process::exit(1);
    }
    if let Some(min) = min_speedup {
        let got = cmp.speedup();
        if got < min {
            eprintln!(
                "error: jobs={jobs} speedup {got:.2}x is below the required {min:.2}x"
            );
            std::process::exit(1);
        }
        println!("speedup gate: {got:.2}x >= {min:.2}x");
    }
}
