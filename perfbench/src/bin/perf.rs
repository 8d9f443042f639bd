//! The pdgc benchmark's headline run.
//!
//! ```console
//! $ cargo run --release --manifest-path perfbench/Cargo.toml --bin perf -- \
//!       --workload suite --seed 0 --seconds 20 --trace 0
//! ```
//!
//! Builds `pdgc` from source, generates the workload's inputs from the
//! seed, and drives one `pdgc serve` child over its JSONL protocol: one
//! client, closed loop, one request in flight. After an untimed warm-up
//! it sends whole passes until `--seconds` have elapsed, then checks
//! every distinct answer against the reference interpreter and prints the
//! end-to-end metrics. `--trace 1` builds and runs the traced replica
//! (`src/bin/trace.rs`) instead, which prints the per-layer metrics.
//!
//! Exits 0 only when every request succeeded and the correctness gate
//! passed; otherwise it names each failing function on stderr.

use pdgc_obs::json::JsonObject;
use pdgc_perfbench::{
    best_of_kind_ms, build_pdgc, cargo_build, gate_all, latency_json, median, package_dir,
    percentile, report, run_context_json, spread_json, Args, Inputs, Ledger, Metric, Sample,
    ServeChild, SETUPS,
};
use std::process::{Command, ExitCode};
use std::time::Instant;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = Args::parse(&argv).and_then(|args| {
        if args.trace {
            run_traced(&argv)
        } else {
            run(&args)
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Builds the `trace` binary with this binary's profile and runs it with
/// the same arguments; its stdout is the run's result.
fn run_traced(argv: &[String]) -> Result<bool, String> {
    let manifest = package_dir().join("Cargo.toml");
    let mut build = vec![
        "--offline",
        "--manifest-path",
        manifest.to_str().ok_or("non-UTF-8 package path")?,
        "--bin",
        "trace",
    ];
    if !cfg!(debug_assertions) {
        build.push("--release");
    }
    cargo_build(&build)?;
    let exe = std::env::current_exe()
        .map_err(|e| format!("locating perf: {e}"))?
        .with_file_name(format!("trace{}", std::env::consts::EXE_SUFFIX));
    let status = Command::new(&exe)
        .args(argv)
        .status()
        .map_err(|e| format!("running {}: {e}", exe.display()))?;
    Ok(status.success())
}

/// Spawns a serve child and sends it the warm-up; returns it with the
/// set-up time (spawn to the last warm-up response).
fn set_up(
    pdgc: &std::path::Path,
    inputs: &Inputs,
    ledger: &mut Ledger,
    tag: &str,
) -> Result<(ServeChild, f64), String> {
    let t = Instant::now();
    let mut child = ServeChild::spawn(pdgc, inputs.workload.cache_cap(), tag)?;
    let mut stream = inputs.stream();
    for _ in 0..inputs.warmup_len {
        let id = stream.next_id();
        let resp = child.request(&inputs.requests[id])?;
        ledger.record(inputs, id, resp);
    }
    Ok((child, t.elapsed().as_secs_f64()))
}

fn run(args: &Args) -> Result<bool, String> {
    let pdgc = build_pdgc()?;
    let inputs = Inputs::generate(args.workload, args.seed, args.smoke);
    let context = run_context_json(args);
    let mut ledger = Ledger::new(inputs.requests.len());
    eprintln!(
        "{}: seed {}, {} functions x {} allocator(s); warm-up {} requests, passes of {}",
        args.workload.name(),
        args.seed,
        inputs.funcs.len(),
        inputs.allocators.len(),
        inputs.warmup_len,
        inputs.pass_len
    );

    // The measured session is the first of SETUPS set-ups; the others
    // follow the timed loop.
    let (mut child, setup) = set_up(&pdgc, &inputs, &mut ledger, "main")?;
    let mut setups = vec![setup];

    // The timed loop continues the stream after the warm-up, whole passes
    // until the time is up.
    let mut stream = inputs.stream();
    for _ in 0..inputs.warmup_len {
        stream.next_id();
    }
    let mut samples: Vec<Sample> = Vec::new();
    let mut pass_rates = Vec::new();
    // Peak RSS is read after the first timed pass, when `suite`, `large`
    // and `baselines` have served every distinct request: it keeps
    // creeping up by about a MiB per further pass on `baselines`, which
    // would tie it to how many passes the time allowed.
    let mut peak_rss_mb = None;
    let t0 = Instant::now();
    loop {
        let tp = Instant::now();
        for _ in 0..inputs.pass_len {
            let id = stream.next_id();
            let ts = Instant::now();
            let resp = child.request(&inputs.requests[id])?;
            let ms = ts.elapsed().as_secs_f64() * 1e3;
            let reply = ledger.record(&inputs, id, resp);
            samples.push(Sample {
                id,
                cached: reply.cached,
                checked: reply.checked,
                ms,
            });
        }
        pass_rates.push(inputs.pass_len as f64 / tp.elapsed().as_secs_f64());
        if peak_rss_mb.is_none() {
            peak_rss_mb = Some(child.peak_rss_mb()?);
        }
        if t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();

    // Distinct requests the stream never reached still go through the
    // gate, so the quality totals cover every input whatever the speed.
    for id in ledger.unanswered() {
        let resp = child.request(&inputs.requests[id])?;
        ledger.record(&inputs, id, resp);
    }
    let peak_rss_mb = peak_rss_mb.expect("the timed loop runs at least one pass");
    let end_rss_mb = child.peak_rss_mb()?;
    let counters = child.finish()?;

    for k in 1..SETUPS {
        let (extra, setup) = set_up(&pdgc, &inputs, &mut ledger, &format!("setup{k}"))?;
        setups.push(setup);
        extra.finish()?;
    }

    let quality = gate_all(&inputs, &mut ledger);
    for f in &ledger.failures {
        eprintln!("FAIL {f}");
    }

    let best = best_of_kind_ms(&samples);
    let mut sorted = best.clone();
    sorted.sort_by(f64::total_cmp);
    let metric = |name: &str, unit, value| Metric {
        name: name.to_string(),
        unit,
        value,
    };
    let metrics = vec![
        metric(
            "ops_per_s",
            "1/s",
            1e3 * best.len() as f64 / best.iter().sum::<f64>(),
        ),
        metric("latency_p50_ms", "ms", percentile(&sorted, 50.0)),
        metric("latency_p90_ms", "ms", percentile(&sorted, 90.0)),
        metric("setup_s", "s", median(&setups)),
        metric("peak_rss_mb", "MiB", peak_rss_mb),
        metric(
            "sim_cycle_ratio",
            "ratio",
            quality.sim_cycles as f64 / quality.ref_cycles as f64,
        ),
        metric("spill_insts", "count", quality.spill_insts as f64),
        metric("copies_left", "count", quality.copies_left as f64),
    ];

    let raw: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let split = |cached: bool, values: &[f64]| -> Vec<f64> {
        samples
            .iter()
            .zip(values)
            .filter(|(s, _)| s.cached == cached)
            .map(|(_, &v)| v)
            .collect()
    };
    let ops = JsonObject::new()
        .u64("warmup", inputs.warmup_len as u64)
        .u64("pass", inputs.pass_len as u64)
        .u64("timed", samples.len() as u64)
        .u64("passes", pass_rates.len() as u64)
        .u64("distinct_requests", inputs.requests.len() as u64)
        .u64("attempted", ledger.attempted)
        .f64("timed_seconds", elapsed)
        .f64("raw_ops_per_s", samples.len() as f64 / elapsed)
        .f64("peak_rss_mb_at_end", end_rss_mb)
        .finish();
    let serve = JsonObject::new()
        .u64("requests", counters.requests)
        .u64("hits", counters.hits)
        .u64("evictions", counters.evictions)
        .u64("rechecks", counters.rechecks)
        .finish();
    let file = format!("perf-{}-seed{}.json", args.workload.name(), args.seed);
    report(
        &file,
        &context,
        &metrics,
        ledger.attempted,
        &ledger.failures,
        &[
            ("tracing", "false".into()),
            ("ops", ops),
            ("pass_ops_per_s", spread_json(&pass_rates)),
            ("latency_ms", latency_json(&best)),
            ("raw_latency_ms", latency_json(&raw)),
            ("hit_latency_ms", latency_json(&split(true, &best))),
            ("miss_latency_ms", latency_json(&split(false, &best))),
            ("setup_s_each", spread_json(&setups)),
            ("serve_counters", serve),
            (
                "quality",
                JsonObject::new()
                    .u64("sim_cycles", quality.sim_cycles)
                    .u64("ref_cycles", quality.ref_cycles)
                    .u64("spill_insts", quality.spill_insts)
                    .u64("ir_insts", quality.ir_insts)
                    .u64("copies_left", quality.copies_left)
                    .u64("copies_before", quality.copies_before)
                    .finish(),
            ),
        ],
    )?;
    Ok(ledger.failures.is_empty())
}
