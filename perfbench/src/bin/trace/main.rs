//! The pdgc benchmark's traced run: per-layer metrics.
//!
//! ```console
//! $ cargo run --release --manifest-path perfbench/Cargo.toml --bin perf -- \
//!       --workload suite --seed 0 --seconds 20 --trace 1
//! ```
//!
//! Sends the workload's request stream through an in-process replica of
//! `pdgc serve` ([`replica`]) that times every layer call as a span, and
//! replays each pass, untraced, through a real `pdgc serve` child, until
//! `--seconds` have elapsed. It fails unless every response carries the
//! replica's fingerprint and cache outcome — so the spans always time the
//! program the end-to-end numbers measure. The replay also gives the
//! untraced throughput the tracing overhead is taken against.
//!
//! Prints, per op, the mean self time of each layer (its span minus its
//! child spans), the `unattributed` remainder of the op's wall time, and
//! work counts and ratios, then writes every span to
//! `out/trace-<workload>.jsonl`.

mod replica;

use pdgc_obs::json::JsonObject;
use pdgc_perfbench::{
    best_of_kind_ms, build_pdgc, out_dir, report, run_context_json, scan_reply, Args, Inputs,
    Metric, Sample, ServeChild, TARGET,
};
use replica::{Counts, Handled, Layer, Replica, Tracer};
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match Args::parse(&argv).and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Requests per second at each request kind's typical latency.
fn ops_per_s(samples: &[Sample]) -> f64 {
    let ms = best_of_kind_ms(samples);
    1e3 * ms.len() as f64 / ms.iter().sum::<f64>()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn write_spans(tracer: &Tracer, workload: &str) -> Result<(), String> {
    let path = out_dir().join(format!("trace-{workload}.jsonl"));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    for (i, s) in tracer.spans.iter().enumerate() {
        let mut o = JsonObject::new()
            .u64("op_id", u64::from(s.op))
            .u64("id", i as u64)
            .str("name", s.layer.name());
        o = match s.parent {
            Some(p) => o.u64("parent", u64::from(p)),
            None => o.raw("parent", "null"),
        };
        writeln!(
            w,
            "{}",
            o.u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns)
                .finish()
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    w.flush().map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &Args) -> Result<bool, String> {
    let pdgc = build_pdgc()?;
    let inputs = Inputs::generate(args.workload, args.seed, args.smoke);
    let context = run_context_json(args);
    let cap = args.workload.cache_cap();

    // The replica and a real daemon see the same requests in the same
    // order: the warm-up, then whole passes, each pass first through the
    // traced replica and then, untraced, through the daemon, so slow
    // stretches of the machine fall on both alike.
    let mut replica = Replica::new(TARGET, cap);
    let mut tracer = Tracer::default();
    let mut child = ServeChild::spawn(&pdgc, cap, "replay")?;
    let mut stream = inputs.stream();
    let mut failures = Vec::new();
    let mut sent = 0usize;
    let mut replay = |id: usize, h: Handled, child: &mut ServeChild| -> Result<Sample, String> {
        let ts = Instant::now();
        let resp = child.request(&inputs.requests[id])?;
        let ms = ts.elapsed().as_secs_f64() * 1e3;
        let r = scan_reply(resp);
        let want = format!("{:016x}", h.fingerprint);
        if !r.ok || r.fingerprint != want || r.cached != h.cached || r.checked != h.checked {
            failures.push(format!(
                "request {sent}, {}: replica gave fingerprint {want} cached {} checked {}, \
                 pdgc serve answered {resp:.160}",
                inputs.label(id),
                h.cached,
                h.checked
            ));
        }
        sent += 1;
        Ok(Sample {
            id,
            cached: r.cached,
            checked: r.checked,
            ms,
        })
    };
    let handle = |replica: &mut Replica, tracer: &mut Tracer, id: usize| {
        replica
            .handle(tracer, &inputs.requests[id])
            .map_err(|e| format!("{}: {e}", inputs.label(id)))
    };
    for _ in 0..inputs.warmup_len {
        let id = stream.next_id();
        let h = handle(&mut replica, &mut tracer, id)?;
        replay(id, h, &mut child)?;
    }
    let warm_counts = std::mem::take(&mut replica.counts);
    tracer.spans.clear();
    let mut timed: Vec<(usize, Handled)> = Vec::new();
    let mut served = Vec::new();
    let t0 = Instant::now();
    loop {
        let first = timed.len();
        for _ in 0..inputs.pass_len {
            let id = stream.next_id();
            tracer.op = timed.len() as u32;
            timed.push((id, handle(&mut replica, &mut tracer, id)?));
        }
        for &(id, h) in &timed[first..] {
            served.push(replay(id, h, &mut child)?);
        }
        if t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let n = timed.len() as u64;
    let counters = child.finish()?;
    let c: Counts = replica.counts;
    for (what, mine, theirs) in [
        ("hits", warm_counts.hits + c.hits, counters.hits),
        (
            "evictions",
            warm_counts.evictions + c.evictions,
            counters.evictions,
        ),
        (
            "rechecks",
            warm_counts.rechecks + c.rechecks,
            counters.rechecks,
        ),
    ] {
        if mine != theirs {
            failures.push(format!(
                "replica counted {mine} {what}, pdgc serve {theirs}"
            ));
        }
    }
    for f in &failures {
        eprintln!("FAIL {f}");
    }

    // Self time per layer: a span's duration minus its children's.
    let mut self_ns = [0i64; Layer::ALL.len()];
    let mut op_ns = 0i64;
    let mut traced = Vec::new();
    for s in &tracer.spans {
        let d = (s.end_ns - s.start_ns) as i64;
        self_ns[s.layer as usize] += d;
        match s.parent {
            Some(p) => self_ns[tracer.spans[p as usize].layer as usize] -= d,
            None => {
                op_ns += d;
                let (id, h) = timed[s.op as usize];
                traced.push(Sample {
                    id,
                    cached: h.cached,
                    checked: h.checked,
                    ms: d as f64 / 1e6,
                });
            }
        }
    }
    let per_op_ms = |ns: i64| ns as f64 / 1e6 / n as f64;
    let traced_rate = ops_per_s(&traced);
    let untraced_rate = ops_per_s(&served);

    let mut metrics = Vec::new();
    for layer in Layer::ALL {
        let name = match layer {
            Layer::Op => "unattributed.ms".to_string(),
            _ => format!("{}.ms", layer.name()),
        };
        metrics.push(Metric {
            name,
            unit: "ms",
            value: per_op_ms(self_ns[layer as usize]),
        });
    }
    let mean = |v: u64| v as f64 / n as f64;
    let hits = served.iter().filter(|s| s.cached).count() as u64;
    for (name, unit, value) in [
        ("op.ms", "ms", per_op_ms(op_ns)),
        (
            "trace.overhead_pct",
            "%",
            (untraced_rate / traced_rate - 1.0) * 100.0,
        ),
        ("ir.parse.bytes", "bytes", mean(c.parse_bytes)),
        ("core.analyze.rounds", "count", mean(c.rounds)),
        (
            "core.analyze.spl_fast_ratio",
            "ratio",
            ratio(c.spl_fast, c.rounds),
        ),
        ("core.build.nodes", "count", mean(c.nodes)),
        ("core.build.ifg_edges", "count", mean(c.ifg_edges)),
        ("core.rpg.prefs", "count", mean(c.prefs)),
        (
            "core.simplify.optimistic_ratio",
            "ratio",
            ratio(c.optimistic, c.simplified),
        ),
        ("core.cpg.edges", "count", mean(c.cpg_edges)),
        (
            "core.select.spill_ratio",
            "ratio",
            ratio(c.select_spills, c.selected),
        ),
        ("core.spill.vregs", "count", mean(c.spilled_vregs)),
        (
            "core.spill.forward_ratio",
            "ratio",
            ratio(c.forwarded, c.reload_sites),
        ),
        (
            "core.rewrite.fuse_ratio",
            "ratio",
            ratio(c.paired_fused, c.paired_candidates),
        ),
        ("check.mach_insts", "count", mean(c.mach_insts)),
        ("serve.hit_ratio", "ratio", ratio(hits, n)),
        (
            "serve.evictions",
            "count",
            ratio(counters.evictions, counters.requests),
        ),
        (
            "serve.rechecks",
            "count",
            ratio(counters.rechecks, counters.requests),
        ),
    ] {
        metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    write_spans(&tracer, args.workload.name())?;
    let attributed: i64 = self_ns.iter().sum();
    let ops_json = JsonObject::new()
        .u64("warmup", inputs.warmup_len as u64)
        .u64("timed", n)
        .u64("spans", tracer.spans.len() as u64)
        .f64("traced_ops_per_s", traced_rate)
        .f64("untraced_ops_per_s", untraced_rate)
        .f64("op_ms", per_op_ms(op_ns))
        .f64("self_plus_unattributed_ms", per_op_ms(attributed))
        .f64(
            "unattributed_share",
            self_ns[Layer::Op as usize] as f64 / op_ns as f64,
        )
        .finish();
    report(
        &format!("trace-{}-seed{}.json", args.workload.name(), args.seed),
        &context,
        &metrics,
        sent as u64,
        &failures,
        &[("tracing", "true".into()), ("ops", ops_json)],
    )?;
    Ok(failures.is_empty())
}
