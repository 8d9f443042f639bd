//! `pdgc` — command-line driver for the preference-directed register
//! allocator.
//!
//! ```console
//! $ pdgc --help
//! $ pdgc allocate examples/ir/dot2.pdgc --allocator full --target ia64-24
//! $ pdgc run examples/ir/dot2.pdgc --args 4096 --allocator chaitin
//! $ pdgc demo
//! ```
//!
//! `allocate` parses a textual-IR file, runs the chosen allocator, and
//! prints the machine code plus statistics. `run` additionally executes
//! both the virtual-register original and the allocated code in the
//! simulator, checks equivalence, and reports cycles. `demo` prints the
//! paper's Figure 7 walkthrough on a built-in program.

use pdgc::prelude::*;
use std::process::ExitCode;

fn usage() -> &'static str {
    "pdgc — preference-directed graph coloring register allocation (PLDI 2002)

USAGE:
    pdgc allocate <FILE> [--allocator NAME] [--target NAME] [--check[=MODE]] [TRACING]
    pdgc run <FILE> [--allocator NAME] [--target NAME] [--args N,N,...] [--check[=MODE]] [TRACING]
    pdgc demo [--check[=MODE]] [TRACING]
    pdgc bench batch [--jobs N] [--repeat N] [--min-speedup X] [--allocator NAME]
                     [--target NAME] [--check[=MODE]]
    pdgc corpus <DIR> [--allocator NAME] [--target NAME] [--check[=MODE]]
                      [--baseline FILE] [--write-baseline]
    pdgc report --baseline FILE --current FILE
    pdgc serve [--socket PATH] [--allocator NAME] [--target NAME]
               [--check[=MODE]] [--cache-cap N] [--sample-rate N]
               [--emit-requests DIR]
    pdgc --help

ALLOCATORS:
    full (default), coalesce, precoalesce, chaitin, briggs, iterated,
    optimistic, callcost, priority

TARGETS (the built-in registry; ia64-24 is the default):
    ia64-16, ia64-24, ia64-32    the paper's parity-paired machine at
                                 high/middle/low pressure
    x86-16, x86-24, x86-32       sequential pairs, byte-restricted,
                                 division pinned to r0
    figure7                      the paper's three-register walkthrough
                                 machine
    risc16                       16 named registers (a0..a5, s0..s9),
                                 aligned stride-16 sequential pairs
    tight8                       constrained 8-register high-pressure
                                 target, no float pairing

CHECKING:
    --check[=MODE]      run the post-allocation symbolic checker (pdgc-check)
                        on every allocation: it re-derives liveness, abstractly
                        interprets the machine code, and proves every use reads
                        the right value. MODE is `always` (default for a bare
                        --check) or `off`. A violation fails the command and
                        prints the full list.

TRACING:
    --trace PATH        write a JSON-Lines allocation trace (phase spans,
                        per-node select decisions, spill events) to PATH
    --dump-graphs DIR   write per-round Graphviz dumps of the interference,
                        preference, and precedence graphs into DIR

BENCH:
    `bench batch` allocates the whole SPECjvm98 analog suite through the
    parallel batch driver at --jobs 1 and --jobs N (default: the machine's
    available parallelism), verifies the allocations are bit-identical,
    prints throughput, and writes results/bench_batch.json and
    results/metrics.json (the always-on counter/histogram snapshot).
    --repeat N runs each job count N times and keeps the best wall clock;
    --min-speedup X fails the command when the --jobs N run is not X times
    as fast as the --jobs 1 run. A function that fails to allocate fails
    the command with its error.

CORPUS:
    `corpus` runs every function in the `.pdgc` files under DIR through
    every allocator (or just --allocator NAME): parse, verify, allocate,
    optionally prove with the symbolic checker, and certify the exact
    text round-trip at both levels (IR and rewritten machine code).
    Results are compared exactly against DIR/baseline.json (or
    --baseline FILE): any changed spill/copy/pair count or code
    fingerprint exits non-zero naming the function. --write-baseline
    regenerates the baseline instead of comparing.

SERVE:
    `serve` runs a long-lived allocation daemon with a content-addressed
    cache. It reads JSONL requests — one
    {\"fn\": \"<IR text>\", \"target\": …, \"allocator\": …, \"check\": …}
    object per line, all fields but `fn` optional — from stdin (or a Unix
    socket with --socket PATH) and answers each with one JSONL response
    carrying the rewritten machine code, its fingerprint, and the
    allocation scorecard. The cache key is the canonical printed IR plus
    target, allocator, and check mode; misses are proven by the symbolic
    checker before insertion and hits are re-proven every --sample-rate
    hits (default 16, 0 = never). --cache-cap N (default 1024, 0 =
    unbounded) bounds the cache with LRU eviction. Serve and cache
    counters land in results/metrics.json on exit.
    --emit-requests DIR instead prints one request line per function of
    the `.pdgc` corpus under DIR — a self-contained request generator:
        pdgc serve --emit-requests corpus | pdgc serve

REPORT:
    `report` diffs two metrics.json snapshots (e.g. a committed baseline
    vs a fresh bench run) against per-metric regression thresholds:
    spill/copy/round counters may not grow by more than their tolerance,
    coalescing and preference-satisfaction counters may not shrink,
    checker violations must stay zero, and the CPG-edge and select work
    counters may not grow at all. Exits non-zero naming every regressed
    metric, so CI can gate on allocation quality.

FILE FORMAT:
    The textual IR produced by the library's Display impl; see
    `pdgc demo` or the pdgc-ir documentation for the grammar."
}

fn allocator_named(name: &str) -> Result<Box<dyn RegisterAllocator + Sync>, String> {
    pdgc_bench::serve::allocator_by_name(name).ok_or_else(|| format!("unknown allocator `{name}`"))
}

fn pick_target(name: &str) -> Result<TargetDesc, String> {
    TargetRegistry::builtin()
        .resolve(name)
        .cloned()
        .map_err(|e| e.to_string())
}

struct Options {
    file: Option<String>,
    allocator: String,
    /// Whether --allocator was given explicitly (`corpus` defaults to
    /// every allocator when it was not).
    allocator_given: bool,
    target: String,
    args: Vec<u64>,
    trace: Option<String>,
    dump_graphs: Option<String>,
    jobs: Option<usize>,
    repeat: Option<usize>,
    min_speedup: Option<f64>,
    check: CheckMode,
    baseline: Option<String>,
    write_baseline: bool,
    socket: Option<String>,
    cache_cap: usize,
    sample_rate: u64,
    emit_requests: Option<String>,
}

/// Splits `--flag=value` into the flag and its inline value; any other
/// argument comes back whole, with no value.
fn split_flag(arg: &str) -> (&str, Option<&str>) {
    match arg.split_once('=') {
        Some((flag, value)) if flag.starts_with("--") => (flag, Some(value)),
        _ => (arg, None),
    }
}

/// A valued flag's value: the inline `=value`, or else the next argument.
fn flag_value<'a>(
    flag: &str,
    inline: Option<&str>,
    rest: &mut impl Iterator<Item = &'a String>,
) -> Result<String, String> {
    match inline {
        Some(v) => Ok(v.to_string()),
        None => rest
            .next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn parse_options(argv: &[String]) -> Result<Options, String> {
    let mut o = Options {
        file: None,
        allocator: "full".into(),
        allocator_given: false,
        target: "ia64-24".into(),
        args: Vec::new(),
        trace: None,
        dump_graphs: None,
        jobs: None,
        repeat: None,
        min_speedup: None,
        check: CheckMode::Off,
        baseline: None,
        write_baseline: false,
        socket: None,
        cache_cap: 1024,
        sample_rate: 16,
        emit_requests: None,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let (flag, inline) = split_flag(a);
        if !flag.starts_with("--") {
            if o.file.replace(a.clone()).is_some() {
                return Err("more than one input file".into());
            }
            continue;
        }
        // The flags that take no value; bare `--check` means `always`.
        match (flag, inline) {
            ("--check", None) => {
                o.check = CheckMode::Always;
                continue;
            }
            ("--write-baseline", None) => {
                o.write_baseline = true;
                continue;
            }
            _ => {}
        }
        let mut value = || flag_value(flag, inline, &mut it);
        match flag {
            "--allocator" => {
                o.allocator = value()?;
                o.allocator_given = true;
            }
            "--target" => o.target = value()?,
            "--args" => {
                o.args = value()?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().parse().map_err(|_| format!("bad arg `{s}`")))
                    .collect::<Result<_, _>>()?;
            }
            "--trace" => o.trace = Some(value()?),
            "--dump-graphs" => o.dump_graphs = Some(value()?),
            "--jobs" => {
                let v = value()?;
                o.jobs = Some(v.parse().map_err(|_| format!("bad job count `{v}`"))?);
            }
            "--repeat" => {
                let v = value()?;
                o.repeat = Some(v.parse().map_err(|_| format!("bad repeat count `{v}`"))?);
            }
            "--min-speedup" => {
                let v = value()?;
                o.min_speedup = Some(
                    v.parse()
                        .map_err(|_| format!("bad minimum speedup `{v}`"))?,
                );
            }
            "--check" => o.check = CheckMode::parse(&value()?)?,
            "--baseline" => o.baseline = Some(value()?),
            "--socket" => o.socket = Some(value()?),
            "--cache-cap" => {
                let v = value()?;
                o.cache_cap = v.parse().map_err(|_| format!("bad cache cap `{v}`"))?;
            }
            "--sample-rate" => {
                let v = value()?;
                o.sample_rate = v.parse().map_err(|_| format!("bad sample rate `{v}`"))?;
            }
            "--emit-requests" => o.emit_requests = Some(value()?),
            _ => return Err(format!("unknown flag {a}")),
        }
    }
    Ok(o)
}

/// Builds the tracer requested on the command line: a JSONL sink for
/// `--trace`, a DOT-dump sink for `--dump-graphs`, fanned out when both
/// are given. `None` when tracing was not requested.
fn build_tracer(o: &Options) -> Result<Option<FanoutTracer>, String> {
    if o.trace.is_none() && o.dump_graphs.is_none() {
        return Ok(None);
    }
    let mut fan = FanoutTracer::new();
    if let Some(path) = &o.trace {
        let file =
            std::fs::File::create(path).map_err(|e| format!("creating trace {path}: {e}"))?;
        fan.push(Box::new(JsonLinesSink::new(std::io::BufWriter::new(file))));
    }
    if let Some(dir) = &o.dump_graphs {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
        fan.push(Box::new(DotDirSink::new(dir)));
    }
    Ok(Some(fan))
}

fn allocate_maybe_traced(
    alloc: &dyn RegisterAllocator,
    func: &Function,
    target: &TargetDesc,
    o: &Options,
) -> Result<AllocOutput, String> {
    // The session's registry fills the always-on metrics; the
    // single-function CLI keeps the checker's full-replay scope.
    let mut tracer = build_tracer(o)?;
    let mut session = AllocSession {
        check: o.check,
        ..AllocSession::default()
    };
    if let Some(t) = tracer.as_mut() {
        session.tracer = Some(t);
    }
    let out = alloc
        .allocate(func, target, &mut session)
        .map_err(|e| e.to_string())?;
    if o.check.should_check() {
        eprintln!("symbolic check passed ({} mode)", o.check);
    }
    if let Some(path) = &o.trace {
        eprintln!("trace written to {path}");
    }
    if let Some(dir) = &o.dump_graphs {
        eprintln!("graph dumps written to {dir}/");
    }
    match pdgc_bench::write_metrics("pdgc", alloc.name(), &target.name, &session.scratch.metrics) {
        Ok(path) => eprintln!("metrics written to {}", path.display()),
        Err(e) => eprintln!("could not write metrics: {e}"),
    }
    Ok(out)
}

fn load(o: &Options) -> Result<(Function, Box<dyn RegisterAllocator + Sync>, TargetDesc), String> {
    let file = o.file.as_ref().ok_or("missing input file")?;
    let text = std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
    let func = pdgc::ir::parse_function(&text).map_err(|e| format!("{file}: {e}"))?;
    let alloc = allocator_named(&o.allocator)?;
    let target = pick_target(&o.target)?;
    Ok((func, alloc, target))
}

fn cmd_allocate(o: &Options) -> Result<(), String> {
    let (func, alloc, target) = load(o)?;
    let out = allocate_maybe_traced(alloc.as_ref(), &func, &target, o)?;
    println!("{}", out.mach);
    let s = &out.stats;
    println!(
        "\nallocator: {}   target: {}\ncopies: {} -> {} ({} coalesced)   spills: {}   \
         caller-saves: {}   paired loads: {}   zero-exts: {}   rounds: {}",
        alloc.name(),
        target.name,
        s.copies_before,
        s.copies_remaining,
        s.moves_eliminated,
        s.spill_instructions,
        s.caller_save_insts,
        s.paired_loads,
        s.zero_extensions,
        s.rounds,
    );
    Ok(())
}

fn cmd_run(o: &Options) -> Result<(), String> {
    let (func, alloc, target) = load(o)?;
    if o.args.len() != func.sig.params.len() {
        return Err(format!(
            "{} takes {} arguments; pass them with --args (got {})",
            func.name,
            func.sig.params.len(),
            o.args.len()
        ));
    }
    let out = allocate_maybe_traced(alloc.as_ref(), &func, &target, o)?;
    let reference = run_ir(&func, &o.args, DEFAULT_FUEL).map_err(|e| e.to_string())?;
    let allocated =
        run_mach(&out.mach, &target, &o.args, DEFAULT_FUEL).map_err(|e| e.to_string())?;
    check_equivalent(&reference, &allocated)
        .map_err(|e| format!("allocation is NOT semantics-preserving: {e}"))?;
    println!("{}", out.mach);
    println!("\nresult: {:?} (equivalence verified)", allocated.ret);
    println!(
        "cycles: {} allocated vs {} reference-weighted ({} instructions executed)",
        allocated.cycles, reference.cycles, allocated.steps
    );
    Ok(())
}

fn cmd_bench_batch(o: &Options) -> Result<(), String> {
    let alloc = allocator_named(&o.allocator)?;
    let target = pick_target(&o.target)?;
    let jobs = o
        .jobs
        .or_else(|| std::thread::available_parallelism().ok().map(usize::from))
        .unwrap_or(1)
        .max(1);
    let workloads: Vec<pdgc_workloads::Workload> = pdgc_workloads::specjvm_suite()
        .iter()
        .map(|p| pdgc_workloads::generate(&p.for_target(&target)))
        .collect();
    let repeat = o.repeat.unwrap_or(1).max(1);
    let total: usize = workloads.iter().map(|w| w.funcs.len()).sum();
    println!(
        "batch: {total} functions x {repeat} repeat(s), allocator {}, target {}, jobs 1 vs {jobs}",
        o.allocator, target.name
    );
    let cmp =
        pdgc_bench::batch::compare_jobs(alloc.as_ref(), &workloads, &target, jobs, repeat, o.check)
            .map_err(|e| e.to_string())?;
    if o.check.should_check() {
        println!("symbolic check: every allocation of both runs proven ({} mode)", o.check);
    }
    for r in [&cmp.serial, &cmp.parallel] {
        println!(
            "jobs={:<3} {:8.1} ms   {:7.1} funcs/sec   {:.2}x",
            r.jobs,
            r.elapsed.as_secs_f64() * 1e3,
            r.funcs_per_sec(),
            r.funcs_per_sec() / cmp.serial.funcs_per_sec().max(1e-9),
        );
    }
    let path = cmp.write_json().map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    let mpath = pdgc_bench::write_metrics(
        "bench_batch",
        cmp.serial.allocator,
        &target.name,
        &cmp.serial.metrics,
    )
    .map_err(|e| e.to_string())?;
    println!("wrote {}", mpath.display());
    if !cmp.identical() {
        return Err("parallel allocation diverged from serial".into());
    }
    if !cmp.serial.metrics.deterministic_eq(&cmp.parallel.metrics) {
        return Err("parallel metrics diverged from serial".into());
    }
    println!("allocations identical across job counts: yes");
    println!("metrics identical across job counts: yes");
    if let Some(min) = o.min_speedup {
        let got = cmp.speedup();
        if got < min {
            return Err(format!(
                "jobs={jobs} speedup {got:.2}x is below the required {min:.2}x"
            ));
        }
        println!("speedup gate: {got:.2}x >= {min:.2}x");
    }
    Ok(())
}

fn cmd_corpus(o: &Options) -> Result<(), String> {
    use pdgc_bench::corpus;
    let dir = o.file.as_ref().ok_or("missing corpus directory")?;
    let files = corpus::load_corpus_dir(std::path::Path::new(dir))
        .map_err(|e| format!("loading corpus {dir}: {e}"))?;
    let target = pick_target(&o.target)?;
    let allocators: Vec<Box<dyn RegisterAllocator>> = if o.allocator_given {
        vec![allocator_named(&o.allocator)?]
    } else {
        pdgc::all_allocators()
    };
    let mut metrics = pdgc::obs::MetricsRegistry::default();
    let report = corpus::run_corpus(&files, &allocators, &target, o.check, &mut metrics);
    println!(
        "corpus: {} files, {} functions, {} allocators, target {}, check {}",
        files.len(),
        report.funcs,
        allocators.len(),
        target.name,
        o.check
    );

    // Aggregate one table row per allocator (per-function detail lives
    // in the baseline).
    let rows: Vec<Vec<String>> = allocators
        .iter()
        .map(|a| {
            let mine: Vec<_> = report
                .rows
                .iter()
                .filter(|r| r.allocator == a.name())
                .collect();
            let sum = |f: fn(&corpus::CorpusRow) -> u64| {
                mine.iter().map(|r| f(r)).sum::<u64>().to_string()
            };
            vec![
                a.name().to_string(),
                mine.len().to_string(),
                sum(|r| r.spills),
                sum(|r| r.copies),
                sum(|r| r.paired),
            ]
        })
        .collect();
    pdgc_bench::print_table(&["allocator", "funcs", "spills", "copies", "paired"], &rows);

    let label = if o.allocator_given { o.allocator.as_str() } else { "all" };
    match pdgc_bench::write_metrics("corpus", label, &target.name, &metrics) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write metrics: {e}"),
    }

    if !report.failures.is_empty() {
        for f in &report.failures {
            eprintln!("FAIL {f}");
        }
        return Err(format!("{} corpus failure(s)", report.failures.len()));
    }

    let bpath = o
        .baseline
        .clone()
        .unwrap_or_else(|| format!("{}/baseline.json", dir.trim_end_matches('/')));
    if o.write_baseline {
        let body = corpus::baseline_json(&target.name, &report.rows);
        std::fs::write(&bpath, body + "\n").map_err(|e| format!("writing {bpath}: {e}"))?;
        println!("baseline written to {bpath} ({} entries)", report.rows.len());
        return Ok(());
    }
    match std::fs::read_to_string(&bpath) {
        Ok(text) => {
            let (btarget, brows) =
                corpus::parse_baseline(&text).map_err(|e| format!("{bpath}: {e}"))?;
            let regressions =
                corpus::compare_baseline(&btarget, &brows, &target.name, &report.rows);
            if !regressions.is_empty() {
                for r in &regressions {
                    eprintln!("REGRESSION {r}");
                }
                return Err(format!(
                    "{} regression(s) against {bpath}",
                    regressions.len()
                ));
            }
            println!("baseline match: all {} entries identical to {bpath}", report.rows.len());
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            println!("no baseline at {bpath}; run with --write-baseline to create one");
        }
        Err(e) => return Err(format!("reading {bpath}: {e}")),
    }
    Ok(())
}

fn cmd_demo(o: &Options) -> Result<(), String> {
    let text = "\
fn fig7(v0: int) {
b0:
    v1 = [v0+0]
    jump b1
b1:
    v2 = [v1+0]
    v3 = [v1+8]
    v4 = v1
    v5 = add v2, v3
    call g(v4)
    v1 = add v5, #1
    if ne v1, #0 goto b1 else b2
b2:
    ret
}";
    println!("input (the paper's Figure 7(a)):\n\n{text}\n");
    let func = pdgc::ir::parse_function(text).map_err(|e| e.to_string())?;
    let target = TargetDesc::figure7();
    let out = allocate_maybe_traced(&PreferenceAllocator::full(), &func, &target, o)?;
    println!("allocated on the paper's 3-register machine:\n\n{}", out.mach);
    println!(
        "\n{} copies coalesced, {} paired load fused — Figure 7(h) reproduced.",
        out.stats.moves_eliminated, out.stats.paired_loads
    );
    Ok(())
}

fn read_snapshot(path: &str) -> Result<pdgc::obs::json::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    pdgc::obs::json::Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_serve(o: &Options) -> Result<(), String> {
    use pdgc::obs::Counter;
    use pdgc_bench::serve::{corpus_requests, ServeConfig, ServeSession};
    if let Some(dir) = &o.emit_requests {
        // Request-generator mode: render a corpus as a JSONL request
        // stream and exit, so a shell pipeline (or CI) can feed the
        // daemon without any external JSON tooling.
        let files = pdgc_bench::corpus::load_corpus_dir(std::path::Path::new(dir))
            .map_err(|e| format!("loading corpus {dir}: {e}"))?;
        let text = corpus_requests(&files, &o.target, &o.allocator, o.check)?;
        print!("{text}");
        return Ok(());
    }
    // Validate the default names up front so a typo fails at startup
    // rather than on every request.
    allocator_named(&o.allocator)?;
    pick_target(&o.target)?;
    let mut session = ServeSession::new(ServeConfig {
        target: o.target.clone(),
        allocator: o.allocator.clone(),
        check: o.check,
        cache_cap: o.cache_cap,
        sample_rate: o.sample_rate,
    });
    // Responses go to stdout; everything human-facing goes to stderr so
    // the JSONL stream stays machine-clean.
    if let Some(path) = &o.socket {
        eprintln!(
            "serving on {path} (allocator {}, target {})",
            o.allocator, o.target
        );
        session
            .run_socket(std::path::Path::new(path))
            .map_err(|e| e.to_string())?;
    } else {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        session
            .run(stdin.lock(), stdout.lock())
            .map_err(|e| e.to_string())?;
    }
    let m = session.metrics();
    eprintln!(
        "serve: {} requests, {} hits ({} re-checked), {} misses, {} errors ({} panics), {} evictions, {} entries cached",
        m.get(Counter::ServeRequests),
        m.get(Counter::CacheHits),
        m.get(Counter::CacheHitChecks),
        m.get(Counter::CacheMisses),
        m.get(Counter::ServeErrors),
        m.get(Counter::ServePanics),
        m.get(Counter::CacheEvictions),
        session.cache_len(),
    );
    let mpath =
        pdgc_bench::write_metrics("serve", &o.allocator, &o.target, m).map_err(|e| e.to_string())?;
    eprintln!("wrote {}", mpath.display());
    Ok(())
}

fn cmd_report(argv: &[String]) -> Result<(), String> {
    use pdgc::obs::Counter;
    let mut baseline: Option<String> = None;
    let mut current: Option<String> = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let (flag, inline) = split_flag(a);
        let slot = match flag {
            "--baseline" => &mut baseline,
            "--current" => &mut current,
            _ => return Err(format!("unknown report flag {a}")),
        };
        *slot = Some(flag_value(flag, inline, &mut it)?);
    }
    let bpath = baseline.ok_or("report needs --baseline FILE")?;
    let cpath = current.ok_or("report needs --current FILE")?;
    let base = read_snapshot(&bpath)?;
    let cur = read_snapshot(&cpath)?;
    let bc = &base["counters"];
    let cc = &cur["counters"];

    println!(
        "metrics report: {} ({}) vs {} ({})",
        bpath,
        base["source"].as_str().unwrap_or("?"),
        cpath,
        cur["source"].as_str().unwrap_or("?"),
    );
    println!(
        "{:<24} {:>12} {:>12} {:>5}  {:<16} verdict",
        "metric", "baseline", "current", "tol%", "gate"
    );
    let mut regressions: Vec<&str> = Vec::new();
    for counter in Counter::ALL {
        let Some(gate) = counter.gate() else {
            continue;
        };
        let (name, tol, dir) = (counter.name(), gate.tolerance_pct(), gate.direction());
        let Some(b) = bc[name].as_u64() else {
            let skipped = "skipped (not in baseline)";
            println!(
                "{name:<24} {:>12} {:>12} {tol:>5}  {dir:<16} {skipped}",
                "-", "-"
            );
            continue;
        };
        let c = cc[name].as_u64();
        let verdict = match c {
            None => "REGRESSION (missing in current)",
            // A counter that reads zero where the baseline counted work has
            // stopped counting, whatever its direction.
            Some(0) if b != 0 => "REGRESSION (stopped counting)",
            Some(c) if gate.regressed(b, c) => "REGRESSION",
            Some(_) => "ok",
        };
        let cs = c.map_or("-".to_string(), |v| v.to_string());
        println!("{name:<24} {b:>12} {cs:>12} {tol:>5}  {dir:<16} {verdict}");
        if verdict.starts_with("REGRESSION") {
            regressions.push(name);
        }
    }

    // Latency is wall-clock and machine-dependent: report it, never gate.
    let (bl, cl) = (&base["latency_hists"], &cur["latency_hists"]);
    let bl_fields = bl.fields().unwrap_or(&[]);
    if !bl_fields.is_empty() {
        println!("\nphase latency (informational, not gated):");
        for (phase, bh) in bl_fields {
            let bsum = bh["sum"].as_u64().unwrap_or(0);
            let csum = cl[phase.as_str()]["sum"].as_u64().unwrap_or(0);
            println!(
                "  {phase:<12} {:>10.3} ms -> {:>10.3} ms",
                bsum as f64 / 1e6,
                csum as f64 / 1e6
            );
        }
    }

    if regressions.is_empty() {
        println!("\nno regressions: every gated metric within tolerance");
        Ok(())
    } else {
        Err(format!(
            "metrics regression in: {} (see table above)",
            regressions.join(", ")
        ))
    }
}

/// [`parse_options`] for every subcommand but `bench batch`, the only one
/// that reads `--jobs`, `--repeat` and `--min-speedup`: elsewhere each is
/// an error, not ignored.
fn parse_options_outside_batch(argv: &[String]) -> Result<Options, String> {
    let o = parse_options(argv)?;
    let batch_only = [
        ("--jobs", o.jobs.is_some()),
        ("--repeat", o.repeat.is_some()),
        ("--min-speedup", o.min_speedup.is_some()),
    ];
    if let Some((flag, _)) = batch_only.iter().find(|(_, given)| *given) {
        return Err(format!("{flag} is only taken by `pdgc bench batch`"));
    }
    Ok(o)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_options_outside_batch;
    let result = match argv.first().map(String::as_str) {
        Some("allocate") => opts(&argv[1..]).and_then(|o| cmd_allocate(&o)),
        Some("run") => opts(&argv[1..]).and_then(|o| cmd_run(&o)),
        Some("demo") => opts(&argv[1..]).and_then(|o| cmd_demo(&o)),
        Some("corpus") => opts(&argv[1..]).and_then(|o| cmd_corpus(&o)),
        Some("report") => cmd_report(&argv[1..]),
        Some("serve") => opts(&argv[1..]).and_then(|o| cmd_serve(&o)),
        Some("bench") => match argv.get(1).map(String::as_str) {
            Some("batch") => parse_options(&argv[2..]).and_then(|o| cmd_bench_batch(&o)),
            other => Err(format!(
                "unknown bench subcommand {}\n\n{}",
                other.unwrap_or("(none)"),
                usage()
            )),
        },
        Some("--help") | Some("-h") | None => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
