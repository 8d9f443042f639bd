//! Shared harness of the pdgc benchmark: the seeded inputs and request
//! stream of each workload, the `pdgc serve` child process, the
//! correctness gate, the statistics, and the run context every result
//! carries.
//!
//! Nothing in this library touches `pdgc_core`: the `perf` binary's
//! numbers depend only on the `pdgc` CLI, the serve protocol, the input
//! generator and the reference interpreters. The traced replica in
//! `src/bin/trace.rs` is the only code that calls allocator internals.

#![forbid(unsafe_code)]

use pdgc_ir::Function;
use pdgc_obs::json::{Json, JsonObject};
use pdgc_sim::{check_equivalent, run_ir, run_mach, DEFAULT_FUEL};
use pdgc_target::{parse_mach_function, TargetDesc, TargetRegistry};
use pdgc_workloads::{default_args, generate, specjvm_suite, WorkloadProfile};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// The target every workload allocates for.
pub const TARGET: &str = "ia64-24";

/// The allocators the `baselines` workload sends requests to, round-robin.
pub const BASELINE_ALLOCATORS: [&str; 8] = [
    "coalesce",
    "precoalesce",
    "chaitin",
    "briggs",
    "iterated",
    "optimistic",
    "callcost",
    "priority",
];

/// How many times a run spawns `pdgc serve` and warms it up; `setup_s`
/// is the median of these set-ups.
pub const SETUPS: usize = 3;

/// IR operations per function on the `large` workload.
pub const LARGE_OPS_PER_FUNC: usize = 800;

/// Distinct functions per suite profile on the `large` workload.
pub const LARGE_FUNCS_PER_PROFILE: usize = 3;

/// Suite copies, each generated at its own seed, on `suite` and
/// `serve_mix`. One copy's 66 functions leave the latency percentiles
/// about 8% apart from seed to seed; three copies bring that under 4%.
pub const SUITE_COPIES: u64 = 3;

/// Requests per pass (and untimed warm-up) on `serve_mix`.
pub const MIX_PASS: usize = 500;

/// The `--cache-cap` of the `serve_mix` child. Every other workload runs
/// with a cap of 1, so each request misses and allocates.
pub const MIX_CACHE_CAP: usize = 64;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Three copies of the SPECjvm98-analog suite through the `full`
    /// allocator, every request a cache miss.
    Suite,
    /// Large functions at the register cap, three per suite profile.
    Large,
    /// The suite through the eight other allocators, round-robin.
    Baselines,
    /// Three suite copies requested with Zipf popularity through the cache.
    ServeMix,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Suite,
        Workload::Large,
        Workload::Baselines,
        Workload::ServeMix,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Suite => "suite",
            Workload::Large => "large",
            Workload::Baselines => "baselines",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The `--cache-cap` the serve child runs with.
    pub fn cache_cap(self) -> usize {
        match self {
            Workload::ServeMix => MIX_CACHE_CAP,
            _ => 1,
        }
    }
}

/// The command line both binaries accept.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed; 0 reproduces the committed suite exactly.
    pub seed: u64,
    /// How long the timed loop runs (it always completes at least one pass).
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Shrinks every workload to a few small functions (self-tests).
    pub smoke: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1 [--smoke]`.
    ///
    /// # Errors
    ///
    /// A message naming the bad or missing flag.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 0u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut smoke = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?);
                }
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(0.0..=3600.0).contains(&seconds) {
                        return Err("--seconds must be between 0 and 3600".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                    }
                }
                "--smoke" => smoke = true,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            smoke,
        })
    }
}

/// SplitMix64's output function of `x` (one step from state `x`).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic generator (SplitMix64 stream).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        out
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over `n` ranks: rank `r` (0-based) is drawn with weight
/// `1 / (r + 1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n >= 1` ranks.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws a rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The benchmark's target.
pub fn target() -> TargetDesc {
    TargetRegistry::builtin()
        .resolve(TARGET)
        .cloned()
        .expect("ia64-24 is a built-in target")
}

/// The SPECjvm98-analog suite profiles for input seed `seed`, adapted to
/// the target as `pdgc bench batch` adapts them. Seed 0 is the committed
/// suite unchanged; any other seed XORs a SplitMix of itself into every
/// profile seed.
pub fn suite_profiles(seed: u64) -> Vec<WorkloadProfile> {
    let mix = if seed == 0 { 0 } else { splitmix64(seed) };
    let target = target();
    specjvm_suite()
        .into_iter()
        .map(|p| {
            let mut p = p.for_target(&target);
            p.seed ^= mix;
            p
        })
        .collect()
}

/// Generates every function of `profiles`, in profile order.
pub fn generate_all(profiles: &[WorkloadProfile]) -> Vec<Function> {
    profiles.iter().flat_map(|p| generate(p).funcs).collect()
}

/// The generated inputs of one run and the request stream over them.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// Which workload these inputs belong to.
    pub workload: Workload,
    /// The distinct IR functions.
    pub funcs: Vec<Function>,
    /// The allocators requests go to.
    pub allocators: Vec<&'static str>,
    /// One JSONL request per distinct (function, allocator) pair; request
    /// id `f * allocators.len() + a`.
    pub requests: Vec<String>,
    /// Untimed requests at the start of the stream that end a set-up.
    pub warmup_len: usize,
    /// Requests per pass of the timed loop.
    pub pass_len: usize,
    seed: u64,
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`. `smoke` keeps one
    /// small function per profile.
    pub fn generate(workload: Workload, seed: u64, smoke: bool) -> Inputs {
        let shrink = |mut p: WorkloadProfile| {
            if smoke {
                p.num_funcs = 1;
                p.ops_per_func = p.ops_per_func.min(120);
            }
            p
        };
        // Copy 0 is the suite at `seed` itself (the committed suite for
        // seed 0); copy k > 0 is the suite at a seed derived from both.
        let suite_copies = |copies: u64| -> Vec<Function> {
            (0..copies)
                .flat_map(|k| {
                    let s = if k == 0 {
                        seed
                    } else {
                        splitmix64(seed.wrapping_add(k))
                    };
                    let profiles: Vec<_> = suite_profiles(s)
                        .into_iter()
                        .map(|mut p| {
                            if k > 0 {
                                p.name = format!("{}_v{k}", p.name);
                            }
                            shrink(p)
                        })
                        .collect();
                    generate_all(&profiles)
                })
                .collect()
        };
        let (funcs, allocators) = match workload {
            Workload::Suite | Workload::ServeMix => (suite_copies(SUITE_COPIES), vec!["full"]),
            Workload::Large => {
                let cap = target().num_regs(pdgc_ir::RegClass::Int).saturating_sub(2);
                let profiles: Vec<_> = suite_profiles(seed)
                    .into_iter()
                    .map(|mut p| {
                        p.name = format!("{}_big", p.name);
                        p.num_funcs = LARGE_FUNCS_PER_PROFILE;
                        p.ops_per_func = LARGE_OPS_PER_FUNC;
                        p.pressure = cap;
                        shrink(p)
                    })
                    .collect();
                (generate_all(&profiles), vec!["full"])
            }
            Workload::Baselines => (suite_copies(1), BASELINE_ALLOCATORS.to_vec()),
        };
        let requests: Vec<String> = funcs
            .iter()
            .flat_map(|f| {
                let ir = f.to_string();
                allocators.iter().map(move |a| {
                    JsonObject::new()
                        .str("fn", &ir)
                        .str("target", TARGET)
                        .str("allocator", a)
                        .finish()
                })
            })
            .collect();
        let one_suite = funcs.len() / SUITE_COPIES as usize;
        let (warmup_len, pass_len) = match workload {
            Workload::Suite => (one_suite, requests.len()),
            Workload::Large => (2, requests.len()),
            Workload::Baselines => (funcs.len(), requests.len()),
            Workload::ServeMix if smoke => (40, 40),
            Workload::ServeMix => (MIX_PASS, MIX_PASS),
        };
        Inputs {
            workload,
            funcs,
            allocators,
            requests,
            warmup_len,
            pass_len,
            seed,
        }
    }

    /// The request stream, from its first (warm-up) request on.
    pub fn stream(&self) -> OpStream {
        let zipf = (self.workload == Workload::ServeMix).then(|| {
            // Popularity rank -> function position: a fixed shuffle, the
            // same for every seed, so the hottest requests always come
            // from the same profiles; the seed picks the function bodies
            // and the draws.
            let mut shuffle = Rng::new(0x5eed);
            let mut perm: Vec<usize> = (0..self.funcs.len()).collect();
            for i in (1..perm.len()).rev() {
                perm.swap(i, (shuffle.next_u64() % (i as u64 + 1)) as usize);
            }
            let draws = Rng::new(splitmix64(self.seed ^ 0x7a1f));
            (Zipf::new(self.funcs.len(), 1.0), perm, draws)
        });
        OpStream {
            t: 0,
            requests: self.requests.len(),
            zipf,
        }
    }

    /// The function and allocator of request `id`.
    pub fn split(&self, id: usize) -> (usize, &'static str) {
        let n = self.allocators.len();
        (id / n, self.allocators[id % n])
    }

    /// A printable label for request `id`.
    pub fn label(&self, id: usize) -> String {
        let (f, a) = self.split(id);
        format!("{} ({a})", self.funcs[f].name)
    }
}

/// The deterministic sequence of request ids a run sends.
#[derive(Clone, Debug)]
pub struct OpStream {
    t: usize,
    requests: usize,
    zipf: Option<(Zipf, Vec<usize>, Rng)>,
}

impl OpStream {
    /// The next request id.
    ///
    /// `suite`, `large` and `baselines` cycle through their distinct
    /// requests in id order, so consecutive `baselines` requests go to
    /// the eight allocators round-robin. `serve_mix` draws each function
    /// from a Zipf(1.0) popularity.
    pub fn next_id(&mut self) -> usize {
        let t = self.t;
        self.t += 1;
        match &mut self.zipf {
            Some((zipf, perm, rng)) => perm[zipf.sample(rng)],
            None => t % self.requests,
        }
    }
}

/// The fields of a serve response the benchmark reads on every request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reply<'a> {
    /// `"ok":true`.
    pub ok: bool,
    /// Served from the cache.
    pub cached: bool,
    /// Proven by the checker while answering.
    pub checked: bool,
    /// The machine-code fingerprint, 16 hex digits.
    pub fingerprint: &'a str,
}

/// The raw text right after top-level key `"key":` in a response. Keys
/// are unique and string contents are escaped, so a plain search cannot
/// land inside a value.
fn after_key<'a>(resp: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    resp.find(&pat).map(|i| &resp[i + pat.len()..])
}

/// Reads the per-request fields of a response without parsing its
/// (large) machine-code string.
pub fn scan_reply(resp: &str) -> Reply<'_> {
    let flag = |k| after_key(resp, k).is_some_and(|v| v.starts_with("true"));
    let fingerprint = after_key(resp, "fingerprint")
        .and_then(|v| v.strip_prefix('"'))
        .and_then(|v| v.get(..16))
        .unwrap_or("");
    Reply {
        ok: flag("ok"),
        cached: flag("cached"),
        checked: flag("checked"),
        fingerprint,
    }
}

/// What the gate needs from the first answer to one distinct request.
#[derive(Clone, Debug)]
pub struct Answer {
    /// The rewritten machine code, as printed by the server.
    pub mach: String,
    /// The response fingerprint.
    pub fingerprint: String,
    /// `stats.spill_instructions`.
    pub spill_insts: u64,
    /// `stats.copies_remaining`.
    pub copies_left: u64,
    /// `stats.copies_before`.
    pub copies_before: u64,
}

impl Answer {
    /// Extracts the answer from an `ok:true` response. The first
    /// `copies_remaining` key is the top-level statistic: `stats` lists
    /// its totals before its per-class objects.
    ///
    /// # Errors
    ///
    /// A message when a field is missing or malformed.
    pub fn parse(resp: &str) -> Result<Answer, String> {
        let stat = |k: &str| -> Result<u64, String> {
            let v = after_key(resp, k).unwrap_or("");
            let digits = v.bytes().take_while(u8::is_ascii_digit).count();
            v[..digits]
                .parse()
                .map_err(|_| format!("response has no number `stats.{k}`"))
        };
        let text = |k: &str| json_string(after_key(resp, k).unwrap_or(""));
        Ok(Answer {
            mach: text("mach")?,
            fingerprint: text("fingerprint")?,
            spill_insts: stat("spill_instructions")?,
            copies_left: stat("copies_remaining")?,
            copies_before: stat("copies_before")?,
        })
    }
}

/// Decodes the JSON string literal `s` starts with. Linear in its length:
/// the machine code of a large function runs to hundreds of kilobytes.
fn json_string(s: &str) -> Result<String, String> {
    let mut rest = s.strip_prefix('"').ok_or("expected a JSON string")?;
    let mut out = String::with_capacity(rest.len().min(1 << 20));
    loop {
        let i = rest.find(['"', '\\']).ok_or("unterminated JSON string")?;
        out.push_str(&rest[..i]);
        if rest.as_bytes()[i] == b'"' {
            return Ok(out);
        }
        let esc = rest.get(i + 1..i + 2).ok_or("unterminated escape")?;
        rest = &rest[i + 2..];
        out.push(match esc {
            "\"" => '"',
            "\\" => '\\',
            "/" => '/',
            "b" => '\u{8}',
            "f" => '\u{c}',
            "n" => '\n',
            "r" => '\r',
            "t" => '\t',
            "u" => {
                let cp = rest
                    .get(..4)
                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                    .ok_or("bad \\u escape")?;
                rest = &rest[4..];
                char::from_u32(cp).ok_or("\\u escape outside the basic plane")?
            }
            other => return Err(format!("bad escape \\{other}")),
        });
    }
}

/// FNV-1a 64 of `text`, as 16 hex digits: how serve fingerprints the
/// printed machine code.
pub fn fnv1a_hex(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The correctness gate for one distinct request: the fingerprint is the
/// hash of the returned code, the code reparses, and running it in the
/// machine interpreter matches the IR interpreter on the input (the
/// independent reference). Returns the simulated cycles of the code and
/// of the reference run.
///
/// # Errors
///
/// A message saying which check failed.
pub fn gate(func: &Function, answer: &Answer, target: &TargetDesc) -> Result<(u64, u64), String> {
    if fnv1a_hex(&answer.mach) != answer.fingerprint {
        return Err("fingerprint is not the hash of the returned code".into());
    }
    let mach = parse_mach_function(&answer.mach).map_err(|e| format!("reparsing mach: {e}"))?;
    let args = default_args(func);
    let reference = run_ir(func, &args, DEFAULT_FUEL).map_err(|e| format!("run_ir: {e}"))?;
    let allocated =
        run_mach(&mach, target, &args, DEFAULT_FUEL).map_err(|e| format!("run_mach: {e}"))?;
    check_equivalent(&reference, &allocated).map_err(|e| format!("not equivalent: {e}"))?;
    Ok((allocated.cycles, reference.cycles))
}

/// First answers and failures per distinct request of one run.
#[derive(Debug)]
pub struct Ledger {
    /// The first answer to each distinct request.
    pub answers: Vec<Option<Answer>>,
    /// Every failure, naming the request.
    pub failures: Vec<String>,
    /// Requests sent.
    pub attempted: u64,
}

impl Ledger {
    /// An empty ledger over `n` distinct requests.
    pub fn new(n: usize) -> Ledger {
        Ledger {
            answers: vec![None; n],
            failures: Vec::new(),
            attempted: 0,
        }
    }

    /// Records the response to request `id`: it must be `ok:true`, and its
    /// fingerprint must equal the one the request got the first time.
    pub fn record<'a>(&mut self, inputs: &Inputs, id: usize, resp: &'a str) -> Reply<'a> {
        self.attempted += 1;
        let reply = scan_reply(resp);
        if !reply.ok {
            self.failures
                .push(format!("{}: serve answered {resp:.200}", inputs.label(id)));
            return reply;
        }
        match &self.answers[id] {
            Some(first) if first.fingerprint != reply.fingerprint => self.failures.push(format!(
                "{}: fingerprint changed from {} to {}",
                inputs.label(id),
                first.fingerprint,
                reply.fingerprint
            )),
            Some(_) => {}
            None => match Answer::parse(resp) {
                Ok(a) => self.answers[id] = Some(a),
                Err(e) => self.failures.push(format!("{}: {e}", inputs.label(id))),
            },
        }
        reply
    }

    /// Distinct requests not answered yet.
    pub fn unanswered(&self) -> Vec<usize> {
        (0..self.answers.len())
            .filter(|&i| self.answers[i].is_none())
            .collect()
    }
}

/// Quality totals of the gate over every distinct request.
#[derive(Clone, Copy, Debug, Default)]
pub struct Quality {
    /// Simulated cycles of the generated code, summed.
    pub sim_cycles: u64,
    /// Spill instructions, summed.
    pub spill_insts: u64,
    /// Copies left after allocation, summed.
    pub copies_left: u64,
    /// Copies before allocation, summed.
    pub copies_before: u64,
    /// Simulated cycles of the IR reference runs, summed.
    pub ref_cycles: u64,
    /// IR instructions of the inputs, summed.
    pub ir_insts: u64,
}

/// Runs [`gate`] on every answered distinct request, recording each
/// failure in the ledger.
pub fn gate_all(inputs: &Inputs, ledger: &mut Ledger) -> Quality {
    let target = target();
    let mut q = Quality::default();
    for id in 0..ledger.answers.len() {
        let Some(answer) = &ledger.answers[id] else {
            ledger
                .failures
                .push(format!("{}: never answered", inputs.label(id)));
            continue;
        };
        let (f, _) = inputs.split(id);
        match gate(&inputs.funcs[f], answer, &target) {
            Ok((cycles, ref_cycles)) => {
                q.sim_cycles += cycles;
                q.ref_cycles += ref_cycles;
                q.ir_insts += inputs.funcs[f].num_insts() as u64;
                q.spill_insts += answer.spill_insts;
                q.copies_left += answer.copies_left;
                q.copies_before += answer.copies_before;
            }
            Err(e) => {
                let msg = format!("{}: {e}", inputs.label(id));
                ledger.failures.push(msg);
            }
        }
    }
    q
}

/// The package directory (`perfbench/`).
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The repository root the benchmark builds `pdgc` from.
pub fn repo_root() -> PathBuf {
    package_dir()
        .parent()
        .expect("the package sits inside the repository")
        .to_path_buf()
}

/// Where runs write results, traces and the serve children's working
/// directories.
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// Runs `cargo build` with `args` from the repository root, its output on
/// stderr so stdout stays the benchmark's.
///
/// # Errors
///
/// A message when cargo cannot run or the build fails.
pub fn cargo_build(args: &[&str]) -> Result<(), String> {
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .arg("build")
        .args(args)
        .current_dir(repo_root())
        .stdout(Stdio::from(std::io::stderr()))
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("cargo build {} failed: {status}", args.join(" ")))
    }
}

/// Builds `pdgc` in release mode from source and returns its path.
///
/// # Errors
///
/// A message when the build fails.
pub fn build_pdgc() -> Result<PathBuf, String> {
    let root = repo_root();
    let manifest = root.join("Cargo.toml");
    cargo_build(&[
        "--release",
        "--offline",
        "--manifest-path",
        manifest.to_str().ok_or("non-UTF-8 repository path")?,
        "--bin",
        "pdgc",
    ])?;
    // Cargo resolves a relative CARGO_TARGET_DIR against its working
    // directory, which `cargo_build` sets to the repository root.
    let target_dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(|d| root.join(d))
        .unwrap_or_else(|| root.join("target"));
    Ok(target_dir
        .join("release")
        .join(format!("pdgc{}", std::env::consts::EXE_SUFFIX)))
}

/// Exit snapshot counters of a finished serve child.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeCounters {
    /// Requests served.
    pub requests: u64,
    /// Cache hits.
    pub hits: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// Hits re-proven by the checker.
    pub rechecks: u64,
}

/// A `pdgc serve` child driven over stdin/stdout, one request in flight.
/// Its working directory is a fresh directory under [`out_dir`], so its
/// exit snapshot never lands in the repository. Dropping it kills and
/// reaps the process and removes the directory.
#[derive(Debug)]
pub struct ServeChild {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    dir: PathBuf,
    line: String,
}

impl ServeChild {
    /// Spawns `pdgc serve` for the benchmark target with `cache_cap`.
    ///
    /// # Errors
    ///
    /// A message when the directory or the process cannot be created.
    pub fn spawn(pdgc: &Path, cache_cap: usize, tag: &str) -> Result<ServeChild, String> {
        let dir = out_dir().join(format!("serve-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let mut child = Command::new(pdgc)
            .args(["serve", "--target", TARGET, "--cache-cap"])
            .arg(cache_cap.to_string())
            .current_dir(&dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", pdgc.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(ServeChild {
            child,
            stdin,
            stdout,
            dir,
            line: String::new(),
        })
    }

    /// Sends one request line and returns the response line.
    ///
    /// # Errors
    ///
    /// A message when the pipe breaks or the child closes its stdout.
    pub fn request(&mut self, line: &str) -> Result<&str, String> {
        let stdin = self.stdin.as_mut().ok_or("stdin already closed")?;
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.write_all(b"\n"))
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing request: {e}"))?;
        self.line.clear();
        let n = self
            .stdout
            .read_line(&mut self.line)
            .map_err(|e| format!("reading response: {e}"))?;
        if n == 0 {
            return Err("pdgc serve closed its output".into());
        }
        Ok(self.line.trim_end())
    }

    /// The child's peak resident set (`VmHWM`) in MiB.
    ///
    /// # Errors
    ///
    /// A message when `/proc` does not report it.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM line")?;
        Ok(kb / 1024.0)
    }

    /// Closes stdin, waits for the child, and reads the serve counters of
    /// its exit snapshot.
    ///
    /// # Errors
    ///
    /// A message when the child fails or its snapshot is unreadable.
    pub fn finish(mut self) -> Result<ServeCounters, String> {
        drop(self.stdin.take());
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for serve: {e}"))?;
        if !status.success() {
            return Err(format!("pdgc serve exited with {status}"));
        }
        let path = self.dir.join("results").join("metrics.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let json = Json::parse(&text)?;
        let c = |k: &str| json["counters"][k].as_u64().unwrap_or(0);
        Ok(ServeCounters {
            requests: c("serve_requests"),
            hits: c("cache_hits"),
            evictions: c("cache_evictions"),
            rechecks: c("cache_hit_checks"),
        })
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One timed request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// The distinct request sent.
    pub id: usize,
    /// The response came from the cache.
    pub cached: bool,
    /// The response was proven by the checker.
    pub checked: bool,
    /// Write-to-read latency.
    pub ms: f64,
}

/// Each sample's latency replaced by the best latency of its kind — the
/// same request answered the same way (cache hit or miss, re-proven or
/// not) — over the whole run.
///
/// Shared cloud vCPUs slow down by up to half for stretches of one to ten
/// seconds, and every request caught in such a stretch is slower for a
/// reason outside pdgc. A kind's repeats are spread over the whole timed
/// loop, so its best one is the request's own cost; the run's mix of
/// kinds, and so its percentiles and throughput, stays as measured.
pub fn best_of_kind_ms(samples: &[Sample]) -> Vec<f64> {
    let mut best: HashMap<(usize, bool, bool), f64> = HashMap::new();
    for s in samples {
        let b = best.entry((s.id, s.cached, s.checked)).or_insert(s.ms);
        *b = b.min(s.ms);
    }
    samples
        .iter()
        .map(|s| best[&(s.id, s.cached, s.checked)])
        .collect()
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The three quartile cut points of `values`, computed as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => return [f64::NAN; 3],
        1 => return [d[0]; 3],
        _ => {}
    }
    let m = d.len() + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, d.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    out
}

/// The median of `values`: the middle quartile cut point.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// A latency sample set summarised as `{"n":…,"p50":…,…}` in ms.
pub fn latency_json(ms: &[f64]) -> String {
    let mut s = ms.to_vec();
    s.sort_by(f64::total_cmp);
    let mut o = JsonObject::new().u64("n", s.len() as u64);
    for p in [50.0, 90.0, 99.0] {
        o = o.f64(&format!("p{p}"), percentile(&s, p));
    }
    o.finish()
}

/// `{"values":[…],"median":…,"q1":…,"q3":…}` for per-pass numbers.
pub fn spread_json(values: &[f64]) -> String {
    let [q1, _, q3] = quartiles(values);
    JsonObject::new()
        .raw(
            "values",
            &pdgc_obs::json::array(values.iter().map(|v| format!("{v}"))),
        )
        .f64("median", median(values))
        .f64("q1", q1)
        .f64("q3", q3)
        .finish()
}

fn command_line(program: &str, args: &[&str], dir: &Path, env: &[(&str, PathBuf)]) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args).current_dir(dir).stderr(Stdio::null());
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The context every result records: machine, toolchain, build, commit.
pub fn run_context_json(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let root = repo_root();
    // GIT_DIR pins git to this checkout's own `.git`, so a checkout that
    // is not a repository reads "unknown" instead of a parent's commit.
    let commit = command_line(
        "git",
        &["rev-parse", "HEAD"],
        &root,
        &[("GIT_DIR", root.join(".git"))],
    );
    JsonObject::new()
        .u64(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        )
        .str("cpu", &cpu)
        .str("rustc", &command_line("rustc", &["-V"], &root, &[]))
        .str(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .str("pdgc_profile", "release")
        .str("git_commit", &commit)
        .str("workload", args.workload.name())
        .u64("seed", args.seed)
        .f64("seconds", args.seconds)
        .bool("smoke", args.smoke)
        .finish()
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Prints each metric on its own line, then the one-line JSON result as
/// the last line of stdout, and writes `out/<file>` with the run context
/// and `extra` details.
///
/// # Errors
///
/// A message when the result file cannot be written.
pub fn report(
    file: &str,
    context: &str,
    metrics: &[Metric],
    attempted: u64,
    failures: &[String],
    extra: &[(&str, String)],
) -> Result<(), String> {
    for m in metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let mut values = JsonObject::new();
    for m in metrics {
        values = values.raw(
            &m.name,
            &JsonObject::new()
                .f64("value", m.value)
                .str("unit", m.unit)
                .finish(),
        );
    }
    let values = values.finish();
    let failed = failures.len() as u64;
    let line = JsonObject::new()
        .bool("correct", failures.is_empty())
        .u64("attempted", attempted.max(1))
        .u64("failed", failed)
        .raw("metrics", &values)
        .finish();
    let mut doc = JsonObject::new()
        .raw("context", context)
        .raw("result", &line)
        .f64("error_rate", failed as f64 / attempted.max(1) as f64)
        .raw(
            "failures",
            &pdgc_obs::json::array(
                failures
                    .iter()
                    .map(|f| format!("\"{}\"", pdgc_obs::json::escape(f))),
            ),
        );
    for (k, v) in extra {
        doc = doc.raw(k, v);
    }
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, doc.finish() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    println!("{line}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn scan_reads_flags_and_fingerprint() {
        let r = "{\"ok\":true,\"key\":\"00\",\"cached\":true,\"checked\":false,\
                 \"fingerprint\":\"0123456789abcdef\",\"stats\":{},\"mach\":\"\\\"cached\\\":false\"}";
        let s = scan_reply(r);
        assert!(s.ok && s.cached && !s.checked);
        assert_eq!(s.fingerprint, "0123456789abcdef");
        assert!(!scan_reply("{\"ok\":false,\"error\":\"x\"}").ok);
    }

    #[test]
    fn answer_fields_decode_as_the_json_reader_does() {
        let mach = "f:\n  r1 = ld [r0+8]\t; \"q\" \\ \u{1}\u{e9}";
        let resp = JsonObject::new()
            .bool("ok", true)
            .str("fingerprint", "00000000000000ff")
            .raw(
                "stats",
                "{\"copies_before\":9,\"copies_remaining\":7,\"spill_instructions\":3,\"int\":{\"copies_remaining\":5}}",
            )
            .str("mach", mach)
            .finish();
        let a = Answer::parse(&resp).unwrap();
        assert_eq!(
            a.mach,
            Json::parse(&resp).unwrap()["mach"].as_str().unwrap()
        );
        assert_eq!(a.mach, mach);
        assert_eq!((a.spill_insts, a.copies_left), (3, 7));
        assert_eq!(a.fingerprint, "00000000000000ff");
    }
}
