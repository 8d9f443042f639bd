//! `pdgc serve` — a long-running allocation daemon with a
//! content-addressed cache.
//!
//! The daemon reads **JSONL requests** (one JSON object per line) from
//! stdin or a Unix socket and writes one JSONL response per request:
//!
//! ```text
//! {"fn": "<IR text>", "target": "ia64-24", "allocator": "full", "check": "always"}
//! {"ok":true,"key":"…","cached":false,"checked":true,"fingerprint":"…","stats":{…},"mach":"…"}
//! ```
//!
//! `target`, `allocator`, and `check` are optional and default to the
//! session's configuration; `{"op":"shutdown"}` stops a streaming or
//! socket session. Malformed JSON (including input nested beyond
//! [`pdgc_obs::json::MAX_DEPTH`]), unparseable IR, and unknown names all
//! produce an `{"ok":false,"error":…}` response — never a crash and never
//! a dropped line.
//!
//! # The cache key
//!
//! Responses are cached **content-addressed**: the key is the tuple
//! (canonical printed IR, target name, allocator name, check mode),
//! where "canonical" means [`Function::with_canonical_callees`] — callee
//! interning order is an artifact of how a function was built, not of
//! what it computes, so two textual spellings of the same function hash
//! to the same entry (PR 8's `print → parse → print` fixpoint makes this
//! well-defined). A *miss* allocates in the session's pooled
//! [`AllocSession`] and is proven by the symbolic checker
//! ([`CheckMode::Always`]) **before** insertion, whatever the request
//! asked for; a *hit* returns the stored response and is re-proven at a
//! configurable sampling rate. Hit, miss, insertion, eviction, and
//! re-check counts ride the always-on metrics registry next to the
//! allocator's own scorecard.

use crate::{fingerprint_mach, stats_json};
use pdgc_core::pipeline::check_output_metered;
use pdgc_core::{
    AllocOutput, AllocSession, CheckMode, CheckScope, PreferenceAllocator, RegisterAllocator,
};
use pdgc_ir::{parse_function, parse_functions, Function};
use pdgc_obs::json::{Json, JsonObject};
use pdgc_obs::{Counter, MetricsRegistry, NoopTracer};
use pdgc_target::{TargetDesc, TargetRegistry};
use std::collections::HashMap;
use std::io::{BufRead, Write};

/// Every name [`allocator_by_name`] resolves, as `pdgc --help` lists them.
pub const ALLOCATOR_NAMES: [&str; 9] = [
    "full",
    "coalesce",
    "precoalesce",
    "chaitin",
    "briggs",
    "iterated",
    "optimistic",
    "callcost",
    "priority",
];

/// Resolves an allocator by its CLI name — the one allocator table every
/// `--allocator` flag and serve request goes through. `Sync` so the batch
/// driver's workers can share it. Covers every allocator of the paper's
/// evaluation.
pub fn allocator_by_name(name: &str) -> Option<Box<dyn RegisterAllocator + Sync>> {
    use pdgc_core::baselines::*;
    Some(match name {
        "full" => Box::new(PreferenceAllocator::full()),
        "coalesce" => Box::new(PreferenceAllocator::coalescing_only()),
        "precoalesce" => Box::new(PreferenceAllocator::full().with_precoalesce()),
        "chaitin" => Box::new(ChaitinAllocator),
        "briggs" => Box::new(BriggsAllocator),
        "iterated" => Box::new(IteratedAllocator),
        "optimistic" => Box::new(OptimisticAllocator),
        "callcost" => Box::new(CallCostAllocator),
        "priority" => Box::new(PriorityAllocator),
        _ => return None,
    })
}

/// The exact content-addressed cache key for one request: canonical
/// printed IR plus every allocation-relevant request parameter, joined
/// with a separator no component can contain. Two requests collide iff
/// they demand byte-identical machine code.
pub fn cache_key(func: &Function, target: &str, allocator: &str, check: CheckMode) -> String {
    // `with_canonical_callees` renumbers callees into appearance order —
    // the form `parse(print(f))` produces — so builder-order artifacts
    // never split the cache.
    format!(
        "{target}\u{1f}{allocator}\u{1f}{check}\u{1f}{}",
        func.with_canonical_callees()
    )
}

/// FNV-1a 64 of a cache key, the compact form responses carry.
pub fn key_hash(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Session configuration, normally filled from `pdgc serve` flags.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Default target for requests that omit `"target"`.
    pub target: String,
    /// Default allocator for requests that omit `"allocator"`.
    pub allocator: String,
    /// Default check mode for requests that omit `"check"`. This is a
    /// *key component* only: misses always run [`CheckMode::Always`]
    /// before insertion regardless.
    pub check: CheckMode,
    /// Maximum cache entries; 0 means unbounded. Insertion beyond the
    /// cap evicts the least-recently-used entry.
    pub cache_cap: usize,
    /// Re-prove every Nth cache hit with the symbolic checker; 0 never
    /// re-checks.
    pub sample_rate: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            target: "ia64-24".into(),
            allocator: "full".into(),
            check: CheckMode::Always,
            cache_cap: 1024,
            sample_rate: 16,
        }
    }
}

/// One cached allocation: the full output (kept so sampled hit re-checks
/// can re-prove it), its rendered response pieces, and an LRU stamp.
#[derive(Debug)]
struct CacheEntry {
    out: AllocOutput,
    target: TargetDesc,
    mach_text: String,
    stats: String,
    fingerprint: u64,
    last_used: u64,
}

/// A parsed, validated allocation request, ready to key and run.
struct Request {
    func: Function,
    alloc: Box<dyn RegisterAllocator + Sync>,
    target: TargetDesc,
    key: String,
}

/// What one input line asked for.
enum Parsed {
    Alloc(Request),
    Shutdown,
}

/// The outcome of one streamed line.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The JSONL response to write back.
    pub response: String,
    /// Whether the line asked the session to stop.
    pub shutdown: bool,
}

/// A serve session: the cache, its counters, and the allocation session
/// every miss runs in.
pub struct ServeSession {
    config: ServeConfig,
    cache: HashMap<String, CacheEntry>,
    /// Monotonic request stamp driving LRU eviction.
    tick: u64,
    /// Total hits, driving the sampled re-check cadence.
    hits: u64,
    metrics: MetricsRegistry,
    /// Misses are proven before they are cached, whatever the request
    /// asked for: nothing unchecked ever enters the cache.
    session: AllocSession<'static>,
}

fn error_response(msg: &str) -> String {
    JsonObject::new().bool("ok", false).str("error", msg).finish()
}

impl ServeSession {
    /// Creates an empty session.
    pub fn new(config: ServeConfig) -> Self {
        ServeSession {
            config,
            cache: HashMap::new(),
            tick: 0,
            hits: 0,
            metrics: MetricsRegistry::default(),
            session: AllocSession {
                check: CheckMode::Always,
                ..AllocSession::default()
            },
        }
    }

    /// The session's accumulated metrics: serve/cache counters plus every
    /// allocation's scorecard and latency histograms.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Cached entries currently held.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    fn parse_line(&self, line: &str) -> Result<Parsed, String> {
        let json = Json::parse(line)?;
        if json["op"].as_str() == Some("shutdown") {
            return Ok(Parsed::Shutdown);
        }
        let ir = json["fn"]
            .as_str()
            .ok_or("request missing string field `fn`")?;
        let target_name = json["target"].as_str().unwrap_or(&self.config.target);
        let alloc_name = json["allocator"].as_str().unwrap_or(&self.config.allocator);
        let check = match json["check"].as_str() {
            None => self.config.check,
            Some(m) => CheckMode::parse(m)
                .ok_or_else(|| format!("bad check mode `{m}` (off, debug, always)"))?,
        };
        let func = parse_function(ir).map_err(|e| format!("parsing `fn`: {e}"))?;
        func.verify().map_err(|e| format!("verifying `fn`: {e}"))?;
        let alloc = allocator_by_name(alloc_name)
            .ok_or_else(|| format!("unknown allocator `{alloc_name}`"))?;
        let target = TargetRegistry::builtin()
            .resolve(target_name)
            .cloned()
            .map_err(|e| e.to_string())?;
        let key = cache_key(&func, target_name, alloc_name, check);
        Ok(Parsed::Alloc(Request {
            func,
            alloc,
            target,
            key,
        }))
    }

    /// Renders the success response for a cache entry.
    fn hit_or_insert_response(key: &str, cached: bool, checked: bool, e: &CacheEntry) -> String {
        JsonObject::new()
            .bool("ok", true)
            .str("key", &format!("{:016x}", key_hash(key)))
            .bool("cached", cached)
            .bool("checked", checked)
            .str("fingerprint", &format!("{:016x}", e.fingerprint))
            .raw("stats", &e.stats)
            .str("mach", &e.mach_text)
            .finish()
    }

    /// Serves `key` from the cache, re-proving the entry when the
    /// sampling cadence says so. Returns `None` on a miss.
    fn try_hit(&mut self, key: &str) -> Option<String> {
        if !self.cache.contains_key(key) {
            return None;
        }
        self.metrics.bump(Counter::CacheHits);
        self.hits += 1;
        let rate = self.config.sample_rate;
        let recheck = rate > 0 && self.hits % rate == 0;
        if recheck {
            self.metrics.bump(Counter::CacheHitChecks);
            let entry = self.cache.get(key).expect("checked above");
            let scratch = &mut self.session.scratch;
            let verdict = check_output_metered(
                &entry.out,
                &entry.target,
                &mut NoopTracer,
                CheckMode::Always,
                CheckScope::Full,
                scratch,
            );
            scratch.metrics.drain_into(&mut self.metrics);
            if let Err(e) = verdict {
                // A cached allocation failing re-validation means the
                // entry (or the checker) is corrupt; drop it and report.
                let dead = self.cache.remove(key).expect("checked above");
                dead.out.recycle(scratch);
                self.metrics.bump(Counter::ServeErrors);
                return Some(error_response(&format!(
                    "cached allocation failed re-validation (entry dropped): {e}"
                )));
            }
        }
        let tick = self.tick;
        let entry = self.cache.get_mut(key).expect("checked above");
        entry.last_used = tick;
        Some(Self::hit_or_insert_response(key, true, recheck, entry))
    }

    /// Inserts a freshly proven allocation, evicting the least-recently-
    /// used entry when the cache is at capacity.
    fn insert(&mut self, key: String, out: AllocOutput, target: TargetDesc) -> String {
        if self.config.cache_cap > 0 && self.cache.len() >= self.config.cache_cap {
            if let Some(victim) = self
                .cache
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                let dead = self.cache.remove(&victim).expect("key from iteration");
                dead.out.recycle(&mut self.session.scratch);
                self.metrics.bump(Counter::CacheEvictions);
            }
        }
        let entry = CacheEntry {
            mach_text: out.mach.to_string(),
            stats: stats_json(&out.stats),
            fingerprint: fingerprint_mach(&out.mach),
            last_used: self.tick,
            out,
            target,
        };
        let response = Self::hit_or_insert_response(&key, false, true, &entry);
        self.cache.insert(key, entry);
        self.metrics.bump(Counter::CacheInsertions);
        response
    }

    /// Handles one streamed request line serially.
    pub fn handle_line(&mut self, line: &str) -> ServeOutcome {
        self.tick += 1;
        self.metrics.bump(Counter::ServeRequests);
        let req = match self.parse_line(line) {
            Ok(Parsed::Shutdown) => {
                return ServeOutcome {
                    response: JsonObject::new()
                        .bool("ok", true)
                        .bool("shutdown", true)
                        .finish(),
                    shutdown: true,
                }
            }
            Ok(Parsed::Alloc(req)) => req,
            Err(e) => {
                self.metrics.bump(Counter::ServeErrors);
                return ServeOutcome {
                    response: error_response(&e),
                    shutdown: false,
                };
            }
        };
        if let Some(response) = self.try_hit(&req.key) {
            return ServeOutcome {
                response,
                shutdown: false,
            };
        }
        self.metrics.bump(Counter::CacheMisses);
        let out = req
            .alloc
            .allocate(&req.func, &req.target, &mut self.session);
        self.session.scratch.metrics.drain_into(&mut self.metrics);
        let response = match out {
            Ok(out) => self.insert(req.key, out, req.target),
            Err(e) => {
                self.metrics.bump(Counter::ServeErrors);
                error_response(&e.to_string())
            }
        };
        ServeOutcome {
            response,
            shutdown: false,
        }
    }

    /// Runs a session over a reader/writer pair, streaming: each line is
    /// answered (and flushed) before the next is read, until EOF or a
    /// shutdown request.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the reader or writer.
    pub fn run<R: BufRead, W: Write>(&mut self, reader: R, writer: W) -> std::io::Result<()> {
        self.stream(reader, writer).map(|_shutdown| ())
    }

    /// [`Self::run`], reporting whether a shutdown request ended it.
    fn stream<R: BufRead, W: Write>(&mut self, reader: R, mut writer: W) -> std::io::Result<bool> {
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let outcome = self.handle_line(&line);
            writeln!(writer, "{}", outcome.response)?;
            writer.flush()?;
            if outcome.shutdown {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Serves connections on a Unix socket at `path`, one at a time,
    /// streaming each connection like [`ServeSession::run`]. The cache
    /// persists across connections. Returns after a `{"op":"shutdown"}`
    /// request; the socket file is removed on the way out.
    ///
    /// # Errors
    ///
    /// Propagates bind/accept/stream I/O errors.
    #[cfg(unix)]
    pub fn run_socket(&mut self, path: &std::path::Path) -> std::io::Result<()> {
        let _ = std::fs::remove_file(path); // stale socket from a dead daemon
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        let mut shutdown = false;
        while !shutdown {
            let (stream, _) = listener.accept()?;
            let writer = stream.try_clone()?;
            shutdown = self.stream(std::io::BufReader::new(stream), writer)?;
        }
        let _ = std::fs::remove_file(path);
        Ok(())
    }
}

/// Renders every function of a `.pdgc` corpus (as loaded by
/// [`crate::corpus::load_corpus_dir`]) as a JSONL request stream for
/// `pdgc serve` — the self-contained request generator the CI smoke job
/// pipes through the daemon.
///
/// # Errors
///
/// Returns a message naming the file on a parse failure.
pub fn corpus_requests(
    files: &[(String, String)],
    target: &str,
    allocator: &str,
    check: CheckMode,
) -> Result<String, String> {
    let mut out = String::new();
    for (name, text) in files {
        let funcs = parse_functions(text).map_err(|e| format!("{name}: {e}"))?;
        for f in funcs {
            out.push_str(
                &JsonObject::new()
                    .str("fn", &f.to_string())
                    .str("target", target)
                    .str("allocator", allocator)
                    .str("check", &check.to_string())
                    .finish(),
            );
            out.push('\n');
        }
    }
    Ok(out)
}

/// Builds one serve request line for an IR text (helper for tests and
/// request generators).
pub fn request_line(ir: &str, target: &str, allocator: &str, check: CheckMode) -> String {
    JsonObject::new()
        .str("fn", ir)
        .str("target", target)
        .str("allocator", allocator)
        .str("check", &check.to_string())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str =
        "fn sum2(v0: int, v1: int) -> int {\nb0:\n    v2 = add v0, v1\n    ret v2\n}\n";
    const OTHER: &str =
        "fn mul2(v0: int, v1: int) -> int {\nb0:\n    v2 = mul v0, v1\n    ret v2\n}\n";

    fn session() -> ServeSession {
        ServeSession::new(ServeConfig::default())
    }

    fn field<'a>(json: &'a Json, k: &str) -> &'a Json {
        json.get(k).expect("field present")
    }

    #[test]
    fn resubmission_is_a_recorded_hit_with_identical_payload() {
        let mut s = session();
        let line = request_line(SMALL, "ia64-24", "full", CheckMode::Always);
        let first = Json::parse(&s.handle_line(&line).response).unwrap();
        let second = Json::parse(&s.handle_line(&line).response).unwrap();
        assert_eq!(field(&first, "ok").as_bool(), Some(true));
        assert_eq!(field(&first, "cached").as_bool(), Some(false));
        assert_eq!(field(&second, "cached").as_bool(), Some(true));
        for k in ["key", "fingerprint", "mach", "stats"] {
            assert_eq!(first.get(k), second.get(k), "`{k}` drifted on the hit");
        }
        assert_eq!(s.metrics().get(Counter::CacheHits), 1);
        assert_eq!(s.metrics().get(Counter::CacheMisses), 1);
        assert_eq!(s.metrics().get(Counter::ServeRequests), 2);
        assert_eq!(s.metrics().get(Counter::CacheInsertions), 1);
    }

    #[test]
    fn malformed_and_hostile_input_is_an_error_response() {
        let mut s = session();
        for bad in [
            "not json",
            "{\"target\":\"ia64-24\"}",                       // missing fn
            "{\"fn\":\"fn broken(\"}",                        // IR parse error
            "{\"fn\":\"x\",\"allocator\":\"nope\"}",          // unknown allocator
            "{\"fn\":\"x\",\"target\":\"nope\"}",             // unknown target
            "{\"fn\":\"x\",\"check\":\"nope\"}",              // bad check mode
            &format!("{{\"fn\":{} }}", "[".repeat(100_000)),  // deep nesting
        ] {
            let out = s.handle_line(bad);
            assert!(!out.shutdown);
            let json = Json::parse(&out.response).unwrap();
            assert_eq!(field(&json, "ok").as_bool(), Some(false), "for input {bad:.60}");
            assert!(json.get("error").is_some());
        }
        assert_eq!(s.metrics().get(Counter::ServeErrors), 7);
        assert_eq!(s.metrics().get(Counter::CacheMisses), 0);
    }

    #[test]
    fn shutdown_op_stops_a_streaming_session() {
        let mut s = session();
        let input = format!(
            "{}\n{{\"op\":\"shutdown\"}}\n{}\n",
            request_line(SMALL, "ia64-24", "full", CheckMode::Always),
            request_line(OTHER, "ia64-24", "full", CheckMode::Always),
        );
        let mut out = Vec::new();
        s.run(input.as_bytes(), &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        // The request after shutdown was never processed.
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"shutdown\":true"));
        assert_eq!(s.metrics().get(Counter::ServeRequests), 2);
    }

    #[test]
    fn lru_eviction_honors_the_cap_and_counts() {
        let mut s = ServeSession::new(ServeConfig {
            cache_cap: 1,
            ..ServeConfig::default()
        });
        let a = request_line(SMALL, "ia64-24", "full", CheckMode::Always);
        let b = request_line(OTHER, "ia64-24", "full", CheckMode::Always);
        s.handle_line(&a);
        s.handle_line(&b); // evicts a
        assert_eq!(s.cache_len(), 1);
        assert_eq!(s.metrics().get(Counter::CacheEvictions), 1);
        let again = Json::parse(&s.handle_line(&a).response).unwrap();
        // a was evicted, so this is a miss again.
        assert_eq!(field(&again, "cached").as_bool(), Some(false));
        assert_eq!(s.metrics().get(Counter::CacheMisses), 3);
    }

    #[test]
    fn sampled_hit_rechecks_are_counted() {
        let mut s = ServeSession::new(ServeConfig {
            sample_rate: 2,
            ..ServeConfig::default()
        });
        let line = request_line(SMALL, "ia64-24", "full", CheckMode::Always);
        s.handle_line(&line); // miss
        let h1 = Json::parse(&s.handle_line(&line).response).unwrap(); // hit 1: not sampled
        let h2 = Json::parse(&s.handle_line(&line).response).unwrap(); // hit 2: sampled
        assert_eq!(field(&h1, "checked").as_bool(), Some(false));
        assert_eq!(field(&h2, "checked").as_bool(), Some(true));
        assert_eq!(s.metrics().get(Counter::CacheHitChecks), 1);
    }

    #[test]
    fn builder_callee_order_does_not_split_the_key() {
        use pdgc_ir::{FunctionBuilder, RegClass};
        // Intern callees out of appearance order: h first, then g, while
        // the body calls g first.
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], None);
        let h = b.intern_callee("h");
        let g = b.intern_callee("g");
        let _ = h;
        let _ = g;
        b.call("g", vec![], None);
        b.call("h", vec![], None);
        b.ret(None);
        let f = b.finish();
        let reparsed = parse_function(&f.to_string()).unwrap();
        assert_eq!(
            cache_key(&f, "ia64-24", "full", CheckMode::Always),
            cache_key(&reparsed, "ia64-24", "full", CheckMode::Always),
        );
    }

    #[test]
    fn corpus_requests_render_one_line_per_function() {
        let files = vec![("two.pdgc".to_string(), format!("{SMALL}\n{OTHER}"))];
        let text = corpus_requests(&files, "ia64-24", "full", CheckMode::Always).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let mut s = session();
        for line in &lines {
            let r = Json::parse(&s.handle_line(line).response).unwrap();
            assert_eq!(field(&r, "ok").as_bool(), Some(true), "{line}");
        }
    }

    #[cfg(unix)]
    #[test]
    fn socket_sessions_share_the_cache() {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;
        let dir = std::env::temp_dir().join(format!("pdgc-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.sock");
        let path2 = path.clone();
        let server = std::thread::spawn(move || {
            let mut s = session();
            s.run_socket(&path2).unwrap();
            s.metrics().get(Counter::CacheHits)
        });
        // Wait for the socket to appear.
        for _ in 0..200 {
            if path.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let request = request_line(SMALL, "ia64-24", "full", CheckMode::Always);
        let ask = |line: &str| {
            let mut stream = UnixStream::connect(&path).unwrap();
            writeln!(stream, "{line}").unwrap();
            stream.flush().unwrap();
            let mut reader = BufReader::new(stream);
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            response
        };
        let first = Json::parse(&ask(&request)).unwrap();
        let second = Json::parse(&ask(&request)).unwrap(); // new connection, same cache
        assert_eq!(first["cached"].as_bool(), Some(false));
        assert_eq!(second["cached"].as_bool(), Some(true));
        assert_eq!(first.get("fingerprint"), second.get("fingerprint"));
        ask("{\"op\":\"shutdown\"}");
        let hits = server.join().unwrap();
        assert_eq!(hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
