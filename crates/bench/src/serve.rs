//! `pdgc serve` — a long-running allocation daemon with a
//! content-addressed cache.
//!
//! The daemon reads **JSONL requests** (one JSON object per line) from
//! stdin or a Unix socket and writes one JSONL response per request:
//!
//! ```text
//! {"fn": "<IR text>", "target": "ia64-24", "allocator": "full"}
//! {"ok":true,"key":"…","cached":false,"checked":true,"fingerprint":"…","stats":{…},"mach":"…"}
//! ```
//!
//! `target` and `allocator` are optional and default to the session's
//! configuration; `{"op":"shutdown"}` stops a streaming or socket session.
//! Those are the only fields a request has: any other field, or an `op`
//! other than `shutdown`, is an error naming it. Malformed JSON (including
//! input nested beyond [`pdgc_obs::json::MAX_DEPTH`]), unparseable IR, and
//! unknown names all produce an `{"ok":false,"error":…}` response — never
//! a crash and never a dropped line.
//!
//! # The cache key
//!
//! Responses are cached **content-addressed**: the key is the tuple
//! (canonical printed IR, target name, allocator name), where
//! "canonical" means [`Function::with_canonical_callees`] — callee
//! interning order is an artifact of how a function was built, not of
//! what it computes, so two textual spellings of the same function hash
//! to the same entry (PR 8's `print → parse → print` fixpoint makes this
//! well-defined). A *miss* allocates in the session's pooled
//! [`AllocSession`] and is proven by the symbolic checker
//! ([`CheckMode::Always`]) **before** insertion; a *hit* returns the
//! stored response and is re-proven at a configurable sampling rate.
//! Hit, miss, insertion, eviction, and re-check counts ride the always-on
//! metrics registry next to the allocator's own scorecard.
//!
//! In front of the canonical cache sits an index from the **exact request
//! line** to the entry it resolved to. Within a session a line's parse
//! depends only on its bytes and on defaults fixed at
//! [`ServeSession::new`], so a line seen before skips the JSON and IR
//! parse and the canonical re-print and goes straight to its entry's hit
//! path: the same hit count, re-check cadence and response bytes. The
//! index compares whole lines, never a hash alone. Each entry keeps one
//! line, the latest spelling that resolved to it, and loses it when the
//! entry is evicted or dropped, so the index never holds more lines than
//! the cache holds entries. What every response for an entry repeats —
//! the key hash, fingerprint, scorecard and escaped machine code — is
//! rendered once, at insert; a hit concatenates it around its `cached` and
//! `checked` flags.
//!
//! # A request that panics
//!
//! A request that panics is answered with
//! `{"ok":false,"error":"internal error: …"}` and counted in
//! `serve_errors` and `serve_panics`; the session serves the next line.
//! The cache and the line index change only after a request succeeds, and
//! the allocation session, whose pools the panic may have left
//! half-updated, is replaced.

use crate::{fnv1a, stats_json};
use pdgc_core::pipeline::check_output_metered;
use pdgc_core::{
    AllocOutput, AllocSession, CheckMode, CheckScope, PreferenceAllocator, RegisterAllocator,
};
use pdgc_ir::{parse_function, parse_functions, Function};
use pdgc_obs::json::{escape, Json, JsonObject};
use pdgc_obs::{Counter, MetricsRegistry, NoopTracer};
use pdgc_target::{TargetDesc, TargetRegistry};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

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
///
/// The [`CheckMode`] argument is not read: every miss is proven before
/// insertion, so no check mode belongs in the key. It stays because the
/// benchmark's traced replica (`perfbench/src/bin/trace/replica.rs`)
/// passes it, and goes when that replica is retired.
pub fn cache_key(func: &Function, target: &str, allocator: &str, _check: CheckMode) -> String {
    // `with_canonical_callees` renumbers callees into appearance order —
    // the form `parse(print(f))` produces — so builder-order artifacts
    // never split the cache.
    format!(
        "{target}\u{1f}{allocator}\u{1f}{}",
        func.with_canonical_callees()
    )
}

/// FNV-1a 64 of a cache key, the compact form responses carry.
pub fn key_hash(key: &str) -> u64 {
    fnv1a(key)
}

/// Session configuration, normally filled from `pdgc serve` flags.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Default target for requests that omit `"target"`.
    pub target: String,
    /// Default allocator for requests that omit `"allocator"`.
    pub allocator: String,
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
            cache_cap: 1024,
            sample_rate: 16,
        }
    }
}

/// One cached allocation: the full output (kept so sampled hit re-checks
/// can re-prove it), the response parts every answer repeats, the
/// strings that find it, and an LRU stamp.
#[derive(Debug)]
struct CacheEntry {
    out: AllocOutput,
    target: TargetDesc,
    /// The canonical key, shared with [`Cache::by_key`].
    key: Rc<str>,
    /// The latest request line that resolved to this entry, shared with
    /// [`Cache::by_line`].
    line: Rc<str>,
    /// The response up to the `cached` flag: `{"ok":true,"key":"…","cached":`.
    head: String,
    /// The response after the `checked` flag: fingerprint, scorecard and
    /// machine code, closed.
    tail: String,
    last_used: u64,
}

impl CacheEntry {
    /// The success response for this entry.
    fn response(&self, cached: bool, checked: bool) -> String {
        let flag = |b: bool| if b { "true" } else { "false" };
        [
            &*self.head,
            flag(cached),
            ",\"checked\":",
            flag(checked),
            &self.tail,
        ]
        .concat()
    }
}

/// The content-addressed cache and its request-line index. Entries sit in
/// slots; `by_key` finds one by canonical key and `by_line` by the exact
/// request line that last resolved to it, each without hashing the other
/// string. Both maps keep the default SipHash hasher: their keys come from
/// clients.
#[derive(Default)]
struct Cache {
    slots: Vec<Option<CacheEntry>>,
    /// Slots a removal emptied, refilled before the slots grow.
    vacant: Vec<usize>,
    by_key: HashMap<Rc<str>, usize>,
    by_line: HashMap<Rc<str>, usize>,
}

impl Cache {
    fn len(&self) -> usize {
        self.by_key.len()
    }

    fn get(&self, slot: usize) -> Option<&CacheEntry> {
        self.slots.get(slot)?.as_ref()
    }

    fn get_mut(&mut self, slot: usize) -> Option<&mut CacheEntry> {
        self.slots.get_mut(slot)?.as_mut()
    }

    /// The least-recently-used entry's slot. No two entries share a stamp,
    /// so the choice does not depend on slot order.
    fn lru(&self) -> Option<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(slot, e)| Some((e.as_ref()?.last_used, slot)))
            .min()
            .map(|(_, slot)| slot)
    }

    fn insert(&mut self, entry: CacheEntry) {
        let slot = self.vacant.pop().unwrap_or(self.slots.len());
        if slot == self.slots.len() {
            self.slots.push(None);
        }
        self.by_key.insert(Rc::clone(&entry.key), slot);
        self.by_line.insert(Rc::clone(&entry.line), slot);
        self.slots[slot] = Some(entry);
    }

    /// Takes the entry out of `slot`, with its key and its line.
    fn remove(&mut self, slot: usize) -> Option<CacheEntry> {
        let entry = self.slots.get_mut(slot)?.take()?;
        self.by_key.remove(&entry.key);
        self.by_line.remove(&entry.line);
        self.vacant.push(slot);
        Some(entry)
    }

    /// Makes `line` the line of the entry in `slot`, in place of its
    /// previous one. An empty slot takes no line.
    fn set_line(&mut self, slot: usize, line: &str) {
        let Some(entry) = self.slots.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        self.by_line.remove(&entry.line);
        entry.line = Rc::from(line);
        self.by_line.insert(Rc::clone(&entry.line), slot);
    }
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

impl ServeOutcome {
    fn reply(response: String) -> Self {
        ServeOutcome {
            response,
            shutdown: false,
        }
    }
}

/// A serve session: the cache, its counters, and the allocation session
/// every miss runs in.
pub struct ServeSession {
    config: ServeConfig,
    cache: Cache,
    /// Monotonic request stamp driving LRU eviction.
    tick: u64,
    /// Total hits, driving the sampled re-check cadence.
    hits: u64,
    metrics: MetricsRegistry,
    /// Misses are proven before they are cached: nothing unchecked ever
    /// enters the cache.
    session: AllocSession<'static>,
    /// The builtin targets, built once for every request to resolve in.
    targets: TargetRegistry,
}

fn error_response(msg: &str) -> String {
    JsonObject::new().bool("ok", false).str("error", msg).finish()
}

/// The allocation session every miss runs in: checked before insertion.
fn checked_session() -> AllocSession<'static> {
    AllocSession {
        check: CheckMode::Always,
        ..AllocSession::default()
    }
}

impl ServeSession {
    /// Creates an empty session.
    pub fn new(config: ServeConfig) -> Self {
        ServeSession {
            config,
            cache: Cache::default(),
            tick: 0,
            hits: 0,
            metrics: MetricsRegistry::default(),
            session: checked_session(),
            targets: TargetRegistry::builtin(),
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
        // `op` alone, or `fn` with an optional `target` and `allocator`:
        // serve reads no other field, so any other is an error.
        let op = json.get("op");
        let known: &[&str] = match op {
            Some(_) => &["op"],
            None => &["fn", "target", "allocator"],
        };
        let fields = json.fields().unwrap_or(&[]);
        if let Some((name, _)) = fields.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            return Err(format!("unexpected request field `{name}`"));
        }
        if let Some(op) = op {
            return match op.as_str() {
                Some("shutdown") => Ok(Parsed::Shutdown),
                Some(op) => Err(format!("unknown op `{op}`")),
                None => Err("`op` is not a string".into()),
            };
        }
        let ir = json["fn"]
            .as_str()
            .ok_or("request missing string field `fn`")?;
        let target_name = json["target"].as_str().unwrap_or(&self.config.target);
        let alloc_name = json["allocator"].as_str().unwrap_or(&self.config.allocator);
        // `parse_function` returns only functions that verify.
        let func = parse_function(ir).map_err(|e| format!("parsing `fn`: {e}"))?;
        let alloc = allocator_by_name(alloc_name)
            .ok_or_else(|| format!("unknown allocator `{alloc_name}`"))?;
        let target = self
            .targets
            .resolve(target_name)
            .cloned()
            .map_err(|e| e.to_string())?;
        let key = cache_key(&func, target_name, alloc_name, CheckMode::Always);
        Ok(Parsed::Alloc(Request {
            func,
            alloc,
            target,
            key,
        }))
    }

    /// Serves the entry in `slot`, re-proving it when the sampling cadence
    /// says so. Returns `None` when the slot is empty.
    fn try_hit(&mut self, slot: usize) -> Option<String> {
        let entry = self.cache.get(slot)?;
        self.metrics.bump(Counter::CacheHits);
        self.hits += 1;
        let rate = self.config.sample_rate;
        let recheck = rate > 0 && self.hits.is_multiple_of(rate);
        if recheck {
            self.metrics.bump(Counter::CacheHitChecks);
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
                if let Some(dead) = self.cache.remove(slot) {
                    dead.out.recycle(scratch);
                }
                self.metrics.bump(Counter::ServeErrors);
                return Some(error_response(&format!(
                    "cached allocation failed re-validation (entry dropped): {e}"
                )));
            }
        }
        let entry = self.cache.get_mut(slot)?;
        entry.last_used = self.tick;
        Some(entry.response(true, recheck))
    }

    /// Caches a freshly proven allocation under `key` with `line` as its
    /// line, evicting the least-recently-used entry when the cache is at
    /// capacity, and returns the miss response.
    fn insert(&mut self, key: String, line: &str, out: AllocOutput, target: TargetDesc) -> String {
        let mach = out.mach.to_string();
        let entry = CacheEntry {
            head: format!(
                "{{\"ok\":true,\"key\":\"{:016x}\",\"cached\":",
                key_hash(&key)
            ),
            tail: format!(
                ",\"fingerprint\":\"{:016x}\",\"stats\":{},\"mach\":\"{}\"}}",
                fnv1a(&mach),
                stats_json(&out.stats),
                escape(&mach),
            ),
            key: Rc::from(key),
            line: Rc::from(line),
            last_used: self.tick,
            out,
            target,
        };
        let response = entry.response(false, true);
        if self.config.cache_cap > 0 && self.cache.len() >= self.config.cache_cap {
            if let Some(dead) = self.cache.lru().and_then(|slot| self.cache.remove(slot)) {
                dead.out.recycle(&mut self.session.scratch);
                self.metrics.bump(Counter::CacheEvictions);
            }
        }
        self.cache.insert(entry);
        self.metrics.bump(Counter::CacheInsertions);
        response
    }

    /// Handles one streamed request line serially.
    pub fn handle_line(&mut self, line: &str) -> ServeOutcome {
        self.tick += 1;
        self.metrics.bump(Counter::ServeRequests);
        self.guarded(|s| s.answer(line))
    }

    /// Runs one request's work, answering a panic in it with an
    /// `internal error` response instead of ending the session.
    fn guarded(&mut self, work: impl FnOnce(&mut Self) -> ServeOutcome) -> ServeOutcome {
        // Unwind safety: a request changes the cache and the line index
        // only after its allocation, check and response have succeeded,
        // so a panic leaves both as they were. The allocation session's
        // pools may be half-updated, so it is replaced below.
        let payload = match catch_unwind(AssertUnwindSafe(|| work(self))) {
            Ok(outcome) => return outcome,
            Err(payload) => payload,
        };
        self.session = checked_session();
        self.metrics.bump(Counter::ServeErrors);
        self.metrics.bump(Counter::ServePanics);
        let what = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("a panic with no message");
        ServeOutcome::reply(error_response(&format!("internal error: {what}")))
    }

    /// Answers one line: through the line index when the session has
    /// answered it before, else through the parser and the canonical key.
    fn answer(&mut self, line: &str) -> ServeOutcome {
        if let Some(&slot) = self.cache.by_line.get(line) {
            if let Some(response) = self.try_hit(slot) {
                return ServeOutcome::reply(response);
            }
        }
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
                return ServeOutcome::reply(error_response(&e));
            }
        };
        if let Some(&slot) = self.cache.by_key.get(req.key.as_str()) {
            if let Some(response) = self.try_hit(slot) {
                self.cache.set_line(slot, line);
                return ServeOutcome::reply(response);
            }
        }
        self.metrics.bump(Counter::CacheMisses);
        let out = req
            .alloc
            .allocate(&req.func, &req.target, &mut self.session);
        self.session.scratch.metrics.drain_into(&mut self.metrics);
        ServeOutcome::reply(match out {
            Ok(out) => self.insert(req.key, line, out, req.target),
            Err(e) => {
                self.metrics.bump(Counter::ServeErrors);
                error_response(&e.to_string())
            }
        })
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
) -> Result<String, String> {
    let mut out = String::new();
    for (name, text) in files {
        let funcs = parse_functions(text).map_err(|e| format!("{name}: {e}"))?;
        for f in funcs {
            out.push_str(&request_line(&f.to_string(), target, allocator));
            out.push('\n');
        }
    }
    Ok(out)
}

/// Builds one serve request line for an IR text (helper for tests and
/// request generators).
pub fn request_line(ir: &str, target: &str, allocator: &str) -> String {
    JsonObject::new()
        .str("fn", ir)
        .str("target", target)
        .str("allocator", allocator)
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
        let line = request_line(SMALL, "ia64-24", "full");
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
        // Valid IR, so these reach allocator and target resolution.
        let bad_allocator = request_line(SMALL, "ia64-24", "nope");
        let bad_target = request_line(SMALL, "nope", "full");
        // Parses, but branches to a block that does not exist: the verify
        // inside `parse_function` is the only one on the request path.
        let jump_b7 = "fn f() {\nb0:\n    jump b7\n}";
        let unverifiable = request_line(jump_b7, "ia64-24", "full");
        let deep = format!("{{\"fn\":{} }}", "[".repeat(100_000));
        for (bad, names) in [
            ("not json", "at byte 0"),
            ("{\"target\":\"ia64-24\"}", "missing string field `fn`"),
            ("{\"fn\":\"fn broken(\"}", "parsing `fn`"),
            (&*bad_allocator, "unknown allocator `nope`"),
            (&*bad_target, "unknown target `nope`"),
            ("{\"fn\":\"x\",\"check\":\"on\"}", "request field `check`"),
            ("{\"op\":\"restart\"}", "unknown op `restart`"),
            ("{\"op\":\"shutdown\",\"fn\":\"x\"}", "request field `fn`"),
            (&*deep, "nesting deeper"),
            (&*unverifiable, "out-of-range"),
        ] {
            let out = s.handle_line(bad);
            assert!(!out.shutdown);
            let json = Json::parse(&out.response).unwrap();
            assert_eq!(field(&json, "ok").as_bool(), Some(false), "for input {bad:.60}");
            let error = field(&json, "error").as_str().unwrap();
            assert!(error.contains(names), "`{error}` does not name `{names}`");
        }
        assert_eq!(s.metrics().get(Counter::ServeErrors), 10);
        assert_eq!(s.metrics().get(Counter::CacheMisses), 0);
    }

    #[test]
    fn shutdown_op_stops_a_streaming_session() {
        let mut s = session();
        let input = format!(
            "{}\n{{\"op\":\"shutdown\"}}\n{}\n",
            request_line(SMALL, "ia64-24", "full"),
            request_line(OTHER, "ia64-24", "full"),
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
        let a = request_line(SMALL, "ia64-24", "full");
        let b = request_line(OTHER, "ia64-24", "full");
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
        let line = request_line(SMALL, "ia64-24", "full");
        s.handle_line(&line); // miss
        let h1 = Json::parse(&s.handle_line(&line).response).unwrap(); // hit 1: not sampled
        let h2 = Json::parse(&s.handle_line(&line).response).unwrap(); // hit 2: sampled
        assert_eq!(field(&h1, "checked").as_bool(), Some(false));
        assert_eq!(field(&h2, "checked").as_bool(), Some(true));
        assert_eq!(s.metrics().get(Counter::CacheHitChecks), 1);
    }

    #[test]
    fn a_line_hit_and_a_canonical_hit_render_the_same_bytes() {
        let line = request_line(SMALL, "ia64-24", "full");
        let respelled = line.replacen("{\"fn\":", "{ \"fn\":", 1);
        // Rate 1 re-checks the hit and rate 0 never does: both flags.
        for sample_rate in [0, 1] {
            let config = ServeConfig {
                sample_rate,
                ..ServeConfig::default()
            };
            let mut by_line = ServeSession::new(config.clone());
            let mut by_key = ServeSession::new(config);
            let miss = by_line.handle_line(&line).response;
            assert_eq!(miss, by_key.handle_line(&line).response);
            let hit = by_line.handle_line(&line).response;
            assert!(hit.contains("\"cached\":true"), "{hit:.80}");
            assert_eq!(hit, by_key.handle_line(&respelled).response);
        }
    }

    #[test]
    fn a_respelled_request_hits_through_the_key_and_becomes_the_line() {
        let mut s = session();
        let line = request_line(SMALL, "ia64-24", "full");
        let spaced = line.replacen("{\"fn\":", "{ \"fn\":", 1);
        let reordered = JsonObject::new()
            .str("allocator", "full")
            .str("target", "ia64-24")
            .str("fn", SMALL)
            .finish();
        s.handle_line(&line);
        for spelling in [&spaced, &reordered, &line] {
            let r = Json::parse(&s.handle_line(spelling).response).unwrap();
            assert_eq!(field(&r, "cached").as_bool(), Some(true), "{spelling}");
            assert_eq!(s.cache.by_line.len(), 1);
            assert!(s.cache.by_line.contains_key(spelling.as_str()));
        }
        assert_eq!(s.metrics().get(Counter::CacheHits), 3);
        assert_eq!(s.metrics().get(Counter::CacheMisses), 1);
    }

    #[test]
    fn eviction_and_a_failed_recheck_take_the_line_out_of_the_index() {
        let a = request_line(SMALL, "ia64-24", "full");
        let b = request_line(OTHER, "ia64-24", "full");

        let mut s = ServeSession::new(ServeConfig {
            cache_cap: 1,
            ..ServeConfig::default()
        });
        s.handle_line(&a);
        s.handle_line(&b); // evicts a
        assert!(!s.cache.by_line.contains_key(a.as_str()));
        assert_eq!(s.cache.by_line.len(), 1);
        let again = Json::parse(&s.handle_line(&a).response).unwrap();
        assert_eq!(field(&again, "cached").as_bool(), Some(false));

        let mut s = ServeSession::new(ServeConfig {
            sample_rate: 1,
            ..ServeConfig::default()
        });
        s.handle_line(&a);
        let slot = s.cache.by_line[a.as_str()];
        let entry = s.cache.get_mut(slot).unwrap();
        entry.out.mach.blocks[0].clear();
        let dropped = Json::parse(&s.handle_line(&a).response).unwrap();
        assert_eq!(field(&dropped, "ok").as_bool(), Some(false));
        let error = field(&dropped, "error").as_str().unwrap();
        assert!(error.contains("failed re-validation"), "{error}");
        assert_eq!(s.cache_len(), 0);
        assert!(s.cache.by_line.is_empty());
        let again = Json::parse(&s.handle_line(&a).response).unwrap();
        assert_eq!(field(&again, "cached").as_bool(), Some(false));
        assert_eq!(s.metrics().get(Counter::CacheMisses), 2);
    }

    #[test]
    fn ten_thousand_spellings_leave_the_index_no_larger_than_the_cache() {
        let mut s = session();
        let line = request_line(SMALL, "ia64-24", "full");
        let body = line
            .strip_prefix("{\"fn\":")
            .unwrap()
            .strip_suffix('}')
            .unwrap();
        // One to four decimal digits of `n`, spelled as spaces around the
        // `fn` member: 10,000 distinct lines, one request.
        for n in 0..10_000 {
            let pad = |digit: u32| " ".repeat(n / 10usize.pow(digit) % 10);
            let spelling = format!("{{{}\"fn\"{}:{}{body}{}}}", pad(0), pad(1), pad(2), pad(3));
            let r = Json::parse(&s.handle_line(&spelling).response).unwrap();
            assert_eq!(field(&r, "ok").as_bool(), Some(true), "{spelling}");
            assert!(s.cache.by_line.len() <= s.cache_len());
        }
        assert_eq!(s.cache_len(), 1);
        assert_eq!(s.metrics().get(Counter::CacheHits), 9_999);
    }

    #[test]
    fn rejected_lines_never_enter_the_index() {
        let mut s = session();
        let unknown_allocator = request_line(SMALL, "ia64-24", "nope");
        let good = request_line(SMALL, "ia64-24", "full");
        // A request field serve does not read is an error, not ignored.
        let with_check = format!("{},\"check\":\"always\"}}", &good[..good.len() - 1]);
        let broken = "{\"fn\":\"fn broken(\"}";
        for bad in ["not json", broken, &unknown_allocator, &with_check] {
            for _ in 0..2 {
                let r = Json::parse(&s.handle_line(bad).response).unwrap();
                assert_eq!(field(&r, "ok").as_bool(), Some(false), "{bad}");
            }
        }
        assert!(s.cache.by_line.is_empty());
        assert_eq!(s.metrics().get(Counter::ServeErrors), 8);
        // The session serves the next line.
        let r = Json::parse(&s.handle_line(&good).response).unwrap();
        assert_eq!(field(&r, "ok").as_bool(), Some(true));
        assert_eq!(s.cache.by_line.len(), 1);
    }

    #[test]
    fn the_fingerprint_hashes_the_cached_machine_code_on_every_serving_target() {
        // figure7 cannot allocate the generated suite.
        for target in TargetRegistry::builtin()
            .iter()
            .filter(|t| t.name != "figure7")
        {
            let profile = pdgc_workloads::specjvm_suite()[0].for_target(target);
            let func = pdgc_workloads::generate(&profile).funcs.swap_remove(0);
            let line = request_line(&func.to_string(), &target.name, "full");
            let mut s = session();
            let r = Json::parse(&s.handle_line(&line).response).unwrap();
            let entry = s.cache.get(s.cache.by_line[line.as_str()]).unwrap();
            assert_eq!(
                field(&r, "fingerprint").as_str(),
                Some(format!("{:016x}", crate::fingerprint_mach(&entry.out.mach)).as_str()),
                "{}",
                target.name
            );
        }
    }

    #[test]
    fn a_panicking_request_is_an_error_response_and_the_session_serves_on() {
        let mut s = session();
        let line = request_line(SMALL, "ia64-24", "full");
        s.handle_line(&line);
        assert!(s.session.scratch.costs.pooled() > 0);
        let out = s.guarded(|_| panic!("boom"));
        // The allocation session the panic may have left half-updated is
        // replaced: its pools start empty.
        assert_eq!(s.session.scratch.costs.pooled(), 0);
        assert!(!out.shutdown);
        let r = Json::parse(&out.response).unwrap();
        assert_eq!(field(&r, "ok").as_bool(), Some(false));
        assert_eq!(field(&r, "error").as_str(), Some("internal error: boom"));
        assert_eq!(s.metrics().get(Counter::ServePanics), 1);
        assert_eq!(s.metrics().get(Counter::ServeErrors), 1);
        // The cache survived, and a miss allocates in the fresh session.
        let hit = Json::parse(&s.handle_line(&line).response).unwrap();
        assert_eq!(field(&hit, "cached").as_bool(), Some(true));
        let other = request_line(OTHER, "ia64-24", "full");
        let miss = Json::parse(&s.handle_line(&other).response).unwrap();
        assert_eq!(field(&miss, "ok").as_bool(), Some(true));
        assert_eq!(s.metrics().get(Counter::ServePanics), 1);
        // A formatted message travels too.
        let out = s.guarded(|_| panic!("blocked (K={})", 3));
        assert!(out.response.contains("internal error: blocked (K=3)"));
        assert_eq!(s.metrics().get(Counter::ServePanics), 2);
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
        let text = corpus_requests(&files, "ia64-24", "full").unwrap();
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
        let request = request_line(SMALL, "ia64-24", "full");
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
