//! Differential and hardening properties for the `pdgc serve` cache.
//!
//! * **Hit/fresh bit-identity** — a cached response must carry exactly
//!   the machine code, fingerprint, and scorecard a fresh checked
//!   allocation produces for the same function, on every
//!   builtin target that can allocate generated workloads, under
//!   `CheckMode::Always` so the checker countersigns both sides.
//! * **Key canonicalization** — the content-addressed cache key must be
//!   invariant under a print → parse round trip on randomly generated
//!   programs: `key(f) == key(parse(print(f)))`. A regression here
//!   silently splits the cache by builder artifacts.
//! * **Hostile input** — a request nested 100k arrays deep must come
//!   back as an `{"ok":false}` response through the full serve path, not
//!   blow the stack.
//! * **String transport** — any `fn` text, however its multibyte
//!   characters abut escapes, reads back unchanged from a request line.
//!
//! Failing seeds persist to `serve_cache.proptest-regressions` and
//! replay before fresh cases.

use proptest::prelude::*;

use pdgc::obs::json::Json;
use pdgc::prelude::*;
use pdgc::workloads::WorkloadProfile;
use pdgc_bench::serve::{cache_key, request_line, ServeConfig, ServeSession};
use pdgc_bench::{fingerprint_mach, stats_json};

fn profile(seed: u64, ops: usize, loop_depth: u32, call_density: f64) -> WorkloadProfile {
    WorkloadProfile {
        name: "serve-prop".into(),
        seed,
        num_funcs: 2,
        ops_per_func: ops,
        loop_depth,
        call_density,
        float_ratio: 0.3,
        paired_density: 0.3,
        byte_density: 0.15,
        pressure: 9,
        diamond_density: 0.3,
        pair_stride: 8,
        pair_align: 1,
    }
}

fn session() -> ServeSession {
    ServeSession::new(ServeConfig {
        // Never sample hit re-checks here: the point is that the *stored*
        // response is already proven, and sampling would skew no fields.
        sample_rate: 0,
        ..ServeConfig::default()
    })
}

/// Every builtin target that can allocate generated workloads (figure7
/// is the paper's three-register walkthrough machine and cannot).
fn serving_targets() -> Vec<TargetDesc> {
    TargetRegistry::builtin()
        .iter()
        .filter(|t| t.name != "figure7")
        .cloned()
        .collect()
}

/// A cache hit must be byte-identical to a fresh checked allocation: the
/// differential evidence that the cache never serves stale or divergent
/// code. One generated function, every serving target.
#[test]
fn cache_hit_matches_fresh_allocation_on_every_target() {
    let alloc = PreferenceAllocator::full();
    let mut fresh_session = AllocSession {
        check: CheckMode::Always,
        ..AllocSession::default()
    };
    for target in serving_targets() {
        let w = pdgc::workloads::generate(&profile(7, 60, 1, 0.2).for_target(&target));
        let func = &w.funcs[0];
        let mut s = session();
        let line = request_line(&func.to_string(), &target.name, "full");
        let miss = Json::parse(&s.handle_line(&line).response).unwrap();
        let hit = Json::parse(&s.handle_line(&line).response).unwrap();
        assert_eq!(miss["ok"].as_bool(), Some(true), "{}: miss failed", target.name);
        assert_eq!(miss["cached"].as_bool(), Some(false));
        assert_eq!(hit["cached"].as_bool(), Some(true));

        // Fresh allocation outside the daemon, checker on.
        let fresh = alloc
            .allocate(func, &target, &mut fresh_session)
            .unwrap_or_else(|e| panic!("{}: fresh allocation failed: {e}", target.name));

        for (name, response) in [("miss", &miss), ("hit", &hit)] {
            assert_eq!(
                response["mach"].as_str(),
                Some(fresh.mach.to_string().as_str()),
                "{}: served {name} machine code differs from a fresh run",
                target.name
            );
            assert_eq!(
                response["fingerprint"].as_str(),
                Some(format!("{:016x}", fingerprint_mach(&fresh.mach)).as_str()),
                "{}: served {name} fingerprint differs from a fresh run",
                target.name
            );
            // `stats` is embedded raw, so its text is exactly stats_json.
            assert_eq!(
                response["stats"].get("spill_loads"),
                Json::parse(&stats_json(&fresh.stats)).unwrap().get("spill_loads"),
                "{}: served {name} scorecard differs from a fresh run",
                target.name
            );
        }
        fresh.recycle(&mut fresh_session.scratch);
    }
}

/// A deep-nesting request must produce an error *response* through the
/// full serve path — the depth limit in `Json::parse` holding the line —
/// and leave the session serving normally afterwards.
#[test]
fn hostile_nesting_yields_an_error_response_not_a_crash() {
    let mut s = session();
    let hostile = format!("{{\"fn\": {}0{}}}", "[".repeat(100_000), "]".repeat(100_000));
    let out = s.handle_line(&hostile);
    let json = Json::parse(&out.response).unwrap();
    assert_eq!(json["ok"].as_bool(), Some(false));
    assert!(
        json["error"].as_str().unwrap().contains("nesting deeper"),
        "error should name the depth limit: {}",
        out.response
    );
    // The session is still healthy.
    let good = request_line(
        "fn id(v0: int) -> int {\nb0:\n    ret v0\n}\n",
        "ia64-24",
        "full",
    );
    let ok = Json::parse(&s.handle_line(&good).response).unwrap();
    assert_eq!(ok["ok"].as_bool(), Some(true));
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// `key(f) == key(parse(print(f)))`: the cache key must see through
    /// the textual round trip, or resubmitting printed IR would always
    /// miss against entries built from in-memory functions.
    #[test]
    fn cache_key_is_roundtrip_invariant(
        seed in any::<u64>(),
        ops in 8usize..120,
        loop_depth in 0u32..3,
        call_density in 0.0f64..0.5,
    ) {
        let w = pdgc::workloads::generate(&profile(seed, ops, loop_depth, call_density));
        for func in &w.funcs {
            let reparsed = pdgc::ir::parse_function(&func.to_string())
                .map_err(|e| TestCaseError::fail(format!("{}: reparse failed: {e}", func.name)))?;
            prop_assert_eq!(
                cache_key(func, "ia64-24", "full", CheckMode::Always),
                cache_key(&reparsed, "ia64-24", "full", CheckMode::Always),
                "cache key split by print→parse for {}", func.name
            );
            // And a second round trip is already a fixpoint.
            let twice = pdgc::ir::parse_function(&reparsed.to_string()).unwrap();
            prop_assert_eq!(
                cache_key(&reparsed, "x86-16", "chaitin", CheckMode::Off),
                cache_key(&twice, "x86-16", "chaitin", CheckMode::Off),
            );
        }
    }

    /// A request's `fn` string survives the writer and the parser's
    /// run-copying scanner for any mix of 1- to 4-byte UTF-8, quotes,
    /// backslashes and control characters, in any adjacency.
    #[test]
    fn request_fn_string_round_trips(
        cps in proptest::collection::vec(
            prop_oneof![
                0x20u32..0x7f,
                0x80u32..0x800,
                0x800u32..0xd800,
                0xe000u32..0x10000,
                0x10000u32..0x110000,
                Just(u32::from(b'"')),
                Just(u32::from(b'\\')),
                0u32..0x20,
            ],
            0..48,
        ),
    ) {
        let s: String = cps
            .iter()
            .map(|&cp| char::from_u32(cp).expect("generated ranges skip surrogates"))
            .collect();
        let line = request_line(&s, "ia64-24", "full");
        let parsed = Json::parse(&line)
            .map_err(|e| TestCaseError::fail(format!("{line:?}: {e}")))?;
        prop_assert_eq!(parsed["fn"].as_str(), Some(s.as_str()));
    }
}
