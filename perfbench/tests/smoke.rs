//! Self-tests of the benchmark: every metric `BENCHMARK.json` names is
//! emitted with its unit, and the inputs are what the seed says.

use pdgc_obs::json::Json;
use pdgc_perfbench::{generate_all, suite_profiles, target, Inputs, Workload};
use std::process::Command;

fn declared(section: &str) -> Vec<(String, String)> {
    let path = pdgc_perfbench::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json[section]
        .as_arr()
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m[k].as_str().expect("string field").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

/// Runs `exe` on `workload` at tiny size and returns its result line.
fn smoke(exe: &str, workload: &str) -> Json {
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", "0", "--smoke"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{exe} {workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

fn assert_emits(result: &Json, metrics: &[(String, String)], what: &str) {
    assert_eq!(result["correct"].as_bool(), Some(true), "{what}");
    assert_eq!(result["failed"].as_u64(), Some(0), "{what}");
    assert!(result["attempted"].as_u64() >= Some(1), "{what}");
    let got = result["metrics"].fields().expect("metrics object");
    assert_eq!(got.len(), metrics.len(), "{what}: metric count");
    for (name, unit) in metrics {
        let m = &result["metrics"][name.as_str()];
        assert!(m["value"].as_f64().is_some(), "{what}: {name} has no value");
        assert_eq!(
            m["unit"].as_str(),
            Some(unit.as_str()),
            "{what}: {name} unit"
        );
    }
}

#[test]
fn smoke_runs_emit_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in Workload::ALL {
        let perf = smoke(env!("CARGO_BIN_EXE_perf"), w.name());
        assert_emits(&perf, &end_to_end, &format!("perf {}", w.name()));
        let trace = smoke(env!("CARGO_BIN_EXE_trace"), w.name());
        assert_emits(&trace, &per_layer, &format!("trace {}", w.name()));
    }
}

#[test]
fn seed_zero_is_the_committed_suite_and_seed_one_is_not() {
    let target = target();
    let committed: Vec<String> = pdgc_workloads::specjvm_suite()
        .iter()
        .flat_map(|p| pdgc_workloads::generate(&p.for_target(&target)).funcs)
        .map(|f| f.to_string())
        .collect();
    let print = |seed| -> Vec<String> {
        generate_all(&suite_profiles(seed))
            .iter()
            .map(|f| f.to_string())
            .collect()
    };
    assert_eq!(print(0), committed);
    let one = print(1);
    assert_eq!(one.len(), committed.len());
    assert!(one.iter().zip(&committed).all(|(a, b)| a != b));
}

#[test]
fn zipf_stream_is_deterministic_in_the_seed() {
    let ids = |seed| {
        let inputs = Inputs::generate(Workload::ServeMix, seed, true);
        let mut stream = inputs.stream();
        (0..2000).map(|_| stream.next_id()).collect::<Vec<_>>()
    };
    let a = ids(5);
    assert_eq!(a, ids(5));
    assert_ne!(a, ids(6));
    // Zipf(1): the most popular request is drawn far more often than the
    // average one.
    let mut counts = vec![0usize; a.iter().max().unwrap() + 1];
    for &id in &a {
        counts[id] += 1;
    }
    let top = *counts.iter().max().unwrap();
    assert!(top * counts.len() > 4 * a.len(), "top {top} of {}", a.len());
}
