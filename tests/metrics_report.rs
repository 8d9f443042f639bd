//! End-to-end tests of the `pdgc report` regression gate: two identical
//! snapshots must report zero regressions and exit 0, and a snapshot
//! with a corrupted counter must fail loudly, naming the offending
//! metric — that failure mode is what the CI `metrics-regression` job
//! relies on.

use std::path::PathBuf;
use std::process::Command;

const PDGC: &str = env!("CARGO_BIN_EXE_pdgc");

/// Runs `pdgc demo` in a fresh scratch directory and returns the
/// metrics snapshot it writes to `results/metrics.json` there.
fn make_snapshot(tag: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("pdgc-report-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(PDGC)
        .arg("demo")
        .current_dir(&dir)
        .output()
        .expect("run pdgc demo");
    assert!(
        out.status.success(),
        "pdgc demo failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = dir.join("results").join("metrics.json");
    let text = std::fs::read_to_string(&path).expect("demo wrote metrics.json");
    (dir, text)
}

fn run_report(baseline: &std::path::Path, current: &std::path::Path) -> std::process::Output {
    Command::new(PDGC)
        .arg("report")
        .arg("--baseline")
        .arg(baseline)
        .arg("--current")
        .arg(current)
        .output()
        .expect("run pdgc report")
}

#[test]
fn identical_snapshots_report_no_regressions() {
    let (dir, text) = make_snapshot("identical");
    let a = dir.join("baseline.json");
    let b = dir.join("current.json");
    std::fs::write(&a, &text).unwrap();
    std::fs::write(&b, &text).unwrap();

    let out = run_report(&a, &b);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "identical snapshots must pass: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("no regressions"),
        "missing success line in: {stdout}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn corrupted_counter_fails_naming_the_metric() {
    let (dir, text) = make_snapshot("corrupt");
    let a = dir.join("baseline.json");
    let b = dir.join("current.json");
    std::fs::write(&a, &text).unwrap();

    // Bump spill_instructions far past its 2% tolerance in the copy.
    let key = "\"spill_instructions\":";
    let at = text.find(key).expect("snapshot has spill_instructions") + key.len();
    let end = at + text[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let corrupted = format!("{}999999{}", &text[..at], &text[end..]);
    assert_ne!(corrupted, text);
    std::fs::write(&b, &corrupted).unwrap();

    let out = run_report(&a, &b);
    assert!(
        !out.status.success(),
        "corrupted snapshot must fail the gate"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("spill_instructions"),
        "error must name the regressed metric, got: {stderr}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn missing_counter_in_current_is_a_regression() {
    let (dir, text) = make_snapshot("missing");
    let a = dir.join("baseline.json");
    let b = dir.join("current.json");
    std::fs::write(&a, &text).unwrap();

    // Rename funcs_allocated away so the gate sees it vanish.
    let gutted = text.replace("\"funcs_allocated\"", "\"funcs_allocated_renamed\"");
    assert_ne!(gutted, text);
    std::fs::write(&b, &gutted).unwrap();

    let out = run_report(&a, &b);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("funcs_allocated"),
        "error must name the missing metric"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// `pdgc allocate` resolves `--allocator` through the same table as
/// `pdgc serve`: every name the daemon accepts allocates from the CLI.
#[test]
fn every_serve_allocator_allocates_through_the_cli() {
    let dir = std::env::temp_dir().join(format!("pdgc-report-{}-names", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/ir/dot2.pdgc");
    for name in pdgc_bench::serve::ALLOCATOR_NAMES {
        let out = Command::new(PDGC)
            .args(["allocate", ir, "--allocator", name])
            .current_dir(&dir)
            .output()
            .expect("run pdgc allocate");
        assert!(
            out.status.success(),
            "pdgc allocate --allocator {name} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stdout).contains("allocator: "));
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// `pdgc run` on input that carries its own spill code, on an 8-register
/// file where the allocator must spill too: it allocates under the
/// checker, executes both sides and exits 1 if their results differ. The
/// `--flag value` and `--flag=value` spellings of every flag run the same
/// allocation.
#[test]
fn a_spill_carrying_input_runs_equivalent_through_the_cli() {
    let dir = std::env::temp_dir().join(format!("pdgc-report-{}-spill", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ir = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/spill_input.pdgc"
    );
    let spaced = ["--target", "tight8", "--check=always", "--args", "4096"];
    let joined = ["--target=tight8", "--check=always", "--args=4096"];
    let mut outputs = Vec::new();
    for flags in [&spaced[..], &joined[..]] {
        let out = Command::new(PDGC)
            .arg("run")
            .arg(ir)
            .args(flags)
            .current_dir(&dir)
            .output()
            .expect("run pdgc run");
        assert!(
            out.status.success(),
            "pdgc run {flags:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            stdout.contains("(equivalence verified)"),
            "{flags:?}: {stdout}"
        );
        outputs.push(stdout);
    }
    assert_eq!(
        outputs[0], outputs[1],
        "the two flag spellings allocated differently"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// Only `bench batch` takes `--jobs`; every other subcommand rejects it
/// by name instead of silently ignoring it.
#[test]
fn jobs_is_rejected_outside_bench_batch() {
    for args in [
        &["serve", "--jobs", "2"][..],
        &["serve", "--jobs=2"][..],
        &["demo", "--jobs", "2"][..],
    ] {
        let out = Command::new(PDGC)
            .args(args)
            .stdin(std::process::Stdio::null())
            .output()
            .expect("run pdgc");
        assert!(!out.status.success(), "pdgc {args:?} was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--jobs") && err.contains("only taken by `pdgc bench batch`"),
            "pdgc {args:?}: unexpected error: {err}"
        );
    }
}
