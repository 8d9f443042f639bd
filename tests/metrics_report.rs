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

/// `text` with counter `key` set to `value`, and the value it replaced.
fn with_counter(text: &str, key: &str, value: u64) -> (u64, String) {
    let quoted = format!("\"{key}\":");
    let at = text.find(&quoted).expect("snapshot has the counter") + quoted.len();
    let end = at + text[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let was = text[at..end].parse().unwrap();
    (was, format!("{}{value}{}", &text[..at], &text[end..]))
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
    let (_, corrupted) = with_counter(&text, "spill_instructions", 999999);
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

/// A gated counter that reads zero where the baseline counted has stopped
/// counting: `pdgc report` fails it whatever its direction, here a
/// higher-is-worse work counter, which a plain tolerance check would pass.
#[test]
fn zeroed_work_counter_fails_naming_the_metric() {
    let (dir, text) = make_snapshot("zeroed");
    let a = dir.join("baseline.json");
    let b = dir.join("current.json");
    std::fs::write(&a, &text).unwrap();

    let (was, zeroed) = with_counter(&text, "cpg_edges", 0);
    assert_ne!(was, 0, "the demo must build CPG edges");
    std::fs::write(&b, &zeroed).unwrap();

    let out = run_report(&a, &b);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("cpg_edges ") && l.ends_with("REGRESSION (stopped counting)")),
        "no stopped-counting row for cpg_edges in: {stdout}"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cpg_edges"),
        "error must name the zeroed metric"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// The report's table is the gated counters, each with its direction and
/// tolerance, in declaration order.
#[test]
fn report_table_lists_every_gated_counter_with_its_gate() {
    const GATED: [(&str, &str, u32); 30] = [
        ("funcs_allocated", "exact", 0),
        ("rounds_total", "higher-is-worse", 2),
        ("moves_eliminated", "lower-is-worse", 2),
        ("copies_remaining", "higher-is-worse", 2),
        ("spill_loads", "higher-is-worse", 2),
        ("spill_stores", "higher-is-worse", 2),
        ("spill_instructions", "higher-is-worse", 2),
        ("caller_save_insts", "higher-is-worse", 5),
        ("paired_loads_fused", "lower-is-worse", 2),
        ("zero_extensions", "higher-is-worse", 5),
        ("build_ifg_edges", "higher-is-worse", 0),
        ("build_row_words", "higher-is-worse", 0),
        ("build_nodes", "higher-is-worse", 0),
        ("build_matrix_words", "higher-is-worse", 0),
        ("rpg_prefs", "higher-is-worse", 0),
        ("simplify_worklist_pops", "higher-is-worse", 0),
        ("simplify_spill_pops", "higher-is-worse", 0),
        ("cpg_edges", "higher-is-worse", 0),
        ("select_frontier_scanned", "higher-is-worse", 0),
        ("select_diff_recomputes", "higher-is-worse", 0),
        ("select_heap_pops", "higher-is-worse", 0),
        ("pref_coalesce_honored", "lower-is-worse", 5),
        ("pref_seq_plus_honored", "lower-is-worse", 5),
        ("pref_seq_minus_honored", "lower-is-worse", 5),
        ("pref_prefers_honored", "lower-is-worse", 5),
        ("check_violations", "higher-is-worse", 0),
        ("spl_analyses_fast", "lower-is-worse", 0),
        ("spl_analyses_fallback", "higher-is-worse", 0),
        ("spl_regions", "exact", 0),
        ("spl_loop_regions", "exact", 0),
    ];
    let (dir, text) = make_snapshot("table");
    let a = dir.join("baseline.json");
    std::fs::write(&a, &text).unwrap();
    let out = run_report(&a, &a);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Rows run from the header to the first blank line:
    // name, baseline, current, tolerance, direction, verdict.
    let rows: Vec<(String, String, u32)> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("metric "))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.get(5), Some(&"ok"), "row {l}");
            (f[0].to_string(), f[4].to_string(), f[3].parse().unwrap())
        })
        .collect();
    let expected: Vec<(String, String, u32)> = GATED
        .iter()
        .map(|&(n, d, t)| (n.to_string(), d.to_string(), t))
        .collect();
    assert_eq!(rows, expected);
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

/// Only `bench batch` takes `--jobs`, `--repeat` and `--min-speedup`;
/// every other subcommand rejects each by name instead of silently
/// ignoring it.
#[test]
fn jobs_is_rejected_outside_bench_batch() {
    for (flag, args) in [
        ("--jobs", &["serve", "--jobs", "2"][..]),
        ("--jobs", &["serve", "--jobs=2"][..]),
        ("--jobs", &["demo", "--jobs", "2"][..]),
        ("--repeat", &["serve", "--repeat", "2"][..]),
        ("--repeat", &["demo", "--repeat=2"][..]),
        ("--min-speedup", &["serve", "--min-speedup", "1.5"][..]),
        (
            "--min-speedup",
            &["corpus", "corpus", "--min-speedup=1.5"][..],
        ),
    ] {
        let out = Command::new(PDGC)
            .args(args)
            .stdin(std::process::Stdio::null())
            .output()
            .expect("run pdgc");
        assert!(!out.status.success(), "pdgc {args:?} was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("{flag} is only taken by `pdgc bench batch`")),
            "pdgc {args:?}: unexpected error: {err}"
        );
    }
}

/// A function that cannot be allocated fails `pdgc bench batch` with an
/// error line naming it and exit code 1, not a panic: on figure7's two
/// argument registers, the suite's first function (three int arguments)
/// does not lower.
#[test]
fn batch_reports_a_failed_allocation_instead_of_panicking() {
    let dir = std::env::temp_dir().join(format!("pdgc-report-{}-batch", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(PDGC)
        .args(["bench", "batch", "--target", "figure7", "--jobs", "2"])
        .current_dir(&dir)
        .output()
        .expect("run pdgc bench batch");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(
        err.lines()
            .any(|l| l.starts_with("error: ") && l.contains("compress_0")),
        "no error line naming compress_0 in: {err}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// Each command line of `pdgc --help`'s USAGE block but `report`'s and
/// `--help`'s: the command's words, its `<FILE>` or `<DIR>` if it takes
/// one, and the flags it lists.
fn usage_commands() -> Vec<(Vec<String>, Option<String>, Vec<String>)> {
    let out = Command::new(PDGC)
        .arg("--help")
        .output()
        .expect("run pdgc --help");
    let help = String::from_utf8(out.stdout).unwrap();
    let block = help.split("USAGE:\n").nth(1).expect("a USAGE block");
    let mut commands: Vec<(Vec<String>, Option<String>, Vec<String>)> = Vec::new();
    for line in block.split("\n\n").next().unwrap().lines().map(str::trim) {
        let words = line.split_whitespace().map(|w| w.trim_start_matches('['));
        if line.starts_with("pdgc ") {
            let name = words.clone().skip(1);
            commands.push((
                name.take_while(|w| w.starts_with(|c: char| c.is_ascii_lowercase()))
                    .map(String::from)
                    .collect(),
                words.clone().find(|w| w.starts_with('<')).map(String::from),
                Vec::new(),
            ));
        }
        let flags = words.filter(|w| w.starts_with("--")).map(|w| {
            w.chars()
                .take_while(|&c| c == '-' || c.is_ascii_alphanumeric())
                .collect()
        });
        commands
            .last_mut()
            .expect("a command line first")
            .2
            .extend(flags);
    }
    commands.retain(|(name, ..)| !name.is_empty() && name != &["report"]);
    commands
}

/// Every command takes only the flags its USAGE line lists: each other
/// flag, as `--flag v` and as `--flag=v`, exits 1 naming the flag and the
/// commands that take it, and a file given to a command without `<FILE>`
/// or `<DIR>` exits 1 too.
#[test]
fn every_flag_outside_a_commands_usage_line_is_rejected() {
    let commands = usage_commands();
    let mut every_flag: Vec<&str> = commands
        .iter()
        .flat_map(|(_, _, flags)| flags.iter().map(String::as_str))
        .collect();
    every_flag.sort_unstable();
    every_flag.dedup();
    assert_eq!(every_flag.len(), 14, "{every_flag:?}");
    let dir = std::env::temp_dir().join(format!("pdgc-report-{}-flags", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let pdgc = |args: &[String]| {
        Command::new(PDGC)
            .args(args)
            .current_dir(&dir)
            .stdin(std::process::Stdio::null())
            .output()
            .expect("run pdgc")
    };
    for (name, positional, flags) in &commands {
        let mut base = name.clone();
        match positional.as_deref() {
            Some("<FILE>") => base.push(root.join("examples/ir/dot2.pdgc").display().to_string()),
            Some(_) => base.push(root.join("corpus").display().to_string()),
            None => {
                let out = pdgc(&[base.clone(), vec!["extra.pdgc".into()]].concat());
                let err = String::from_utf8_lossy(&out.stderr);
                assert_eq!(
                    out.status.code(),
                    Some(1),
                    "pdgc {name:?} took a file: {err}"
                );
                assert!(err.contains("takes no file"), "pdgc {name:?}: {err}");
            }
        }
        for flag in every_flag.iter().filter(|f| !flags.iter().any(|g| g == *f)) {
            let takers: Vec<String> = commands
                .iter()
                .filter(|(_, _, flags)| flags.iter().any(|g| g == flag))
                .map(|(name, ..)| format!("`pdgc {}`", name.join(" ")))
                .collect();
            let expected = format!("{flag} is only taken by {}", takers.join(", "));
            for spelling in [
                vec![flag.to_string(), "1".into()],
                vec![format!("{flag}=1")],
            ] {
                let args = [base.clone(), spelling].concat();
                let out = pdgc(&args);
                let err = String::from_utf8_lossy(&out.stderr);
                assert_eq!(
                    out.status.code(),
                    Some(1),
                    "pdgc {args:?} was accepted: {err}"
                );
                assert!(err.contains(&expected), "pdgc {args:?}: {err}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// `pdgc corpus --allocator NAME` compares only that allocator's rows of
/// the committed baseline, and refuses `--write-baseline`, which would
/// replace every allocator's rows with its own, before running anything.
#[test]
fn corpus_with_one_allocator_compares_and_keeps_only_its_rows() {
    let dir = std::env::temp_dir().join(format!("pdgc-report-{}-corpus", std::process::id()));
    let copy = dir.join("corpus");
    std::fs::create_dir_all(&copy).unwrap();
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    for entry in std::fs::read_dir(&corpus).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, copy.join(path.file_name().unwrap())).unwrap();
    }
    let pdgc = |extra: &[&str]| {
        Command::new(PDGC)
            .arg("corpus")
            .arg(&copy)
            .args(["--allocator", "full"])
            .args(extra)
            .current_dir(&dir)
            .output()
            .expect("run pdgc corpus")
    };
    let out = pdgc(&[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("baseline match: all 26 entries"),
        "{stdout}"
    );

    let baseline = copy.join("baseline.json");
    let before = std::fs::read(&baseline).unwrap();
    let out = pdgc(&["--write-baseline"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("--write-baseline"), "{err}");
    assert_eq!(std::fs::read(&baseline).unwrap(), before);
    let _ = std::fs::remove_dir_all(dir);
}
