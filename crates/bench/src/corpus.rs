//! The `.pdgc` corpus runner.
//!
//! A corpus is a directory of `*.pdgc` files, each holding one or more
//! functions in the IR's textual form. The runner parses every file,
//! verifies each function, allocates it with each requested allocator
//! (optionally under the symbolic checker), and certifies the text
//! round-trip contract at both levels:
//!
//! * IR: `parse(print(f))` is structurally equal to
//!   `f.with_canonical_callees()` and `print(parse(print(f))) ==
//!   print(f)`;
//! * machine code: `parse_mach_function(print(m)) == m`, same fixpoint.
//!
//! Per-(file, function, allocator) result rows carry the spill/copy/pair
//! counts and a fingerprint of the rewritten code, and can be compared
//! exactly against a committed JSON baseline so any allocation drift
//! shows up as a named regression.

use crate::fingerprint_mach;
use pdgc_core::{AllocSession, CheckMode, RegisterAllocator};
use pdgc_ir::{parse_function, parse_functions, Function};
use pdgc_obs::json::{array, Json, JsonObject};
use pdgc_obs::MetricsRegistry;
use pdgc_target::{parse_mach_function, TargetDesc};
use std::path::{Path, PathBuf};

/// One (file, function, allocator) allocation result.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CorpusRow {
    /// Corpus file name (no directory).
    pub file: String,
    /// Function name.
    pub func: String,
    /// Allocator name.
    pub allocator: String,
    /// Spill instructions inserted.
    pub spills: u64,
    /// Register-to-register copies remaining after coalescing.
    pub copies: u64,
    /// Paired loads formed.
    pub paired: u64,
    /// [`fingerprint_mach`] of the rewritten code, in hex.
    pub fingerprint: String,
}

impl CorpusRow {
    fn key(&self) -> (&str, &str, &str) {
        (&self.file, &self.func, &self.allocator)
    }
}

/// Everything one corpus run produced.
#[derive(Clone, Default, Debug)]
pub struct CorpusReport {
    /// Number of functions parsed across all files.
    pub funcs: usize,
    /// Per-(file, function, allocator) results, in run order.
    pub rows: Vec<CorpusRow>,
    /// Human-readable failures: parse errors, verifier rejections,
    /// allocation/check errors, round-trip mismatches.
    pub failures: Vec<String>,
}

/// Loads every `*.pdgc` file under `dir`, sorted by name for
/// deterministic run order. Returns `(file_name, contents)` pairs.
///
/// # Errors
///
/// Propagates filesystem errors; an empty or missing directory is an
/// error too (an empty corpus run would vacuously "pass").
pub fn load_corpus_dir(dir: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "pdgc"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no .pdgc files in {}", dir.display()),
        ));
    }
    paths
        .into_iter()
        .map(|p| {
            let name = p
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            std::fs::read_to_string(&p).map(|text| (name, text))
        })
        .collect()
}

/// Certifies the IR-level round-trip contract for one function. Returns
/// a description of the first violation, if any.
pub fn check_ir_roundtrip(f: &Function) -> Result<(), String> {
    let printed = f.to_string();
    let reparsed = parse_function(&printed).map_err(|e| format!("reparse failed: {e}"))?;
    if reparsed != f.with_canonical_callees() {
        return Err("parse(print(f)) != f.with_canonical_callees()".to_string());
    }
    if reparsed.to_string() != printed {
        return Err("print(parse(print(f))) != print(f)".to_string());
    }
    Ok(())
}

/// Certifies the machine-code round-trip contract for one allocated
/// function. Returns a description of the first violation, if any.
pub fn check_mach_roundtrip(m: &pdgc_target::MachFunction) -> Result<(), String> {
    let printed = m.to_string();
    let reparsed = parse_mach_function(&printed).map_err(|e| format!("mach reparse failed: {e}"))?;
    if &reparsed != m {
        return Err("parse(print(m)) != m".to_string());
    }
    if reparsed.to_string() != printed {
        return Err("print(parse(print(m))) != print(m)".to_string());
    }
    Ok(())
}

/// Runs the corpus: parse (which verifies), round-trip, allocate with
/// every allocator under `check`, round-trip the rewritten code, and fold the
/// allocator's always-on metrics into `metrics`.
///
/// Failures never abort the run — they accumulate in
/// [`CorpusReport::failures`] so one bad function reports once and the
/// rest of the corpus still runs.
pub fn run_corpus(
    files: &[(String, String)],
    allocators: &[Box<dyn RegisterAllocator>],
    target: &TargetDesc,
    check: CheckMode,
    metrics: &mut MetricsRegistry,
) -> CorpusReport {
    let mut report = CorpusReport::default();
    let mut session = AllocSession {
        check,
        ..AllocSession::default()
    };
    for (file, text) in files {
        let funcs = match parse_functions(text) {
            Ok(fs) => fs,
            Err(e) => {
                report.failures.push(format!("{file}: {e}"));
                continue;
            }
        };
        for func in &funcs {
            report.funcs += 1;
            let tag = format!("{file}::{}", func.name);
            if let Err(e) = check_ir_roundtrip(func) {
                report.failures.push(format!("{tag}: ir round-trip: {e}"));
                continue;
            }
            for alloc in allocators {
                let out = match alloc.allocate(func, target, &mut session) {
                    Ok(out) => out,
                    Err(e) => {
                        report
                            .failures
                            .push(format!("{tag} [{}]: {e}", alloc.name()));
                        continue;
                    }
                };
                session.scratch.metrics.drain_into(metrics);
                if let Err(e) = check_mach_roundtrip(&out.mach) {
                    report
                        .failures
                        .push(format!("{tag} [{}]: mach round-trip: {e}", alloc.name()));
                    continue;
                }
                report.rows.push(CorpusRow {
                    file: file.clone(),
                    func: func.name.clone(),
                    allocator: alloc.name().to_string(),
                    spills: out.stats.spill_instructions as u64,
                    copies: out.stats.copies_remaining as u64,
                    paired: out.stats.paired_loads as u64,
                    fingerprint: format!("{:016x}", fingerprint_mach(&out.mach)),
                });
            }
        }
    }
    report
}

/// Renders rows as the committed baseline JSON:
/// `{"target": ..., "entries": [...]}`.
pub fn baseline_json(target: &str, rows: &[CorpusRow]) -> String {
    let entries = rows.iter().map(|r| {
        JsonObject::new()
            .str("file", &r.file)
            .str("func", &r.func)
            .str("allocator", &r.allocator)
            .u64("spills", r.spills)
            .u64("copies", r.copies)
            .u64("paired", r.paired)
            .str("fingerprint", &r.fingerprint)
            .finish()
    });
    JsonObject::new()
        .str("target", target)
        .raw("entries", &array(entries))
        .finish()
}

/// Parses a baseline produced by [`baseline_json`].
///
/// # Errors
///
/// Returns a message on malformed JSON or a missing field.
pub fn parse_baseline(text: &str) -> Result<(String, Vec<CorpusRow>), String> {
    let json = Json::parse(text)?;
    let target = json
        .get("target")
        .and_then(Json::as_str)
        .ok_or("baseline missing `target`")?
        .to_string();
    let mut rows = Vec::new();
    for e in json
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("baseline missing `entries`")?
    {
        let s = |k: &str| {
            e.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("baseline entry missing `{k}`"))
        };
        let n = |k: &str| {
            e.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("baseline entry missing `{k}`"))
        };
        rows.push(CorpusRow {
            file: s("file")?,
            func: s("func")?,
            allocator: s("allocator")?,
            spills: n("spills")?,
            copies: n("copies")?,
            paired: n("paired")?,
            fingerprint: s("fingerprint")?,
        });
    }
    Ok((target, rows))
}

/// Compares a run against a baseline, exactly. Every difference — a
/// changed count or fingerprint, a row missing from either side, or a
/// target mismatch — comes back as one named regression message.
pub fn compare_baseline(
    base_target: &str,
    base_rows: &[CorpusRow],
    run_target: &str,
    run_rows: &[CorpusRow],
) -> Vec<String> {
    let mut regressions = Vec::new();
    if base_target != run_target {
        regressions.push(format!(
            "target mismatch: baseline is {base_target}, run is {run_target}"
        ));
        return regressions;
    }
    for row in run_rows {
        match base_rows.iter().find(|b| b.key() == row.key()) {
            None => regressions.push(format!(
                "{}::{} [{}]: not in baseline (run `--write-baseline` to adopt)",
                row.file, row.func, row.allocator
            )),
            Some(b) if b != row => regressions.push(format!(
                "{}::{} [{}]: spills {}->{}, copies {}->{}, paired {}->{}, fingerprint {}->{}",
                row.file,
                row.func,
                row.allocator,
                b.spills,
                row.spills,
                b.copies,
                row.copies,
                b.paired,
                row.paired,
                b.fingerprint,
                row.fingerprint
            )),
            Some(_) => {}
        }
    }
    for b in base_rows {
        if !run_rows.iter().any(|r| r.key() == b.key()) {
            regressions.push(format!(
                "{}::{} [{}]: in baseline but missing from this run",
                b.file, b.func, b.allocator
            ));
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgc_core::PreferenceAllocator;
    use pdgc_target::PressureModel;

    const SMALL: &str = "fn sum2(v0: int, v1: int) -> int {\nb0:\n    v2 = add v0, v1\n    ret v2\n}\n";

    fn run_small() -> CorpusReport {
        let files = vec![("small.pdgc".to_string(), SMALL.to_string())];
        let allocators: Vec<Box<dyn RegisterAllocator>> =
            vec![Box::new(PreferenceAllocator::full())];
        let target = TargetDesc::ia64_like(PressureModel::Middle);
        let mut metrics = MetricsRegistry::default();
        run_corpus(&files, &allocators, &target, CheckMode::Always, &mut metrics)
    }

    #[test]
    fn small_corpus_runs_clean() {
        let report = run_small();
        assert_eq!(report.funcs, 1);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].func, "sum2");
    }

    #[test]
    fn parse_failures_are_reported_not_fatal() {
        let files = vec![
            ("bad.pdgc".to_string(), "fn broken(".to_string()),
            ("good.pdgc".to_string(), SMALL.to_string()),
        ];
        let allocators: Vec<Box<dyn RegisterAllocator>> =
            vec![Box::new(PreferenceAllocator::full())];
        let target = TargetDesc::ia64_like(PressureModel::Middle);
        let mut metrics = MetricsRegistry::default();
        let report = run_corpus(&files, &allocators, &target, CheckMode::Always, &mut metrics);
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].starts_with("bad.pdgc"));
        assert_eq!(report.rows.len(), 1);
    }

    #[test]
    fn baseline_roundtrips_and_compares() {
        let report = run_small();
        let json = baseline_json("ia64-24", &report.rows);
        let (target, rows) = parse_baseline(&json).unwrap();
        assert_eq!(target, "ia64-24");
        assert_eq!(rows, report.rows);
        assert!(compare_baseline(&target, &rows, "ia64-24", &report.rows).is_empty());

        // A changed fingerprint is a named regression.
        let mut drifted = report.rows.clone();
        drifted[0].fingerprint = "deadbeefdeadbeef".into();
        let regs = compare_baseline(&target, &rows, "ia64-24", &drifted);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("fingerprint"), "{}", regs[0]);

        // Rows on only one side are regressions too.
        let regs = compare_baseline(&target, &rows, "ia64-24", &[]);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("missing from this run"));
        let regs = compare_baseline(&target, &[], "ia64-24", &report.rows);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("not in baseline"));

        // Target mismatch short-circuits.
        let regs = compare_baseline(&target, &rows, "x86-24", &report.rows);
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("target mismatch"));
    }
}
