//! Per-target correctness matrix: every allocator must stay
//! semantics-preserving on every target in the builtin registry, not just
//! the default `ia64-24` — and the parallel batch driver must stay
//! bit-deterministic on each of them.
//!
//! Workloads are regenerated per target through
//! [`WorkloadProfile::for_target`], so paired-load candidates follow the
//! target's own stride/alignment and register pressure stays feasible on
//! small files (`tight8`). The deep per-function sweep lives in
//! `tests/differential.rs`; this matrix takes two functions per workload
//! per target, which is enough to exercise every target-dependent code
//! path (calling convention, byte restriction, div pinning, pair rules).
//!
//! `figure7` is exempt: its three-register file exists to replay the
//! paper's worked example and cannot allocate the generated workloads.

use pdgc::prelude::*;
use pdgc::workloads::specjvm_suite;

/// Workloads adapted to `target`, trimmed to two functions each.
fn workloads_for(target: &TargetDesc) -> Vec<Workload> {
    specjvm_suite()
        .iter()
        .map(|p| {
            let mut w = generate(&p.for_target(target));
            w.funcs.truncate(2);
            w
        })
        .collect()
}

/// Every allocator, on every (adapted) workload function, must produce
/// machine code observably equivalent to the virtual-register original —
/// and the symbolic checker must independently prove every allocation.
fn check_differential(target: &TargetDesc) {
    let allocators = pdgc::all_allocators();
    let mut session = AllocSession {
        check: CheckMode::Always,
        ..AllocSession::default()
    };
    for w in &workloads_for(target) {
        for func in &w.funcs {
            let args = default_args(func);
            let reference = run_ir(func, &args, DEFAULT_FUEL)
                .unwrap_or_else(|e| panic!("{}: reference failed: {e}", func.name));
            for alloc in &allocators {
                let out = alloc
                    .allocate(func, target, &mut session)
                    .unwrap_or_else(|e| {
                        panic!("{} on {} ({}): {e}", alloc.name(), func.name, target.name)
                    });
                let mach = run_mach(&out.mach, target, &args, DEFAULT_FUEL).unwrap_or_else(|e| {
                    panic!(
                        "{} on {} ({}): machine run failed: {e}",
                        alloc.name(),
                        func.name,
                        target.name
                    )
                });
                check_equivalent(&reference, &mach).unwrap_or_else(|e| {
                    panic!(
                        "{} mis-allocated {} on {}: {e}",
                        alloc.name(),
                        func.name,
                        target.name
                    )
                });
            }
        }
    }
}

/// The batch driver must produce bit-identical allocations at every job
/// count on this target (same statistics, same rewrite fingerprints),
/// with the symbolic checker live on every allocation of both runs.
fn check_batch_determinism(target: &TargetDesc) {
    let alloc = PreferenceAllocator::full();
    let workloads = workloads_for(target);
    let cmp = pdgc_bench::batch::compare_jobs(&alloc, &workloads, target, 3, 1, CheckMode::Always);
    assert!(
        cmp.identical(),
        "parallel batch allocation diverged from serial on {}",
        target.name
    );
    assert_eq!(cmp.serial.target, target.name);
}

/// One module per registry target, so shards parallelize and a failure
/// names the target directly.
macro_rules! target_matrix {
    ($($mod_name:ident => $name:literal;)+) => {
        $(
            mod $mod_name {
                use super::*;

                fn target() -> TargetDesc {
                    TargetRegistry::builtin()
                        .resolve($name)
                        .expect("registry target")
                        .clone()
                }

                #[test]
                fn differential_preserves_semantics() {
                    check_differential(&target());
                }

                #[test]
                fn batch_allocation_is_deterministic() {
                    check_batch_determinism(&target());
                }
            }
        )+

        /// The matrix above must stay in sync with the builtin registry;
        /// this guard fails when a target is registered without a matrix
        /// shard here (figure7 is deliberately exempt — see module doc).
        #[test]
        fn matrix_covers_the_registry() {
            let covered = [$($name),+];
            let registry = TargetRegistry::builtin();
            for name in registry.names() {
                assert!(
                    covered.contains(&name) || name == "figure7",
                    "registry target {name} has no matrix shard"
                );
            }
            assert_eq!(covered.len() + 1, registry.len(), "stale matrix list");
        }
    };
}

target_matrix! {
    ia64_16 => "ia64-16";
    x86_16 => "x86-16";
    ia64_24 => "ia64-24";
    x86_24 => "x86-24";
    ia64_32 => "ia64-32";
    x86_32 => "x86-32";
    risc16 => "risc16";
    tight8 => "tight8";
}
