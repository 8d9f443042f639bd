//! The parallel batch driver must be bit-identical to the serial one: the
//! `--jobs N` worker pool may change *when* and *where* each function is
//! allocated, but never *what* it produces. This runs the differential
//! suite's workloads through the batch driver at `--jobs 1` and `--jobs 4`
//! and compares per-function statistics and rewrite fingerprints. The
//! serial leg runs with the symbolic checker live (`CheckMode::Always`),
//! so every batch allocation is also independently proven.

use pdgc::prelude::*;
use pdgc_bench::batch::{compare_jobs, run_batch};

fn suite() -> Vec<Workload> {
    specjvm_suite().iter().map(generate).collect()
}

#[test]
fn jobs4_is_bit_identical_to_jobs1_on_full_allocator() {
    let workloads = suite();
    let target = TargetDesc::ia64_like(PressureModel::Middle);
    let alloc = PreferenceAllocator::full();
    let serial = run_batch(&alloc, &workloads, &target, 1, CheckMode::Always).unwrap();
    let parallel = run_batch(&alloc, &workloads, &target, 4, CheckMode::Off).unwrap();

    assert_eq!(serial.funcs.len(), parallel.funcs.len());
    assert!(serial.funcs.len() >= 60, "suite unexpectedly small");
    for (a, b) in serial.funcs.iter().zip(&parallel.funcs) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.func, b.func);
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "rewrite output diverged on {} ({})",
            a.func, a.workload
        );
        assert_eq!(a.stats, b.stats, "stats diverged on {}", a.func);
    }
    assert!(serial.same_allocations(&parallel));
    assert_eq!(serial.stats, parallel.stats);
}

#[test]
fn jobs8_oversubscribed_stress_is_bit_identical_and_repeatable() {
    // More workers than the suite has cores (and, on small machines, more
    // than there are functions per claim window): workers race the atomic
    // cursor hard and finish out of order, stressing the slot-keyed merge.
    // `compare_jobs` also asserts that repeats of the same job count agree,
    // so each worker's reused PhaseScratch is proven not to leak state from
    // one function into the next.
    let mut workloads = suite();
    for w in &mut workloads {
        w.funcs.truncate(6);
    }
    let target = TargetDesc::ia64_like(PressureModel::Middle);
    let alloc = PreferenceAllocator::full();
    let cmp = compare_jobs(&alloc, &workloads, &target, 8, 2, CheckMode::Off).unwrap();
    assert_eq!(cmp.parallel.jobs, 8);
    assert!(
        cmp.identical(),
        "jobs=8 diverged from serial on the stress sweep"
    );
    assert_eq!(cmp.serial.stats, cmp.parallel.stats);
    for (i, f) in cmp.parallel.funcs.iter().enumerate() {
        assert_eq!(f.index, i, "slot-keyed merge broke task order");
    }
}

#[test]
fn jobs4_is_bit_identical_to_jobs1_across_pressure_models() {
    // Lighter sweep (first functions of each workload) over the other two
    // pressure models, so every differential-suite target shape is covered.
    let mut workloads = suite();
    for w in &mut workloads {
        w.funcs.truncate(3);
    }
    let alloc = PreferenceAllocator::full();
    for pressure in [PressureModel::High, PressureModel::Low] {
        let target = TargetDesc::ia64_like(pressure);
        let serial = run_batch(&alloc, &workloads, &target, 1, CheckMode::Off).unwrap();
        let parallel = run_batch(&alloc, &workloads, &target, 4, CheckMode::Off).unwrap();
        assert!(
            serial.same_allocations(&parallel),
            "divergence under {pressure:?}"
        );
        assert_eq!(serial.stats, parallel.stats);
    }
}
