//! The always-on metrics registry must obey the same determinism
//! contract as the allocations themselves: worker count and claim order
//! may change *where* each counter bump happens, but the slot-keyed
//! merge makes the deterministic sections (counters and scorecard
//! histograms) bit-identical at every job count. Latency histograms are
//! wall-clock and explicitly excluded from the contract.
//!
//! The second half pins the Figure 7 scorecard the same way
//! `tests/trace_golden.rs` pins the decision stream: these counts *are*
//! the paper's walkthrough (one fused paired load, no spills, every
//! preference screen resolved in round 1), so a change here means the
//! algorithm changed, never drift.

use pdgc::obs::{Counter, ValueHist};
use pdgc::prelude::*;
use pdgc_bench::batch::run_batch;

fn suite() -> Vec<Workload> {
    let profiles = specjvm_suite();
    profiles.iter().take(3).map(generate).collect()
}

#[test]
fn jobs4_metrics_merge_bit_identical_to_jobs1() {
    let workloads = suite();
    let target = TargetDesc::ia64_like(PressureModel::Middle);
    let alloc = PreferenceAllocator::full();
    let serial = run_batch(&alloc, &workloads, &target, 1, CheckMode::Off);
    let parallel = run_batch(&alloc, &workloads, &target, 4, CheckMode::Off);

    assert!(serial.metrics.deterministic_eq(&parallel.metrics));
    // The JSON forms of the deterministic sections must match byte for
    // byte — this is what `pdgc report` ultimately diffs.
    assert_eq!(
        serial.metrics.counters_json(),
        parallel.metrics.counters_json()
    );
    assert_eq!(
        serial.metrics.scorecard_hists_json(),
        parallel.metrics.scorecard_hists_json()
    );
    // And they are not trivially empty.
    let total: usize = workloads.iter().map(|w| w.funcs.len()).sum();
    assert_eq!(
        serial.metrics.get(Counter::FuncsAllocated),
        total as u64,
        "one FuncsAllocated bump per function"
    );
    assert!(serial.metrics.get(Counter::SelectAssigned) > 0);
    assert_eq!(
        serial
            .metrics
            .value_hist(ValueHist::RoundsPerFunc)
            .count,
        total as u64
    );
}

#[test]
fn per_function_metrics_ride_their_slots() {
    let workloads = suite();
    let target = TargetDesc::ia64_like(PressureModel::Middle);
    let alloc = PreferenceAllocator::full();
    let r = run_batch(&alloc, &workloads, &target, 3, CheckMode::Off);
    // Each slot carries exactly its own function's scorecard, and the
    // merged registry is their sum.
    let mut merged = pdgc::obs::MetricsRegistry::default();
    for f in &r.funcs {
        assert_eq!(f.metrics.get(Counter::FuncsAllocated), 1);
        assert_eq!(
            f.metrics.get(Counter::SpillLoads) as usize,
            f.stats.spill_loads,
            "scorecard matches per-function stats on {}",
            f.func
        );
        merged.merge(&f.metrics);
    }
    assert!(merged.deterministic_eq(&r.metrics));
}

/// The Figure 7(a) program (same construction as `tests/figure7.rs`).
fn figure7_func() -> Function {
    let mut b = FunctionBuilder::new("fig7", vec![RegClass::Int], None);
    let arg0 = b.param(0);
    let header = b.create_block();
    let exit = b.create_block();
    let v0 = b.load(arg0, 0);
    b.jump(header);
    b.switch_to(header);
    let v1 = b.load(v0, 0);
    let v2 = b.load(v0, 8);
    let v3 = b.copy(v0);
    let v4 = b.bin(BinOp::Add, v1, v2);
    b.call("g", vec![v3], None);
    b.emit(pdgc::ir::Inst::BinImm {
        op: BinOp::Add,
        dst: v0,
        lhs: v4,
        imm: 1,
    });
    b.branch_imm(CmpOp::Ne, v0, 0, header, exit);
    b.switch_to(exit);
    b.ret(None);
    b.finish()
}

#[test]
fn figure7_scorecard_is_golden() {
    let func = figure7_func();
    let target = TargetDesc::figure7();
    let mut session = AllocSession {
        check: CheckMode::Always,
        ..AllocSession::default()
    };
    PreferenceAllocator::full()
        .allocate(&func, &target, &mut session)
        .unwrap();
    let m = &session.scratch.metrics;

    // Allocation shape: one function, one round, no spilling.
    assert_eq!(m.get(Counter::FuncsAllocated), 1);
    assert_eq!(m.get(Counter::RoundsTotal), 1);
    assert_eq!(m.get(Counter::SpillInstructions), 0);
    assert_eq!(m.get(Counter::SelectSpilledNoRegister), 0);
    assert_eq!(m.get(Counter::SelectSpilledPreferMemory), 0);
    assert_eq!(m.get(Counter::SelectAssigned), 6);

    // Figure 7(h): the v1/v2 loads fuse into one paired load.
    assert_eq!(m.get(Counter::PairedLoadCandidates), 1);
    assert_eq!(m.get(Counter::PairedLoadsFused), 1);

    // Screening outcomes, per the golden decision stream in
    // `tests/trace_golden.rs`: three coalesce screens honored, one
    // deferred (v3's partner not yet colored on first sight); the
    // sequential pair honors seq- after deferring seq+; six
    // volatility/prefers screens honored, three skipped.
    assert_eq!(m.get(Counter::PrefCoalesceHonored), 3);
    assert_eq!(m.get(Counter::PrefCoalesceDeferred), 1);
    assert_eq!(m.get(Counter::PrefCoalesceSkipped), 0);
    assert_eq!(m.get(Counter::PrefSeqPlusDeferred), 1);
    assert_eq!(m.get(Counter::PrefSeqMinusHonored), 1);
    assert_eq!(m.get(Counter::PrefPrefersHonored), 6);
    assert_eq!(m.get(Counter::PrefPrefersSkipped), 3);

    // The checker ran once, full scope, zero violations.
    assert_eq!(m.get(Counter::CheckRuns), 1);
    assert_eq!(m.get(Counter::CheckScopeFull), 1);
    assert_eq!(m.get(Counter::CheckScopeRewritten), 0);
    assert_eq!(m.get(Counter::CheckViolations), 0);
    assert!(m.get(Counter::CheckIrInsts) > 0);
}
