//! SPL shape recognition, proven end to end.
//!
//! * **Coverage** — the structured workload generator emits reducible,
//!   SPL-shaped CFGs; the recognizer must accept every one of them, and
//!   the pipeline's `spl_analyses_fast` counter must record it. Those are
//!   the rounds where spill-code reload forwarding may run.
//! * **Fallback** — an irreducible CFG (two distinct entries into one
//!   cycle) must not decompose at the analysis level and must allocate
//!   through the *full* pipeline without forwarding, with the allocation
//!   still symbolically proven and the `spl_analyses_fallback` counter
//!   recording the decline.

use pdgc::analysis::{Cfg, Spl};
use pdgc::obs::Counter;
use pdgc::prelude::*;

/// The structured generator's output is the workload forwarding exists
/// for: every function of the default suite, lowered exactly as the
/// pipeline analyzes it, must be SPL-shaped.
#[test]
fn generated_workloads_take_the_fast_path() {
    let target = TargetDesc::ia64_like(PressureModel::Middle);
    let mut total = 0usize;
    for prof in specjvm_suite().iter().take(3) {
        for func in &generate(prof).funcs {
            let lowered = pdgc::core::lower::lower_abi(func, &target).expect("lowers");
            let spl = Spl::compute(&Cfg::compute(&lowered.func));
            assert!(
                spl.is_spl(),
                "{}: generator emitted a non-SPL CFG",
                func.name
            );
            total += 1;
        }
    }
    assert!(total > 0, "suite produced no functions");
}

/// Two distinct entries into one cycle: `entry → {a, c}`, `a ⇄ c`.
/// No block dominates the cycle, so it has no natural-loop header and
/// no SPL decomposition.
fn irreducible() -> Function {
    let mut b = FunctionBuilder::new(
        "irreducible",
        vec![RegClass::Int, RegClass::Int],
        Some(RegClass::Int),
    );
    let p = b.param(0);
    let q = b.param(1);
    let a = b.create_block();
    let c = b.create_block();
    let exit = b.create_block();
    b.branch_imm(CmpOp::Gt, p, 0, a, c);
    b.switch_to(a);
    let x = b.bin(BinOp::Add, p, q);
    b.branch_imm(CmpOp::Gt, x, 9, c, exit);
    b.switch_to(c);
    let y = b.bin(BinOp::Mul, p, q);
    b.branch_imm(CmpOp::Lt, y, 5, a, exit);
    b.switch_to(exit);
    let r = b.bin(BinOp::Add, p, q);
    b.ret(Some(r));
    let f = b.finish();
    assert!(f.verify().is_ok());
    f
}

/// The irreducible fixture does not decompose at the analysis level.
#[test]
fn irreducible_cfg_declines_the_fast_path() {
    let f = irreducible();
    let spl = Spl::compute(&Cfg::compute(&f));
    assert!(!spl.is_spl(), "irreducible CFG must not decompose");
    assert_eq!(spl.loop_regions(), 0, "the cycle has no loop region");
}

/// …and through the full pipeline the fallback is recorded in the
/// metrics registry, and the allocation is still symbolically proven.
#[test]
fn irreducible_cfg_takes_the_fallback_through_the_pipeline() {
    let f = irreducible();
    let target = TargetDesc::ia64_like(PressureModel::Middle);
    let alloc = PreferenceAllocator::full();
    let mut session = AllocSession {
        check: CheckMode::Always,
        ..AllocSession::default()
    };
    let out = alloc
        .allocate(&f, &target, &mut session)
        .expect("irreducible function allocates via the fallback");
    assert!(
        session.scratch.metrics.get(Counter::SplAnalysesFallback) > 0,
        "fallback path not recorded"
    );
    assert_eq!(
        session.scratch.metrics.get(Counter::SplAnalysesFast),
        0,
        "irreducible CFG must never count as decomposed"
    );
    // The allocation itself is behaviorally correct.
    let args = default_args(&f);
    let reference = run_ir(&f, &args, DEFAULT_FUEL).expect("IR execution");
    let mach = run_mach(&out.mach, &target, &args, DEFAULT_FUEL).expect("mach execution");
    check_equivalent(&reference, &mach).expect("IR/mach equivalence");
}

/// An SPL-shaped loop function is counted as decomposed through the full
/// pipeline, and the coverage counters show it.
#[test]
fn spl_shaped_function_is_counted_as_fast() {
    let mut b = FunctionBuilder::new("spl", vec![RegClass::Int], Some(RegClass::Int));
    let p = b.param(0);
    let header = b.create_block();
    let body = b.create_block();
    let exit = b.create_block();
    let z = b.iconst(0);
    b.jump(header);
    b.switch_to(header);
    b.branch_imm(CmpOp::Gt, p, 0, body, exit);
    b.switch_to(body);
    let s = b.bin(BinOp::Add, p, z);
    let _ = b.bin_imm(BinOp::Sub, s, 1);
    b.jump(header);
    b.switch_to(exit);
    b.ret(Some(p));
    let f = b.finish();
    assert!(f.verify().is_ok());

    let target = TargetDesc::ia64_like(PressureModel::Middle);
    let alloc = PreferenceAllocator::full();
    let mut session = AllocSession {
        check: CheckMode::Always,
        ..AllocSession::default()
    };
    alloc
        .allocate(&f, &target, &mut session)
        .expect("allocation succeeds");
    let m = &session.scratch.metrics;
    assert!(m.get(Counter::SplAnalysesFast) > 0);
    assert!(m.get(Counter::SplRegions) > 0);
    assert!(m.get(Counter::SplLoopRegions) > 0);
    assert_eq!(m.get(Counter::SplAnalysesFallback), 0);
}
