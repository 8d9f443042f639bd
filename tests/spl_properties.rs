//! SPL decomposition contract, proven end to end.
//!
//! * **Bit-identity** — on every builtin target's adaptation of random
//!   generated workloads, the region-composed liveness and loop
//!   structure (`Spl::liveness_in`, `Spl::loops`) must equal the
//!   iterative solvers exactly, block for block and bit for bit.
//! * **Coverage** — the structured workload generator emits reducible,
//!   SPL-shaped CFGs; the fast path must actually engage on them, and
//!   the pipeline's `spl_analyses_fast` counter must record it.
//! * **Fallback** — an irreducible CFG (two distinct entries into one
//!   cycle) must decline the fast path at the analysis level and take
//!   the iterative fallback through the *full* pipeline, with the
//!   allocation still symbolically proven and the `spl_analyses_fallback`
//!   counter recording the decline.

use proptest::prelude::*;

use pdgc::analysis::{Cfg, Dominators, Liveness, LivenessScratch, Loops, Spl};
use pdgc::obs::Counter;
use pdgc::prelude::*;
use pdgc::workloads::WorkloadProfile;

fn profile(seed: u64, ops: usize, loop_depth: u32, call_density: f64, diamond_density: f64) -> WorkloadProfile {
    WorkloadProfile {
        name: "spl-prop".into(),
        seed,
        num_funcs: 2,
        ops_per_func: ops,
        loop_depth,
        call_density,
        float_ratio: 0.2,
        paired_density: 0.3,
        byte_density: 0.15,
        pressure: 9,
        diamond_density,
        pair_stride: 8,
        pair_align: 1,
    }
}

/// Asserts the SPL fast paths on `func` (φ-lowered against `target`,
/// exactly as the pipeline analyzes it) agree exactly with the
/// iterative solvers, reusing `scratch` so the pooled path is the one
/// under test. Returns whether the function was SPL-shaped.
fn assert_bit_identical(
    raw: &Function,
    target: &TargetDesc,
    scratch: &mut LivenessScratch,
) -> Result<bool, TestCaseError> {
    let lowered = match pdgc::core::lower::lower_abi(raw, target) {
        Ok(l) => l,
        // Tiny targets (figure7 has two argument registers) legitimately
        // reject some generated signatures; there is no lowered body to
        // compare on, so there is nothing to prove for this pair.
        Err(_) => return Ok(false),
    };
    let func = &lowered.func;
    let cfg = Cfg::compute(func);
    let spl = Spl::compute(&cfg);
    match spl.liveness_in(func, &cfg, scratch) {
        Some(fast) => {
            let slow = Liveness::compute(func, &cfg);
            for b in func.block_ids() {
                prop_assert_eq!(fast.live_in(b), slow.live_in(b),
                    "live_in({}) diverges in {}", b, func.name);
                prop_assert_eq!(fast.live_out(b), slow.live_out(b),
                    "live_out({}) diverges in {}", b, func.name);
            }
        }
        None => prop_assert!(!spl.is_spl(), "{}: SPL shape but no composed liveness", func.name),
    }
    match spl.loops() {
        Some(fast) => {
            let dom = Dominators::compute(&cfg);
            let slow = Loops::compute(&cfg, &dom);
            prop_assert_eq!(fast.headers(), slow.headers(), "headers diverge in {}", func.name);
            for b in func.block_ids() {
                prop_assert_eq!(fast.depth(b), slow.depth(b),
                    "depth({}) diverges in {}", b, func.name);
                prop_assert_eq!(fast.freq(b), slow.freq(b),
                    "freq({}) diverges in {}", b, func.name);
            }
        }
        None => prop_assert!(!spl.depth_fast_ok(), "{}: depth ok but no composed loops", func.name),
    }
    Ok(spl.is_spl())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Region-composed liveness and frequency are bit-identical to the
    /// iterative solvers on every builtin target's adaptation of random
    /// generated workloads (figure7's three-register machine included —
    /// the comparison needs analyses, not an allocation).
    #[test]
    fn spl_composition_bit_identical_on_every_builtin_target(
        seed in any::<u64>(),
        ops in 10usize..45,
        loop_depth in 0u32..3,
        call_density in 0.0f64..0.4,
        diamond_density in 0.0f64..0.5,
    ) {
        let registry = TargetRegistry::builtin();
        let mut scratch = LivenessScratch::new();
        for name in registry.names() {
            let target = registry.resolve(name).expect("registry target");
            let prof = profile(seed, ops, loop_depth, call_density, diamond_density)
                .for_target(target);
            for func in &generate(&prof).funcs {
                prop_assume!(func.verify().is_ok());
                assert_bit_identical(func, target, &mut scratch)?;
            }
        }
    }
}

/// The structured generator's output is the workload the fast path
/// exists for: every function of the default suite must be SPL-shaped,
/// not just bit-identical-when-it-happens-to-match.
#[test]
fn generated_workloads_take_the_fast_path() {
    let target = TargetDesc::ia64_like(PressureModel::Middle);
    let mut scratch = LivenessScratch::new();
    let mut total = 0usize;
    for prof in specjvm_suite().iter().take(3) {
        for func in &generate(prof).funcs {
            let shaped = assert_bit_identical(func, &target, &mut scratch).expect("bit-identity");
            assert!(shaped, "{}: generator emitted a non-SPL CFG", func.name);
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

/// The irreducible fixture declines the fast path at the analysis level.
#[test]
fn irreducible_cfg_declines_the_fast_path() {
    let f = irreducible();
    let cfg = Cfg::compute(&f);
    let spl = Spl::compute(&cfg);
    assert!(!spl.is_spl(), "irreducible CFG must not decompose");
    assert!(spl.liveness_in(&f, &cfg, &mut LivenessScratch::new()).is_none());
    assert!(spl.loops().is_none());
}

/// …and through the full pipeline the fallback engages, is recorded in
/// the metrics registry, and the allocation is still symbolically
/// proven.
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
        "irreducible CFG must never take the fast path"
    );
    // The allocation itself is behaviorally correct.
    let args = default_args(&f);
    let reference = run_ir(&f, &args, DEFAULT_FUEL).expect("IR execution");
    let mach = run_mach(&out.mach, &target, &args, DEFAULT_FUEL).expect("mach execution");
    check_equivalent(&reference, &mach).expect("IR/mach equivalence");
}

/// An SPL-shaped loop function takes the fast path through the full
/// pipeline and the coverage counters show it.
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
    assert!(m.get(Counter::SplFreqFast) > 0);
    assert!(m.get(Counter::SplRegions) > 0);
    assert!(m.get(Counter::SplLoopRegions) > 0);
    assert_eq!(m.get(Counter::SplAnalysesFallback), 0);
}
