//! Targeted integration tests for paths the unit suites touch lightly:
//! multi-register caller saves, save-slot reuse across calls, float
//! return values through the convention, byte-load semantics end to end,
//! the call-cost allocator's preference decision, and register-footprint
//! accounting.

use pdgc::prelude::*;
use pdgc::target::MInst;

/// Five values cross two calls on a machine with four non-volatile
/// registers. The overflow value's options: a volatile register costs two
/// save/restore pairs (2 × Save_Restore_Cost = 6 per call weighting);
/// memory costs its whole Mem_Cost of 6 but is cheaper once both calls
/// are counted — §5.4 active spilling must choose memory, not caller
/// saves.
#[test]
fn active_spill_beats_double_caller_save() {
    let target = TargetDesc::toy(8); // 4 volatile (r0..r3), 4 non-volatile
    let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
    let p = b.param(0);
    let vals: Vec<_> = (0..5).map(|i| b.load(p, 16 * i)).collect();
    b.call("g", vec![], None);
    b.call("g", vec![], None);
    let mut acc = vals[0];
    for &v in &vals[1..] {
        acc = b.bin(BinOp::Add, acc, v);
    }
    b.ret(Some(acc));
    let func = b.finish();

    let out = PreferenceAllocator::full()
        .allocate(&func, &target, &mut AllocSession::default())
        .unwrap();
    assert_eq!(
        out.stats.caller_save_insts, 0,
        "double save/restore is costlier than the value's Mem_Cost"
    );
    assert!(out.stats.spill_instructions > 0, "the overflow value spills");
    assert_eq!(out.stats.nonvolatiles_used, 4);

    let args = vec![0u64];
    let reference = run_ir(&func, &args, DEFAULT_FUEL).unwrap();
    let mach = run_mach(&out.mach, &target, &args, DEFAULT_FUEL).unwrap();
    check_equivalent(&reference, &mach).unwrap();
}

/// The same shape crossing only ONE call: now a volatile register with a
/// single save/restore (cost 3) beats memory (Mem_Cost 6), so the
/// overflow value keeps a register and caller saves appear — with slot
/// reuse when a second, later value does the same at another call.
#[test]
fn single_crossing_prefers_caller_save_over_memory() {
    let target = TargetDesc::toy(8);
    let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
    let p = b.param(0);
    let vals: Vec<_> = (0..5).map(|i| b.load(p, 16 * i)).collect();
    b.call("g", vec![], None);
    let mut acc = vals[0];
    for &v in &vals[1..] {
        acc = b.bin(BinOp::Add, acc, v);
    }
    b.ret(Some(acc));
    let func = b.finish();

    let out = PreferenceAllocator::full()
        .allocate(&func, &target, &mut AllocSession::default())
        .unwrap();
    // One overflow value, one call: exactly one save/restore pair.
    assert_eq!(out.stats.caller_save_insts, 2);
    assert_eq!(out.stats.spill_instructions, 0);
    assert_eq!(out.stats.frame_slots, 1);

    let args = vec![0u64];
    let reference = run_ir(&func, &args, DEFAULT_FUEL).unwrap();
    let mach = run_mach(&out.mach, &target, &args, DEFAULT_FUEL).unwrap();
    check_equivalent(&reference, &mach).unwrap();
}

/// Float values flow through the float convention: argument in f0,
/// result in f0, both classes allocated independently.
#[test]
fn float_return_values_through_convention() {
    let target = TargetDesc::ia64_like(PressureModel::High);
    let mut b = FunctionBuilder::new("f", vec![RegClass::Float], Some(RegClass::Float));
    let q = b.param(0);
    let r = b.call("sqrt", vec![q], Some(RegClass::Float)).unwrap();
    let s = b.bin(BinOp::FAdd, r, r);
    b.ret(Some(s));
    let func = b.finish();
    let out = PreferenceAllocator::full()
        .allocate(&func, &target, &mut AllocSession::default())
        .unwrap();

    let args = vec![2.25f64.to_bits()];
    let reference = run_ir(&func, &args, DEFAULT_FUEL).unwrap();
    let mach = run_mach(&out.mach, &target, &args, DEFAULT_FUEL).unwrap();
    check_equivalent(&reference, &mach).unwrap();
    // The call's argument and return registers are float-class.
    let call = out
        .mach
        .blocks
        .iter()
        .flatten()
        .find_map(|i| match i {
            MInst::Call {
                arg_regs, ret_reg, ..
            } => Some((arg_regs.clone(), *ret_reg)),
            _ => None,
        })
        .unwrap();
    assert_eq!(call.0, vec![PhysReg::float(0)]);
    assert_eq!(call.1, Some(PhysReg::float(0)));
}

/// Byte loads zero-extend in the IR semantics, and the machine semantics
/// match whether or not the destination needed an explicit extension.
#[test]
fn byte_load_semantics_end_to_end() {
    let target = TargetDesc::x86_like(PressureModel::High);
    let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
    let p = b.param(0);
    // Create pressure so some byte destination cannot get a byte register.
    let keep: Vec<_> = (0..6).map(|i| b.load8(p, 8 * i)).collect();
    let mut acc = keep[0];
    for &v in &keep[1..] {
        acc = b.bin(BinOp::Add, acc, v);
    }
    b.ret(Some(acc));
    let func = b.finish();

    for alloc in pdgc::all_allocators() {
        let out = alloc
            .allocate(&func, &target, &mut AllocSession::default())
            .unwrap();
        let args = vec![4096u64];
        let reference = run_ir(&func, &args, DEFAULT_FUEL).unwrap();
        let mach = run_mach(&out.mach, &target, &args, DEFAULT_FUEL).unwrap();
        check_equivalent(&reference, &mach)
            .unwrap_or_else(|e| panic!("{} diverged: {e}", alloc.name()));
        // The result is a sum of bytes: small.
        assert!(reference.ret.unwrap() < 6 * 256);
    }
}

/// The call-cost allocator's preference decision: when call-crossing
/// ranges outnumber non-volatile registers, the overflow is annotated
/// prefer-volatile (caller-saved) rather than spilled.
#[test]
fn callcost_preference_decision_caps_nonvolatile_claims() {
    use pdgc::core::baselines::CallCostAllocator;
    let target = TargetDesc::toy(8); // 4 volatile, 4 non-volatile
    let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
    let p = b.param(0);
    let vals: Vec<_> = (0..6).map(|i| b.load(p, 16 * i)).collect();
    b.call("g", vec![], None);
    let mut acc = vals[0];
    for &v in &vals[1..] {
        acc = b.bin(BinOp::Add, acc, v);
    }
    b.ret(Some(acc));
    let func = b.finish();
    let out = CallCostAllocator
        .allocate(&func, &target, &mut AllocSession::default())
        .unwrap();
    // 6 crossing ranges, 4 non-volatile registers: at most 4 claims, the
    // rest volatile (2 ranges × save+restore) or spilled.
    assert!(out.stats.nonvolatiles_used <= 4);
    let args = vec![0u64];
    let reference = run_ir(&func, &args, DEFAULT_FUEL).unwrap();
    let mach = run_mach(&out.mach, &target, &args, DEFAULT_FUEL).unwrap();
    check_equivalent(&reference, &mach).unwrap();
}

/// `MachFunction::regs_used` counts each register once across all operand
/// positions.
#[test]
fn regs_used_accounting() {
    let target = TargetDesc::ia64_like(PressureModel::Middle);
    let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
    let p = b.param(0);
    let x = b.bin(BinOp::Add, p, p);
    b.ret(Some(x));
    let func = b.finish();
    let out = PreferenceAllocator::full()
        .allocate(&func, &target, &mut AllocSession::default())
        .unwrap();
    let used = out.mach.regs_used();
    // Everything coalesces into r0.
    assert_eq!(used, vec![PhysReg::int(0)]);
}

/// Spill iteration interacts with caller saves: a spilled call-crossing
/// value must not ALSO be caller-saved (its temporaries die at the call
/// boundary).
#[test]
fn spilled_crossing_values_need_no_caller_saves() {
    let target = TargetDesc::toy(4); // 2 volatile, 2 non-volatile
    let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
    let p = b.param(0);
    let vals: Vec<_> = (0..5).map(|i| b.load(p, 16 * i)).collect();
    b.call("g", vec![], None);
    let mut acc = vals[0];
    for &v in &vals[1..] {
        acc = b.bin(BinOp::Add, acc, v);
    }
    b.ret(Some(acc));
    let func = b.finish();
    let out = PreferenceAllocator::full()
        .allocate(&func, &target, &mut AllocSession::default())
        .unwrap();
    assert!(out.stats.spill_instructions > 0);
    let args = vec![0u64];
    let reference = run_ir(&func, &args, DEFAULT_FUEL).unwrap();
    let mach = run_mach(&out.mach, &target, &args, DEFAULT_FUEL).unwrap();
    check_equivalent(&reference, &mach).unwrap();
}

/// The pre-coalescing refinement stays semantics-preserving under
/// pressure and never does worse on spills than plain full preferences.
#[test]
fn precoalesce_variant_correct_under_pressure() {
    let target = TargetDesc::toy(8);
    let prof = &specjvm_suite()[1]; // jess
    let w = generate(prof);
    for func in w.funcs.iter().take(3) {
        let args = default_args(func);
        let reference = run_ir(func, &args, DEFAULT_FUEL).unwrap();
        let out = PreferenceAllocator::full()
            .with_precoalesce()
            .allocate(func, &target, &mut AllocSession::default())
            .unwrap();
        let mach = run_mach(&out.mach, &target, &args, DEFAULT_FUEL).unwrap();
        check_equivalent(&reference, &mach).unwrap();
    }
}
