//! The paper's second preference type — *limited register usage* (§3.1):
//! x86-style quarter-word loads that only certain registers can receive
//! directly; any other destination needs a zero-extension afterwards.
//!
//! The preference-directed allocator records a register-set preference for
//! byte-load destinations and avoids the extensions where colorability
//! allows; preference-unaware allocators pay them. The machine interpreter
//! makes the preference *semantically* meaningful: a byte load into a
//! non-byte-capable register leaves dirty high bits, so a missing
//! extension is an observable bug, not just a cost.

use pdgc::all_allocators;
use pdgc::prelude::*;
use pdgc::workloads::{specjvm_suite, WorkloadProfile};

/// A hot loop with two byte loads folded into an accumulator.
fn byte_kernel() -> Function {
    let mut b = FunctionBuilder::new("bytes", vec![RegClass::Int, RegClass::Int], Some(RegClass::Int));
    let base = b.param(0);
    let n = b.param(1);
    let header = b.create_block();
    let body = b.create_block();
    let exit = b.create_block();
    let acc = b.iconst(0);
    let i = b.copy(n);
    b.jump(header);
    b.switch_to(header);
    b.branch_imm(CmpOp::Gt, i, 0, body, exit);
    b.switch_to(body);
    let x = b.load8(base, 0);
    let y = b.load8(base, 16);
    let s = b.bin(BinOp::Add, x, y);
    b.emit(pdgc::ir::Inst::Bin {
        op: BinOp::Add,
        dst: acc,
        lhs: acc,
        rhs: s,
    });
    b.emit(pdgc::ir::Inst::BinImm {
        op: BinOp::Sub,
        dst: i,
        lhs: i,
        imm: 1,
    });
    b.jump(header);
    b.switch_to(exit);
    b.ret(Some(acc));
    let f = b.finish();
    assert!(f.verify().is_ok());
    f
}

#[test]
fn full_preferences_avoid_zero_extensions() {
    let func = byte_kernel();
    let target = TargetDesc::x86_like(PressureModel::Middle);
    let full = PreferenceAllocator::full()
        .allocate(&func, &target, &mut AllocSession::default())
        .unwrap();
    assert_eq!(
        full.stats.zero_extensions, 0,
        "byte-load destinations should land in byte-capable registers"
    );
    // Sanity: the result is correct.
    let args = vec![128u64, 5];
    let reference = run_ir(&func, &args, DEFAULT_FUEL).unwrap();
    let mach = run_mach(&full.mach, &target, &args, DEFAULT_FUEL).unwrap();
    check_equivalent(&reference, &mach).unwrap();
}

#[test]
fn preference_unaware_allocators_stay_correct_via_extensions() {
    // Preference-unaware allocators may put byte destinations anywhere;
    // the rewriter's mandatory extension keeps them correct, and the
    // differential check proves it.
    let func = byte_kernel();
    let target = TargetDesc::x86_like(PressureModel::Middle);
    let args = vec![128u64, 5];
    let reference = run_ir(&func, &args, DEFAULT_FUEL).unwrap();
    for alloc in all_allocators() {
        let out = alloc
            .allocate(&func, &target, &mut AllocSession::default())
            .unwrap();
        let mach = run_mach(&out.mach, &target, &args, DEFAULT_FUEL).unwrap();
        check_equivalent(&reference, &mach)
            .unwrap_or_else(|e| panic!("{} diverged: {e}", alloc.name()));
    }
}

#[test]
fn extensions_priced_into_dynamic_cycles() {
    // Force the byte registers to be unattractive for the coalescing-only
    // allocator (non-volatile-first fallback picks high registers), then
    // compare cycle counts: the full allocator must not be slower.
    let func = byte_kernel();
    let target = TargetDesc::x86_like(PressureModel::Middle);
    let args = vec![128u64, 50];
    let full = PreferenceAllocator::full()
        .allocate(&func, &target, &mut AllocSession::default())
        .unwrap();
    let only = PreferenceAllocator::coalescing_only()
        .allocate(&func, &target, &mut AllocSession::default())
        .unwrap();
    let full_exec = run_mach(&full.mach, &target, &args, DEFAULT_FUEL).unwrap();
    let only_exec = run_mach(&only.mach, &target, &args, DEFAULT_FUEL).unwrap();
    assert!(
        full_exec.cycles <= only_exec.cycles,
        "full {} vs coalescing-only {}",
        full_exec.cycles,
        only_exec.cycles
    );
}

#[test]
fn byte_dense_workload_differentially_verified() {
    // A byte-heavy synthetic workload on the x86-like target, across all
    // allocators.
    let prof = WorkloadProfile {
        name: "x86demo".into(),
        seed: 0xB17E,
        num_funcs: 4,
        ops_per_func: 70,
        loop_depth: 1,
        call_density: 0.2,
        float_ratio: 0.0,
        paired_density: 0.0,
        byte_density: 0.5,
        pressure: 10,
        diamond_density: 0.25,
        pair_stride: 8,
        pair_align: 1,
    };
    let w = generate(&prof);
    let target = TargetDesc::x86_like(PressureModel::High);
    for func in &w.funcs {
        let args = default_args(func);
        let reference = run_ir(func, &args, DEFAULT_FUEL).unwrap();
        for alloc in all_allocators() {
            let out = alloc
                .allocate(func, &target, &mut AllocSession::default())
                .unwrap();
            let mach = run_mach(&out.mach, &target, &args, DEFAULT_FUEL).unwrap();
            check_equivalent(&reference, &mach)
                .unwrap_or_else(|e| panic!("{} diverged on {}: {e}", alloc.name(), func.name));
        }
    }
}

/// A 64-register class whose every register is byte-capable, so the
/// limited-usage preference covers the whole file (`low_regs(64)`).
/// Generated suite functions at pressure near the cap make every
/// allocator reach register 63, the top bit of the register masks that
/// select and the baselines' shared pick work on; every allocation is
/// checker-proven and runs equivalently.
#[test]
fn full_64_register_byte_file_allocates_equivalently() {
    let target = TargetDesc::builder("wide64")
        .class(
            RegClass::Int,
            ClassSpec::new(64)
                .byte_regs(64)
                .pair(PairRule::new(PairedLoadRule::Parity, 8)),
        )
        .class(RegClass::Float, ClassSpec::new(64))
        .finish()
        .unwrap();
    let mut session = AllocSession {
        check: CheckMode::Always,
        ..AllocSession::default()
    };
    let funcs: Vec<Function> = specjvm_suite()
        .into_iter()
        .flat_map(|prof| {
            let mut prof = prof.for_target(&target);
            prof.num_funcs = 2;
            prof.byte_density = 0.3;
            prof.pressure = 62;
            generate(&prof).funcs
        })
        .collect();
    for alloc in all_allocators() {
        let mut top_used = false;
        for func in &funcs {
            let args = default_args(func);
            let reference = run_ir(func, &args, DEFAULT_FUEL).unwrap();
            let out = alloc
                .allocate(func, &target, &mut session)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", alloc.name(), func.name));
            top_used |= out.assignment.iter().flatten().any(|r| r.index() == 63);
            let mach = run_mach(&out.mach, &target, &args, DEFAULT_FUEL).unwrap();
            check_equivalent(&reference, &mach)
                .unwrap_or_else(|e| panic!("{} diverged on {}: {e}", alloc.name(), func.name));
        }
        assert!(
            top_used,
            "{}: no allocation reached register 63",
            alloc.name()
        );
    }
}

#[test]
fn ia64_target_has_no_byte_restriction() {
    // On targets without the restriction, no extensions ever appear and
    // no Set preferences are recorded.
    let func = byte_kernel();
    let target = TargetDesc::ia64_like(PressureModel::Middle);
    assert!(!target.has_byte_restriction(RegClass::Int));
    let out = PreferenceAllocator::full()
        .allocate(&func, &target, &mut AllocSession::default())
        .unwrap();
    assert_eq!(out.stats.zero_extensions, 0);
    let args = vec![128u64, 5];
    let reference = run_ir(&func, &args, DEFAULT_FUEL).unwrap();
    let mach = run_mach(&out.mach, &target, &args, DEFAULT_FUEL).unwrap();
    check_equivalent(&reference, &mach).unwrap();
}

/// §3.1's dedicated-operation registers: on the x86-like target, integer
/// division results appear in the fixed division register (r0). The copy
/// out of it is a dedicated-register coalescing opportunity the
/// preference-directed allocator takes when profitable.
#[test]
fn dedicated_division_register() {
    use pdgc::target::MInst;
    let target = TargetDesc::x86_like(PressureModel::Middle);
    assert_eq!(target.div_reg, Some(PhysReg::int(0)));

    let mut b = FunctionBuilder::new("f", vec![RegClass::Int, RegClass::Int], Some(RegClass::Int));
    let p = b.param(0);
    let q = b.param(1);
    let d = b.bin(BinOp::Div, p, q);
    let s = b.bin_imm(BinOp::Add, d, 1);
    b.ret(Some(s));
    let func = b.finish();

    let out = PreferenceAllocator::full()
        .allocate(&func, &target, &mut AllocSession::default())
        .unwrap();
    // The division's destination register must be r0.
    let div_dst = out
        .mach
        .blocks
        .iter()
        .flatten()
        .find_map(|i| match i {
            MInst::Bin {
                op: BinOp::Div,
                dst,
                ..
            } => Some(*dst),
            _ => None,
        })
        .expect("division survives to machine code");
    assert_eq!(div_dst, PhysReg::int(0));
    // The copy out of the pinned register coalesces away.
    assert_eq!(out.stats.copies_remaining, 0);

    for args in [[48u64, 6], [7, 0], [u64::MAX, 3]] {
        let reference = run_ir(&func, &args, DEFAULT_FUEL).unwrap();
        let mach = run_mach(&out.mach, &target, &args, DEFAULT_FUEL).unwrap();
        check_equivalent(&reference, &mach).unwrap();
    }
}

/// Division in a loop with the divisor live across: the dedicated
/// register constraint must not break correctness under pressure, for
/// every allocator.
#[test]
fn dedicated_division_under_pressure_all_allocators() {
    let target = TargetDesc::x86_like(PressureModel::High);
    let mut b = FunctionBuilder::new("f", vec![RegClass::Int, RegClass::Int], Some(RegClass::Int));
    let p = b.param(0);
    let n = b.param(1);
    let header = b.create_block();
    let body = b.create_block();
    let exit = b.create_block();
    let acc = b.iconst(1000000);
    let i = b.copy(n);
    b.jump(header);
    b.switch_to(header);
    b.branch_imm(CmpOp::Gt, i, 0, body, exit);
    b.switch_to(body);
    let x = b.load(p, 0);
    let d = b.bin(BinOp::Div, acc, x);
    b.emit(pdgc::ir::Inst::Bin {
        op: BinOp::Add,
        dst: acc,
        lhs: acc,
        rhs: d,
    });
    b.emit(pdgc::ir::Inst::BinImm {
        op: BinOp::Sub,
        dst: i,
        lhs: i,
        imm: 1,
    });
    b.jump(header);
    b.switch_to(exit);
    b.ret(Some(acc));
    let func = b.finish();

    let args = vec![512u64, 6];
    let reference = run_ir(&func, &args, DEFAULT_FUEL).unwrap();
    for alloc in pdgc::all_allocators() {
        let out = alloc
            .allocate(&func, &target, &mut AllocSession::default())
            .unwrap();
        let mach = run_mach(&out.mach, &target, &args, DEFAULT_FUEL).unwrap();
        check_equivalent(&reference, &mach)
            .unwrap_or_else(|e| panic!("{} diverged: {e}", alloc.name()));
    }
}
