//! Negative paths for the symbolic checker, through the public facade:
//! take a *real* allocation (proven correct first), hand-corrupt one
//! aspect of it — assignment class, register file bounds, interference,
//! the paired-load rule, spill-slot bookkeeping, caller-save code — and
//! prove the checker rejects it with the right violation category. These
//! complement the unit suite in `crates/check`: here the baseline
//! artifacts come from the actual pipeline, so a corruption that the
//! checker misses would mean a real allocator bug could slip through.

use pdgc::ir::Inst;
use pdgc::prelude::*;
use pdgc::target::MInst;

fn sum2() -> Function {
    let mut b = FunctionBuilder::new("sum2", vec![RegClass::Int], Some(RegClass::Int));
    let p = b.param(0);
    let x = b.load(p, 0);
    let y = b.load(p, 8);
    let s = b.bin(BinOp::Add, x, y);
    b.ret(Some(s));
    b.finish()
}

fn proven(f: &Function, t: &TargetDesc) -> AllocOutput {
    let out = PreferenceAllocator::full()
        .allocate(f, t, &mut AllocSession::default())
        .expect("allocation");
    check_allocation(&out.lowered, &out.assignment, &out.mach, t)
        .expect("the uncorrupted allocation must be provable");
    out
}

fn kinds(err: &CheckError) -> Vec<&'static str> {
    err.violations.iter().map(Violation::kind).collect()
}

fn rep(r: &mut PhysReg, from: PhysReg, to: PhysReg) {
    if *r == from {
        *r = to;
    }
}

/// Replaces every occurrence of `from` with `to` across the machine code,
/// so a corruption stays self-consistent and only the targeted property
/// breaks.
fn subst(m: &mut MachFunction, from: PhysReg, to: PhysReg) {
    for blk in &mut m.blocks {
        for inst in blk {
            match inst {
                MInst::Copy { dst, src } => {
                    rep(dst, from, to);
                    rep(src, from, to);
                }
                MInst::Iconst { dst, .. } | MInst::Fconst { dst, .. } => rep(dst, from, to),
                MInst::Load { dst, base, .. } | MInst::Load8 { dst, base, .. } => {
                    rep(dst, from, to);
                    rep(base, from, to);
                }
                MInst::LoadPair {
                    dst1, dst2, base, ..
                } => {
                    rep(dst1, from, to);
                    rep(dst2, from, to);
                    rep(base, from, to);
                }
                MInst::Store { src, base, .. } => {
                    rep(src, from, to);
                    rep(base, from, to);
                }
                MInst::Bin { dst, lhs, rhs, .. } => {
                    rep(dst, from, to);
                    rep(lhs, from, to);
                    rep(rhs, from, to);
                }
                MInst::BinImm { dst, lhs, .. } => {
                    rep(dst, from, to);
                    rep(lhs, from, to);
                }
                MInst::Call {
                    arg_regs, ret_reg, ..
                } => {
                    for r in arg_regs {
                        rep(r, from, to);
                    }
                    if let Some(r) = ret_reg {
                        rep(r, from, to);
                    }
                }
                MInst::SpillLoad { dst, .. } => rep(dst, from, to),
                MInst::SpillStore { src, .. } => rep(src, from, to),
                MInst::Branch { lhs, rhs, .. } => {
                    rep(lhs, from, to);
                    rep(rhs, from, to);
                }
                MInst::BranchImm { lhs, .. } => rep(lhs, from, to),
                MInst::Jump { .. } | MInst::Ret => {}
            }
        }
    }
}

#[test]
fn rejects_a_wrong_class_corruption_of_a_real_allocation() {
    let f = sum2();
    let t = TargetDesc::ia64_like(PressureModel::Middle);
    let out = proven(&f, &t);
    let mut a = out.assignment.clone();
    let victim = a
        .iter()
        .position(|r| matches!(r, Some(r) if r.class() == RegClass::Int))
        .expect("an int-assigned vreg");
    a[victim] = Some(PhysReg::float(1));
    let err = check_allocation(&out.lowered, &a, &out.mach, &t).unwrap_err();
    assert!(kinds(&err).contains(&"bad-register"), "{err}");
}

#[test]
fn rejects_an_out_of_file_corruption_of_a_real_allocation() {
    let f = sum2();
    let t = TargetDesc::ia64_like(PressureModel::Middle); // 24 int registers
    let out = proven(&f, &t);
    let mut a = out.assignment.clone();
    let victim = a.iter().position(Option::is_some).unwrap();
    a[victim] = Some(PhysReg::int(63));
    let err = check_allocation(&out.lowered, &a, &out.mach, &t).unwrap_err();
    assert!(kinds(&err).contains(&"bad-register"), "{err}");
}

#[test]
fn rejects_interfering_vregs_forced_into_one_register() {
    // Offsets 0 and 4 cannot fuse under the stride-8 parity rule, so the
    // machine code keeps two plain loads whose destinations we can retarget.
    let mut b = FunctionBuilder::new("nofuse", vec![RegClass::Int], Some(RegClass::Int));
    let p = b.param(0);
    let x = b.load(p, 0);
    let y = b.load(p, 4);
    let s = b.bin(BinOp::Add, x, y);
    b.ret(Some(s));
    let f = b.finish();
    let t = TargetDesc::ia64_like(PressureModel::Middle);
    let out = proven(&f, &t);

    // The two loaded values are simultaneously live (both feed the add).
    let loads: Vec<VReg> = out
        .lowered
        .blocks
        .iter()
        .flat_map(|b| &b.insts)
        .filter_map(|i| match i {
            Inst::Load { dst, .. } => Some(*dst),
            _ => None,
        })
        .collect();
    assert_eq!(loads.len(), 2);
    let (x, y) = (loads[0], loads[1]);
    let (rx, ry) = (out.assignment[x.index()].unwrap(), out.assignment[y.index()].unwrap());
    assert_ne!(rx, ry);
    // Force y into x's register — in the assignment and, surgically, at
    // y's machine definition and use, leaving everything else (notably
    // the load base) untouched, so only interference is broken.
    let mut a = out.assignment.clone();
    a[y.index()] = Some(rx);
    let mut mach = out.mach.clone();
    let mut patched = 0;
    for inst in &mut mach.blocks[0] {
        match inst {
            MInst::Load { dst, offset: 4, .. } if *dst == ry => {
                *dst = rx;
                patched += 1;
            }
            MInst::Bin { rhs, .. } if *rhs == ry => {
                *rhs = rx;
                patched += 1;
            }
            _ => {}
        }
    }
    assert_eq!(patched, 2, "expected to retarget y's definition and its use");
    let err = check_allocation(&out.lowered, &a, &mach, &t).unwrap_err();
    assert!(kinds(&err).contains(&"interference"), "{err}");
}

#[test]
fn rejects_a_clobbered_pair_in_a_real_allocation() {
    let f = sum2();
    let t = TargetDesc::ia64_like(PressureModel::Middle);
    let out = proven(&f, &t);
    assert_eq!(out.stats.paired_loads, 1, "sum2 must fuse on the parity target");
    let (d1, d2) = out
        .mach
        .blocks
        .iter()
        .flatten()
        .find_map(|i| match i {
            MInst::LoadPair { dst1, dst2, .. } => Some((*dst1, *dst2)),
            _ => None,
        })
        .unwrap();
    // A register unused anywhere in the code and not adjacent to dst1, so
    // the substitution can only break the pairing rule.
    let used: Vec<PhysReg> = out.mach.blocks.iter().flatten().flat_map(|i| i.regs()).collect();
    let bad = (0..24u8)
        .map(PhysReg::int)
        .find(|r| !used.contains(r) && r.index().abs_diff(d1.index()) > 1)
        .unwrap();
    let mut mach = out.mach.clone();
    subst(&mut mach, d2, bad);
    let mut a = out.assignment.clone();
    for slot in a.iter_mut() {
        if *slot == Some(d2) {
            *slot = Some(bad);
        }
    }
    let err = check_allocation(&out.lowered, &a, &mach, &t).unwrap_err();
    assert!(kinds(&err).contains(&"bad-pair"), "{err}");
}

#[test]
fn rejects_a_slot_read_before_any_possible_write() {
    // Hand-built through the facade: the machine code reloads a frame
    // slot no path ever spills to, which can only yield garbage.
    let mut b = FunctionBuilder::new("rbw", vec![], Some(RegClass::Int));
    let v = b.iconst(7);
    b.ret(Some(v));
    let mut f = b.finish();
    f.blocks[0].insts[0] = Inst::Reload { dst: v, slot: 0 };
    let a = vec![Some(PhysReg::int(0)); f.num_vregs()];
    let mach = MachFunction {
        name: f.name.clone(),
        sig: f.sig.clone(),
        blocks: vec![vec![MInst::SpillLoad { dst: PhysReg::int(0), slot: 0 }, MInst::Ret]],
        num_slots: 1,
        used_nonvolatiles: Vec::new(),
        callees: f.callees.clone(),
    };
    let t = TargetDesc::ia64_like(PressureModel::Middle);
    let err = check_allocation(&f, &a, &mach, &t).unwrap_err();
    assert!(kinds(&err).contains(&"bad-slot"), "{err}");
    assert!(err.to_string().contains("read before any possible write"), "{err}");
}

#[test]
fn rejects_a_real_allocation_with_its_caller_save_code_removed() {
    // A value live across a call: whichever allocator parks it in a
    // volatile register must emit save/restore code around the call.
    // Deleting that pair (machine-only instructions, so the IR <-> machine
    // correspondence is untouched) must surface as a stale value at the
    // use after the call.
    // Figure 7's three-register file (one non-volatile) cannot hold two
    // values across a call without saving one of them.
    let mut b = FunctionBuilder::new("across", vec![RegClass::Int], Some(RegClass::Int));
    let p = b.param(0);
    let q = b.load(p, 0);
    let q2 = b.load(p, 8);
    b.call("g", vec![], None);
    let s = b.bin(BinOp::Add, q, q2);
    b.ret(Some(s));
    let f = b.finish();
    let t = TargetDesc::figure7();

    let out = PreferenceAllocator::full()
        .allocate(&f, &t, &mut AllocSession::default())
        .expect("allocation");
    assert!(out.stats.caller_save_insts > 0, "expected caller-save traffic");
    check_allocation(&out.lowered, &out.assignment, &out.mach, &t)
        .expect("the uncorrupted allocation must be provable");

    let mut mach = out.mach.clone();
    let blk = mach
        .blocks
        .iter_mut()
        .find(|b| b.iter().any(|i| matches!(i, MInst::Call { .. })))
        .unwrap();
    let call = blk.iter().position(|i| matches!(i, MInst::Call { .. })).unwrap();
    assert!(
        matches!(blk[call - 1], MInst::SpillStore { .. })
            && matches!(blk[call + 1], MInst::SpillLoad { .. }),
        "expected save/restore bracketing the call"
    );
    blk.remove(call + 1);
    blk.remove(call - 1);

    let err = check_allocation(&out.lowered, &out.assignment, &mach, &t).unwrap_err();
    assert!(kinds(&err).contains(&"stale-value"), "{err}");
}
