//! Golden reproduction of the paper's Figure 7 — the worked example that
//! drives §5.
//!
//! ```text
//! i0:     v0 = [arg0]
//! i1: L1: v1 = [v0]
//! i2:     v2 = [v0+8]
//! i3:     v3 = v0
//! i4:     v4 = v1 + v2
//! i5:     arg0 = v3
//! i6:     call
//! i7:     v0 = v4 + 1
//! i8:     if v0 != 0 goto L1
//! i9:     ret
//! ```
//!
//! Expected outcome on the three-register machine (paper r1/r2/r3 = our
//! r0/r1/r2, with r0 = arg0/return volatile, r1 = arg1 volatile, r2
//! non-volatile):
//!
//! * RPG strengths: v1/v2 sequential± 50 (volatile) / 48 (non-volatile);
//!   v3 → v0 and v3 → arg0 coalesce 40/38; v4 prefers-non-volatile 28;
//! * final assignment: v0 = r0, v1 = r1, v2 = r2, v3 = r0, v4 = r2;
//! * final code (Figure 7(h)): every copy coalesced away, the two loads
//!   fused into one paired load, no spills, no caller saves.

use pdgc::core::build::collect_copies;
use pdgc::core::cost::CostModel;
use pdgc::core::lower::lower_abi;
use pdgc::core::node::NodeMap;
use pdgc::core::pipeline::analyze;
use pdgc::core::rpg::{build_rpg, PrefKind, PrefTarget};
use pdgc::prelude::*;
use pdgc::target::MInst;

/// Builds the Figure 7(a) program (SSA where the paper is SSA, one
/// multi-definition web for `v0` exactly as the paper draws it).
fn figure7_func() -> (Function, [VReg; 5]) {
    let mut b = FunctionBuilder::new("fig7", vec![RegClass::Int], None);
    let arg0 = b.param(0);
    let header = b.create_block();
    let exit = b.create_block();
    let v0 = b.load(arg0, 0); // i0
    b.jump(header);
    b.switch_to(header);
    let v1 = b.load(v0, 0); // i1
    let v2 = b.load(v0, 8); // i2
    let v3 = b.copy(v0); // i3
    let v4 = b.bin(BinOp::Add, v1, v2); // i4
    b.call("g", vec![v3], None); // i5 + i6 (lowering adds the arg copy)
    b.emit(pdgc::ir::Inst::BinImm {
        op: BinOp::Add,
        dst: v0,
        lhs: v4,
        imm: 1,
    }); // i7: the loop-carried redefinition of v0
    b.branch_imm(CmpOp::Ne, v0, 0, header, exit); // i8
    b.switch_to(exit);
    b.ret(None); // i9
    let f = b.finish();
    assert!(f.verify().is_ok());
    (f, [v0, v1, v2, v3, v4])
}

#[test]
fn rpg_strengths_match_the_paper() {
    let (func, [v0, v1, v2, v3, v4]) = figure7_func();
    let target = TargetDesc::figure7();
    let lowered = lower_abi(&func, &target).unwrap();
    let analyses = analyze(&lowered.func);
    let cost = CostModel::new(
        &lowered.func,
        &analyses.defuse,
        &analyses.loops,
        &analyses.crossings,
    );
    let nodes = NodeMap::build(&lowered.func, &target, RegClass::Int, &lowered.pinned);
    let copies = collect_copies(&lowered.func, &analyses.loops, &nodes);
    let rpg = build_rpg(&lowered.func, &nodes, &cost, &copies, PreferenceSet::full(), &target);

    let node = |v: VReg| nodes.node_of(v).unwrap();

    // v1 and v2: sequential± with strengths 50/48.
    let seq1 = rpg
        .prefs(node(v1))
        .iter()
        .find(|p| p.kind == PrefKind::SequentialPlus)
        .expect("v1 has a sequential+ preference");
    assert_eq!(seq1.target, PrefTarget::Node(node(v2)));
    assert_eq!(seq1.strength_vol, 50);
    assert_eq!(seq1.strength_nonvol, 48);
    let seq2 = rpg
        .prefs(node(v2))
        .iter()
        .find(|p| p.kind == PrefKind::SequentialMinus)
        .expect("v2 has a sequential- preference");
    assert_eq!(seq2.target, PrefTarget::Node(node(v1)));
    assert_eq!(seq2.strength_vol, 50);
    assert_eq!(seq2.strength_nonvol, 48);

    // v3: coalesce toward v0 with 40/38, and toward the dedicated arg0
    // register (the precolored r0 node) with the same strengths.
    let co_v0 = rpg
        .prefs(node(v3))
        .iter()
        .find(|p| p.kind == PrefKind::Coalesce && p.target == PrefTarget::Node(node(v0)))
        .expect("v3 coalesces toward v0");
    assert_eq!(co_v0.strength_vol, 40);
    assert_eq!(co_v0.strength_nonvol, 38);
    let r0_node = nodes.node_of_reg(PhysReg::int(0));
    let co_arg = rpg
        .prefs(node(v3))
        .iter()
        .find(|p| p.kind == PrefKind::Coalesce && p.target == PrefTarget::Node(r0_node))
        .expect("v3 coalesces toward arg0/r0");
    assert_eq!(co_arg.strength_vol, 40);
    assert_eq!(co_arg.strength_nonvol, 38);

    // v4: prefers a non-volatile register with strength 28 (and volatile
    // would be worthless: save/restore eats the whole benefit).
    let pref_nv = rpg
        .prefs(node(v4))
        .iter()
        .find(|p| p.kind == PrefKind::Prefers && p.target == PrefTarget::NonVolatile)
        .expect("v4 prefers non-volatile");
    assert_eq!(pref_nv.strength_nonvol, 28);
    let pref_v = rpg
        .prefs(node(v4))
        .iter()
        .find(|p| p.kind == PrefKind::Prefers && p.target == PrefTarget::Volatile)
        .expect("v4 has a volatile-preference entry");
    assert_eq!(pref_v.strength_vol, 0);
}

#[test]
fn final_allocation_matches_figure7_g() {
    let (func, [v0, v1, v2, v3, v4]) = figure7_func();
    let target = TargetDesc::figure7();
    let out = PreferenceAllocator::full()
        .allocate(&func, &target, &mut AllocSession::default())
        .unwrap();

    assert_eq!(out.assignment[v0.index()], Some(PhysReg::int(0)), "v0");
    assert_eq!(out.assignment[v1.index()], Some(PhysReg::int(1)), "v1");
    assert_eq!(out.assignment[v2.index()], Some(PhysReg::int(2)), "v2");
    assert_eq!(out.assignment[v3.index()], Some(PhysReg::int(0)), "v3");
    assert_eq!(out.assignment[v4.index()], Some(PhysReg::int(2)), "v4");
}

#[test]
fn final_code_matches_figure7_h() {
    let (func, _) = figure7_func();
    let target = TargetDesc::figure7();
    let out = PreferenceAllocator::full()
        .allocate(&func, &target, &mut AllocSession::default())
        .unwrap();
    let stats = out.stats;

    // Every copy coalesced: v3 = v0, the argument copy, the parameter copy.
    assert_eq!(stats.copies_remaining, 0, "no moves survive");
    assert_eq!(stats.moves_eliminated, stats.copies_before);
    assert!(stats.copies_before >= 3);
    // One paired load, no spills, no caller saves, one non-volatile (r2).
    assert_eq!(stats.paired_loads, 1);
    assert_eq!(stats.spill_instructions, 0);
    assert_eq!(stats.caller_save_insts, 0);
    assert_eq!(stats.nonvolatiles_used, 1);

    // Figure 7(h), instruction for instruction:
    //   b0: r0 = [r0];            jump L1
    //   L1: r1,r2 = [r0],[r0+8];  r2 = add r1,r2;  call g(r0);
    //       r0 = add r2,#1;       if ne r0,#0 goto L1
    //   b2: ret
    let b0 = &out.mach.blocks[0];
    assert!(
        matches!(
            b0[0],
            MInst::Load {
                dst,
                base,
                offset: 0
            } if dst == PhysReg::int(0) && base == PhysReg::int(0)
        ),
        "i0 should be r0 = [r0], got {:?}",
        b0[0]
    );
    let b1 = &out.mach.blocks[1];
    assert!(
        matches!(
            b1[0],
            MInst::LoadPair {
                dst1,
                dst2,
                base,
                offset: 0,
                offset2: 8,
            } if dst1 == PhysReg::int(1) && dst2 == PhysReg::int(2) && base == PhysReg::int(0)
        ),
        "the loop should start with the fused paired load, got {:?}",
        b1[0]
    );
    assert!(
        matches!(
            b1[1],
            MInst::Bin {
                op: BinOp::Add,
                dst,
                lhs,
                rhs,
            } if dst == PhysReg::int(2) && lhs == PhysReg::int(1) && rhs == PhysReg::int(2)
        ),
        "r2 = add r1, r2, got {:?}",
        b1[1]
    );
    assert!(
        matches!(&b1[2], MInst::Call { arg_regs, .. } if arg_regs == &[PhysReg::int(0)]),
        "call g(r0), got {:?}",
        b1[2]
    );
    assert!(
        matches!(
            b1[3],
            MInst::BinImm {
                op: BinOp::Add,
                dst,
                lhs,
                imm: 1,
            } if dst == PhysReg::int(0) && lhs == PhysReg::int(2)
        ),
        "r0 = add r2, #1, got {:?}",
        b1[3]
    );
    assert!(
        matches!(
            b1[4],
            MInst::BranchImm {
                op: CmpOp::Ne,
                lhs,
                imm: 0,
                ..
            } if lhs == PhysReg::int(0)
        ),
        "loop branch on r0, got {:?}",
        b1[4]
    );
    assert_eq!(b1.len(), 5, "loop body is exactly five instructions");
    assert!(matches!(out.mach.blocks[2][..], [MInst::Ret]));
}

/// The paper's premise: preference-unaware allocation of the same program
/// cannot express the paired load *and* the non-volatile placement at the
/// same time — the full-preference result strictly dominates on dynamic
/// cycles (the quantity behind Figures 10/11).
#[test]
fn full_preferences_beat_coalescing_only_on_figure7() {
    let (func, _) = figure7_func();
    let target = TargetDesc::figure7();
    let full = PreferenceAllocator::full()
        .allocate(&func, &target, &mut AllocSession::default())
        .unwrap();
    let only = PreferenceAllocator::coalescing_only()
        .allocate(&func, &target, &mut AllocSession::default())
        .unwrap();
    // Static count: full fuses the pair; coalescing-only has no reason to.
    assert_eq!(full.stats.paired_loads, 1);
    // Weighted loop-body cost must favour the full configuration (or tie
    // it if coalescing-only got lucky): compare per-iteration machine
    // cycles of the loop block.
    let loop_cost = |m: &MachFunction| -> u64 {
        m.blocks[1]
            .iter()
            .map(pdgc::sim::cycles::minst_cycles)
            .sum()
    };
    assert!(
        loop_cost(&full.mach) <= loop_cost(&only.mach),
        "full {} vs only {}",
        loop_cost(&full.mach),
        loop_cost(&only.mach)
    );
}
