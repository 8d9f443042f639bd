//! The paper's §4 problem scenarios — Figures 4, 5, and 6 — which
//! motivate integrating preference resolution into the select phase.
//! Each test builds the scenario and checks that the preference-directed
//! allocator avoids the failure mode the paper describes.

use pdgc::prelude::*;

/// **Figure 4**: live ranges B, C, D, E prefer non-volatile registers and
/// A/B are copy-related. Preference-unaware coalescing merges A and B; the
/// merged range then competes for non-volatile registers and, when those
/// run out, quality degrades. The preference-directed allocator resolves
/// volatility and coalescing *simultaneously*, so the call-crossing values
/// (its equivalent of the non-volatile preference) never end up paying
/// caller saves just because of a coalesce.
#[test]
fn figure4_coalescing_vs_nonvolatile_pressure() {
    // Toy target: 6 registers, 3 volatile (r0..r2, with r0/r1 args), 3
    // non-volatile (r3..r5).
    let target = TargetDesc::toy(6);

    // a is copy-related to b; b, c, d, e all cross calls (prefer
    // non-volatile); there are exactly 3 non-volatile registers for 4
    // preferring ranges.
    let mut f = FunctionBuilder::new("fig4", vec![RegClass::Int], Some(RegClass::Int));
    let p = f.param(0);
    let a = f.bin_imm(BinOp::Add, p, 1); // A
    let b = f.copy(a); // B = A (copy-related)
    let c = f.bin_imm(BinOp::Add, p, 2);
    let d = f.bin_imm(BinOp::Add, p, 3);
    let e = f.bin_imm(BinOp::Add, p, 4);
    // A dies before the call; B, C, D, E cross it.
    f.store(a, p, 256);
    f.call("g", vec![], None);
    let s1 = f.bin(BinOp::Add, b, c);
    let s2 = f.bin(BinOp::Add, d, e);
    let s = f.bin(BinOp::Add, s1, s2);
    f.ret(Some(s));
    let func = f.finish();

    let out = PreferenceAllocator::full()
        .allocate(&func, &target, &mut AllocSession::default())
        .unwrap();
    // Four ranges cross the call but only three non-volatile registers
    // exist: exactly one range can need caller saving (2 instructions) —
    // integrated selection must not do worse.
    assert!(
        out.stats.caller_save_insts <= 2,
        "at most one crossing range may spill to a volatile register, got {} save/restores",
        out.stats.caller_save_insts
    );
    assert_eq!(out.stats.spill_instructions, 0);

    // And the result still computes the right thing.
    let reference = run_ir(&func, &[10], DEFAULT_FUEL).unwrap();
    let mach = run_mach(&out.mach, &target, &[10], DEFAULT_FUEL).unwrap();
    check_equivalent(&reference, &mach).unwrap();
}

/// **Figure 5(a)**: `v1 = [v0]; v2 = [v0+8]` is a paired-load candidate,
/// but v1 and v2 are also copied into call arguments arg0 and arg2. If
/// coalescing recklessly merges v1/arg0 and v2/arg2 (same parity on
/// IA-64!), the paired load becomes impossible. The preference-directed
/// allocator weighs both preferences and keeps the pairing.
#[test]
fn figure5a_reckless_coalescing_kills_paired_load() {
    let target = TargetDesc::ia64_like(PressureModel::High); // parity rule
    let mut f = FunctionBuilder::new("fig5a", vec![RegClass::Int], Some(RegClass::Int));
    let p = f.param(0);
    // Hot loop so the paired load dominates the cost model.
    let header = f.create_block();
    let body = f.create_block();
    let exit = f.create_block();
    let i = f.bin_imm(BinOp::Add, p, 4);
    f.jump(header);
    f.switch_to(header);
    f.branch_imm(CmpOp::Gt, i, 0, body, exit);
    f.switch_to(body);
    let v1 = f.load(p, 0);
    let v2 = f.load(p, 8);
    // arg0 and arg2 of the call: same parity registers (r0 and r2).
    let filler = f.iconst(7);
    f.call("h", vec![v1, filler, v2], None);
    f.emit(pdgc::ir::Inst::BinImm {
        op: BinOp::Sub,
        dst: i,
        lhs: i,
        imm: 1,
    });
    f.jump(header);
    f.switch_to(exit);
    f.ret(Some(i));
    let func = f.finish();

    let out = PreferenceAllocator::full()
        .allocate(&func, &target, &mut AllocSession::default())
        .unwrap();
    // The paired load must survive: v1/v2 get different-parity registers
    // even though their argument homes r0/r2 share parity.
    assert_eq!(
        out.stats.paired_loads, 1,
        "the paired load must be fused despite the same-parity argument homes"
    );

    let reference = run_ir(&func, &[1000], DEFAULT_FUEL).unwrap();
    let mach = run_mach(&out.mach, &target, &[1000], DEFAULT_FUEL).unwrap();
    check_equivalent(&reference, &mach).unwrap();
}

/// **Figure 5(b)**: `farg0 = v1; call` where v1 is also live across the
/// call. Coalescing v1 into the (volatile) argument register saves the
/// copy but costs a save/restore around the call — a net loss in a loop.
/// The integrated allocator keeps v1 in a non-volatile register and pays
/// the one copy.
#[test]
fn figure5b_coalesce_vs_call_crossing() {
    let target = TargetDesc::ia64_like(PressureModel::Middle);
    let mut f = FunctionBuilder::new("fig5b", vec![RegClass::Int], Some(RegClass::Int));
    let p = f.param(0);
    let header = f.create_block();
    let body = f.create_block();
    let exit = f.create_block();
    let i = f.bin_imm(BinOp::Add, p, 3);
    let v1 = f.load(p, 0); // defined once, used as argument repeatedly
    f.jump(header);
    f.switch_to(header);
    f.branch_imm(CmpOp::Gt, i, 0, body, exit);
    f.switch_to(body);
    f.call("g", vec![v1], None); // v1 live across (used next iteration)
    f.emit(pdgc::ir::Inst::BinImm {
        op: BinOp::Sub,
        dst: i,
        lhs: i,
        imm: 1,
    });
    f.jump(header);
    f.switch_to(exit);
    f.ret(Some(v1));
    let func = f.finish();

    let full = PreferenceAllocator::full()
        .allocate(&func, &target, &mut AllocSession::default())
        .unwrap();
    // v1 must sit in a non-volatile register across the loop's calls: no
    // caller saves at all; the argument copy stays.
    assert_eq!(
        full.stats.caller_save_insts, 0,
        "v1 belongs in a non-volatile register, not coalesced into arg0"
    );
    assert!(full.stats.nonvolatiles_used >= 1);

    // Chaitin-aggressive does coalesce v1 into the argument register and
    // pays save/restore around every call — the paper's failure mode.
    use pdgc::core::baselines::ChaitinAllocator;
    let chaitin = ChaitinAllocator
        .allocate(&func, &target, &mut AllocSession::default())
        .unwrap();
    assert!(
        chaitin.stats.caller_save_insts > 0,
        "the base allocator should exhibit the Figure 5(b) pathology"
    );

    // Both remain correct; the full allocator is cheaper dynamically.
    let args = vec![64u64];
    let reference = run_ir(&func, &args, DEFAULT_FUEL).unwrap();
    let m_full = run_mach(&full.mach, &target, &args, DEFAULT_FUEL).unwrap();
    let m_chaitin = run_mach(&chaitin.mach, &target, &args, DEFAULT_FUEL).unwrap();
    check_equivalent(&reference, &m_full).unwrap();
    check_equivalent(&reference, &m_chaitin).unwrap();
    assert!(
        m_full.cycles < m_chaitin.cycles,
        "integrated allocation must beat reckless coalescing here: {} vs {}",
        m_full.cycles,
        m_chaitin.cycles
    );
}

/// **Figure 6(a)**: `A = B; arg0 = A; call` where B prefers a
/// non-volatile register. Coalescing A with B forces AB toward a
/// non-volatile register and leaves the argument copy; coalescing A with
/// arg0 eliminates that copy and leaves the cheap A = B copy... the
/// paper's point is that the *order* of coalescing decisions depends on
/// the preferences. The integrated allocator must end with at most one
/// surviving copy and no caller saving for B.
#[test]
fn figure6a_coalesce_order_depends_on_preferences() {
    let target = TargetDesc::ia64_like(PressureModel::Middle);
    let mut f = FunctionBuilder::new("fig6a", vec![RegClass::Int], Some(RegClass::Int));
    let p = f.param(0);
    let header = f.create_block();
    let body = f.create_block();
    let exit = f.create_block();
    let b_range = f.load(p, 0); // B: lives across calls (prefers non-vol)
    let i = f.bin_imm(BinOp::Add, p, 3);
    f.jump(header);
    f.switch_to(header);
    f.branch_imm(CmpOp::Gt, i, 0, body, exit);
    f.switch_to(body);
    let a = f.copy(b_range); // A = B
    f.call("g", vec![a], None); // arg0 = A; call
    f.emit(pdgc::ir::Inst::BinImm {
        op: BinOp::Sub,
        dst: i,
        lhs: i,
        imm: 1,
    });
    f.jump(header);
    f.switch_to(exit);
    f.ret(Some(b_range));
    let func = f.finish();

    let out = PreferenceAllocator::full()
        .allocate(&func, &target, &mut AllocSession::default())
        .unwrap();
    // B stays call-safe...
    assert_eq!(out.stats.caller_save_insts, 0);
    // ...and A coalesces with arg0 (the paper's preferred order): the only
    // surviving copies are the unavoidable ones — A = B in the loop body
    // and the final move of B into the return register.
    assert_eq!(
        out.stats.copies_remaining, 2,
        "A/arg0 must coalesce, leaving only A = B and the return move"
    );

    let reference = run_ir(&func, &[64], DEFAULT_FUEL).unwrap();
    let mach = run_mach(&out.mach, &target, &[64], DEFAULT_FUEL).unwrap();
    check_equivalent(&reference, &mach).unwrap();
}

/// **Figure 6(b)**: a copy chain `C0 = ret-of-call; T = C0 | T = C1;
/// C2 = T; ret = C2` where C1 prefers a non-volatile register. Coalescing
/// C1 with T would block the chain C0 = C2 = T = ret; the better order
/// coalesces {C0, C2, T, ret} and leaves C1's copy. The integrated
/// allocator should leave at most the copies the paper's best order
/// leaves (two: the T = C1 merge arm and C1's own definition).
#[test]
fn figure6b_copy_chain_through_return_register() {
    let target = TargetDesc::ia64_like(PressureModel::Middle);
    let mut f = FunctionBuilder::new("fig6b", vec![RegClass::Int], Some(RegClass::Int));
    let p = f.param(0);
    let then_b = f.create_block();
    let else_b = f.create_block();
    let join = f.create_block();
    // C1 crosses a call (prefers non-volatile).
    let c1 = f.load(p, 0);
    f.call("warm", vec![], None);
    let c0 = f.call("g", vec![], Some(RegClass::Int)).unwrap(); // C0 = ret
    f.branch_imm(CmpOp::Gt, c0, 0, then_b, else_b);
    f.switch_to(then_b);
    let t_then = f.copy(c0); // T = C0
    f.jump(join);
    f.switch_to(else_b);
    let t_else = f.copy(c1); // T = C1
    f.jump(join);
    f.switch_to(join);
    let t = f.phi(RegClass::Int, vec![(then_b, t_then), (else_b, t_else)]);
    let c2 = f.copy(t); // C2 = T
    f.ret(Some(c2)); // ret = C2
    let func = f.finish();

    let out = PreferenceAllocator::full()
        .allocate(&func, &target, &mut AllocSession::default())
        .unwrap();
    // The chain C0 → T → C2 → ret should collapse; at most the copies
    // touching C1 survive.
    assert!(
        out.stats.copies_remaining <= 2,
        "the C0/T/C2/ret chain should coalesce; {} copies survived",
        out.stats.copies_remaining
    );

    let reference = run_ir(&func, &[64], DEFAULT_FUEL).unwrap();
    let mach = run_mach(&out.mach, &target, &[64], DEFAULT_FUEL).unwrap();
    check_equivalent(&reference, &mach).unwrap();
}
