//! Post-allocation rewriting: IR → machine code.
//!
//! Applies the register assignment and performs the mechanical tail of
//! allocation:
//!
//! * **copy elimination** — a copy whose endpoints share a register
//!   disappears (this is where deferred coalescing pays off);
//! * **caller-side save/restore** — a value live across a call in a
//!   volatile register is saved before and restored after the call (the
//!   Appendix's `Save_Restore_Cost`);
//! * **paired-load fusion** — adjacent loads of consecutive words whose
//!   destinations satisfy the target's [`pdgc_target::PairedLoadRule`]
//!   become a single [`MInst::LoadPair`];
//! * **callee-save bookkeeping** — every written non-volatile register is
//!   recorded for the prologue/epilogue.

use crate::scratch::PhaseScratch;
use crate::stats::AllocStats;
use pdgc_analysis::{BitSet, Cfg, Liveness};
use pdgc_ir::{Function, Inst, RegClass, VReg};
use pdgc_target::{MInst, MachFunction, PhysReg, TargetDesc, MAX_REGS};

/// Applies `assignment` (one register per live virtual register) to the
/// lowered, spill-free function and produces machine code, drawing its
/// liveness sets and the machine function's block storage from pooled
/// scratch.
///
/// `spill_slots` is the number of frame slots already consumed by spill
/// code; caller-save shadow slots are allocated above it. Statistics are
/// accumulated into `stats`. The block storage escapes inside the
/// returned [`MachFunction`]; it returns to the pool when the caller
/// recycles the surrounding [`crate::pipeline::AllocOutput`].
///
/// # Panics
///
/// Panics if a referenced virtual register has no assignment.
pub fn rewrite_in(
    func: &Function,
    assignment: &[Option<PhysReg>],
    target: &TargetDesc,
    spill_slots: u32,
    stats: &mut AllocStats,
    scratch: &mut PhaseScratch,
) -> MachFunction {
    let reg_of = |v: VReg| -> PhysReg {
        assignment[v.index()]
            .unwrap_or_else(|| panic!("rewrite: {v} in {} has no register", func.name))
    };

    let cfg = Cfg::compute_in(func, &mut scratch.liveness.cfg);
    let liveness = Liveness::compute_in(func, &cfg, &mut scratch.liveness);
    let RewriteScratch { live, saves } = &mut scratch.rewrite;

    stats.copies_before += func.num_copies();
    for blk in &func.blocks {
        for inst in &blk.insts {
            if let Inst::Copy { dst, .. } = inst {
                stats.class_mut(func.class_of(*dst)).copies_before += 1;
            }
        }
    }

    // Caller-save shadow slots, one per register, numbered in first use.
    let mut save_slot = [[None::<u32>; MAX_REGS]; RegClass::ALL.len()];
    let mut next_slot = spill_slots;
    let mut slot_of = |r: PhysReg| {
        *save_slot[r.class().index()][r.index()].get_or_insert_with(|| {
            next_slot += 1;
            next_slot - 1
        })
    };

    let mut blocks: Vec<Vec<MInst>> = scratch.mach_blocks.take(func.num_blocks());
    for b in func.block_ids() {
        // The volatile registers live across each call of the block, last
        // call first, as one mask per class.
        saves.clear();
        liveness.for_each_inst_backward_in(func, b, live, |_, inst, live_after| {
            if !inst.is_call() {
                return;
            }
            let def = inst.def();
            let mut across = [0u64; RegClass::ALL.len()];
            for v in live_after.iter().map(VReg::new).filter(|&v| Some(v) != def) {
                let r = reg_of(v);
                if target.is_volatile(r) {
                    across[r.class().index()] |= 1 << r.index();
                }
            }
            saves.push(across);
        });
        let out = &mut blocks[b.index()];
        for inst in &func.block(b).insts {
            match inst {
                Inst::Copy { dst, src } => {
                    let (d, s) = (reg_of(*dst), reg_of(*src));
                    if d == s {
                        stats.moves_eliminated += 1;
                        stats.class_mut(d.class()).moves_eliminated += 1;
                    } else {
                        stats.copies_remaining += 1;
                        stats.class_mut(d.class()).copies_remaining += 1;
                        out.push(MInst::Copy { dst: d, src: s });
                    }
                }
                Inst::Iconst { dst, value } => out.push(MInst::Iconst {
                    dst: reg_of(*dst),
                    value: *value,
                }),
                Inst::Fconst { dst, value } => out.push(MInst::Fconst {
                    dst: reg_of(*dst),
                    value: *value,
                }),
                Inst::Load { dst, base, offset } => out.push(MInst::Load {
                    dst: reg_of(*dst),
                    base: reg_of(*base),
                    offset: *offset,
                }),
                Inst::Load8 { dst, base, offset } => {
                    let d = reg_of(*dst);
                    out.push(MInst::Load8 {
                        dst: d,
                        base: reg_of(*base),
                        offset: *offset,
                    });
                    if !target.is_byte_capable(d) {
                        stats.zero_extensions += 1;
                        out.push(MInst::BinImm {
                            op: pdgc_ir::BinOp::And,
                            dst: d,
                            lhs: d,
                            imm: 0xff,
                        });
                    }
                }
                Inst::Store { src, base, offset } => out.push(MInst::Store {
                    src: reg_of(*src),
                    base: reg_of(*base),
                    offset: *offset,
                }),
                Inst::Bin { op, dst, lhs, rhs } => out.push(MInst::Bin {
                    op: *op,
                    dst: reg_of(*dst),
                    lhs: reg_of(*lhs),
                    rhs: reg_of(*rhs),
                }),
                Inst::BinImm { op, dst, lhs, imm } => out.push(MInst::BinImm {
                    op: *op,
                    dst: reg_of(*dst),
                    lhs: reg_of(*lhs),
                    imm: *imm,
                }),
                Inst::Call { callee, args, ret } => {
                    let across = saves.pop().unwrap_or_default();
                    for r in regs_in(across) {
                        stats.caller_save_insts += 1;
                        out.push(MInst::SpillStore {
                            src: r,
                            slot: slot_of(r),
                        });
                    }
                    out.push(MInst::Call {
                        callee: *callee,
                        arg_regs: args.iter().map(|&a| reg_of(a)).collect(),
                        ret_reg: ret.map(reg_of),
                    });
                    for r in regs_in(across) {
                        stats.caller_save_insts += 1;
                        out.push(MInst::SpillLoad {
                            dst: r,
                            slot: slot_of(r),
                        });
                    }
                }
                Inst::Jump { target: t } => out.push(MInst::Jump { target: *t }),
                Inst::Branch {
                    op,
                    lhs,
                    rhs,
                    then_dst,
                    else_dst,
                } => out.push(MInst::Branch {
                    op: *op,
                    lhs: reg_of(*lhs),
                    rhs: reg_of(*rhs),
                    then_dst: *then_dst,
                    else_dst: *else_dst,
                }),
                Inst::BranchImm {
                    op,
                    lhs,
                    imm,
                    then_dst,
                    else_dst,
                } => out.push(MInst::BranchImm {
                    op: *op,
                    lhs: reg_of(*lhs),
                    imm: *imm,
                    then_dst: *then_dst,
                    else_dst: *else_dst,
                }),
                Inst::Ret { .. } => out.push(MInst::Ret),
                Inst::Reload { dst, slot } => {
                    stats.spill_loads += 1;
                    let r = reg_of(*dst);
                    stats.class_mut(r.class()).spill_loads += 1;
                    out.push(MInst::SpillLoad { dst: r, slot: *slot });
                }
                Inst::Spill { src, slot } => {
                    stats.spill_stores += 1;
                    let r = reg_of(*src);
                    stats.class_mut(r.class()).spill_stores += 1;
                    out.push(MInst::SpillStore { src: r, slot: *slot });
                }
            }
        }
        fuse_paired_loads(out, target, stats);
    }
    stats.spill_instructions += stats.spill_loads + stats.spill_stores;

    // Callee-save bookkeeping: every written non-volatile register.
    let mut written: Vec<PhysReg> = Vec::new();
    for blk in &blocks {
        for inst in blk {
            // `for_each_def` rather than a hand-maintained variant list: a
            // missed writer here (Load8 was one, caught by pdgc-check)
            // silently corrupts a caller's non-volatile register.
            inst.for_each_def(|r| {
                if !target.is_volatile(r) && !written.contains(&r) {
                    written.push(r);
                }
            });
        }
    }
    written.sort();
    stats.nonvolatiles_used += written.len();
    stats.frame_slots += next_slot;
    liveness.recycle(&mut scratch.liveness);
    cfg.recycle(&mut scratch.liveness.cfg);

    MachFunction {
        name: func.name.clone(),
        sig: func.sig.clone(),
        blocks,
        num_slots: next_slot,
        used_nonvolatiles: written,
        callees: func.callees.clone(),
    }
}

/// Reusable storage for [`rewrite_in`]'s caller-save query.
#[derive(Debug, Default)]
pub struct RewriteScratch {
    /// The running live set of a block's backward walk.
    live: BitSet,
    /// One block's calls, last first: the volatile registers live across
    /// each, one mask per class.
    saves: Vec<[u64; RegClass::ALL.len()]>,
}

/// The registers set in per-class masks, in [`PhysReg`] order: class,
/// then index.
fn regs_in(masks: [u64; RegClass::ALL.len()]) -> impl Iterator<Item = PhysReg> {
    RegClass::ALL.into_iter().flat_map(move |class| {
        let mut mask = masks[class.index()];
        std::iter::from_fn(move || {
            let i = mask.trailing_zeros() as u8;
            (mask != 0).then(|| {
                mask &= mask - 1;
                PhysReg::new(class, i)
            })
        })
    })
}

/// Fuses `Load r1, [b+o]; ...; Load r2, [b+o±stride]` into a `LoadPair`
/// when the destinations satisfy the class's pair rule (ascending or
/// descending offsets — the rule always constrains the lower-addressed
/// word's destination first), the first destination is not the base
/// (which the second load still reads), and the second load sits within
/// the rule's scan window with nothing unsafe in between. Stride,
/// alignment, and window all come from the target's per-class
/// [`pdgc_target::PairRule`].
fn fuse_paired_loads(block: &mut Vec<MInst>, target: &TargetDesc, stats: &mut AllocStats) {
    let mut i = 0;
    while i < block.len() {
        match pair_partner(block, i, target) {
            PairScan::Fuse(j) => {
                let (
                    MInst::Load {
                        dst: d1,
                        base,
                        offset: o1,
                    },
                    MInst::Load {
                        dst: d2, offset: o2, ..
                    },
                ) = (block[i].clone(), block[j].clone())
                else {
                    unreachable!()
                };
                block[i] = MInst::LoadPair {
                    dst1: d1,
                    dst2: d2,
                    base,
                    offset: o1,
                    offset2: o2,
                };
                block.remove(j);
                stats.paired_loads += 1;
                stats.paired_candidates += 1;
            }
            PairScan::Candidate => stats.paired_candidates += 1,
            PairScan::NoPartner => {}
        }
        i += 1;
    }
}

/// Outcome of scanning a load's fusion window.
enum PairScan {
    /// No partner address inside the window (or a barrier cut it short).
    NoPartner,
    /// An address partner exists but register constraints (pair rule,
    /// alignment, intervening uses) block the fusion — a missed
    /// opportunity the scorecard counts against the sequential preference.
    Candidate,
    /// The load at this index fuses.
    Fuse(usize),
}

/// Finds, within the class's scan window past the load at `i`, a later
/// load this one can fuse with, and returns its index.
///
/// Fusing hoists the second load (its memory read and its write of `d2`)
/// up to position `i`, so the scan stops at anything that could observe
/// the difference: memory writes and calls, terminators, redefinitions of
/// the base, and any instruction that reads or writes `d2`. Intervening
/// defs or uses of `d1` are harmless — the first load already executes at
/// position `i` either way.
fn pair_partner(block: &[MInst], i: usize, target: &TargetDesc) -> PairScan {
    let MInst::Load {
        dst: d1,
        base,
        offset: o1,
    } = block[i]
    else {
        return PairScan::NoPartner;
    };
    let Some(&rule) = target.pair_rule(d1.class()) else {
        return PairScan::NoPartner;
    };
    if d1 == base {
        return PairScan::NoPartner;
    }
    // A partner may sit one stride above *or* below: descending-offset
    // pairs (the RPG's minus-stride shape) fuse with the later load
    // supplying the lower-addressed word. The rule constrains the pair as
    // (lower word, higher word), and alignment applies to the lower offset.
    let plus = o1 + rule.stride();
    let minus = o1 - rule.stride();
    let end = block.len().min(i + 1 + rule.window());
    for j in i + 1..end {
        if let MInst::Load {
            dst: d2,
            base: b2,
            offset: o2,
        } = block[j]
        {
            // The first load matching a partner address decides the
            // pair; scanning past it would reorder two reads of the
            // same location.
            if b2 == base && (o2 == plus || o2 == minus) {
                let (lo_dst, lo_off, hi_dst) = if o2 == plus {
                    (d1, o1, d2)
                } else {
                    (d2, o2, d1)
                };
                let ok = d2 != d1
                    && rule.aligned(lo_off)
                    && rule.allows(lo_dst, hi_dst)
                    && block[i + 1..j].iter().all(|x| !x.regs().contains(&d2));
                return if ok { PairScan::Fuse(j) } else { PairScan::Candidate };
            }
        }
        if fusion_barrier(&block[j], base) {
            return PairScan::NoPartner;
        }
    }
    PairScan::NoPartner
}

/// Whether the second load of a pair may be hoisted past `inst`: memory
/// writes, calls, terminators, and redefinitions of the pair's base all
/// pin it in place.
fn fusion_barrier(inst: &MInst, base: PhysReg) -> bool {
    match inst {
        MInst::Store { .. }
        | MInst::SpillStore { .. }
        | MInst::Call { .. }
        | MInst::Jump { .. }
        | MInst::Branch { .. }
        | MInst::BranchImm { .. }
        | MInst::Ret => true,
        _ => inst.writes(base),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgc_ir::{BinOp, FunctionBuilder, RegClass};
    use pdgc_target::PressureModel;

    fn assign_all(func: &Function, regs: &[(VReg, PhysReg)]) -> Vec<Option<PhysReg>> {
        let mut a = vec![None; func.num_vregs()];
        for &(v, r) in regs {
            a[v.index()] = Some(r);
        }
        a
    }

    #[test]
    fn same_register_copy_eliminated() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let c = b.copy(p);
        b.ret(Some(c));
        let f = b.finish();
        let t = TargetDesc::ia64_like(PressureModel::High);
        let a = assign_all(&f, &[(p, PhysReg::int(0)), (c, PhysReg::int(0))]);
        let mut stats = AllocStats::default();
        let m = rewrite_in(&f, &a, &t, 0, &mut stats, &mut PhaseScratch::new());
        assert_eq!(stats.moves_eliminated, 1);
        assert_eq!(stats.copies_remaining, 0);
        assert_eq!(m.num_copies(), 0);
    }

    #[test]
    fn caller_save_inserted_for_volatile_across_call() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        b.call("g", vec![], None);
        let r = b.bin(BinOp::Add, p, p);
        b.ret(Some(r));
        let f = b.finish();
        let t = TargetDesc::ia64_like(PressureModel::High);
        // p in a volatile register crosses the call.
        let a = assign_all(&f, &[(p, PhysReg::int(3)), (r, PhysReg::int(0))]);
        let mut stats = AllocStats::default();
        let m = rewrite_in(&f, &a, &t, 0, &mut stats, &mut PhaseScratch::new());
        assert_eq!(stats.caller_save_insts, 2);
        let kinds: Vec<&str> = m.blocks[0]
            .iter()
            .map(|i| match i {
                MInst::SpillStore { .. } => "save",
                MInst::Call { .. } => "call",
                MInst::SpillLoad { .. } => "restore",
                MInst::Ret => "ret",
                _ => "op",
            })
            .collect();
        assert_eq!(kinds, vec!["save", "call", "restore", "op", "ret"]);
        assert_eq!(m.num_slots, 1);
    }

    #[test]
    fn no_caller_save_for_nonvolatile() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let q = b.load(p, 0); // written before the call, live across it
        b.call("g", vec![], None);
        let r = b.bin(BinOp::Add, q, q);
        b.ret(Some(r));
        let f = b.finish();
        let t = TargetDesc::ia64_like(PressureModel::High);
        // q in a non-volatile register (index >= 8 under High).
        let a = assign_all(
            &f,
            &[
                (p, PhysReg::int(0)),
                (q, PhysReg::int(12)),
                (r, PhysReg::int(0)),
            ],
        );
        let mut stats = AllocStats::default();
        let m = rewrite_in(&f, &a, &t, 0, &mut stats, &mut PhaseScratch::new());
        assert_eq!(stats.caller_save_insts, 0);
        // But the non-volatile register is recorded for the prologue.
        assert_eq!(m.used_nonvolatiles, vec![PhysReg::int(12)]);
        assert_eq!(stats.nonvolatiles_used, 1);
    }

    #[test]
    fn byte_load_into_nonvolatile_is_recorded() {
        // Pinned by the symbolic checker (seed 0x0fb762ec852796b7 in
        // tests/check_properties.proptest-regressions): the callee-save
        // scan matched on instruction variants and missed `Load8`, so a
        // byte load into a non-volatile register never reached
        // `used_nonvolatiles` and the prologue would not have saved it.
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let q = b.load8(p, 0);
        b.ret(Some(q));
        let f = b.finish();
        let t = TargetDesc::ia64_like(PressureModel::High);
        let a = assign_all(&f, &[(p, PhysReg::int(0)), (q, PhysReg::int(9))]);
        let mut stats = AllocStats::default();
        let m = rewrite_in(&f, &a, &t, 0, &mut stats, &mut PhaseScratch::new());
        assert_eq!(m.used_nonvolatiles, vec![PhysReg::int(9)]);
    }

    #[test]
    fn paired_load_fused_when_rule_allows() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let x = b.load(p, 0);
        let y = b.load(p, 8);
        let s = b.bin(BinOp::Add, x, y);
        b.ret(Some(s));
        let f = b.finish();
        let t = TargetDesc::ia64_like(PressureModel::High); // parity rule
        let a = assign_all(
            &f,
            &[
                (p, PhysReg::int(0)),
                (x, PhysReg::int(1)),
                (y, PhysReg::int(2)),
                (s, PhysReg::int(0)),
            ],
        );
        let mut stats = AllocStats::default();
        let m = rewrite_in(&f, &a, &t, 0, &mut stats, &mut PhaseScratch::new());
        assert_eq!(stats.paired_loads, 1);
        assert_eq!(m.num_paired_loads(), 1);

        // Same-parity destinations cannot fuse.
        let a2 = assign_all(
            &f,
            &[
                (p, PhysReg::int(0)),
                (x, PhysReg::int(1)),
                (y, PhysReg::int(3)),
                (s, PhysReg::int(0)),
            ],
        );
        let mut stats2 = AllocStats::default();
        let m2 = rewrite_in(&f, &a2, &t, 0, &mut stats2, &mut PhaseScratch::new());
        assert_eq!(stats2.paired_loads, 0);
        assert_eq!(m2.num_paired_loads(), 0);
    }

    #[test]
    fn minus_stride_pair_fuses() {
        // The loads arrive high-offset-first: [p+8] then [p]. The partner
        // sits one stride *below*, so the later load supplies the
        // lower-addressed word (the RPG's minus-stride shape).
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let y = b.load(p, 8);
        let x = b.load(p, 0);
        let s = b.bin(BinOp::Add, x, y);
        b.ret(Some(s));
        let f = b.finish();
        let t = TargetDesc::ia64_like(PressureModel::High); // parity rule
        let a = assign_all(
            &f,
            &[
                (p, PhysReg::int(0)),
                (y, PhysReg::int(2)),
                (x, PhysReg::int(1)),
                (s, PhysReg::int(0)),
            ],
        );
        let mut stats = AllocStats::default();
        let m = rewrite_in(&f, &a, &t, 0, &mut stats, &mut PhaseScratch::new());
        assert_eq!(stats.paired_loads, 1, "descending-offset pair must fuse");
        assert!(matches!(
            m.blocks[0][0],
            MInst::LoadPair {
                offset: 8,
                offset2: 0,
                ..
            }
        ));

        // The rule still constrains the *lower* word's destination first:
        // under a Sequential rule, (lower, higher) = (r1, r2) fuses even
        // though the textual order is r2 then r1...
        let spec = || {
            pdgc_target::ClassSpec::new(16).volatile_prefix(8).pair(
                pdgc_target::PairRule::new(pdgc_target::PairedLoadRule::Sequential, 8),
            )
        };
        let seq = TargetDesc::builder("seq")
            .class(RegClass::Int, spec())
            .class(RegClass::Float, spec())
            .finish()
            .unwrap();
        let mut stats3 = AllocStats::default();
        let m3 = rewrite_in(&f, &a, &seq, 0, &mut stats3, &mut PhaseScratch::new());
        assert_eq!(stats3.paired_loads, 1);
        let _ = m3;

        // ...but (lower, higher) = (r2, r1) breaks Sequential and must not.
        let a2 = assign_all(
            &f,
            &[
                (p, PhysReg::int(0)),
                (y, PhysReg::int(1)),
                (x, PhysReg::int(2)),
                (s, PhysReg::int(0)),
            ],
        );
        let mut stats4 = AllocStats::default();
        let m4 = rewrite_in(&f, &a2, &seq, 0, &mut stats4, &mut PhaseScratch::new());
        assert_eq!(stats4.paired_loads, 0);
        let _ = m4;
    }

    #[test]
    fn minus_stride_alignment_applies_to_the_lower_offset() {
        // Loads at 24 then 16 under an align-16 rule: the lower offset (16)
        // is aligned, so the descending pair fuses — the old ascending-only
        // scan also checked alignment on the first load's offset (24) and
        // could never see this pair.
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let y = b.load(p, 24);
        let x = b.load(p, 16);
        let s = b.bin(BinOp::Add, x, y);
        b.ret(Some(s));
        let f = b.finish();
        let spec = || {
            pdgc_target::ClassSpec::new(16).volatile_prefix(8).pair(
                pdgc_target::PairRule::new(pdgc_target::PairedLoadRule::Parity, 8).with_align(16),
            )
        };
        let t = TargetDesc::builder("al")
            .class(RegClass::Int, spec())
            .class(RegClass::Float, spec())
            .finish()
            .unwrap();
        let a = assign_all(
            &f,
            &[
                (p, PhysReg::int(0)),
                (y, PhysReg::int(2)),
                (x, PhysReg::int(1)),
                (s, PhysReg::int(0)),
            ],
        );
        let mut stats = AllocStats::default();
        let m = rewrite_in(&f, &a, &t, 0, &mut stats, &mut PhaseScratch::new());
        assert_eq!(stats.paired_loads, 1);
        let _ = m;
    }

    #[test]
    fn fusion_blocked_when_dst_is_base() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let x = b.load(p, 0);
        let y = b.load(p, 8);
        let s = b.bin(BinOp::Add, x, y);
        b.ret(Some(s));
        let f = b.finish();
        let t = TargetDesc::ia64_like(PressureModel::High);
        // x lands on the base register: second load would read clobbered
        // base under sequential execution, so fusion must not happen.
        let a = assign_all(
            &f,
            &[
                (p, PhysReg::int(1)),
                (x, PhysReg::int(1)),
                (y, PhysReg::int(2)),
                (s, PhysReg::int(0)),
            ],
        );
        let mut stats = AllocStats::default();
        let m = rewrite_in(&f, &a, &t, 0, &mut stats, &mut PhaseScratch::new());
        assert_eq!(m.num_paired_loads(), 0);
    }

    #[test]
    fn interleaved_loads_fuse_within_the_window() {
        // load x; arith; load y — the old adjacent-only scan missed
        // this shape; the windowed scan fuses it.
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let x = b.load(p, 0);
        let t1 = b.bin_imm(BinOp::Add, x, 3);
        let y = b.load(p, 8);
        let s = b.bin(BinOp::Add, t1, y);
        b.ret(Some(s));
        let f = b.finish();
        let t = TargetDesc::ia64_like(PressureModel::High);
        let a = assign_all(
            &f,
            &[
                (p, PhysReg::int(0)),
                (x, PhysReg::int(1)),
                (t1, PhysReg::int(3)),
                (y, PhysReg::int(2)),
                (s, PhysReg::int(0)),
            ],
        );
        let mut stats = AllocStats::default();
        let m = rewrite_in(&f, &a, &t, 0, &mut stats, &mut PhaseScratch::new());
        assert_eq!(stats.paired_loads, 1);
        assert_eq!(m.num_paired_loads(), 1);

        // With a window of 1 (adjacent only) the same code must not fuse.
        use pdgc_target::{ClassSpec, PairRule, PairedLoadRule};
        let spec = || {
            ClassSpec::new(16)
                .volatile_prefix(8)
                .pair(PairRule::new(PairedLoadRule::Parity, 8).with_window(1))
        };
        let adjacent_only = TargetDesc::builder("adjacent")
            .class(RegClass::Int, spec())
            .class(RegClass::Float, spec())
            .finish()
            .unwrap();
        let mut stats2 = AllocStats::default();
        let m2 = rewrite_in(
            &f,
            &a,
            &adjacent_only,
            0,
            &mut stats2,
            &mut PhaseScratch::new(),
        );
        assert_eq!(stats2.paired_loads, 0);
        assert_eq!(m2.num_paired_loads(), 0);
    }

    #[test]
    fn window_fusion_blocked_by_d2_mention_and_barriers() {
        let t = TargetDesc::ia64_like(PressureModel::High);
        // An intervening use of the second destination blocks fusion:
        // hoisting y's write would clobber the value the use reads.
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let x = b.load(p, 0);
        let t1 = b.bin_imm(BinOp::Add, x, 1);
        let y = b.load(p, 8);
        let s = b.bin(BinOp::Add, t1, y);
        b.ret(Some(s));
        let f = b.finish();
        // t1 lands on the register y will occupy — the intervening inst
        // mentions d2, so the pair must not form.
        let a = assign_all(
            &f,
            &[
                (p, PhysReg::int(0)),
                (x, PhysReg::int(1)),
                (t1, PhysReg::int(2)), // = d2!
                (y, PhysReg::int(2)),
                (s, PhysReg::int(0)),
            ],
        );
        let mut stats = AllocStats::default();
        let m = rewrite_in(&f, &a, &t, 0, &mut stats, &mut PhaseScratch::new());
        assert_eq!(m.num_paired_loads(), 0);

        // A store between the loads is a memory barrier.
        let mut b = FunctionBuilder::new("g", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let x = b.load(p, 0);
        b.store(x, p, 1 << 20);
        let y = b.load(p, 8);
        let s = b.bin(BinOp::Add, x, y);
        b.ret(Some(s));
        let f = b.finish();
        let a = assign_all(
            &f,
            &[
                (p, PhysReg::int(0)),
                (x, PhysReg::int(1)),
                (y, PhysReg::int(2)),
                (s, PhysReg::int(0)),
            ],
        );
        let mut stats = AllocStats::default();
        let m = rewrite_in(&f, &a, &t, 0, &mut stats, &mut PhaseScratch::new());
        assert_eq!(m.num_paired_loads(), 0);
    }

    #[test]
    fn spill_traffic_translated() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let t1 = b.new_vreg(RegClass::Int);
        b.emit(Inst::Spill { src: p, slot: 0 });
        b.emit(Inst::Reload { dst: t1, slot: 0 });
        b.ret(Some(t1));
        let f = b.finish();
        let t = TargetDesc::ia64_like(PressureModel::High);
        let a = assign_all(&f, &[(p, PhysReg::int(0)), (t1, PhysReg::int(0))]);
        let mut stats = AllocStats::default();
        let m = rewrite_in(&f, &a, &t, 1, &mut stats, &mut PhaseScratch::new());
        assert_eq!(stats.spill_loads, 1);
        assert_eq!(stats.spill_stores, 1);
        assert_eq!(stats.spill_instructions, 2);
        assert_eq!(m.num_spill_insts(), 2);
        assert_eq!(m.num_slots, 1);
    }
}
