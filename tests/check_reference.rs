//! Differential test of the symbolic checker against a frozen reference:
//! the previous checker, whose abstract state was `BTreeMap`s of
//! `BTreeSet`s, kept verbatim in `tests/support/reference_checker.rs`.
//!
//! On random programs (the generator of `tests/check_properties.rs`),
//! every allocator × every builtin target, each allocation is checked by
//! both — as allocated, and after each of the six
//! corruptions `tests/check_negative.rs` applies by hand, here at a
//! generated position. Both checkers must return the same `Result`: the
//! same `CheckReport`, or the same violations in the same order. The new
//! checker reuses one pooled scratch across every check, so a state leaking
//! from one function into the next also fails here. Failing seeds persist
//! to `check_reference.proptest-regressions`.

// A verbatim copy: formatting it would make it differ from the original.
#[rustfmt::skip]
#[path = "support/reference_checker.rs"]
mod reference_checker;

use proptest::prelude::*;

use pdgc::ir::Inst;
use pdgc::prelude::*;
use pdgc::target::MInst;
use pdgc::workloads::WorkloadProfile;
use pdgc_check::{check_allocation_in, CheckScope, CheckScratch};

/// One allocation, as the checkers see it.
#[derive(Clone)]
struct Case {
    func: Function,
    assignment: Vec<Option<PhysReg>>,
    mach: MachFunction,
}

/// The six corruption categories of `tests/check_negative.rs`.
#[derive(Clone, Copy, Debug)]
enum Corruption {
    /// A vreg moves to a register of the other class.
    WrongClass,
    /// A vreg moves to a register outside its class's file.
    OutOfFile,
    /// One register's values are folded into another's, in the assignment
    /// and the machine code alike.
    Interference,
    /// A fused pair's second destination moves to a register that breaks
    /// the pairing rule.
    ClobberedPair,
    /// A slot store disappears: an IR spill with its machine store, or a
    /// caller-save store.
    SlotReadBeforeWrite,
    /// The caller-save code around a call disappears.
    CallerSaveRemoved,
}

const CORRUPTIONS: [Corruption; 6] = [
    Corruption::WrongClass,
    Corruption::OutOfFile,
    Corruption::Interference,
    Corruption::ClobberedPair,
    Corruption::SlotReadBeforeWrite,
    Corruption::CallerSaveRemoved,
];

fn subst_reg(r: &mut PhysReg, from: PhysReg, to: PhysReg) {
    if *r == from {
        *r = to;
    }
}

/// Replaces `from` with `to` in every operand of the machine code.
fn subst(m: &mut MachFunction, from: PhysReg, to: PhysReg) {
    for inst in m.blocks.iter_mut().flatten() {
        match inst {
            MInst::Copy { dst, src } => {
                subst_reg(dst, from, to);
                subst_reg(src, from, to);
            }
            MInst::Iconst { dst, .. } | MInst::Fconst { dst, .. } => subst_reg(dst, from, to),
            MInst::Load { dst, base, .. } | MInst::Load8 { dst, base, .. } => {
                subst_reg(dst, from, to);
                subst_reg(base, from, to);
            }
            MInst::LoadPair {
                dst1, dst2, base, ..
            } => {
                subst_reg(dst1, from, to);
                subst_reg(dst2, from, to);
                subst_reg(base, from, to);
            }
            MInst::Store { src, base, .. } => {
                subst_reg(src, from, to);
                subst_reg(base, from, to);
            }
            MInst::Bin { dst, lhs, rhs, .. } => {
                subst_reg(dst, from, to);
                subst_reg(lhs, from, to);
                subst_reg(rhs, from, to);
            }
            MInst::BinImm { dst, lhs, .. } => {
                subst_reg(dst, from, to);
                subst_reg(lhs, from, to);
            }
            MInst::Call {
                arg_regs, ret_reg, ..
            } => {
                for r in arg_regs {
                    subst_reg(r, from, to);
                }
                if let Some(r) = ret_reg {
                    subst_reg(r, from, to);
                }
            }
            MInst::SpillLoad { dst, .. } => subst_reg(dst, from, to),
            MInst::SpillStore { src, .. } => subst_reg(src, from, to),
            MInst::Branch { lhs, rhs, .. } => {
                subst_reg(lhs, from, to);
                subst_reg(rhs, from, to);
            }
            MInst::BranchImm { lhs, .. } => subst_reg(lhs, from, to),
            MInst::Jump { .. } | MInst::Ret => {}
        }
    }
}

/// One past the highest frame slot the IR's own spill code uses; slots at
/// or above it are caller-save shadows.
fn ir_spill_slots(func: &Function) -> u32 {
    func.block_ids()
        .flat_map(|b| func.block(b).insts.iter())
        .filter_map(|i| match i {
            Inst::Spill { slot, .. } | Inst::Reload { slot, .. } => Some(slot + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0)
}

/// `case` with `what` applied at the `pos`-th candidate site (modulo the
/// number of sites), or `None` when the allocation has no such site.
fn corrupt(case: &Case, what: Corruption, pos: usize, target: &TargetDesc) -> Option<Case> {
    let mut c = case.clone();
    let assigned: Vec<usize> = (0..c.assignment.len())
        .filter(|&v| c.assignment[v].is_some())
        .collect();
    match what {
        Corruption::WrongClass | Corruption::OutOfFile => {
            let v = *assigned.get(pos % assigned.len().max(1))?;
            let r = c.assignment[v]?;
            c.assignment[v] = Some(match what {
                Corruption::WrongClass => match r.class() {
                    RegClass::Int => PhysReg::float(1),
                    RegClass::Float => PhysReg::int(1),
                },
                _ => PhysReg::new(r.class(), 63),
            });
        }
        Corruption::Interference => {
            let mut used: Vec<PhysReg> = c.assignment.iter().flatten().copied().collect();
            used.sort_by_key(|r| (r.class().index(), r.index()));
            used.dedup();
            let pairs: Vec<(PhysReg, PhysReg)> = used
                .iter()
                .flat_map(|&a| used.iter().map(move |&b| (a, b)))
                .filter(|(a, b)| a != b && a.class() == b.class())
                .collect();
            let (keep, fold) = *pairs.get(pos % pairs.len().max(1))?;
            for r in c.assignment.iter_mut().flatten() {
                subst_reg(r, fold, keep);
            }
            subst(&mut c.mach, fold, keep);
        }
        Corruption::ClobberedPair => {
            let pairs: Vec<(PhysReg, PhysReg)> = c
                .mach
                .blocks
                .iter()
                .flatten()
                .filter_map(|i| match i {
                    MInst::LoadPair { dst1, dst2, .. } => Some((*dst1, *dst2)),
                    _ => None,
                })
                .collect();
            let (d1, d2) = *pairs.get(pos % pairs.len().max(1))?;
            let used: Vec<PhysReg> = c
                .mach
                .blocks
                .iter()
                .flatten()
                .flat_map(|i| i.regs())
                .collect();
            let bad = target
                .regs(d2.class())
                .find(|r| !used.contains(r) && r.index().abs_diff(d1.index()) > 1)?;
            subst(&mut c.mach, d2, bad);
            for r in c.assignment.iter_mut().flatten() {
                subst_reg(r, d2, bad);
            }
        }
        Corruption::SlotReadBeforeWrite => {
            let spill_slots = ir_spill_slots(&c.func);
            let stores: Vec<(usize, usize)> = c
                .mach
                .blocks
                .iter()
                .enumerate()
                .flat_map(|(b, blk)| blk.iter().enumerate().map(move |(i, m)| (b, i, m)))
                .filter(|(_, _, m)| matches!(m, MInst::SpillStore { .. }))
                .map(|(b, i, _)| (b, i))
                .collect();
            let (b, i) = *stores.get(pos % stores.len().max(1))?;
            let MInst::SpillStore { slot, .. } = c.mach.blocks[b][i] else {
                unreachable!()
            };
            if slot < spill_slots {
                // The k-th machine store to an IR slot in a block is the
                // k-th IR spill to it there: remove both.
                let k = c.mach.blocks[b][..i]
                    .iter()
                    .filter(|m| matches!(m, MInst::SpillStore { slot: s, .. } if *s == slot))
                    .count();
                let insts = &mut c.func.blocks[b].insts;
                let at = insts
                    .iter()
                    .enumerate()
                    .filter(|(_, inst)| matches!(inst, Inst::Spill { slot: s, .. } if *s == slot))
                    .nth(k)?
                    .0;
                insts.remove(at);
            }
            c.mach.blocks[b].remove(i);
        }
        Corruption::CallerSaveRemoved => {
            let spill_slots = ir_spill_slots(&c.func);
            let shadow = |m: &MInst| match m {
                MInst::SpillStore { slot, .. } | MInst::SpillLoad { slot, .. } => {
                    *slot >= spill_slots
                }
                _ => false,
            };
            let calls: Vec<(usize, usize)> = c
                .mach
                .blocks
                .iter()
                .enumerate()
                .flat_map(|(b, blk)| (0..blk.len()).map(move |i| (b, i)))
                .filter(|&(b, i)| {
                    let blk = &c.mach.blocks[b];
                    matches!(blk[i], MInst::Call { .. })
                        && ((i > 0 && shadow(&blk[i - 1])) || blk.get(i + 1).is_some_and(shadow))
                })
                .collect();
            let (b, i) = *calls.get(pos % calls.len().max(1))?;
            let blk = &mut c.mach.blocks[b];
            let after = blk[i + 1..].iter().take_while(|m| shadow(m)).count();
            let before = blk[..i].iter().rev().take_while(|m| shadow(m)).count();
            blk.drain(i + 1..i + 1 + after);
            blk.drain(i - before..i);
        }
    }
    Some(c)
}

/// Both checkers on `case`, the reference at the full scope.
fn compare(
    case: &Case,
    target: &TargetDesc,
    scratch: &mut CheckScratch,
    what: &str,
) -> Result<(), TestCaseError> {
    let new = check_allocation_in(&case.func, &case.assignment, &case.mach, target, scratch);
    let reference = reference_checker::check_allocation_in(
        &case.func,
        &case.assignment,
        &case.mach,
        target,
        CheckScope::Full,
        &mut reference_checker::CheckScratch::default(),
    );
    prop_assert_eq!(
        new,
        reference,
        "{} on {} ({})",
        what,
        case.func.name,
        target.name
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every allocator × every builtin target (figure7's three-register
    /// file cannot allocate generated workloads and is exempt, as in
    /// `tests/check_properties.rs`).
    #[test]
    fn pooled_checker_matches_the_reference_on_real_and_corrupted_allocations(
        seed in any::<u64>(),
        ops in 10usize..45,
        call_density in 0.0f64..0.4,
        loop_depth in 0u32..3,
        diamond_density in 0.0f64..0.5,
        pos in any::<u64>(),
    ) {
        let registry = TargetRegistry::builtin();
        let mut scratch = CheckScratch::new();
        for name in registry.names() {
            if name == "figure7" {
                continue;
            }
            let target = registry.resolve(name).expect("registry target").clone();
            let prof = WorkloadProfile {
                name: "check-ref".into(),
                seed,
                num_funcs: 1,
                ops_per_func: ops,
                loop_depth,
                call_density,
                float_ratio: 0.25,
                paired_density: 0.3,
                byte_density: 0.15,
                pressure: 9,
                diamond_density,
                pair_stride: 8,
                pair_align: 1,
            }
            .for_target(&target);
            let w = generate(&prof);
            let func = &w.funcs[0];
            prop_assume!(func.verify().is_ok());
            let mut session = AllocSession::default();
            for alloc in pdgc::all_allocators() {
                let out = alloc
                    .allocate(func, &target, &mut session)
                    .map_err(|e| TestCaseError::fail(format!("{}: {e}", alloc.name())))?;
                let case = Case {
                    func: out.lowered,
                    assignment: out.assignment,
                    mach: out.mach,
                };
                compare(&case, &target, &mut scratch, alloc.name())?;
                for (k, what) in CORRUPTIONS.into_iter().enumerate() {
                    // Each category picks its own site from the one draw.
                    let at = (pos.rotate_left(11 * k as u32) % 1_000_003) as usize;
                    if let Some(bad) = corrupt(&case, what, at, &target) {
                        compare(&bad, &target, &mut scratch, &format!("{} + {what:?}", alloc.name()))?;
                    }
                }
            }
        }
    }
}
