//! The machine-code interpreter.
//!
//! Faithful to the calling convention: arguments arrive in argument
//! registers, results return in the return register, and **every call
//! clobbers every volatile register** with junk. An allocator that fails
//! to caller-save a live volatile value, or mis-routes an argument, or
//! forgets a spill reload, produces an observably different
//! [`ExecOutcome`] than the reference interpreter — the differential
//! tests rely on this.

use crate::cycles::{minst_cycles, prologue_epilogue_cycles};
use crate::ops::{callee_result, clobber_pattern, default_memory, eval_bin};
use crate::trace::{CallRecord, ExecError, ExecOutcome};
use pdgc_ir::{Block, RegClass};
use pdgc_target::{MInst, MachFunction, PhysReg, TargetDesc};
use std::collections::BTreeMap;

/// Executes allocated machine code on the given argument bit patterns.
///
/// # Errors
///
/// [`ExecError::BadArity`] if the convention cannot carry the arguments;
/// [`ExecError::OutOfFuel`] when `fuel` instructions execute without
/// returning; [`ExecError::SlotOutOfFrame`] when a spill load or store
/// addresses a slot at or past `mach.num_slots`.
pub fn run_mach(
    mach: &MachFunction,
    target: &TargetDesc,
    args: &[u64],
    fuel: u64,
) -> Result<ExecOutcome, ExecError> {
    if args.len() != mach.sig.params.len() {
        return Err(ExecError::BadArity {
            func: mach.name.clone(),
            expected: mach.sig.params.len(),
            given: args.len(),
        });
    }
    // Register files, deterministically junk-initialized.
    let mut regs: [Vec<u64>; 2] = [
        (0..target.num_regs(RegClass::Int))
            .map(|i| 0xa5a5_0000_0000_0000u64 ^ i as u64)
            .collect(),
        (0..target.num_regs(RegClass::Float))
            .map(|i| 0x5a5a_0000_0000_0000u64 ^ i as u64)
            .collect(),
    ];
    // Place arguments per the convention (per-class indexing).
    let mut counts = [0usize; 2];
    for (&bits, &class) in args.iter().zip(&mach.sig.params) {
        let i = counts[class.index()];
        counts[class.index()] += 1;
        let reg = target.arg_reg(class, i).ok_or_else(|| ExecError::BadArity {
            func: mach.name.clone(),
            expected: target.num_arg_regs(class),
            given: i + 1,
        })?;
        regs[class.index()][reg.index()] = bits;
    }

    let get = |regs: &[Vec<u64>; 2], r: PhysReg| regs[r.class().index()][r.index()];
    let set = |regs: &mut [Vec<u64>; 2], r: PhysReg, v: u64| {
        regs[r.class().index()][r.index()] = v;
    };

    // Sparse, like the IR interpreter's: a frame may declare up to
    // `u32::MAX` slots (input spill code can use high slot numbers) while
    // touching only a few. An unwritten slot reads as 0.
    let mut frame: BTreeMap<u32, u64> = BTreeMap::new();
    let in_frame = |slot: u32| {
        if slot < mach.num_slots {
            Ok(slot)
        } else {
            Err(ExecError::SlotOutOfFrame {
                func: mach.name.clone(),
                slot,
                num_slots: mach.num_slots,
            })
        }
    };
    let mut written: BTreeMap<i64, u64> = BTreeMap::new();
    let mut calls: Vec<CallRecord> = Vec::new();
    let mut steps = 0u64;
    let mut cycles = prologue_epilogue_cycles(mach.used_nonvolatiles.len());
    let mut call_seq = 0u64;

    let mut block = Block::ENTRY;
    let mut idx = 0usize;
    loop {
        if steps >= fuel {
            return Err(ExecError::OutOfFuel {
                func: mach.name.clone(),
            });
        }
        let inst = &mach.blocks[block.index()][idx];
        steps += 1;
        cycles += minst_cycles(inst);
        idx += 1;
        match inst {
            MInst::Copy { dst, src } => {
                let v = get(&regs, *src);
                set(&mut regs, *dst, v);
            }
            MInst::Iconst { dst, value } => set(&mut regs, *dst, *value as u64),
            MInst::Fconst { dst, value } => set(&mut regs, *dst, value.to_bits()),
            MInst::Load { dst, base, offset } => {
                let addr = (get(&regs, *base) as i64).wrapping_add(*offset as i64);
                let v = written
                    .get(&addr)
                    .copied()
                    .unwrap_or_else(|| default_memory(addr));
                set(&mut regs, *dst, v);
            }
            MInst::Load8 { dst, base, offset } => {
                let addr = (get(&regs, *base) as i64).wrapping_add(*offset as i64);
                let byte = written
                    .get(&addr)
                    .copied()
                    .unwrap_or_else(|| default_memory(addr))
                    & 0xff;
                // x86-style semantics: a byte load into a register outside
                // the byte-capable set leaves the high bits dirty; the
                // rewriter must emit an explicit zero-extension.
                let v = if target.is_byte_capable(*dst) {
                    byte
                } else {
                    byte | (default_memory(addr ^ 0x5a5a) & !0xff)
                };
                set(&mut regs, *dst, v);
            }
            MInst::LoadPair {
                dst1,
                dst2,
                base,
                offset,
                offset2,
            } => {
                let b0 = get(&regs, *base) as i64;
                let read = |written: &BTreeMap<i64, u64>, addr: i64| {
                    written
                        .get(&addr)
                        .copied()
                        .unwrap_or_else(|| default_memory(addr))
                };
                let v1 = read(&written, b0.wrapping_add(*offset as i64));
                let v2 = read(&written, b0.wrapping_add(*offset2 as i64));
                set(&mut regs, *dst1, v1);
                set(&mut regs, *dst2, v2);
            }
            MInst::Store { src, base, offset } => {
                let addr = (get(&regs, *base) as i64).wrapping_add(*offset as i64);
                written.insert(addr, get(&regs, *src));
            }
            MInst::Bin { op, dst, lhs, rhs } => {
                let v = eval_bin(*op, get(&regs, *lhs), get(&regs, *rhs));
                set(&mut regs, *dst, v);
            }
            MInst::BinImm { op, dst, lhs, imm } => {
                let v = eval_bin(*op, get(&regs, *lhs), *imm as u64);
                set(&mut regs, *dst, v);
            }
            MInst::Call {
                callee,
                arg_regs,
                ret_reg,
            } => {
                let vals: Vec<u64> = arg_regs.iter().map(|&r| get(&regs, r)).collect();
                let name = &mach.callees[callee.index()];
                let result = callee_result(name, &vals);
                calls.push(CallRecord {
                    callee: name.clone(),
                    args: vals,
                });
                // Clobber every volatile register of both classes.
                for class in RegClass::ALL {
                    for r in target.volatiles(class) {
                        set(&mut regs, r, clobber_pattern(call_seq, r.index() + class.index() * 64));
                    }
                }
                call_seq += 1;
                if let Some(r) = ret_reg {
                    set(&mut regs, *r, result);
                }
            }
            MInst::SpillLoad { dst, slot } => {
                let v = frame.get(&in_frame(*slot)?).copied().unwrap_or(0);
                set(&mut regs, *dst, v);
            }
            MInst::SpillStore { src, slot } => {
                frame.insert(in_frame(*slot)?, get(&regs, *src));
            }
            MInst::Jump { target: t } => {
                block = *t;
                idx = 0;
            }
            MInst::Branch {
                op,
                lhs,
                rhs,
                then_dst,
                else_dst,
            } => {
                let taken = op.eval(get(&regs, *lhs) as i64, get(&regs, *rhs) as i64);
                block = if taken { *then_dst } else { *else_dst };
                idx = 0;
            }
            MInst::BranchImm {
                op,
                lhs,
                imm,
                then_dst,
                else_dst,
            } => {
                let taken = op.eval(get(&regs, *lhs) as i64, *imm);
                block = if taken { *then_dst } else { *else_dst };
                idx = 0;
            }
            MInst::Ret => {
                let ret = mach
                    .sig
                    .ret
                    .map(|class| get(&regs, target.ret_reg(class)));
                return Ok(ExecOutcome {
                    ret,
                    calls,
                    memory: written,
                    steps,
                    cycles,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_FUEL;
    use pdgc_ir::{BinOp, CalleeId, FuncSig};
    use pdgc_target::PressureModel;

    fn target() -> TargetDesc {
        TargetDesc::ia64_like(PressureModel::High)
    }

    fn mach(sig: FuncSig, insts: Vec<MInst>) -> MachFunction {
        MachFunction {
            name: "m".into(),
            sig,
            blocks: vec![insts],
            num_slots: 4,
            used_nonvolatiles: vec![],
            callees: vec!["g".into()],
        }
    }

    #[test]
    fn args_arrive_in_arg_registers() {
        let t = target();
        let m = mach(
            FuncSig {
                params: vec![RegClass::Int, RegClass::Int],
                ret: Some(RegClass::Int),
            },
            vec![
                MInst::Bin {
                    op: BinOp::Add,
                    dst: t.ret_reg(RegClass::Int),
                    lhs: PhysReg::int(0),
                    rhs: PhysReg::int(1),
                },
                MInst::Ret,
            ],
        );
        let out = run_mach(&m, &t, &[30, 12], DEFAULT_FUEL).unwrap();
        assert_eq!(out.ret, Some(42));
    }

    #[test]
    fn call_clobbers_volatiles() {
        let t = target();
        // Put 7 into a volatile non-arg register, call, then return it:
        // the clobber must be visible.
        let m = mach(
            FuncSig {
                params: vec![],
                ret: Some(RegClass::Int),
            },
            vec![
                MInst::Iconst {
                    dst: PhysReg::int(5),
                    value: 7,
                },
                MInst::Call {
                    callee: CalleeId::new(0),
                    arg_regs: vec![],
                    ret_reg: None,
                },
                MInst::Copy {
                    dst: t.ret_reg(RegClass::Int),
                    src: PhysReg::int(5),
                },
                MInst::Ret,
            ],
        );
        let out = run_mach(&m, &t, &[], DEFAULT_FUEL).unwrap();
        assert_ne!(out.ret, Some(7));
    }

    #[test]
    fn call_preserves_nonvolatiles() {
        let t = target();
        let m = mach(
            FuncSig {
                params: vec![],
                ret: Some(RegClass::Int),
            },
            vec![
                MInst::Iconst {
                    dst: PhysReg::int(12), // non-volatile under High
                    value: 7,
                },
                MInst::Call {
                    callee: CalleeId::new(0),
                    arg_regs: vec![],
                    ret_reg: None,
                },
                MInst::Copy {
                    dst: t.ret_reg(RegClass::Int),
                    src: PhysReg::int(12),
                },
                MInst::Ret,
            ],
        );
        let out = run_mach(&m, &t, &[], DEFAULT_FUEL).unwrap();
        assert_eq!(out.ret, Some(7));
    }

    #[test]
    fn save_restore_survives_clobber() {
        let t = target();
        let m = mach(
            FuncSig {
                params: vec![],
                ret: Some(RegClass::Int),
            },
            vec![
                MInst::Iconst {
                    dst: PhysReg::int(5),
                    value: 9,
                },
                MInst::SpillStore {
                    src: PhysReg::int(5),
                    slot: 0,
                },
                MInst::Call {
                    callee: CalleeId::new(0),
                    arg_regs: vec![],
                    ret_reg: None,
                },
                MInst::SpillLoad {
                    dst: PhysReg::int(5),
                    slot: 0,
                },
                MInst::Copy {
                    dst: t.ret_reg(RegClass::Int),
                    src: PhysReg::int(5),
                },
                MInst::Ret,
            ],
        );
        let out = run_mach(&m, &t, &[], DEFAULT_FUEL).unwrap();
        assert_eq!(out.ret, Some(9));
    }

    #[test]
    fn load_pair_reads_both_words() {
        let t = target();
        let m = mach(
            FuncSig {
                params: vec![RegClass::Int],
                ret: Some(RegClass::Int),
            },
            vec![
                MInst::LoadPair {
                    dst1: PhysReg::int(1),
                    dst2: PhysReg::int(2),
                    base: PhysReg::int(0),
                    offset: 0,
                    offset2: 8,
                },
                MInst::Bin {
                    op: BinOp::Xor,
                    dst: t.ret_reg(RegClass::Int),
                    lhs: PhysReg::int(1),
                    rhs: PhysReg::int(2),
                },
                MInst::Ret,
            ],
        );
        let out = run_mach(&m, &t, &[256], DEFAULT_FUEL).unwrap();
        let want = crate::ops::default_memory(256) ^ crate::ops::default_memory(264);
        assert_eq!(out.ret, Some(want));
    }

    #[test]
    fn prologue_cycles_counted() {
        let t = target();
        let mut m = mach(
            FuncSig {
                params: vec![],
                ret: None,
            },
            vec![MInst::Ret],
        );
        let base = run_mach(&m, &t, &[], DEFAULT_FUEL).unwrap().cycles;
        m.used_nonvolatiles = vec![PhysReg::int(12), PhysReg::int(13)];
        let with = run_mach(&m, &t, &[], DEFAULT_FUEL).unwrap().cycles;
        assert_eq!(with - base, 6);
    }
}
