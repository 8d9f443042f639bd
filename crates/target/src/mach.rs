//! Allocated machine code: what the rewriter emits and the machine
//! interpreter executes.

use crate::PhysReg;
use pdgc_ir::{BinOp, Block, CalleeId, CmpOp, FuncSig};
use std::fmt;

/// One machine instruction. Every operand is a physical register; the
/// only remaining symbolic references are block targets, callee ids, and
/// frame-slot indices.
#[derive(Clone, PartialEq, Debug)]
pub enum MInst {
    /// Register move: `dst = src`.
    Copy {
        /// Destination register.
        dst: PhysReg,
        /// Source register.
        src: PhysReg,
    },
    /// Integer constant: `dst = value`.
    Iconst {
        /// Destination register.
        dst: PhysReg,
        /// The constant.
        value: i64,
    },
    /// Floating-point constant: `dst = value`.
    Fconst {
        /// Destination register.
        dst: PhysReg,
        /// The constant.
        value: f64,
    },
    /// Word load: `dst = [base + offset]`.
    Load {
        /// Destination register.
        dst: PhysReg,
        /// Base-address register.
        base: PhysReg,
        /// Byte offset.
        offset: i32,
    },
    /// Byte load: `dst = [base + offset] & 0xff` — but only byte-capable
    /// destinations are zero-extended by the hardware; the rewriter adds
    /// an explicit extension otherwise.
    Load8 {
        /// Destination register.
        dst: PhysReg,
        /// Base-address register.
        base: PhysReg,
        /// Byte offset.
        offset: i32,
    },
    /// Fused paired load: `dst1 = [base + offset]; dst2 = [base +
    /// offset2]` in one instruction (the paper's IA-64 `ldfp` analog).
    /// The destinations satisfy the target's
    /// [`PairedLoadRule`](crate::PairedLoadRule).
    LoadPair {
        /// Destination of the first word.
        dst1: PhysReg,
        /// Destination of the second word.
        dst2: PhysReg,
        /// Base-address register.
        base: PhysReg,
        /// Byte offset of the first word.
        offset: i32,
        /// Byte offset of the second word.
        offset2: i32,
    },
    /// Word store: `[base + offset] = src`.
    Store {
        /// The value stored.
        src: PhysReg,
        /// Base-address register.
        base: PhysReg,
        /// Byte offset.
        offset: i32,
    },
    /// Two-operand operation: `dst = lhs op rhs`.
    Bin {
        /// The operation.
        op: BinOp,
        /// Destination register.
        dst: PhysReg,
        /// Left operand.
        lhs: PhysReg,
        /// Right operand.
        rhs: PhysReg,
    },
    /// Two-operand operation with an immediate: `dst = lhs op imm`.
    BinImm {
        /// The operation.
        op: BinOp,
        /// Destination register.
        dst: PhysReg,
        /// Left operand.
        lhs: PhysReg,
        /// The immediate.
        imm: i64,
    },
    /// Call through the convention: arguments already sit in `arg_regs`,
    /// the result (if any) appears in `ret_reg`, and every volatile
    /// register is clobbered.
    Call {
        /// The callee.
        callee: CalleeId,
        /// Registers carrying the arguments, in order.
        arg_regs: Vec<PhysReg>,
        /// Register receiving the result, if any.
        ret_reg: Option<PhysReg>,
    },
    /// Reload from a frame slot: `dst = frame[slot]`.
    SpillLoad {
        /// Destination register.
        dst: PhysReg,
        /// Frame slot index.
        slot: u32,
    },
    /// Store to a frame slot: `frame[slot] = src`.
    SpillStore {
        /// The value stored.
        src: PhysReg,
        /// Frame slot index.
        slot: u32,
    },
    /// Unconditional jump.
    Jump {
        /// Target block.
        target: Block,
    },
    /// Conditional branch: `if lhs op rhs goto then_dst else else_dst`.
    Branch {
        /// The comparison.
        op: CmpOp,
        /// Left operand.
        lhs: PhysReg,
        /// Right operand.
        rhs: PhysReg,
        /// Block taken when the comparison holds.
        then_dst: Block,
        /// Block taken otherwise.
        else_dst: Block,
    },
    /// Conditional branch against an immediate:
    /// `if lhs op imm goto then_dst else else_dst`.
    BranchImm {
        /// The comparison.
        op: CmpOp,
        /// Left operand.
        lhs: PhysReg,
        /// The immediate.
        imm: i64,
        /// Block taken when the comparison holds.
        then_dst: Block,
        /// Block taken otherwise.
        else_dst: Block,
    },
    /// Return; the result (if the function has one) sits in the
    /// convention's return register.
    Ret,
}

impl MInst {
    /// Calls `f` on every register this instruction reads or writes, in
    /// operand order (with repeats). This and [`MInst::for_each_def`] are
    /// the one operand table; every other register accessor is built on
    /// them.
    pub fn for_each_reg(&self, mut f: impl FnMut(PhysReg)) {
        match self {
            MInst::Copy { dst, src } => {
                f(*dst);
                f(*src);
            }
            MInst::Iconst { dst, .. } | MInst::Fconst { dst, .. } => f(*dst),
            MInst::Load { dst, base, .. } | MInst::Load8 { dst, base, .. } => {
                f(*dst);
                f(*base);
            }
            MInst::LoadPair {
                dst1, dst2, base, ..
            } => {
                f(*dst1);
                f(*dst2);
                f(*base);
            }
            MInst::Store { src, base, .. } => {
                f(*src);
                f(*base);
            }
            MInst::Bin { dst, lhs, rhs, .. } => {
                f(*dst);
                f(*lhs);
                f(*rhs);
            }
            MInst::BinImm { dst, lhs, .. } => {
                f(*dst);
                f(*lhs);
            }
            MInst::Call {
                arg_regs, ret_reg, ..
            } => {
                arg_regs.iter().copied().for_each(&mut f);
                ret_reg.iter().copied().for_each(f);
            }
            MInst::SpillLoad { dst, .. } => f(*dst),
            MInst::SpillStore { src, .. } => f(*src),
            MInst::Branch { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            MInst::BranchImm { lhs, .. } => f(*lhs),
            MInst::Jump { .. } | MInst::Ret => {}
        }
    }

    /// Calls `f` on every register this instruction writes. A `Call`
    /// additionally clobbers every volatile register; only its named
    /// result is visited.
    pub fn for_each_def(&self, mut f: impl FnMut(PhysReg)) {
        match self {
            MInst::Copy { dst, .. }
            | MInst::Iconst { dst, .. }
            | MInst::Fconst { dst, .. }
            | MInst::Load { dst, .. }
            | MInst::Load8 { dst, .. }
            | MInst::Bin { dst, .. }
            | MInst::BinImm { dst, .. }
            | MInst::SpillLoad { dst, .. } => f(*dst),
            MInst::LoadPair { dst1, dst2, .. } => {
                f(*dst1);
                f(*dst2);
            }
            MInst::Call { ret_reg, .. } => ret_reg.iter().copied().for_each(f),
            MInst::Store { .. }
            | MInst::SpillStore { .. }
            | MInst::Jump { .. }
            | MInst::Branch { .. }
            | MInst::BranchImm { .. }
            | MInst::Ret => {}
        }
    }

    /// The registers this instruction reads or writes, in operand order
    /// (with repeats): [`MInst::for_each_reg`], collected.
    pub fn regs(&self) -> Vec<PhysReg> {
        let mut rs = Vec::new();
        self.for_each_reg(|r| rs.push(r));
        rs
    }

    /// The registers this instruction writes: [`MInst::for_each_def`],
    /// collected. A `Call`'s volatile clobbers are not listed.
    pub fn defs(&self) -> Vec<PhysReg> {
        let mut rs = Vec::new();
        self.for_each_def(|r| rs.push(r));
        rs
    }

    /// Whether this instruction writes `r` (a `Call`'s volatile clobbers
    /// aside, as in [`MInst::defs`]).
    pub fn writes(&self, r: PhysReg) -> bool {
        let mut hit = false;
        self.for_each_def(|d| hit |= d == r);
        hit
    }

    /// Whether this instruction moves a value between a register and a
    /// frame slot (spill traffic).
    pub fn is_spill_traffic(&self) -> bool {
        matches!(self, MInst::SpillLoad { .. } | MInst::SpillStore { .. })
    }
}

/// An allocated function: straight-line machine code per block, plus the
/// frame and callee-save bookkeeping the prologue/epilogue needs.
#[derive(Clone, PartialEq, Debug)]
pub struct MachFunction {
    /// Function name.
    pub name: String,
    /// The signature (argument classes and result class).
    pub sig: FuncSig,
    /// Machine code, indexed by [`Block`] index.
    pub blocks: Vec<Vec<MInst>>,
    /// Frame slots used by spill code and caller-save shadows.
    pub num_slots: u32,
    /// Non-volatile registers written by the body; the prologue saves
    /// and the epilogue restores each, sorted.
    pub used_nonvolatiles: Vec<PhysReg>,
    /// Callee names, indexed by [`CalleeId`] index.
    pub callees: Vec<String>,
}

impl MachFunction {
    /// Total instructions across all blocks.
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }

    /// Remaining (uncoalesced) register moves.
    pub fn num_copies(&self) -> usize {
        self.count(|i| matches!(i, MInst::Copy { .. }))
    }

    /// Fused paired loads.
    pub fn num_paired_loads(&self) -> usize {
        self.count(|i| matches!(i, MInst::LoadPair { .. }))
    }

    /// Frame-slot loads and stores (spill traffic plus caller saves).
    pub fn num_spill_insts(&self) -> usize {
        self.count(|i| matches!(i, MInst::SpillLoad { .. } | MInst::SpillStore { .. }))
    }

    /// Every register appearing in an operand position, each counted
    /// once, sorted.
    pub fn regs_used(&self) -> Vec<PhysReg> {
        let mut regs: Vec<PhysReg> = self
            .blocks
            .iter()
            .flatten()
            .flat_map(MInst::regs)
            .collect();
        regs.sort();
        regs.dedup();
        regs
    }

    fn count(&self, pred: impl Fn(&MInst) -> bool) -> usize {
        self.blocks.iter().flatten().filter(|i| pred(i)).count()
    }
}

impl fmt::Display for MachFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn {}(", self.name)?;
        for (i, class) in self.sig.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{class}")?;
        }
        write!(f, ")")?;
        if let Some(r) = self.sig.ret {
            write!(f, " -> {r}")?;
        }
        writeln!(f, " {{")?;
        if self.num_slots > 0 {
            writeln!(f, "    ; frame: {} slots", self.num_slots)?;
        }
        if !self.used_nonvolatiles.is_empty() {
            write!(f, "    ; saves:")?;
            for r in &self.used_nonvolatiles {
                write!(f, " {r}")?;
            }
            writeln!(f)?;
        }
        for (b, insts) in self.blocks.iter().enumerate() {
            writeln!(f, "b{b}:")?;
            for inst in insts {
                writeln!(f, "    {}", DisplayMInst { inst, mach: self })?;
            }
        }
        write!(f, "}}")
    }
}

/// Renders one instruction with callee names resolved.
struct DisplayMInst<'a> {
    inst: &'a MInst,
    mach: &'a MachFunction,
}

impl fmt::Display for DisplayMInst<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inst {
            MInst::Copy { dst, src } => write!(f, "{dst} = {src}"),
            MInst::Iconst { dst, value } => write!(f, "{dst} = {value}"),
            MInst::Fconst { dst, value } => write!(f, "{dst} = {value}f"),
            MInst::Load { dst, base, offset } => write!(f, "{dst} = [{base}+{offset}]"),
            MInst::Load8 { dst, base, offset } => write!(f, "{dst} = byte [{base}+{offset}]"),
            MInst::LoadPair {
                dst1,
                dst2,
                base,
                offset,
                offset2,
            } => write!(
                f,
                "{dst1}, {dst2} = pair [{base}+{offset}], [{base}+{offset2}]"
            ),
            MInst::Store { src, base, offset } => write!(f, "[{base}+{offset}] = {src}"),
            MInst::Bin { op, dst, lhs, rhs } => write!(f, "{dst} = {op} {lhs}, {rhs}"),
            MInst::BinImm { op, dst, lhs, imm } => write!(f, "{dst} = {op} {lhs}, #{imm}"),
            MInst::Call {
                callee,
                arg_regs,
                ret_reg,
            } => {
                if let Some(r) = ret_reg {
                    write!(f, "{r} = ")?;
                }
                write!(f, "call {}(", self.mach.callees[callee.index()])?;
                for (i, r) in arg_regs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{r}")?;
                }
                write!(f, ")")
            }
            MInst::SpillLoad { dst, slot } => write!(f, "{dst} = frame[{slot}]"),
            MInst::SpillStore { src, slot } => write!(f, "frame[{slot}] = {src}"),
            MInst::Jump { target } => write!(f, "goto {target}"),
            MInst::Branch {
                op,
                lhs,
                rhs,
                then_dst,
                else_dst,
            } => write!(f, "if {op} {lhs}, {rhs} goto {then_dst} else {else_dst}"),
            MInst::BranchImm {
                op,
                lhs,
                imm,
                then_dst,
                else_dst,
            } => write!(f, "if {op} {lhs}, #{imm} goto {then_dst} else {else_dst}"),
            MInst::Ret => write!(f, "ret"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgc_ir::RegClass;

    fn sample() -> MachFunction {
        MachFunction {
            name: "f".into(),
            sig: FuncSig {
                params: vec![RegClass::Int],
                ret: Some(RegClass::Int),
            },
            blocks: vec![vec![
                MInst::LoadPair {
                    dst1: PhysReg::int(1),
                    dst2: PhysReg::int(2),
                    base: PhysReg::int(0),
                    offset: 0,
                    offset2: 8,
                },
                MInst::Copy {
                    dst: PhysReg::int(0),
                    src: PhysReg::int(1),
                },
                MInst::SpillStore {
                    src: PhysReg::int(0),
                    slot: 0,
                },
                MInst::Call {
                    callee: CalleeId::new(0),
                    arg_regs: vec![PhysReg::int(0)],
                    ret_reg: Some(PhysReg::int(0)),
                },
                MInst::SpillLoad {
                    dst: PhysReg::int(0),
                    slot: 0,
                },
                MInst::Ret,
            ]],
            num_slots: 1,
            used_nonvolatiles: vec![PhysReg::int(2)],
            callees: vec!["g".into()],
        }
    }

    #[test]
    fn counters() {
        let m = sample();
        assert_eq!(m.num_insts(), 6);
        assert_eq!(m.num_copies(), 1);
        assert_eq!(m.num_paired_loads(), 1);
        assert_eq!(m.num_spill_insts(), 2);
    }

    #[test]
    fn defs_cover_writes_only() {
        let m = sample();
        let defs: Vec<Vec<PhysReg>> = m.blocks[0].iter().map(MInst::defs).collect();
        assert_eq!(defs[0], vec![PhysReg::int(1), PhysReg::int(2)]); // pair
        assert_eq!(defs[1], vec![PhysReg::int(0)]); // copy
        assert_eq!(defs[2], Vec::<PhysReg>::new()); // spill store
        assert_eq!(defs[3], vec![PhysReg::int(0)]); // call result
        assert_eq!(defs[5], Vec::<PhysReg>::new()); // ret
    }

    #[test]
    fn regs_used_deduplicates() {
        let m = sample();
        assert_eq!(
            m.regs_used(),
            vec![PhysReg::int(0), PhysReg::int(1), PhysReg::int(2)]
        );
    }

    #[test]
    fn display_renders_every_piece() {
        let text = sample().to_string();
        assert!(text.starts_with("fn f(int) -> int {"));
        assert!(text.contains("frame: 1 slots"));
        assert!(text.contains("saves: r2"));
        assert!(text.contains("r1, r2 = pair [r0+0], [r0+8]"));
        assert!(text.contains("r0 = call g(r0)"));
        assert!(text.contains("r0 = frame[0]"));
        assert!(text.ends_with("}"));
    }
}
