//! Instructions of the register-transfer IR.

use crate::{Block, CalleeId, VReg};
use std::fmt;

/// A two-operand arithmetic or logical operator.
///
/// Integer and floating-point variants are separate so an instruction's
/// register class is syntactically evident.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (wrapping; division by zero yields zero).
    Div,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Logical shift left (by the low 6 bits of the right operand).
    Shl,
    /// Arithmetic shift right (by the low 6 bits of the right operand).
    Shr,
    /// Floating-point addition.
    FAdd,
    /// Floating-point subtraction.
    FSub,
    /// Floating-point multiplication.
    FMul,
    /// Floating-point division.
    FDiv,
}

impl BinOp {
    /// Every operator; the parsers find one by its mnemonic.
    pub const ALL: [BinOp; 13] = {
        use BinOp::*;
        [Add, Sub, Mul, Div, And, Or, Xor, Shl, Shr, FAdd, FSub, FMul, FDiv]
    };

    /// Whether this operator works on the floating-point register class.
    pub fn is_float(self) -> bool {
        matches!(self, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
    }

    /// The mnemonic used by the pretty-printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// An integer comparison used by conditional branches.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less than.
    Lt,
    /// Signed less than or equal.
    Le,
    /// Signed greater than.
    Gt,
    /// Signed greater than or equal.
    Ge,
}

impl CmpOp {
    /// Every comparison; the parsers find one by its mnemonic.
    pub const ALL: [CmpOp; 6] = {
        use CmpOp::*;
        [Eq, Ne, Lt, Le, Gt, Ge]
    };

    /// The mnemonic used by the pretty-printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// Evaluates the comparison on two signed integers.
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A register-transfer instruction.
///
/// Every instruction defines at most one virtual register. Control-flow
/// instructions ([`Inst::Jump`], [`Inst::Branch`], [`Inst::Ret`]) must appear
/// only as the final instruction of a block.
#[derive(Clone, PartialEq, Debug)]
pub enum Inst {
    /// Register-to-register copy: `dst = src`. Copies are the raw material
    /// of register coalescing; SSA φ-lowering and call lowering produce them
    /// in large numbers.
    Copy {
        /// Destination register.
        dst: VReg,
        /// Source register (same class as `dst`).
        src: VReg,
    },
    /// Integer constant: `dst = value`.
    Iconst {
        /// Destination register (integer class).
        dst: VReg,
        /// The constant.
        value: i64,
    },
    /// Floating-point constant: `dst = value`.
    Fconst {
        /// Destination register (float class).
        dst: VReg,
        /// The constant.
        value: f64,
    },
    /// Memory load: `dst = [base + offset]`.
    ///
    /// Two loads from `base+o` and `base+o+8` in the same block are
    /// *paired-load candidates* (IA-64 `ldfp`-style): if allocation gives
    /// their destinations registers satisfying the target's pairing rule,
    /// the rewriter fuses them into one instruction.
    Load {
        /// Destination register.
        dst: VReg,
        /// Base address register (integer class).
        base: VReg,
        /// Byte offset.
        offset: i32,
    },
    /// Byte load: `dst = zx([base + offset] & 0xff)` — the low byte of
    /// the addressed word, zero-extended.
    ///
    /// On targets with x86-style *limited register usage* (§3.1's second
    /// preference type), only a subset of registers can receive a byte
    /// load directly; any other destination needs an explicit
    /// zero-extension instruction after it. The allocator records a
    /// register-set preference for these destinations.
    Load8 {
        /// Destination register (integer class).
        dst: VReg,
        /// Base address register (integer class).
        base: VReg,
        /// Byte offset.
        offset: i32,
    },
    /// Memory store: `[base + offset] = src`.
    Store {
        /// The value stored.
        src: VReg,
        /// Base address register (integer class).
        base: VReg,
        /// Byte offset.
        offset: i32,
    },
    /// Two-operand operation: `dst = lhs op rhs`.
    Bin {
        /// Operator.
        op: BinOp,
        /// Destination register.
        dst: VReg,
        /// Left operand.
        lhs: VReg,
        /// Right operand.
        rhs: VReg,
    },
    /// Two-operand operation with an immediate: `dst = lhs op imm`.
    BinImm {
        /// Operator (integer only).
        op: BinOp,
        /// Destination register.
        dst: VReg,
        /// Left operand.
        lhs: VReg,
        /// Immediate right operand.
        imm: i64,
    },
    /// Function call: `ret = callee(args...)`.
    ///
    /// Before register allocation, arguments and return values are plain
    /// virtual registers; call lowering rewrites them through the fixed
    /// argument/return registers of the calling convention, creating the
    /// dedicated-register preferences of the paper's §3.1.
    Call {
        /// Which function is called (symbolic).
        callee: CalleeId,
        /// Argument values, in order.
        args: Vec<VReg>,
        /// Return value, if any.
        ret: Option<VReg>,
    },
    /// Unconditional jump.
    Jump {
        /// Jump target.
        target: Block,
    },
    /// Conditional branch: `if lhs op rhs goto then_dst else else_dst`.
    Branch {
        /// Comparison operator.
        op: CmpOp,
        /// Left comparison operand (integer class).
        lhs: VReg,
        /// Right comparison operand (integer class).
        rhs: VReg,
        /// Target when the comparison holds.
        then_dst: Block,
        /// Target when it does not.
        else_dst: Block,
    },
    /// Conditional branch against an immediate:
    /// `if lhs op imm goto then_dst else else_dst`. Compare-with-zero
    /// loop exits (the paper's Figure 7 `if v0 != 0`) use this form so no
    /// constant occupies a register across the loop.
    BranchImm {
        /// Comparison operator.
        op: CmpOp,
        /// Left comparison operand (integer class).
        lhs: VReg,
        /// Immediate right operand.
        imm: i64,
        /// Target when the comparison holds.
        then_dst: Block,
        /// Target when it does not.
        else_dst: Block,
    },
    /// Function return.
    Ret {
        /// Returned value, if the function has one.
        value: Option<VReg>,
    },
    /// Reload from a spill slot: `dst = frame[slot]`.
    ///
    /// Emitted by spill-code insertion (Chaitin-style splitting: a load
    /// before each use of a spilled live range). Never produced by
    /// front-end builders.
    Reload {
        /// Destination register.
        dst: VReg,
        /// Frame slot index.
        slot: u32,
    },
    /// Spill to a slot: `frame[slot] = src`.
    ///
    /// Emitted by spill-code insertion (a store after each definition of a
    /// spilled live range).
    Spill {
        /// The spilled register.
        src: VReg,
        /// Frame slot index.
        slot: u32,
    },
}

impl Inst {
    /// The virtual register defined by this instruction, if any.
    pub fn def(&self) -> Option<VReg> {
        match self {
            Inst::Copy { dst, .. }
            | Inst::Iconst { dst, .. }
            | Inst::Fconst { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Load8 { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::BinImm { dst, .. }
            | Inst::Reload { dst, .. } => Some(*dst),
            Inst::Call { ret, .. } => *ret,
            Inst::Store { .. }
            | Inst::Spill { .. }
            | Inst::Jump { .. }
            | Inst::Branch { .. }
            | Inst::BranchImm { .. }
            | Inst::Ret { .. } => None,
        }
    }

    /// A mutable reference to the defined register, if any.
    pub fn def_mut(&mut self) -> Option<&mut VReg> {
        match self {
            Inst::Copy { dst, .. }
            | Inst::Iconst { dst, .. }
            | Inst::Fconst { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Load8 { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::BinImm { dst, .. }
            | Inst::Reload { dst, .. } => Some(dst),
            Inst::Call { ret, .. } => ret.as_mut(),
            Inst::Store { .. }
            | Inst::Spill { .. }
            | Inst::Jump { .. }
            | Inst::Branch { .. }
            | Inst::BranchImm { .. }
            | Inst::Ret { .. } => None,
        }
    }

    /// Visits every virtual register used (read) by this instruction.
    pub fn visit_uses(&self, mut f: impl FnMut(VReg)) {
        match self {
            Inst::Copy { src, .. } => f(*src),
            Inst::Iconst { .. } | Inst::Fconst { .. } => {}
            Inst::Load { base, .. } | Inst::Load8 { base, .. } => f(*base),
            Inst::Store { src, base, .. } => {
                f(*src);
                f(*base);
            }
            Inst::Bin { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Inst::BinImm { lhs, .. } => f(*lhs),
            Inst::Call { args, .. } => {
                for a in args {
                    f(*a);
                }
            }
            Inst::Jump { .. } => {}
            Inst::Branch { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Inst::BranchImm { lhs, .. } => f(*lhs),
            Inst::Ret { value } => {
                if let Some(v) = value {
                    f(*v);
                }
            }
            Inst::Reload { .. } => {}
            Inst::Spill { src, .. } => f(*src),
        }
    }

    /// Visits every used virtual register mutably, allowing renaming.
    pub fn visit_uses_mut(&mut self, mut f: impl FnMut(&mut VReg)) {
        match self {
            Inst::Copy { src, .. } => f(src),
            Inst::Iconst { .. } | Inst::Fconst { .. } => {}
            Inst::Load { base, .. } | Inst::Load8 { base, .. } => f(base),
            Inst::Store { src, base, .. } => {
                f(src);
                f(base);
            }
            Inst::Bin { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Inst::BinImm { lhs, .. } => f(lhs),
            Inst::Call { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            Inst::Jump { .. } => {}
            Inst::Branch { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Inst::BranchImm { lhs, .. } => f(lhs),
            Inst::Ret { value } => {
                if let Some(v) = value {
                    f(v);
                }
            }
            Inst::Reload { .. } => {}
            Inst::Spill { src, .. } => f(src),
        }
    }

    /// Collects the used registers into a vector (convenience for tests).
    pub fn uses(&self) -> Vec<VReg> {
        let mut out = Vec::new();
        self.visit_uses(|v| out.push(v));
        out
    }

    /// Returns `(dst, src)` when this is a register-to-register copy.
    pub fn as_copy(&self) -> Option<(VReg, VReg)> {
        match self {
            Inst::Copy { dst, src } => Some((*dst, *src)),
            _ => None,
        }
    }

    /// Whether this instruction must terminate its block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Jump { .. } | Inst::Branch { .. } | Inst::BranchImm { .. } | Inst::Ret { .. }
        )
    }

    /// Whether this is a function call.
    pub fn is_call(&self) -> bool {
        matches!(self, Inst::Call { .. })
    }

    /// The control-flow successors of a terminator (empty for `Ret`).
    ///
    /// # Panics
    ///
    /// Panics if the instruction is not a terminator.
    pub fn successors(&self) -> Vec<Block> {
        match self {
            Inst::Jump { target } => vec![*target],
            Inst::Branch {
                then_dst, else_dst, ..
            }
            | Inst::BranchImm {
                then_dst, else_dst, ..
            } => {
                if then_dst == else_dst {
                    vec![*then_dst]
                } else {
                    vec![*then_dst, *else_dst]
                }
            }
            Inst::Ret { .. } => Vec::new(),
            other => panic!("successors() on non-terminator {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VReg {
        VReg::new(i)
    }

    #[test]
    fn def_and_uses_of_bin() {
        let i = Inst::Bin {
            op: BinOp::Add,
            dst: v(0),
            lhs: v(1),
            rhs: v(2),
        };
        assert_eq!(i.def(), Some(v(0)));
        assert_eq!(i.uses(), vec![v(1), v(2)]);
        assert!(!i.is_terminator());
    }

    #[test]
    fn store_has_no_def() {
        let i = Inst::Store {
            src: v(3),
            base: v(4),
            offset: 8,
        };
        assert_eq!(i.def(), None);
        assert_eq!(i.uses(), vec![v(3), v(4)]);
    }

    #[test]
    fn call_defs_ret_and_uses_args() {
        let i = Inst::Call {
            callee: CalleeId::new(0),
            args: vec![v(1), v(2), v(3)],
            ret: Some(v(0)),
        };
        assert_eq!(i.def(), Some(v(0)));
        assert_eq!(i.uses(), vec![v(1), v(2), v(3)]);
        assert!(i.is_call());
    }

    #[test]
    fn branch_successors_dedup() {
        let i = Inst::Branch {
            op: CmpOp::Eq,
            lhs: v(0),
            rhs: v(1),
            then_dst: Block::new(3),
            else_dst: Block::new(3),
        };
        assert_eq!(i.successors(), vec![Block::new(3)]);
        let j = Inst::Branch {
            op: CmpOp::Eq,
            lhs: v(0),
            rhs: v(1),
            then_dst: Block::new(1),
            else_dst: Block::new(2),
        };
        assert_eq!(j.successors(), vec![Block::new(1), Block::new(2)]);
    }

    #[test]
    fn copy_recognized() {
        let i = Inst::Copy { dst: v(0), src: v(1) };
        assert_eq!(i.as_copy(), Some((v(0), v(1))));
        assert_eq!(
            Inst::Iconst { dst: v(0), value: 1 }.as_copy(),
            None
        );
    }

    #[test]
    fn visit_uses_mut_renames() {
        let mut i = Inst::Bin {
            op: BinOp::Add,
            dst: v(0),
            lhs: v(1),
            rhs: v(1),
        };
        i.visit_uses_mut(|u| *u = v(u.index() + 10));
        assert_eq!(i.uses(), vec![v(11), v(11)]);
    }

    #[test]
    fn cmp_eval_matrix() {
        assert!(CmpOp::Eq.eval(1, 1));
        assert!(CmpOp::Ne.eval(1, 2));
        assert!(CmpOp::Lt.eval(-2, 1));
        assert!(CmpOp::Le.eval(1, 1));
        assert!(CmpOp::Gt.eval(5, 1));
        assert!(CmpOp::Ge.eval(5, 5));
        assert!(!CmpOp::Lt.eval(1, -2));
    }
}
