//! Functions, basic blocks, and signatures.

use crate::{Block, Inst, Phi, RegClass, VReg};
use std::fmt;

/// A reference to a (symbolic) callee in a function's callee table.
///
/// The allocator never needs callee bodies — only the call sites — so
/// callees are identified by name. The simulator gives each callee a
/// deterministic pure semantics derived from this identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CalleeId(u32);

impl CalleeId {
    /// Creates a callee reference from its dense index.
    pub fn new(index: usize) -> Self {
        CalleeId(u32::try_from(index).expect("callee index overflow"))
    }

    /// Returns the dense index of this callee.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for CalleeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn{}", self.0)
    }
}

/// A function signature: parameter classes and optional return class.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FuncSig {
    /// Register class of each parameter, in order.
    pub params: Vec<RegClass>,
    /// Register class of the return value, if any.
    pub ret: Option<RegClass>,
}

/// A basic block: zero or more φ-functions followed by instructions, the
/// last of which must be a terminator.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct BlockData {
    /// φ-functions at the head of the block (empty once lowered).
    pub phis: Vec<Phi>,
    /// The block body; the final instruction is the terminator.
    pub insts: Vec<Inst>,
}

impl BlockData {
    /// The block's terminator.
    ///
    /// # Panics
    ///
    /// Panics if the block is empty or unterminated (checked by
    /// [`Function::verify`]).
    pub fn terminator(&self) -> &Inst {
        let last = self.insts.last().expect("empty block");
        assert!(last.is_terminator(), "unterminated block");
        last
    }

    /// Control-flow successors of this block.
    pub fn successors(&self) -> Vec<Block> {
        self.terminator().successors()
    }
}

/// A function: a CFG of [`BlockData`] plus a virtual-register table.
///
/// Build one with [`FunctionBuilder`](crate::FunctionBuilder).
#[derive(Clone, PartialEq, Debug)]
pub struct Function {
    /// Function name (used in diagnostics and reports).
    pub name: String,
    /// The signature.
    pub sig: FuncSig,
    /// The virtual registers holding the incoming parameters, in order.
    pub param_vregs: Vec<VReg>,
    /// Basic blocks; `blocks[0]` is the entry.
    pub blocks: Vec<BlockData>,
    /// Register class of each virtual register, indexed by [`VReg::index`].
    pub vreg_classes: Vec<RegClass>,
    /// Names of called functions, indexed by [`CalleeId::index`].
    pub callees: Vec<String>,
}

impl Function {
    /// Number of virtual registers.
    pub fn num_vregs(&self) -> usize {
        self.vreg_classes.len()
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The register class of `vreg`.
    ///
    /// # Panics
    ///
    /// Panics if `vreg` is out of range for this function.
    pub fn class_of(&self, vreg: VReg) -> RegClass {
        self.vreg_classes[vreg.index()]
    }

    /// Appends a fresh virtual register of the given class.
    pub fn new_vreg(&mut self, class: RegClass) -> VReg {
        let v = VReg::new(self.vreg_classes.len());
        self.vreg_classes.push(class);
        v
    }

    /// Shared access to a block's data.
    pub fn block(&self, b: Block) -> &BlockData {
        &self.blocks[b.index()]
    }

    /// Mutable access to a block's data.
    pub fn block_mut(&mut self, b: Block) -> &mut BlockData {
        &mut self.blocks[b.index()]
    }

    /// Iterates over all block references in index order.
    pub fn block_ids(&self) -> impl Iterator<Item = Block> {
        (0..self.blocks.len()).map(Block::new)
    }

    /// Total number of instructions (φs excluded).
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Counts instructions matching a predicate.
    pub fn count_insts(&self, mut pred: impl FnMut(&Inst) -> bool) -> usize {
        self.blocks
            .iter()
            .flat_map(|b| b.insts.iter())
            .filter(|i| pred(i))
            .count()
    }

    /// Number of register-to-register copy instructions.
    pub fn num_copies(&self) -> usize {
        self.count_insts(|i| matches!(i, Inst::Copy { .. }))
    }

    /// Number of call instructions.
    pub fn num_calls(&self) -> usize {
        self.count_insts(Inst::is_call)
    }

    /// One past the highest frame slot this function's spill code
    /// (`Spill`/`Reload`) addresses, or 0 when it has none. Slots below
    /// the bound belong to that spill code; a register allocator numbers
    /// any slot of its own from the bound up. Counted in `u64` so that a
    /// slot at `u32::MAX` does not wrap.
    pub fn spill_slot_bound(&self) -> u64 {
        self.blocks
            .iter()
            .flat_map(|b| b.insts.iter())
            .filter_map(|i| match i {
                Inst::Spill { slot, .. } | Inst::Reload { slot, .. } => Some(u64::from(*slot) + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Interns a callee name, returning its id.
    pub fn intern_callee(&mut self, name: &str) -> CalleeId {
        if let Some(i) = self.callees.iter().position(|c| c == name) {
            CalleeId::new(i)
        } else {
            self.callees.push(name.to_string());
            CalleeId::new(self.callees.len() - 1)
        }
    }

    /// Returns a copy with the callee table renumbered in first-appearance
    /// order (block index order, instruction order) and unreferenced
    /// names dropped.
    ///
    /// The textual form resolves callee ids to names, so printing is
    /// unaffected — but the parser can only reconstruct the table in
    /// appearance order. This helper states the round-trip contract
    /// exactly: `parse(print(f))` is structurally equal to
    /// `f.with_canonical_callees()`, and is the identity on functions
    /// already in canonical form.
    pub fn with_canonical_callees(&self) -> Function {
        let mut order: Vec<usize> = Vec::new();
        for b in &self.blocks {
            for inst in &b.insts {
                if let Inst::Call { callee, .. } = inst {
                    if !order.contains(&callee.index()) {
                        order.push(callee.index());
                    }
                }
            }
        }
        let mut remap = vec![usize::MAX; self.callees.len()];
        for (new, &old) in order.iter().enumerate() {
            remap[old] = new;
        }
        let mut out = self.clone();
        out.callees = order.iter().map(|&i| self.callees[i].clone()).collect();
        for b in &mut out.blocks {
            for inst in &mut b.insts {
                if let Inst::Call { callee, .. } = inst {
                    *callee = CalleeId::new(remap[callee.index()]);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FunctionBuilder;

    #[test]
    fn new_vreg_extends_table() {
        let mut b = FunctionBuilder::new("f", vec![], None);
        b.ret(None);
        let mut f = b.finish();
        let n = f.num_vregs();
        let v = f.new_vreg(RegClass::Float);
        assert_eq!(v.index(), n);
        assert_eq!(f.class_of(v), RegClass::Float);
    }

    #[test]
    fn intern_callee_dedups() {
        let mut b = FunctionBuilder::new("f", vec![], None);
        b.ret(None);
        let mut f = b.finish();
        let a = f.intern_callee("g");
        let b2 = f.intern_callee("h");
        let a2 = f.intern_callee("g");
        assert_eq!(a, a2);
        assert_ne!(a, b2);
        assert_eq!(f.callees, vec!["g".to_string(), "h".to_string()]);
    }

    #[test]
    fn canonical_callees_follow_appearance_order() {
        use crate::{Block, Inst};
        let mut b = FunctionBuilder::new("f", vec![], None);
        let later = b.create_block();
        b.switch_to(later);
        b.call("second_in_text", vec![], None); // interned first
        b.ret(None);
        b.switch_to(Block::ENTRY);
        b.call("first_in_text", vec![], None);
        b.intern_callee("never_called");
        b.jump(later);
        let f = b.finish();
        assert_eq!(f.callees[0], "second_in_text");
        let canon = f.with_canonical_callees();
        assert_eq!(canon.callees, vec!["first_in_text", "second_in_text"]);
        let entry_call = &canon.block(Block::ENTRY).insts[0];
        let Inst::Call { callee, .. } = entry_call else {
            panic!("expected call");
        };
        assert_eq!(canon.callees[callee.index()], "first_in_text");
        // Canonicalizing is idempotent.
        assert_eq!(canon.with_canonical_callees(), canon);
    }

    #[test]
    fn counts() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let c = b.copy(p);
        b.ret(Some(c));
        let f = b.finish();
        assert_eq!(f.num_copies(), 1);
        assert_eq!(f.num_calls(), 0);
        assert_eq!(f.num_insts(), 2);
        assert_eq!(f.spill_slot_bound(), 0);
    }

    #[test]
    fn spill_slot_bound_is_one_past_the_highest_slot() {
        use crate::Inst;
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        b.emit(Inst::Spill { src: p, slot: 3 });
        b.emit(Inst::Reload { dst: p, slot: 1 });
        b.ret(Some(p));
        let mut f = b.finish();
        assert_eq!(f.spill_slot_bound(), 4);
        f.blocks[0].insts[1] = Inst::Reload {
            dst: p,
            slot: u32::MAX,
        };
        assert_eq!(f.spill_slot_bound(), 1 << 32);
    }
}
