//! The paper's Appendix cost model.
//!
//! All strengths derive from
//! `Str(V, P) = Mem_Cost(V) − Ideal_Cost(V, P)` with
//!
//! ```text
//! Mem_Cost(V)      = Spill_Cost(V) + Op_Cost(V)
//! Spill_Cost(V)    = Σ Load_Cost·Freq(uses)  + Σ Store_Cost·Freq(defs)
//! Op_Cost(V)       = Σ Inst_Cost·Freq(uses)  + Σ Inst_Cost·Freq(defs)
//! Ideal_Cost(V, P) = Call_Cost(V) + Ideal_Op_Cost(V, P)
//! Call_Cost(V)     = Σ Save_Restore_Cost·Freq(calls across V)   (volatile)
//!                  | Callee_Save_Cost                           (non-volatile)
//! ```
//!
//! with `Load_Cost = 2`, `Store_Cost = 1`, `Inst_Cost = 2` for loads and 1
//! otherwise (undefined — treated as 0 — for calls), `Save_Restore_Cost =
//! 3`, and `Callee_Save_Cost = 2`. `Ideal_Op_Cost` zeroes the cost of the
//! instructions a preference would eliminate (the coalesced move, or the
//! load folded into a paired load).
//!
//! The per-vreg sums — `Spill_Cost`, `Op_Cost` and the volatile
//! `Call_Cost` — are a [`CostTable`], filled in one instruction pass per
//! spill round during analysis. Every [`CostModel`] query reads it; only
//! `Ideal_Op_Cost` looks at instructions again, and only at the few sites
//! a preference zeroes.

use pdgc_analysis::{CallCrossing, InstRef, Loops};
use pdgc_arena::VecPool;
use pdgc_ir::{Function, Inst, VReg};

/// `Load_Cost` — cycles to reload a spilled value before a use.
pub const LOAD_COST: u64 = 2;
/// `Store_Cost` — cycles to spill a value after a definition.
pub const STORE_COST: u64 = 1;
/// `Save_Restore_Cost` — caller-side save+restore around one call.
pub const SAVE_RESTORE_COST: u64 = 3;
/// `Callee_Save_Cost` — prologue/epilogue cost attributed to taking a
/// non-volatile register.
pub const CALLEE_SAVE_COST: u64 = 2;

/// `Inst_Cost`: 2 for memory loads, undefined (0) for calls, 1 otherwise.
fn inst_cost(inst: &Inst) -> u64 {
    match inst {
        Inst::Load { .. } | Inst::Load8 { .. } | Inst::Reload { .. } => 2,
        Inst::Call { .. } => 0,
        _ => 1,
    }
}

/// Each vreg's Appendix cost terms, summed once per round.
///
/// Every operand occurrence counts: a use adds `Load_Cost·Freq` to
/// `Spill_Cost` and a def `Store_Cost·Freq`, and either adds
/// `Inst_Cost·Freq` to `Op_Cost`, so an instruction using `v` twice
/// counts twice. The sums wrap on overflow, as a release build's `+` does;
/// the crossing sum saturates ([`CallCrossing::weighted`]).
#[derive(Clone, Debug, Default)]
pub struct CostTable {
    /// Three words per vreg: `Spill_Cost`, `Op_Cost`, and
    /// `Save_Restore_Cost × Σ Freq(calls crossed)`.
    terms: Vec<u64>,
}

impl CostTable {
    /// Sums the terms of every vreg of `func` (φs must be lowered).
    pub fn compute(func: &Function, loops: &Loops, crossings: &CallCrossing) -> Self {
        Self::compute_in(func, loops, crossings, &mut VecPool::new())
    }

    /// Like [`CostTable::compute`], drawing the table from `pool`; return
    /// it with [`CostTable::recycle`] when done.
    pub fn compute_in(
        func: &Function,
        loops: &Loops,
        crossings: &CallCrossing,
        pool: &mut VecPool<u64>,
    ) -> Self {
        let n = func.num_vregs();
        let mut terms = pool.take_filled(3 * n, 0);
        for b in func.block_ids() {
            let f = loops.freq(b);
            let (load, store) = (LOAD_COST.wrapping_mul(f), STORE_COST.wrapping_mul(f));
            for inst in &func.block(b).insts {
                let op = inst_cost(inst).wrapping_mul(f);
                let mut add = |v: VReg, spill: u64| {
                    let t = &mut terms[3 * v.index()..3 * v.index() + 2];
                    t[0] = t[0].wrapping_add(spill);
                    t[1] = t[1].wrapping_add(op);
                };
                inst.visit_uses(|u| add(u, load));
                if let Some(d) = inst.def() {
                    add(d, store);
                }
            }
        }
        for v in 0..n {
            terms[3 * v + 2] =
                SAVE_RESTORE_COST.wrapping_mul(crossings.weighted(VReg::new(v), loops));
        }
        CostTable { terms }
    }

    /// Returns the table's storage to `pool`.
    pub fn recycle(self, pool: &mut VecPool<u64>) {
        pool.put(self.terms);
    }

    /// `Spill_Cost(V)`.
    pub fn spill_cost(&self, v: VReg) -> u64 {
        self.terms[3 * v.index()]
    }

    /// `Op_Cost(V)`.
    pub fn op_cost(&self, v: VReg) -> u64 {
        self.terms[3 * v.index() + 1]
    }

    /// `Call_Cost(V)` in a volatile register.
    pub fn call_cost_volatile(&self, v: VReg) -> u64 {
        self.terms[3 * v.index() + 2]
    }
}

/// Evaluates the Appendix cost functions over one function.
#[derive(Clone, Copy, Debug)]
pub struct CostModel<'a> {
    func: &'a Function,
    costs: &'a CostTable,
    loops: &'a Loops,
}

impl<'a> CostModel<'a> {
    /// Bundles the function, its cost table and its loop frequencies.
    pub fn new(func: &'a Function, costs: &'a CostTable, loops: &'a Loops) -> Self {
        CostModel { func, costs, loops }
    }

    /// `Freq_Fact` of the instruction's block.
    ///
    /// `depth` counts *natural loops* — all back edges sharing a header
    /// form one loop, so a two-latch (`continue`-shaped) loop weighs its
    /// body 10×, not 100×.
    pub fn freq(&self, r: InstRef) -> u64 {
        self.loops.freq(r.block)
    }

    /// `Spill_Cost(V)`: reload before every use, store after every def.
    pub fn spill_cost(&self, v: VReg) -> u64 {
        self.costs.spill_cost(v)
    }

    /// `Op_Cost(V)`: the frequency-weighted cost of the instructions that
    /// touch `V`.
    pub fn op_cost(&self, v: VReg) -> u64 {
        self.costs.op_cost(v)
    }

    /// `Mem_Cost(V) = Spill_Cost(V) + Op_Cost(V)`.
    pub fn mem_cost(&self, v: VReg) -> u64 {
        self.spill_cost(v).wrapping_add(self.op_cost(v))
    }

    /// `Call_Cost(V)` when `V` lives in a volatile register: save+restore
    /// around every call it crosses.
    pub fn call_cost_volatile(&self, v: VReg) -> u64 {
        self.costs.call_cost_volatile(v)
    }

    /// `Call_Cost(V)` when `V` lives in a non-volatile register.
    pub fn call_cost_nonvolatile(&self, _v: VReg) -> u64 {
        CALLEE_SAVE_COST
    }

    /// `Ideal_Op_Cost(V, P)`: like [`op_cost`](Self::op_cost) but the
    /// instructions in `zeroed` — those the preference `P` eliminates —
    /// cost nothing. Each distinct site in `zeroed` takes off every
    /// occurrence of `V` there; a site that does not touch `V` takes off
    /// nothing.
    pub fn ideal_op_cost(&self, v: VReg, zeroed: &[InstRef]) -> u64 {
        let mut cost = self.op_cost(v);
        for (i, &r) in zeroed.iter().enumerate() {
            if zeroed[..i].contains(&r) {
                continue;
            }
            let Some(inst) = self
                .func
                .blocks
                .get(r.block.index())
                .and_then(|b| b.insts.get(r.index))
            else {
                continue;
            };
            let mut occurrences = u64::from(inst.def() == Some(v));
            inst.visit_uses(|u| occurrences += u64::from(u == v));
            if occurrences > 0 {
                let site = inst_cost(inst).wrapping_mul(self.freq(r));
                cost = cost.wrapping_sub(occurrences.wrapping_mul(site));
            }
        }
        cost
    }

    /// `Str(V, P)` for a preference that would be honored with a volatile
    /// register and eliminates the instructions in `zeroed`.
    pub fn strength_volatile(&self, v: VReg, zeroed: &[InstRef]) -> i64 {
        (self.mem_cost(v) as i64).wrapping_sub(
            self.call_cost_volatile(v)
                .wrapping_add(self.ideal_op_cost(v, zeroed)) as i64,
        )
    }

    /// `Str(V, P)` for a preference honored with a non-volatile register.
    pub fn strength_nonvolatile(&self, v: VReg, zeroed: &[InstRef]) -> i64 {
        (self.mem_cost(v) as i64).wrapping_sub(
            self.call_cost_nonvolatile(v)
                .wrapping_add(self.ideal_op_cost(v, zeroed)) as i64,
        )
    }

    /// `Str(V, P)` with the `Call_Cost` term omitted — the strength used
    /// by the "only coalescing" configuration of §6.1, where the allocator
    /// reflects nothing but the coalescing benefit (volatile and
    /// non-volatile registers look identical to it).
    pub fn strength_ignoring_volatility(&self, v: VReg, zeroed: &[InstRef]) -> i64 {
        (self.mem_cost(v) as i64).wrapping_sub(self.ideal_op_cost(v, zeroed) as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgc_analysis::{Cfg, Dominators, Liveness};
    use pdgc_ir::{BinOp, CmpOp, FunctionBuilder, RegClass};

    struct Ctx {
        func: Function,
        cfg: Cfg,
    }

    /// The Figure 7 sample loop, in IR form (pre-ABI-lowering, with arg0
    /// modeled as an ordinary parameter vreg and the call argument copy
    /// kept explicit).
    ///
    /// ```text
    /// i0:     v0 = [arg0]
    /// i1: L1: v1 = [v0]
    /// i2:     v2 = [v0+4]
    /// i3:     v3 = v0
    /// i4:     v4 = v1 + v2
    /// i5:     arg0' = v3            (call argument copy)
    /// i6:     call g(arg0')
    /// i7:     v0' = v4 + 1
    /// i8:     if v0' != 0 goto L1
    /// i9:     ret
    /// ```
    fn figure7_ir() -> (Ctx, [VReg; 5]) {
        let mut b = FunctionBuilder::new("fig7", vec![RegClass::Int], None);
        let arg0 = b.param(0);
        let header = b.create_block();
        let exit = b.create_block();
        // i0 (entry, freq 1)
        let v0 = b.load(arg0, 0);
        b.jump(header);
        // loop body (freq 10)
        b.switch_to(header);
        let v1 = b.load(v0, 0);
        let v2 = b.load(v0, 4);
        let v3 = b.copy(v0);
        let v4 = b.bin(BinOp::Add, v1, v2);
        let arg0c = b.copy(v3); // i5: the explicit call-argument copy
        b.call("g", vec![arg0c], None);
        let v0b = b.bin_imm(BinOp::Add, v4, 1);
        let z = b.iconst(0);
        b.branch(CmpOp::Ne, v0b, z, header, exit);
        b.switch_to(exit);
        b.ret(None);
        // NOTE: v0b is the loop-carried redefinition; for cost purposes the
        // paper treats v0/v0' as one live range. The cost tests below use
        // the individual registers whose sites match the paper's table.
        let func = b.finish();
        let cfg = Cfg::compute(&func);
        (Ctx { func, cfg }, [v0, v1, v2, v3, v4])
    }

    fn model(ctx: &Ctx) -> (CostTable, Loops) {
        let dom = Dominators::compute(&ctx.cfg);
        let loops = Loops::compute(&ctx.cfg, &dom);
        let lv = Liveness::compute(&ctx.func, &ctx.cfg);
        let cc = lv.call_crossings(&ctx.func);
        (CostTable::compute(&ctx.func, &loops, &cc), loops)
    }

    /// The one instruction that defines `v`.
    fn def_site(func: &Function, v: VReg) -> InstRef {
        func.block_ids()
            .flat_map(|b| {
                func.block(b)
                    .insts
                    .iter()
                    .enumerate()
                    .filter(move |(_, inst)| inst.def() == Some(v))
                    .map(move |(index, _)| InstRef { block: b, index })
            })
            .next()
            .expect("v is defined")
    }

    #[test]
    fn figure7_v4_prefers_nonvolatile_strength_28() {
        let (ctx, regs) = figure7_ir();
        let (table, loops) = model(&ctx);
        let m = CostModel::new(&ctx.func, &table, &loops);
        let v4 = regs[4];
        assert_eq!(m.mem_cost(v4), 50);
        assert_eq!(m.strength_nonvolatile(v4, &[]), 28);
        // Volatile would need save/restore around the crossed call.
        assert_eq!(m.call_cost_volatile(v4), 30);
        assert_eq!(m.strength_volatile(v4, &[]), 0);
    }

    #[test]
    fn figure7_v3_coalesce_strengths_40_38() {
        let (ctx, regs) = figure7_ir();
        let (table, loops) = model(&ctx);
        let m = CostModel::new(&ctx.func, &table, &loops);
        let v3 = regs[3];
        // The coalesce preference toward v0 zeroes only the move that
        // defines v3 (i3); the argument copy i5 still costs.
        let def_site = def_site(&ctx.func, v3);
        assert_eq!(m.mem_cost(v3), 50);
        assert_eq!(m.strength_volatile(v3, &[def_site]), 40);
        assert_eq!(m.strength_nonvolatile(v3, &[def_site]), 38);
    }

    #[test]
    fn figure7_sequential_strengths_50_48() {
        let (ctx, regs) = figure7_ir();
        let (table, loops) = model(&ctx);
        let m = CostModel::new(&ctx.func, &table, &loops);
        for v in [regs[1], regs[2]] {
            // The sequential± preference zeroes the paired-load candidate
            // that defines the register.
            let def_site = def_site(&ctx.func, v);
            assert_eq!(m.mem_cost(v), 60);
            assert_eq!(m.strength_volatile(v, &[def_site]), 50);
            assert_eq!(m.strength_nonvolatile(v, &[def_site]), 48);
        }
    }

    #[test]
    fn spill_cost_weights_by_frequency() {
        let (ctx, regs) = figure7_ir();
        let (table, loops) = model(&ctx);
        let m = CostModel::new(&ctx.func, &table, &loops);
        // v1: def by load in the loop (store-after-def 1×10), one use in
        // the loop (load-before-use 2×10).
        assert_eq!(m.spill_cost(regs[1]), 30);
        // v4: def 1×10 + use 2×10.
        assert_eq!(m.spill_cost(regs[4]), 30);
    }

    #[test]
    fn call_sites_cost_nothing_in_op_cost() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], None);
        let p = b.param(0);
        b.call("g", vec![p], None);
        b.ret(None);
        let func = b.finish();
        let cfg = Cfg::compute(&func);
        let ctx = Ctx { func, cfg };
        let (table, loops) = model(&ctx);
        let m = CostModel::new(&ctx.func, &table, &loops);
        // p's only use is the call, whose Inst_Cost is undefined (0).
        assert_eq!(m.op_cost(p), 0);
        assert_eq!(m.spill_cost(p), 2);
    }
}
