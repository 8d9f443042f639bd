//! Chaitin's allocator with aggressive coalescing — Figure 1(a) of the
//! paper and the *base* algorithm of the Figure 9 ratios.

use super::coalesce::{coalesce_aggressively, color_stack, expand_merged, simplify_timed};
use crate::pipeline::{Analyses, ClassCtx, ClassStrategy, RoundOutcome};
use crate::simplify::SimplifyMode;
use crate::RegisterAllocator;
use pdgc_obs::Tracer;
use pdgc_target::TargetDesc;

/// Chaitin-style coloring: renumber → build → **aggressive coalesce** →
/// simplify with eager spill decisions → select in reverse simplification
/// order.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaitinAllocator;

impl ClassStrategy for ChaitinAllocator {
    fn allocate_class(
        &self,
        ctx: &mut ClassCtx<'_>,
        _analyses: &Analyses,
        target: &TargetDesc,
        tracer: &mut dyn Tracer,
    ) -> RoundOutcome {
        let costs = coalesce_aggressively(ctx, tracer);
        let sr = simplify_timed(ctx, &costs, SimplifyMode::Chaitin, tracer);
        let outcome = if sr.must_spill() {
            // Spill decisions are definite: split now, retry next round.
            let assignment = ctx.nodes.precolored().collect();
            expand_merged(&ctx.ifg, &ctx.nodes, assignment, &sr.chaitin_spills)
        } else {
            ctx.ifg.restore_all();
            let outcome = color_stack(ctx, &sr.stack, target, false, tracer);
            assert!(
                outcome.spilled.is_empty(),
                "Chaitin select found no color after clean simplification"
            );
            outcome
        };
        sr.recycle(&mut ctx.scratch.simplify);
        outcome
    }
}

impl RegisterAllocator for ChaitinAllocator {
    fn name(&self) -> &'static str {
        "chaitin-aggressive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AllocSession;
    use pdgc_ir::{BinOp, FunctionBuilder, RegClass};
    use pdgc_target::PressureModel;

    #[test]
    fn coalesces_copy_chains_away() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let a = b.copy(p);
        let c = b.copy(a);
        let d = b.copy(c);
        b.ret(Some(d));
        let f = b.finish();
        let target = TargetDesc::ia64_like(PressureModel::High);
        let out = ChaitinAllocator
            .allocate(&f, &target, &mut AllocSession::default())
            .unwrap();
        // Everything coalesces: param copy + 3 chain copies + ret copy.
        assert_eq!(out.stats.copies_remaining, 0);
        assert_eq!(out.stats.moves_eliminated, out.stats.copies_before);
        assert_eq!(out.stats.spill_instructions, 0);
    }

    #[test]
    fn spills_eagerly_under_pressure() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let vals: Vec<_> = (0..7).map(|i| b.load(p, 16 + 32 * i)).collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.bin(BinOp::Add, acc, v);
        }
        b.ret(Some(acc));
        let f = b.finish();
        let target = TargetDesc::toy(4);
        let out = ChaitinAllocator
            .allocate(&f, &target, &mut AllocSession::default())
            .unwrap();
        assert!(out.stats.spill_instructions > 0);
        assert!(out.stats.rounds > 1);
    }
}
