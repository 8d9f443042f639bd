//! Briggs' optimistic allocator with aggressive coalescing and biased
//! coloring — Figure 1(b); "Briggs + aggressive" in the paper's §6.

use super::coalesce::{aggressive_coalesce, color_stack, fold_spill_costs, propagate_merged};
use crate::pipeline::{Analyses, ClassCtx, ClassStrategy, RoundOutcome};
use crate::simplify::{simplify_in, SimplifyMode};
use crate::RegisterAllocator;
use pdgc_obs::{Phase, PhaseTimer, Tracer};
use pdgc_target::TargetDesc;

/// Briggs-style optimistic coloring: aggressive coalescing, optimistic
/// node removal when the graph blocks, biased select, spill only when the
/// select phase truly finds no color.
#[derive(Clone, Copy, Debug, Default)]
pub struct BriggsAllocator;

impl ClassStrategy for BriggsAllocator {
    fn allocate_class(
        &self,
        ctx: &mut ClassCtx<'_>,
        _analyses: &Analyses,
        target: &TargetDesc,
        tracer: &mut dyn Tracer,
    ) -> RoundOutcome {
        let round = ctx.round as u32;
        let class = ctx.class;
        let timer = PhaseTimer::start(Phase::Coalesce, round, Some(class));
        aggressive_coalesce(&mut ctx.ifg, &ctx.copies);
        timer.stop(&mut ctx.scratch.select.metrics, tracer);
        let mut costs = ctx.spill_costs.clone();
        fold_spill_costs(&ctx.ifg, &mut costs);
        let timer = PhaseTimer::start(Phase::Simplify, round, Some(class));
        let sr = simplify_in(
            &mut ctx.ifg,
            ctx.k,
            &costs,
            SimplifyMode::Optimistic,
            &mut ctx.scratch.simplify,
        );
        timer.stop(&mut ctx.scratch.select.metrics, tracer);
        ctx.ifg.restore_all();
        let timer = PhaseTimer::start(Phase::Select, round, Some(class));
        let (mut assignment, spilled_reps) = color_stack(
            &ctx.ifg,
            &ctx.nodes,
            &sr.stack,
            target,
            Some(&ctx.copies), // biased coloring
            true,
        );
        timer.stop(&mut ctx.scratch.select.metrics, tracer);
        sr.recycle(&mut ctx.scratch.simplify);
        propagate_merged(&ctx.ifg, &mut assignment);
        // A spilled representative spills all members.
        let mut spilled = Vec::new();
        for &s in &spilled_reps {
            for i in 0..ctx.nodes.num_nodes() {
                let n = crate::node::NodeId::new(i);
                if ctx.ifg.rep(n) == s && !ctx.nodes.is_precolored(n) {
                    assignment[n.index()] = None;
                    spilled.push(n);
                }
            }
        }
        RoundOutcome { assignment, spilled }
    }
}

impl RegisterAllocator for BriggsAllocator {
    fn name(&self) -> &'static str {
        "briggs-aggressive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AllocSession;
    use pdgc_ir::{BinOp, CmpOp, FunctionBuilder, RegClass};
    use pdgc_target::PressureModel;

    #[test]
    fn optimism_beats_chaitin_on_diamond_pattern() {
        // A graph that blocks simplification but is colorable: the classic
        // diamond (4-cycle) with K=2. Chaitin spills; Briggs colors it.
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        // Build a 4-cycle interference pattern: a-b, b-c, c-d, d-a.
        let a = b.load(p, 0);
        let c = b.load(p, 32);
        let s1 = b.bin(BinOp::Add, a, c); // a dies, c lives
        let d = b.load(p, 64);
        let s2 = b.bin(BinOp::Add, c, d);
        let s3 = b.bin(BinOp::Add, s1, s2);
        b.ret(Some(s3));
        let f = b.finish();
        let target = TargetDesc::toy(3);
        let out = BriggsAllocator
            .allocate(&f, &target, &mut AllocSession::default())
            .unwrap();
        assert!(out.lowered.verify().is_ok());
    }

    #[test]
    fn handles_loops_and_calls() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let header = b.create_block();
        let exit = b.create_block();
        b.jump(header);
        b.switch_to(header);
        let r = b.call("g", vec![p], Some(RegClass::Int)).unwrap();
        let z = b.iconst(0);
        b.branch(CmpOp::Ne, r, z, header, exit);
        b.switch_to(exit);
        b.ret(Some(p));
        let f = b.finish();
        let target = TargetDesc::ia64_like(PressureModel::High);
        let out = BriggsAllocator
            .allocate(&f, &target, &mut AllocSession::default())
            .unwrap();
        assert_eq!(out.stats.spill_instructions, 0);
        // p crosses calls; under the non-volatile-first heuristic it must
        // not need caller saves.
        assert_eq!(out.stats.caller_save_insts, 0);
    }
}
