//! A Lueh–Gross-style call-cost-directed allocator — "aggressive +
//! volatility" in the paper's Figure 11.
//!
//! Aggressive coalescing, then benefit-driven simplification (the
//! lowest-priority node is pushed first so important nodes are colored
//! early), a *preference decision* that caps how many live ranges may
//! claim non-volatile registers per call, and a select phase that chooses
//! between a volatile register, a non-volatile register, and memory by
//! comparing the benefit functions. Unlike the preference-directed
//! allocator, the decisions are static — made before any register is
//! selected — which is exactly the weakness §4 discusses.

use super::coalesce::{coalesce_aggressively, expand_merged};
use crate::node::NodeId;
use crate::pipeline::{Analyses, ClassCtx, ClassStrategy, RoundOutcome};
use crate::select::{taken, RegFile};
use crate::simplify::{simplify_keyed_in, SimplifyMode};
use crate::RegisterAllocator;
use pdgc_obs::{Phase, PhaseTimer, Tracer};
use pdgc_target::{PhysReg, TargetDesc};
use std::cmp::Reverse;

/// The call-cost-directed allocator.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallCostAllocator;

impl ClassStrategy for CallCostAllocator {
    fn allocate_class(
        &self,
        ctx: &mut ClassCtx<'_>,
        analyses: &Analyses,
        target: &TargetDesc,
        tracer: &mut dyn Tracer,
    ) -> RoundOutcome {
        let round = ctx.round as u32;
        let class = ctx.class;
        let costs = coalesce_aggressively(ctx, tracer);
        // The benefits and the preference decision feed simplify and
        // select; they are timed with simplify.
        let timer = PhaseTimer::start(Phase::Simplify, round, Some(class));

        // Benefit functions per representative (summed over members).
        let cost = ctx.cost_model(analyses);
        let nn = ctx.nodes.num_nodes();
        let mut benefit_vol = vec![0i64; nn];
        let mut benefit_nonvol = vec![0i64; nn];
        // Every (call, representative) crossing, in node, member and site
        // order.
        let mut crossings = Vec::new();
        for n in ctx.nodes.live_range_nodes() {
            let r = ctx.ifg.rep(n);
            if ctx.nodes.is_precolored(r) {
                continue;
            }
            for &v in ctx.nodes.members(n) {
                benefit_vol[r.index()] += cost.strength_volatile(v, &[]);
                benefit_nonvol[r.index()] += cost.strength_nonvolatile(v, &[]);
                let sites = analyses.crossings.sites(v);
                crossings.extend(sites.iter().map(|&(b, i)| ((b.index(), i), r)));
            }
        }

        // Preference decision: per call, at most R live ranges may claim
        // non-volatile registers; the rest are annotated prefer-volatile.
        // The stable sorts keep each call's representatives in the order
        // they first cross it, which breaks benefit ties.
        let num_nonvol = target.nonvolatiles(ctx.class).count();
        let mut force_volatile = vec![false; nn];
        let mut last_call = vec![usize::MAX; nn];
        let mut reps = Vec::new();
        crossings.sort_by_key(|&(call, _)| call);
        for (call, crossing) in crossings.chunk_by(|x, y| x.0 == y.0).enumerate() {
            reps.clear();
            for &(_, r) in crossing {
                if std::mem::replace(&mut last_call[r.index()], call) != call {
                    reps.push(r);
                }
            }
            reps.sort_by_key(|r| Reverse(benefit_nonvol[r.index()] - benefit_vol[r.index()]));
            for r in reps.iter().skip(num_nonvol) {
                force_volatile[r.index()] = true;
            }
        }

        // Benefit-driven simplification (Chaitin spill policy): among
        // low-degree nodes, push the lowest-priority first.
        let priority = |n: NodeId| benefit_vol[n.index()].max(benefit_nonvol[n.index()]);
        let mut sr = simplify_keyed_in(
            &mut ctx.ifg,
            ctx.k,
            &costs,
            SimplifyMode::Chaitin,
            priority,
            None,
            &mut ctx.scratch.simplify,
        );
        ctx.scratch
            .simplify
            .flush_counters(&mut ctx.scratch.select.metrics);
        timer.stop(&mut ctx.scratch.select.metrics, tracer);

        let timer = PhaseTimer::start(Phase::Select, round, Some(class));
        let regs = RegFile::new(target, class);
        let mut assignment: Vec<Option<PhysReg>> = ctx.nodes.precolored().collect();
        // Select adds its memory decisions to simplify's spills.
        let spilled_reps = &mut sr.chaitin_spills;

        if spilled_reps.is_empty() {
            ctx.ifg.restore_all();
            for &n in sr.stack.iter().rev() {
                let free = regs.free(taken(ctx.ifg.neighbors_slice(n), |x| assignment[x.index()]));
                let vol = regs.pick(free & regs.vol, false);
                let nonvol = regs.pick(free & !regs.vol, false);
                let unspillable = costs[n.index()] == u64::MAX;
                let choice = if force_volatile[n.index()] {
                    vol.or(nonvol)
                } else {
                    match (vol, nonvol) {
                        (Some(v), Some(nv)) => {
                            if benefit_nonvol[n.index()] > benefit_vol[n.index()] {
                                Some(nv)
                            } else {
                                Some(v)
                            }
                        }
                        (v, nv) => v.or(nv),
                    }
                };
                match choice {
                    Some(r) => {
                        // Active memory decision: a node whose best benefit
                        // is negative belongs in memory.
                        let best = if force_volatile[n.index()] {
                            benefit_vol[n.index()]
                        } else {
                            priority(n)
                        };
                        if best < 0 && !unspillable {
                            spilled_reps.push(n);
                        } else {
                            assignment[n.index()] = Some(r);
                        }
                    }
                    None => {
                        assert!(!unspillable, "call-cost select spilled a temporary");
                        spilled_reps.push(n);
                    }
                }
            }
        }

        let outcome = expand_merged(&ctx.ifg, &ctx.nodes, assignment, &sr.chaitin_spills);
        timer.stop(&mut ctx.scratch.select.metrics, tracer);
        sr.recycle(&mut ctx.scratch.simplify);
        outcome
    }
}

impl RegisterAllocator for CallCostAllocator {
    fn name(&self) -> &'static str {
        "aggressive+volatility"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AllocSession;
    use pdgc_ir::{BinOp, FunctionBuilder, RegClass};
    use pdgc_target::PressureModel;

    #[test]
    fn call_crossing_value_gets_nonvolatile() {
        // The crossing value must not be copy-related to an argument
        // register (aggressive coalescing would absorb it into the
        // volatile precolored node — the very §4 pathology).
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let q = b.load(p, 0);
        b.call("g", vec![], None);
        b.call("g", vec![], None);
        let r = b.bin(BinOp::Add, q, q);
        b.ret(Some(r));
        let f = b.finish();
        let target = TargetDesc::ia64_like(PressureModel::High);
        let out = CallCostAllocator
            .allocate(&f, &target, &mut AllocSession::default())
            .unwrap();
        // q crosses two calls: a non-volatile register avoids caller saves.
        assert_eq!(out.stats.caller_save_insts, 0);
        assert!(out.stats.nonvolatiles_used >= 1);
        assert_eq!(out.stats.spill_instructions, 0);
    }

    #[test]
    fn non_crossing_values_stay_volatile() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let x = b.bin(BinOp::Add, p, p);
        let y = b.bin(BinOp::Mul, x, p);
        b.ret(Some(y));
        let f = b.finish();
        let target = TargetDesc::ia64_like(PressureModel::High);
        let out = CallCostAllocator
            .allocate(&f, &target, &mut AllocSession::default())
            .unwrap();
        assert_eq!(out.stats.nonvolatiles_used, 0);
    }
}
