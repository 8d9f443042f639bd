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

use super::coalesce::{aggressive_coalesce, fold_spill_costs, propagate_merged};
use crate::node::NodeId;
use crate::pipeline::{Analyses, ClassCtx, ClassStrategy, RoundOutcome};
use crate::RegisterAllocator;
use pdgc_obs::{Phase, PhaseTimer, Tracer};
use pdgc_target::{PhysReg, TargetDesc};
use std::collections::HashMap;

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
        let k = ctx.k;
        let timer = PhaseTimer::start(Phase::Coalesce, round, Some(class));
        aggressive_coalesce(&mut ctx.ifg, &ctx.copies);
        timer.stop(&mut ctx.scratch.select.metrics, tracer);
        let mut costs = ctx.spill_costs.clone();
        fold_spill_costs(&ctx.ifg, &mut costs);

        // Benefit functions per representative (summed over members).
        let cost = ctx.cost_model(analyses);
        let nn = ctx.nodes.num_nodes();
        let mut benefit_vol = vec![0i64; nn];
        let mut benefit_nonvol = vec![0i64; nn];
        for n in ctx.nodes.live_range_nodes() {
            let r = ctx.ifg.rep(n);
            if ctx.nodes.is_precolored(r) {
                continue;
            }
            for &v in ctx.nodes.members(n) {
                benefit_vol[r.index()] += cost.strength_volatile(v, &[]);
                benefit_nonvol[r.index()] += cost.strength_nonvolatile(v, &[]);
            }
        }

        // Preference decision: per call, at most R live ranges may claim
        // non-volatile registers; the rest are annotated prefer-volatile.
        let num_nonvol = target.nonvolatiles(ctx.class).count();
        let mut force_volatile = vec![false; nn];
        let mut per_call: HashMap<(usize, usize), Vec<NodeId>> = HashMap::new();
        for n in ctx.nodes.live_range_nodes() {
            let r = ctx.ifg.rep(n);
            if ctx.nodes.is_precolored(r) {
                continue;
            }
            for &v in ctx.nodes.members(n) {
                for &(b, i) in analyses.crossings.sites(v) {
                    let entry = per_call.entry((b.index(), i)).or_default();
                    if !entry.contains(&r) {
                        entry.push(r);
                    }
                }
            }
        }
        for (_, mut reps) in per_call {
            reps.sort_by_key(|r| {
                std::cmp::Reverse(benefit_nonvol[r.index()] - benefit_vol[r.index()])
            });
            for &r in reps.iter().skip(num_nonvol) {
                force_volatile[r.index()] = true;
            }
        }

        // Benefit-driven simplification (Chaitin spill policy): among
        // low-degree nodes, push the lowest-priority first.
        let priority = |n: NodeId| benefit_vol[n.index()].max(benefit_nonvol[n.index()]);
        let mut stack: Vec<NodeId> = Vec::new();
        let mut chaitin_spills: Vec<NodeId> = Vec::new();
        let timer = PhaseTimer::start(Phase::Simplify, round, Some(class));
        loop {
            let active = ctx.ifg.active_live_ranges();
            if active.is_empty() {
                break;
            }
            let low = active
                .iter()
                .copied()
                .filter(|&n| ctx.ifg.degree(n) < k)
                .min_by_key(|&n| (priority(n), n.index()));
            if let Some(n) = low {
                ctx.ifg.remove(n);
                stack.push(n);
                continue;
            }
            let cand = active
                .iter()
                .copied()
                .filter(|&n| costs[n.index()] != u64::MAX)
                .min_by(|&a, &b| {
                    let lhs = costs[a.index()] as u128 * ctx.ifg.degree(b) as u128;
                    let rhs = costs[b.index()] as u128 * ctx.ifg.degree(a) as u128;
                    lhs.cmp(&rhs).then(a.index().cmp(&b.index()))
                })
                .expect("call-cost: only unspillable nodes remain");
            ctx.ifg.remove(cand);
            chaitin_spills.push(cand);
        }
        timer.stop(&mut ctx.scratch.select.metrics, tracer);

        let timer = PhaseTimer::start(Phase::Select, round, Some(class));
        let mut assignment: Vec<Option<PhysReg>> = (0..nn)
            .map(|i| {
                let n = NodeId::new(i);
                ctx.nodes.is_precolored(n).then(|| ctx.nodes.phys_reg(n))
            })
            .collect();
        let mut spilled_reps: Vec<NodeId> = chaitin_spills;

        if spilled_reps.is_empty() {
            ctx.ifg.restore_all();
            for &n in stack.iter().rev() {
                let mut used = vec![false; k];
                for &x in ctx.ifg.neighbors_slice(n) {
                    if let Some(r) = assignment[x.index()] {
                        used[r.index()] = true;
                    }
                }
                let vol = target
                    .volatiles(ctx.class)
                    .find(|r| !used[r.index()]);
                let nonvol = target
                    .nonvolatiles(ctx.class)
                    .find(|r| !used[r.index()]);
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

        propagate_merged(&ctx.ifg, &mut assignment);
        let mut spilled = Vec::new();
        for &s in &spilled_reps {
            for i in 0..nn {
                let n = NodeId::new(i);
                if ctx.ifg.rep(n) == s && !ctx.nodes.is_precolored(n) {
                    assignment[n.index()] = None;
                    spilled.push(n);
                }
            }
        }
        timer.stop(&mut ctx.scratch.select.metrics, tracer);
        RoundOutcome {
            assignment,
            spilled,
        }
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
