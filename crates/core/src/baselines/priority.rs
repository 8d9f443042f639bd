//! Chow–Hennessy-style priority-based coloring — the *other* coloring
//! school the paper contrasts against in §7.
//!
//! Where Chaitin's simplification "favors packing live ranges", priority-
//! based coloring "favors allocating more live ranges with higher
//! priority though that may use more colors": live ranges are visited in
//! order of decreasing priority — the frequency-weighted memory-access
//! savings of register residence, normalized by the range's size — and
//! each takes any register its already-colored neighbors leave free.
//!
//! This implementation is deliberately simplified relative to the 1990
//! TOPLAS paper: blocked live ranges are spilled everywhere rather than
//! split (the pipeline's spill iteration stands in for live-range
//! splitting). That preserves the §7 contrast the `extras` harness
//! measures — the priority order's indifference to packing.

use super::coalesce::{aggressive_coalesce, fold_spill_costs, propagate_merged};
use crate::node::NodeId;
use crate::pipeline::{Analyses, ClassCtx, ClassStrategy, RoundOutcome};
use crate::RegisterAllocator;
use pdgc_ir::VReg;
use pdgc_obs::{Phase, PhaseTimer, Tracer};
use pdgc_target::{PhysReg, TargetDesc};

/// The priority-based allocator.
#[derive(Clone, Copy, Debug, Default)]
pub struct PriorityAllocator;

impl ClassStrategy for PriorityAllocator {
    fn allocate_class(
        &self,
        ctx: &mut ClassCtx<'_>,
        analyses: &Analyses,
        target: &TargetDesc,
        tracer: &mut dyn Tracer,
    ) -> RoundOutcome {
        let round = ctx.round as u32;
        let class = ctx.class;
        // Copy coalescing as in the other baselines (priority-based
        // allocators in practice ran after copy propagation).
        let timer = PhaseTimer::start(Phase::Coalesce, round, Some(class));
        aggressive_coalesce(&mut ctx.ifg, &ctx.copies);
        timer.stop(&mut ctx.scratch.select.metrics, tracer);
        let mut costs = ctx.spill_costs.clone();
        fold_spill_costs(&ctx.ifg, &mut costs);
        let timer = PhaseTimer::start(Phase::Select, round, Some(class));

        // Live-range "area": the number of instruction points each node's
        // members are live across.
        let nn = ctx.nodes.num_nodes();
        let mut area = vec![0u64; nn];
        for b in ctx.func.block_ids() {
            analyses
                .liveness
                .for_each_inst_backward(ctx.func, b, |_, _, live| {
                    for v in live.iter() {
                        if let Some(n) = ctx.nodes.node_of(VReg::new(v)) {
                            area[ctx.ifg.rep(n).index()] += 1;
                        }
                    }
                });
        }

        // Priority: savings per unit of live range. Unspillable
        // temporaries go first (they must get registers).
        let priority = |n: NodeId| -> (u8, u64) {
            let c = costs[n.index()];
            if c == u64::MAX {
                return (1, u64::MAX);
            }
            // Scale to keep integer precision.
            (0, c.saturating_mul(1024) / area[n.index()].max(1))
        };
        let mut order: Vec<NodeId> = ctx
            .ifg
            .active_live_ranges()
            .into_iter()
            .collect();
        order.sort_by_key(|&n| {
            let (tier, p) = priority(n);
            (std::cmp::Reverse(tier), std::cmp::Reverse(p), n.index())
        });

        let mut assignment: Vec<Option<PhysReg>> = (0..nn)
            .map(|i| {
                let n = NodeId::new(i);
                ctx.nodes.is_precolored(n).then(|| ctx.nodes.phys_reg(n))
            })
            .collect();
        let mut spilled_reps = Vec::new();
        for &n in &order {
            let mut used = vec![false; ctx.k];
            for &x in ctx.ifg.neighbors_slice(n) {
                if let Some(r) = assignment[x.index()] {
                    used[r.index()] = true;
                }
            }
            let choice = target
                .nonvolatiles(ctx.class)
                .find(|r| !used[r.index()])
                .or_else(|| target.regs(ctx.class).find(|r| !used[r.index()]));
            match choice {
                Some(r) => assignment[n.index()] = Some(r),
                None => {
                    assert!(
                        costs[n.index()] != u64::MAX,
                        "priority coloring spilled a temporary"
                    );
                    spilled_reps.push(n);
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

impl RegisterAllocator for PriorityAllocator {
    fn name(&self) -> &'static str {
        "priority-based"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AllocSession;
    use pdgc_ir::{BinOp, CmpOp, FunctionBuilder, RegClass};
    use pdgc_target::PressureModel;

    #[test]
    fn allocates_simple_functions() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let x = b.bin(BinOp::Add, p, p);
        b.ret(Some(x));
        let f = b.finish();
        let target = TargetDesc::ia64_like(PressureModel::High);
        let out = PriorityAllocator
            .allocate(&f, &target, &mut AllocSession::default())
            .unwrap();
        assert_eq!(out.stats.spill_instructions, 0);
    }

    #[test]
    fn high_priority_loop_values_colored_first() {
        // A loop-resident value and a cold value compete for one register:
        // the hot one must win the register, the cold one spills.
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let header = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        let cold = b.load(p, 0);
        let hot = b.load(p, 8);
        let i = b.bin_imm(BinOp::Add, p, 3);
        b.jump(header);
        b.switch_to(header);
        b.branch_imm(CmpOp::Gt, i, 0, body, exit);
        b.switch_to(body);
        b.store(hot, p, 64); // hot used every iteration
        b.emit(pdgc_ir::Inst::BinImm {
            op: BinOp::Sub,
            dst: i,
            lhs: i,
            imm: 1,
        });
        b.jump(header);
        b.switch_to(exit);
        let s = b.bin(BinOp::Add, hot, cold);
        b.ret(Some(s));
        let f = b.finish();
        // 3 registers: p/i/hot/cold cannot all fit.
        let target = TargetDesc::toy(3);
        let out = PriorityAllocator
            .allocate(&f, &target, &mut AllocSession::default())
            .unwrap();
        // The hot value stayed in a register across the loop (no reload
        // inside the loop body block).
        let body_spills = out.mach.blocks[2]
            .iter()
            .filter(|i| i.is_spill_traffic())
            .count();
        assert_eq!(body_spills, 0, "hot loop value must not spill");
        assert!(out.stats.spill_instructions > 0, "the cold value spills");
    }
}
