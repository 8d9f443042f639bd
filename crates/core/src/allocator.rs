//! The public allocator API and the paper's allocator (Figure 8).

use crate::baselines::coalesce::{coalesce_copies, conservative_ok};
use crate::cpg::Cpg;
use crate::pipeline::{AllocSession, Analyses, ClassCtx, ClassStrategy, RoundOutcome};
use crate::rpg::build_rpg_in;
use crate::select::{select_traced_in, SelectConfig};
use crate::simplify::{simplify_in, SimplifyMode};
use pdgc_ir::Function;
use pdgc_obs::{Counter, Event, GraphKind, Phase, PhaseTimer, Tracer};
use pdgc_target::TargetDesc;

pub use crate::pipeline::{AllocError, AllocOutput};
pub use crate::rpg::PreferenceSet;
pub use pdgc_check::{CheckMode, CheckScope};

/// A complete register allocator: lowers, colors, spills, and rewrites.
///
/// An allocator is a [`ClassStrategy`] — how it colors one register class
/// in one round — plus a name; everything else is the shared pipeline.
/// Implemented by [`PreferenceAllocator`] and every baseline in
/// [`crate::baselines`], so harnesses can drive them interchangeably.
pub trait RegisterAllocator: ClassStrategy {
    /// A short identifier used in reports (e.g. `"full-preference"`).
    fn name(&self) -> &'static str;

    /// Allocates `func` against `target` under `session`: the session's
    /// pools supply every phase's storage, its registry records the
    /// metrics, its tracer (if any) receives spans and decisions, and its
    /// check mode decides whether the symbolic checker proves the result
    /// before it is returned. The allocation itself never depends on the
    /// session.
    ///
    /// # Errors
    ///
    /// See [`AllocError`]; [`AllocError::CheckFailed`] when the checker
    /// finds a violation.
    fn allocate(
        &self,
        func: &Function,
        target: &TargetDesc,
        session: &mut AllocSession<'_>,
    ) -> Result<AllocOutput, AllocError> {
        crate::pipeline::run(func, target, self, session)
    }
}

/// The paper's allocator (Figure 8): renumber → build interference graph
/// and Register Preference Graph → optimistic simplify → build Coloring
/// Precedence Graph → integrated preference-directed select → spill &
/// iterate.
#[derive(Clone, Copy, Debug)]
pub struct PreferenceAllocator {
    prefs: PreferenceSet,
    pre_coalesce: bool,
}

impl PreferenceAllocator {
    /// The full-featured configuration ("full preference" in §6):
    /// coalescing, paired loads, dedicated registers, and
    /// volatile/non-volatile exploitation, with active spilling.
    pub fn full() -> Self {
        PreferenceAllocator {
            prefs: PreferenceSet::full(),
            pre_coalesce: false,
        }
    }

    /// The "only coalescing" configuration of §6.1: coalesce preferences
    /// only, non-volatile-first fallback selection, no active spilling.
    pub fn coalescing_only() -> Self {
        PreferenceAllocator {
            prefs: PreferenceSet::coalescing_only(),
            pre_coalesce: false,
        }
    }

    /// A custom preference mix (for ablation experiments).
    pub fn with_preferences(prefs: PreferenceSet) -> Self {
        PreferenceAllocator {
            prefs,
            pre_coalesce: false,
        }
    }

    /// Enables the §6.1 improvement the paper proposes as future work:
    /// "a technique to aggressively coalesce non spill-causing nodes
    /// could be added to the algorithm in Section 5.3". Copy-related
    /// pairs satisfying the Briggs/George conservative criteria are
    /// merged *before* simplification (guaranteed not to create spills);
    /// the remaining preferences are still resolved by the integrated
    /// select phase.
    pub fn with_precoalesce(mut self) -> Self {
        self.pre_coalesce = true;
        self
    }

    /// The preference kinds this instance resolves.
    pub fn preferences(&self) -> PreferenceSet {
        self.prefs
    }
}

impl ClassStrategy for PreferenceAllocator {
    fn allocate_class(
        &self,
        ctx: &mut ClassCtx<'_>,
        analyses: &Analyses,
        target: &TargetDesc,
        tracer: &mut dyn Tracer,
    ) -> RoundOutcome {
        let round = ctx.round as u32;
        let class = ctx.class;
        // No early return below: the class scratch taken here is always
        // moved back into `ctx` before the outcome is returned.
        let mut cls = std::mem::take(&mut ctx.scratch);
        let timer = PhaseTimer::start(Phase::Rpg, round, Some(class));
        let cost = ctx.cost_model(analyses);
        let rpg = build_rpg_in(
            ctx.func,
            &ctx.nodes,
            &cost,
            &ctx.copies,
            self.prefs,
            target,
            &mut cls.rpg,
        );
        timer.stop(&mut cls.select.metrics, tracer);
        cls.select
            .metrics
            .add(Counter::RpgPrefs, rpg.num_edges() as u64);
        let mut costs = ctx.spill_costs.clone();
        if self.pre_coalesce {
            // Conservative (never spill-causing) merges before simplify.
            let timer = PhaseTimer::start(Phase::Coalesce, round, Some(class));
            let k = ctx.k;
            coalesce_copies(&mut ctx.ifg, &ctx.copies, &mut costs, |ifg, a, b| {
                conservative_ok(ifg, a, b, k)
            });
            timer.stop(&mut cls.select.metrics, tracer);
            // A representative absorbing an unspillable temporary becomes
            // unspillable itself.
            for n in ctx.nodes.live_range_nodes() {
                if ctx.ifg.is_merged(n) && ctx.no_spill[n.index()] {
                    ctx.no_spill[ctx.ifg.rep(n).index()] = true;
                }
            }
        }
        let timer = PhaseTimer::start(Phase::Simplify, round, Some(class));
        let sr = simplify_in(
            &mut ctx.ifg,
            ctx.k,
            &costs,
            SimplifyMode::Optimistic,
            &mut cls.simplify,
        );
        ctx.ifg.restore_all();
        cls.simplify.flush_counters(&mut cls.select.metrics);
        timer.stop(&mut cls.select.metrics, tracer);
        let timer = PhaseTimer::start(Phase::Cpg, round, Some(class));
        let cpg = Cpg::build_in(&ctx.ifg, &sr.stack, &sr.optimistic, ctx.k, &mut cls.cpg);
        sr.recycle(&mut cls.simplify);
        timer.stop(&mut cls.select.metrics, tracer);
        cls.select
            .metrics
            .add(Counter::CpgEdges, cpg.num_edges() as u64);
        if tracer.wants_graphs() {
            for (kind, dot) in [
                (GraphKind::Ifg, crate::dot::ifg_to_dot(&ctx.ifg, &ctx.nodes)),
                (GraphKind::Rpg, crate::dot::rpg_to_dot(&rpg, &ctx.nodes)),
                (GraphKind::Cpg, crate::dot::cpg_to_dot(&cpg, &ctx.nodes)),
            ] {
                tracer.record(&Event::GraphDump { round, class, kind, dot });
            }
        }
        let config = SelectConfig {
            active_spill: self.prefs.volatility,
            nonvolatile_first: !self.prefs.volatility,
        };
        let timer = PhaseTimer::start(Phase::Select, round, Some(class));
        let mut res = select_traced_in(
            &ctx.ifg,
            &ctx.nodes,
            &rpg,
            &cpg,
            target,
            &ctx.no_spill,
            &ctx.spill_costs,
            config,
            round,
            tracer,
            &mut cls.select,
        );
        timer.stop(&mut cls.select.metrics, tracer);
        cpg.recycle(&mut cls.cpg);
        rpg.recycle(&mut cls.rpg);
        if self.pre_coalesce {
            // Merged nodes share their representative's fate. They spill
            // after every representative, in node order: that order
            // numbers the frame slots.
            let mut rep_spilled = vec![false; ctx.nodes.num_nodes()];
            for s in &res.spilled {
                rep_spilled[s.index()] = true;
            }
            for n in ctx
                .nodes
                .live_range_nodes()
                .filter(|&n| ctx.ifg.is_merged(n))
            {
                let r = ctx.ifg.rep(n);
                if rep_spilled[r.index()] {
                    res.spilled.push(n);
                } else {
                    res.assignment[n.index()] = res.assignment[r.index()];
                }
            }
        }
        ctx.scratch = cls;
        res
    }
}

impl RegisterAllocator for PreferenceAllocator {
    fn name(&self) -> &'static str {
        match (self.prefs.volatility || self.prefs.sequential, self.pre_coalesce) {
            (true, true) => "full-preference+cc",
            (true, false) => "full-preference",
            (false, true) => "pdgc-coalescing+cc",
            (false, false) => "pdgc-coalescing-only",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgc_ir::{BinOp, CmpOp, FunctionBuilder, RegClass};
    use pdgc_target::PressureModel;

    #[test]
    fn full_allocator_handles_loop_with_call() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let header = b.create_block();
        let exit = b.create_block();
        let acc0 = b.iconst(0);
        b.jump(header);
        b.switch_to(header);
        let x = b.load(p, 0);
        let y = b.load(p, 8);
        let s = b.bin(BinOp::Add, x, y);
        let r = b.call("g", vec![s], Some(RegClass::Int)).unwrap();
        let acc = b.bin(BinOp::Add, r, acc0);
        let z = b.iconst(0);
        b.branch(CmpOp::Ne, acc, z, header, exit);
        b.switch_to(exit);
        b.ret(Some(acc));
        let f = b.finish();
        let target = TargetDesc::ia64_like(PressureModel::High);
        let out = PreferenceAllocator::full()
            .allocate(&f, &target, &mut AllocSession::default())
            .unwrap();
        // Plenty of registers: no spilling expected.
        assert_eq!(out.stats.spill_instructions, 0);
        // The paired load should have been fused.
        assert_eq!(out.stats.paired_loads, 1);
        // Lowering created copies; most should coalesce away.
        assert!(out.stats.moves_eliminated > 0);
    }

    #[test]
    fn coalescing_only_does_not_fuse_pairs_by_preference() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let x = b.load(p, 0);
        let y = b.load(p, 8);
        let s = b.bin(BinOp::Add, x, y);
        b.ret(Some(s));
        let f = b.finish();
        let target = TargetDesc::ia64_like(PressureModel::High);
        let out = PreferenceAllocator::coalescing_only()
            .allocate(&f, &target, &mut AllocSession::default())
            .unwrap();
        // The rewriter may still fuse by luck, but nothing is guaranteed;
        // what matters is the run succeeds without volatility preferences.
        assert_eq!(out.stats.spill_instructions, 0);
    }

    #[test]
    fn names_differ_by_configuration() {
        assert_eq!(PreferenceAllocator::full().name(), "full-preference");
        assert_eq!(
            PreferenceAllocator::coalescing_only().name(),
            "pdgc-coalescing-only"
        );
    }

    #[test]
    fn high_pressure_forces_spills_but_converges() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let vals: Vec<_> = (0..8).map(|i| b.load(p, 16 + 32 * i)).collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.bin(BinOp::Add, acc, v);
        }
        b.ret(Some(acc));
        let f = b.finish();
        let target = TargetDesc::toy(3);
        let out = PreferenceAllocator::full()
            .allocate(&f, &target, &mut AllocSession::default())
            .unwrap();
        assert!(out.stats.spill_instructions > 0);
        assert!(out.stats.rounds >= 2);
    }
}
