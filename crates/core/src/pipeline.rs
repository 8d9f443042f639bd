//! The shared allocation pipeline.
//!
//! Every allocator in this crate — the preference-directed one and the six
//! baselines — is a *class strategy* plugged into the same driver, reached
//! through the one entry point [`crate::RegisterAllocator::allocate`]:
//!
//! ```text
//! lower ABI → loop {
//!     analyze (CFG, liveness, loops, call crossings, cost table)
//!     for each register class:
//!         build nodes + interference graph (+ copies)
//!         strategy: coalesce/simplify/select however it likes
//!     no spills? → rewrite to machine code, done
//!     insert spill code, iterate
//! } → check (when the session asks for it)
//! ```
//!
//! Every phase is timed once, by a [`PhaseTimer`]: the same reading lands
//! in the session's metrics registry and, when a tracer is attached, in a
//! phase span.

use crate::build::{build_ifg_in, collect_copies_in, CopyRel};
use crate::cost::{CostModel, CostTable};
use crate::ifg::InterferenceGraph;
use crate::lower::{lower_abi, Lowered, LowerError};
use crate::node::NodeMap;
use crate::rewrite::rewrite_in;
use crate::scratch::{ClassScratch, PhaseScratch};
use crate::select::SelectResult;
use crate::spill::{insert_spill_code_fwd, SPL_FORWARD_MAX_ROUNDS};
use crate::stats::AllocStats;
use pdgc_analysis::{
    CallCrossing, Cfg, Dominators, Liveness, LivenessScratch, Loops, Spl, DEFAULT_LOOP_FREQ_FACTOR,
};
use pdgc_check::{check_allocation_in, CheckError, CheckMode, CheckScope};
use pdgc_ir::{Function, RegClass, VReg};
use pdgc_obs::{Counter, Event, NoopTracer, Phase, PhaseTimer, Tracer, ValueHist};
use pdgc_target::{MachFunction, PhysReg, TargetDesc};
use std::fmt;

/// Upper bound on spill iterations before giving up.
pub const MAX_ROUNDS: usize = 16;

/// The function-level analyses a round computes once.
#[derive(Debug)]
pub struct Analyses {
    /// CFG structure.
    pub cfg: Cfg,
    /// Liveness sets.
    pub liveness: Liveness,
    /// Loop nesting and frequencies.
    pub loops: Loops,
    /// Live-across-call records.
    pub crossings: CallCrossing,
    /// Each vreg's Appendix cost terms.
    pub costs: CostTable,
    /// SPL shape of the CFG and its linear runs. When the function is
    /// SPL-shaped ([`Spl::is_spl`]), the spill phase forwards reloads
    /// along the runs; otherwise every use reloads.
    pub spl: Spl,
}

/// Runs all of a round's analyses.
pub fn analyze(func: &Function) -> Analyses {
    analyze_in(func, &mut LivenessScratch::default())
}

/// Like [`analyze`], drawing the liveness sets, crossing records, cost
/// table and SPL buffers from pooled scratch; return them with
/// [`Analyses::recycle`] when done.
///
/// Liveness is the iterative [`Liveness::compute_in`] and loop frequency
/// the dominator-based [`Loops::compute`], whatever the CFG's shape.
pub fn analyze_in(func: &Function, scratch: &mut LivenessScratch) -> Analyses {
    let cfg = Cfg::compute_in(func, &mut scratch.cfg);
    let spl = Spl::compute_in(&cfg, &mut scratch.spl);
    let liveness = Liveness::compute_in(func, &cfg, scratch);
    let dom = Dominators::compute_in(&cfg, &mut scratch.cfg);
    let loops = Loops::compute_in(&cfg, &dom, DEFAULT_LOOP_FREQ_FACTOR, &mut scratch.cfg);
    dom.recycle(&mut scratch.cfg);
    let crossings = liveness.call_crossings_in(func, scratch);
    let costs = CostTable::compute_in(func, &loops, &crossings, &mut scratch.costs);
    Analyses {
        cfg,
        liveness,
        loops,
        crossings,
        costs,
        spl,
    }
}

impl Analyses {
    /// Returns the pooled CFG, loop, liveness, crossing, cost, and SPL
    /// storage to `scratch`.
    pub fn recycle(self, scratch: &mut LivenessScratch) {
        self.crossings.recycle(scratch);
        self.liveness.recycle(scratch);
        self.costs.recycle(&mut scratch.costs);
        self.spl.recycle(&mut scratch.spl);
        self.loops.recycle(&mut scratch.cfg);
        self.cfg.recycle(&mut scratch.cfg);
    }
}

/// Everything a class strategy gets to work with in one round.
pub struct ClassCtx<'a> {
    /// The spill round this context belongs to (1-based), for tracing.
    pub round: usize,
    /// The class being allocated.
    pub class: RegClass,
    /// The lowered function.
    pub func: &'a Function,
    /// Node universe for the class.
    pub nodes: NodeMap,
    /// Interference graph over the universe.
    pub ifg: InterferenceGraph,
    /// Copy-relatedness records.
    pub copies: Vec<CopyRel>,
    /// Per-node spill costs (`u64::MAX` = unspillable).
    pub spill_costs: Vec<u64>,
    /// Per-node unspillable marks (spill temporaries, precolored).
    pub no_spill: Vec<bool>,
    /// Number of colors.
    pub k: usize,
    /// Pooled simplify/select scratch. Scratch-aware strategies
    /// `std::mem::take` this at the top of `allocate_class` and move it
    /// back before returning; the pipeline then hoists it into the
    /// worker's [`PhaseScratch`] for the next class.
    pub scratch: ClassScratch,
}

impl ClassCtx<'_> {
    /// The Appendix cost model over this round's analyses.
    pub fn cost_model<'b>(&'b self, analyses: &'b Analyses) -> CostModel<'b> {
        CostModel::new(self.func, &analyses.costs, &analyses.loops)
    }
}

/// One class round's outcome: an assignment per node, plus the nodes to
/// spill (the pipeline splits their member vregs). Every strategy returns
/// the shape select produces.
pub type RoundOutcome = SelectResult;

/// A register-allocation strategy for one class, one round.
pub trait ClassStrategy {
    /// Produces an assignment (and possibly spill decisions) for the
    /// class universe in `ctx`.
    ///
    /// `tracer` receives phase spans and decision events; strategies must
    /// check [`Tracer::enabled`] before constructing events so the
    /// [`NoopTracer`] path stays free.
    fn allocate_class(
        &self,
        ctx: &mut ClassCtx<'_>,
        analyses: &Analyses,
        target: &TargetDesc,
        tracer: &mut dyn Tracer,
    ) -> RoundOutcome;
}

/// Errors the pipeline can report.
#[derive(Debug)]
pub enum AllocError {
    /// ABI lowering failed.
    Lower(LowerError),
    /// Spilling did not converge within [`MAX_ROUNDS`].
    TooManyRounds {
        /// The function that failed to converge.
        func: String,
    },
    /// The post-allocation symbolic checker rejected the allocation.
    CheckFailed(CheckError),
    /// The frame would need a slot numbered past `u32::MAX`: the input's
    /// own spill code uses a slot so high that the allocator's spill
    /// slots and caller-save shadows, numbered above it, do not fit.
    FrameOverflow {
        /// The function whose frame overflowed.
        func: String,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::Lower(e) => write!(f, "{e}"),
            AllocError::TooManyRounds { func } => {
                write!(f, "allocation of {func} did not converge in {MAX_ROUNDS} rounds")
            }
            AllocError::CheckFailed(e) => write!(f, "{e}"),
            AllocError::FrameOverflow { func } => {
                write!(f, "the frame of {func} needs a slot past {}", u32::MAX)
            }
        }
    }
}

impl std::error::Error for AllocError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AllocError::Lower(e) => Some(e),
            AllocError::TooManyRounds { .. } | AllocError::FrameOverflow { .. } => None,
            AllocError::CheckFailed(e) => Some(e),
        }
    }
}

impl From<LowerError> for AllocError {
    fn from(e: LowerError) -> Self {
        AllocError::Lower(e)
    }
}

impl From<CheckError> for AllocError {
    fn from(e: CheckError) -> Self {
        AllocError::CheckFailed(e)
    }
}

/// A complete allocation result.
#[derive(Clone, Debug)]
pub struct AllocOutput {
    /// The allocated machine code.
    pub mach: MachFunction,
    /// Statistics (the paper's evaluation quantities).
    pub stats: AllocStats,
    /// The final lowered IR (post-spill), for inspection and simulation.
    pub lowered: Function,
    /// Final register per virtual register of `lowered`.
    pub assignment: Vec<Option<PhysReg>>,
}

impl AllocOutput {
    /// Returns a consumed output's pooled buffers — the assignment vector
    /// and the machine function's block storage — to `scratch`, so the
    /// next function on this worker reuses their capacity. Dropping an
    /// output instead of recycling it is always safe; the pools just
    /// re-allocate next time.
    pub fn recycle(self, scratch: &mut PhaseScratch) {
        scratch.assignments.put(self.assignment);
        scratch.mach_blocks.put(self.mach.blocks);
    }
}

/// Builds the [`ClassCtx`] for one class of the lowered function in spill
/// round `round`, drawing the node universe, interference graph, copy
/// records, and cost vectors from pooled scratch. Return the consumed
/// context with [`recycle_class_ctx`] when done.
pub fn class_ctx_for_round_in<'a>(
    lowered: &'a Lowered,
    target: &TargetDesc,
    class: RegClass,
    analyses: &Analyses,
    no_spill_vregs: &[bool],
    round: usize,
    scratch: &mut PhaseScratch,
) -> ClassCtx<'a> {
    let nodes = NodeMap::build_in(&lowered.func, target, class, &lowered.pinned, &mut scratch.node);
    let ifg = build_ifg_in(
        &lowered.func,
        &analyses.liveness,
        &nodes,
        &mut scratch.ifg,
        &mut scratch.build,
    );
    scratch.build.flush_counters(&mut scratch.metrics);
    let copies = collect_copies_in(&lowered.func, &analyses.loops, &nodes, &mut scratch.build);
    let mut spill_costs = scratch.costs.take_filled(nodes.num_nodes(), u64::MAX);
    let mut no_spill = scratch.flags.take_filled(nodes.num_nodes(), true);
    for n in nodes.live_range_nodes() {
        let mut c = 0u64;
        let mut blocked = false;
        for &v in nodes.members(n) {
            if no_spill_vregs.get(v.index()).copied().unwrap_or(false) {
                blocked = true;
            }
            c = c.saturating_add(analyses.costs.spill_cost(v));
        }
        if !blocked {
            spill_costs[n.index()] = c;
            no_spill[n.index()] = false;
        }
    }
    ClassCtx {
        round,
        class,
        func: &lowered.func,
        nodes,
        ifg,
        copies,
        spill_costs,
        no_spill,
        k: target.num_regs(class),
        scratch: std::mem::take(&mut scratch.class),
    }
}

/// Returns a consumed [`ClassCtx`]'s pooled storage to `scratch`.
pub fn recycle_class_ctx(ctx: ClassCtx<'_>, scratch: &mut PhaseScratch) {
    let ClassCtx {
        nodes,
        ifg,
        copies,
        spill_costs,
        no_spill,
        scratch: class_scratch,
        ..
    } = ctx;
    nodes.recycle(&mut scratch.node);
    ifg.recycle(&mut scratch.ifg);
    scratch.build.recycle_copies(copies);
    scratch.costs.put(spill_costs);
    scratch.flags.put(no_spill);
    scratch.class = class_scratch;
}

/// What an allocation runs with: the per-worker pooled storage (with the
/// always-on metrics registry inside it), the checker settings, and the
/// tracer. These are the only settable inputs to an allocation.
///
/// The default session checks nothing and traces nothing. Pooling reuses
/// capacity but never state, so a function allocates bit-identically
/// whether its session is fresh, warm, or shared across thousands of
/// functions. Batch drivers keep one session per worker thread; after the
/// pools warm up the steady state performs (near) zero heap allocation
/// per function.
#[derive(Default)]
pub struct AllocSession<'t> {
    /// Pooled phase storage, and the metrics every allocation records.
    pub scratch: PhaseScratch,
    /// Whether the symbolic checker (`pdgc-check`) proves each allocation
    /// before it is returned.
    pub check: CheckMode,
    /// Receives phase spans and decision events; `None` traces nothing.
    /// Tracing never changes the allocation.
    pub tracer: Option<&'t mut dyn Tracer>,
}

/// Allocates `func` with `strategy` under `session`: the pooled, metered
/// pipeline, then the checker when `session.check` says so.
pub(crate) fn run<S: ClassStrategy + ?Sized>(
    func: &Function,
    target: &TargetDesc,
    strategy: &S,
    session: &mut AllocSession<'_>,
) -> Result<AllocOutput, AllocError> {
    let mut noop = NoopTracer;
    let tracer: &mut dyn Tracer = match &mut session.tracer {
        Some(t) => &mut **t,
        None => &mut noop,
    };
    let scratch = &mut session.scratch;
    let out = pipeline(func, target, strategy, tracer, scratch)?;
    check_output_metered(
        &out,
        target,
        tracer,
        session.check,
        CheckScope::Full,
        scratch,
    )?;
    Ok(out)
}

/// The allocation rounds: lower, then analyze, build, and color every
/// class, spilling and iterating until a round spills nothing, then
/// rewrite. Spill-code insertion and the final statistics are reported as
/// events.
fn pipeline<S: ClassStrategy + ?Sized>(
    func: &Function,
    target: &TargetDesc,
    strategy: &S,
    tracer: &mut dyn Tracer,
    scratch: &mut PhaseScratch,
) -> Result<AllocOutput, AllocError> {
    let timer = PhaseTimer::start(Phase::Lower, 0, None);
    let lowered = lower_abi(func, target);
    timer.stop(&mut scratch.metrics, tracer);
    let mut lowered = lowered?;
    let frame_overflow = || AllocError::FrameOverflow {
        func: func.name.clone(),
    };
    // The allocator's spill slots and caller-save shadows are numbered
    // above every slot the input's own spill code uses, so they never
    // share a slot with it.
    let mut slots = u32::try_from(lowered.func.spill_slot_bound()).map_err(|_| frame_overflow())?;
    // The rewrite gives each volatile register live across some call one
    // shadow slot; a function without calls needs none.
    let shadows: usize = if lowered.func.num_calls() == 0 {
        0
    } else {
        RegClass::ALL
            .iter()
            .map(|&c| target.volatiles(c).count())
            .sum()
    };
    let mut no_spill_vregs = scratch.flags.take_filled(lowered.func.num_vregs(), false);
    let mut stats = AllocStats::default();

    for round in 1..=MAX_ROUNDS {
        let r = round as u32;
        if tracer.enabled() {
            tracer.record(&Event::RoundStart { round: r });
        }
        let timer = PhaseTimer::start(Phase::Analyze, r, None);
        let analyses = analyze_in(&lowered.func, &mut scratch.liveness);
        timer.stop(&mut scratch.metrics, tracer);
        scratch.metrics.bump(if analyses.spl.is_spl() {
            Counter::SplAnalysesFast
        } else {
            Counter::SplAnalysesFallback
        });
        scratch
            .metrics
            .add(Counter::SplRegions, analyses.spl.regions() as u64);
        scratch
            .metrics
            .add(Counter::SplLoopRegions, analyses.spl.loop_regions() as u64);
        // The assignment is part of the result (it escapes into
        // `AllocOutput`), but it is still pooled: abandoned rounds return
        // it below, and consumers hand the final one back through
        // [`AllocOutput::recycle`].
        let mut assignment: Vec<Option<PhysReg>> =
            scratch.assignments.take_filled(lowered.func.num_vregs(), None);
        let mut spilled_vregs: Vec<VReg> = scratch.vregs.take();

        for class in RegClass::ALL {
            let timer = PhaseTimer::start(Phase::Build, r, Some(class));
            let mut ctx = class_ctx_for_round_in(
                &lowered,
                target,
                class,
                &analyses,
                &no_spill_vregs,
                round,
                scratch,
            );
            timer.stop(&mut scratch.metrics, tracer);
            let outcome = strategy.allocate_class(&mut ctx, &analyses, target, tracer);
            for n in ctx.nodes.all_nodes() {
                if let Some(r) = outcome.assignment[n.index()] {
                    for &v in ctx.nodes.members(n) {
                        assignment[v.index()] = Some(r);
                    }
                }
            }
            for &n in &outcome.spilled {
                for &v in ctx.nodes.members(n) {
                    spilled_vregs.push(v);
                }
            }
            recycle_class_ctx(ctx, scratch);
            outcome.recycle(&mut scratch.class.select);
            // The strategy recorded its per-class metrics (coalesce/
            // simplify/select latency, screening outcomes) into the class
            // scratch it took; hoist them into the worker registry.
            scratch
                .class
                .select
                .metrics
                .drain_into(&mut scratch.metrics);
        }
        // `analyses` stays alive past the class loop: the spill phase
        // below consults the SPL decomposition for reload forwarding.

        // A vreg must be spilled at most once per round: classes partition
        // the universe and strategies spill whole nodes, so a duplicate here
        // means node bookkeeping broke (it would burn a second frame slot
        // and leave a stale `slot_of` entry downstream). Dedup in release,
        // loudly in debug, preserving insertion order for the trace event.
        let mut seen = scratch.flags.take_filled(lowered.func.num_vregs(), false);
        spilled_vregs.retain(|v| {
            let dup = seen[v.index()];
            debug_assert!(!dup, "vreg {v} spilled twice in one round");
            seen[v.index()] = true;
            !dup
        });
        scratch.flags.put(seen);

        // Every slot this round hands out — one per spilled vreg, or at
        // most one caller-save shadow per volatile register in the rewrite
        // — must stay below `u32::MAX`, the largest frame size.
        let needed = if spilled_vregs.is_empty() {
            shadows
        } else {
            spilled_vregs.len()
        };
        let fits = u32::try_from(needed)
            .ok()
            .and_then(|n| slots.checked_add(n));
        if fits.is_none() {
            analyses.recycle(&mut scratch.liveness);
            scratch.assignments.put(assignment);
            scratch.vregs.put(spilled_vregs);
            scratch.flags.put(no_spill_vregs);
            return Err(frame_overflow());
        }
        if spilled_vregs.is_empty() {
            analyses.recycle(&mut scratch.liveness);
            scratch.vregs.put(spilled_vregs);
            stats.rounds = round;
            let timer = PhaseTimer::start(Phase::Rewrite, r, None);
            let mach = rewrite_in(
                &lowered.func,
                &assignment,
                target,
                slots,
                &mut stats,
                scratch,
            );
            timer.stop(&mut scratch.metrics, tracer);
            record_scorecard(&mut scratch.metrics, &stats);
            if tracer.enabled() {
                tracer.record(&Event::Finish {
                    rounds: r,
                    spill_instructions: stats.spill_instructions as u64,
                    moves_eliminated: stats.moves_eliminated as u64,
                });
            }
            scratch.flags.put(no_spill_vregs);
            return Ok(AllocOutput {
                mach,
                stats,
                lowered: lowered.func,
                assignment,
            });
        }

        // This round spills and iterates; its assignment is abandoned, so
        // return the vector to the pool for the next round to refill.
        scratch.assignments.put(assignment);
        // Region-aware spill placement: forward reloads along SPL linear
        // runs for the early rounds; late rounds fall back to minimal
        // per-use reloads so temporary pressure cannot stall convergence.
        let fwd = if round <= SPL_FORWARD_MAX_ROUNDS {
            Some(&analyses.spl)
        } else {
            None
        };
        let timer = PhaseTimer::start(Phase::Spill, r, None);
        let outcome = insert_spill_code_fwd(&mut lowered.func, &spilled_vregs, &mut slots, fwd);
        timer.stop(&mut scratch.metrics, tracer);
        scratch
            .metrics
            .add(Counter::SplForwardedReloads, outcome.forwarded as u64);
        analyses.recycle(&mut scratch.liveness);
        if tracer.enabled() {
            tracer.record(&Event::SpillCode {
                round: r,
                vregs: spilled_vregs.iter().map(|v| v.index() as u32).collect(),
                slots,
            });
        }
        scratch.vregs.put(spilled_vregs);
        lowered.sync_pinned_len();
        no_spill_vregs.resize(lowered.func.num_vregs(), false);
        for v in outcome.new_temps {
            no_spill_vregs[v.index()] = true;
        }
    }
    scratch.flags.put(no_spill_vregs);
    Err(AllocError::TooManyRounds {
        func: func.name.clone(),
    })
}

/// Records one finished function's [`AllocStats`] into the always-on
/// scorecard: every evaluation quantity becomes a named counter, and the
/// per-function distributions (rounds, spill instructions) feed the
/// scorecard histograms.
fn record_scorecard(m: &mut pdgc_obs::MetricsRegistry, stats: &AllocStats) {
    m.bump(Counter::FuncsAllocated);
    m.add(Counter::RoundsTotal, stats.rounds as u64);
    m.add(Counter::CopiesBefore, stats.copies_before as u64);
    m.add(Counter::MovesEliminated, stats.moves_eliminated as u64);
    m.add(Counter::CopiesRemaining, stats.copies_remaining as u64);
    m.add(Counter::SpillLoads, stats.spill_loads as u64);
    m.add(Counter::SpillStores, stats.spill_stores as u64);
    m.add(Counter::SpillInstructions, stats.spill_instructions as u64);
    m.add(Counter::CallerSaveInsts, stats.caller_save_insts as u64);
    m.add(Counter::NonvolatilesUsed, stats.nonvolatiles_used as u64);
    m.add(Counter::PairedLoadCandidates, stats.paired_candidates as u64);
    m.add(Counter::PairedLoadsFused, stats.paired_loads as u64);
    m.add(Counter::ZeroExtensions, stats.zero_extensions as u64);
    m.add(Counter::FrameSlots, u64::from(stats.frame_slots));
    m.observe_value(ValueHist::RoundsPerFunc, stats.rounds as u64);
    m.observe_value(ValueHist::SpillsPerFunc, stats.spill_instructions as u64);
}

/// Runs the symbolic checker over a finished allocation when `mode` says
/// so, drawing its storage from `scratch` and recording the run in the
/// always-on metrics: check latency, runs, the proof's coverage
/// (blocks/instructions/pairs), and violation counts on rejection.
///
/// The [`CheckScope`] argument is not read: the checker has one scope. It
/// stays because the benchmark's traced replica
/// (`perfbench/src/bin/trace/replica.rs`) passes it, and goes when that
/// replica is retired.
///
/// Emits a [`Phase::Check`] span and, on rejection, an
/// [`Event::CheckFailed`] carrying every violation, so `--trace`
/// artifacts capture exactly what was wrong.
///
/// # Errors
///
/// [`AllocError::CheckFailed`] when the checker finds a violation.
pub fn check_output_metered(
    out: &AllocOutput,
    target: &TargetDesc,
    tracer: &mut dyn Tracer,
    mode: CheckMode,
    _scope: CheckScope,
    scratch: &mut PhaseScratch,
) -> Result<(), AllocError> {
    if !mode.should_check() {
        return Ok(());
    }
    let timer = PhaseTimer::start(Phase::Check, out.stats.rounds as u32, None);
    let result = check_allocation_in(
        &out.lowered,
        &out.assignment,
        &out.mach,
        target,
        &mut scratch.check,
    );
    let m = &mut scratch.metrics;
    timer.stop(m, tracer);
    m.bump(Counter::CheckRuns);
    match result {
        Ok(report) => {
            m.add(Counter::CheckBlocksProven, report.blocks as u64);
            m.add(Counter::CheckIrInsts, report.ir_insts as u64);
            m.add(Counter::CheckMachInsts, report.mach_insts as u64);
            m.add(Counter::CheckPairedLoads, report.paired_loads as u64);
            Ok(())
        }
        Err(e) => {
            m.add(Counter::CheckViolations, e.violations.len() as u64);
            if tracer.enabled() {
                tracer.record(&Event::CheckFailed {
                    func: e.func.clone(),
                    violations: e.violations.iter().map(|v| v.to_string()).collect(),
                });
            }
            Err(AllocError::CheckFailed(e))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RegisterAllocator;

    /// A minimal strategy: plain Briggs simplify + stack coloring, no
    /// coalescing. Exercises the pipeline plumbing.
    struct Plain;

    impl ClassStrategy for Plain {
        fn allocate_class(
            &self,
            ctx: &mut ClassCtx<'_>,
            _analyses: &Analyses,
            target: &TargetDesc,
            tracer: &mut dyn Tracer,
        ) -> RoundOutcome {
            use crate::simplify::{simplify, SimplifyMode};
            let sr = simplify(&mut ctx.ifg, ctx.k, &ctx.spill_costs, SimplifyMode::Optimistic);
            ctx.ifg.restore_all();
            let out =
                crate::baselines::coalesce::color_stack(ctx, &sr.stack, target, false, tracer);
            for &s in &out.spilled {
                assert!(!ctx.no_spill[s.index()], "spilled a temp");
            }
            out
        }
    }

    impl RegisterAllocator for Plain {
        fn name(&self) -> &'static str {
            "plain"
        }
    }

    #[test]
    fn pipeline_allocates_simple_function() {
        use pdgc_ir::{BinOp, FunctionBuilder};
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let x = b.bin(BinOp::Add, p, p);
        b.ret(Some(x));
        let f = b.finish();
        let target = TargetDesc::ia64_like(pdgc_target::PressureModel::High);
        let out = Plain
            .allocate(&f, &target, &mut AllocSession::default())
            .unwrap();
        assert_eq!(out.stats.rounds, 1);
        assert_eq!(out.stats.spill_instructions, 0);
        assert!(out.mach.num_insts() > 0);
    }

    #[test]
    fn pipeline_spills_under_pressure() {
        use pdgc_ir::{BinOp, FunctionBuilder};
        // Build pressure: 6 simultaneously-live values on a 3-register toy.
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let vals: Vec<_> = (0..6).map(|i| b.load(p, 16 + 32 * i)).collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.bin(BinOp::Add, acc, v);
        }
        b.ret(Some(acc));
        let f = b.finish();
        let target = TargetDesc::toy(3);
        let out = Plain
            .allocate(&f, &target, &mut AllocSession::default())
            .unwrap();
        assert!(out.stats.rounds > 1);
        assert!(out.stats.spill_instructions > 0);
        // Final code verifies and all vregs of the final IR got registers
        // (referenced ones).
        assert!(out.lowered.verify().is_ok());
    }
}
