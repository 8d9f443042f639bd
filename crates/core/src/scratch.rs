//! Per-worker phase scratch.
//!
//! One [`PhaseScratch`] aggregates every pooled buffer the pipeline needs —
//! liveness sets, the IFG bit matrix and adjacency table, node-universe
//! storage, RPG/simplify/CPG/select working sets, and the checker's
//! internals. A
//! batch worker keeps one per thread inside its [`crate::AllocSession`],
//! allocates every function it processes through that session, and after
//! the first few functions warm the pools up the steady state performs
//! (near) zero heap allocation per function.
//!
//! Ownership contract: phases *take* buffers out of the pools (leaving the
//! pool entry empty) and either return them on their own (`recycle`
//! methods on `Liveness`, `NodeMap`, `InterferenceGraph`, `SelectResult`,
//! …) or hand them back inside a result the pipeline recycles. Dropping a
//! taken buffer is never unsound — the pool just re-allocates next time —
//! so error paths need no cleanup; the pools only ever hold *reset*
//! (logically empty, capacity-retaining) buffers. See `DESIGN.md` §6g.

use crate::build::BuildScratch;
use crate::cpg::CpgScratch;
use crate::ifg::IfgScratch;
use crate::node::NodeScratch;
use crate::rewrite::RewriteScratch;
use crate::rpg::RpgScratch;
use crate::select::SelectScratch;
use crate::simplify::SimplifyScratch;
use pdgc_analysis::LivenessScratch;
use pdgc_arena::{NestedPool, VecPool};
use pdgc_check::CheckScratch;
use pdgc_ir::VReg;
use pdgc_obs::MetricsRegistry;
use pdgc_target::{MInst, PhysReg};

/// Scratch for one class-strategy invocation: the RPG, simplify, CPG and
/// select phases' working sets.
///
/// Lives inside [`crate::pipeline::ClassCtx`]; a scratch-aware strategy
/// `std::mem::take`s it at the top of `allocate_class` and moves it back
/// before returning, so the pooled buffers survive into the next class.
#[derive(Debug, Default)]
pub struct ClassScratch {
    /// RPG preference table and construction temporaries.
    pub rpg: RpgScratch,
    /// Simplify worklist heap and stack/spill-list pools.
    pub simplify: SimplifyScratch,
    /// CPG storage and construction temporaries.
    pub cpg: CpgScratch,
    /// Select queues, differential caches, and assignment pools.
    pub select: SelectScratch,
}

impl ClassScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Everything one worker reuses across functions.
#[derive(Debug, Default)]
pub struct PhaseScratch {
    /// Liveness bit-set and call-crossing pools.
    pub liveness: LivenessScratch,
    /// Interference-graph bit matrix and adjacency table.
    pub ifg: IfgScratch,
    /// Node-universe (vreg→node, members) pools.
    pub node: NodeScratch,
    /// IFG-construction temporaries and the copy-record pool.
    pub build: BuildScratch,
    /// Per-class simplify/select scratch.
    pub class: ClassScratch,
    /// The rewriter's caller-save query: its live set and per-call masks.
    pub rewrite: RewriteScratch,
    /// Post-allocation checker scratch.
    pub check: CheckScratch,
    /// Pool for per-node spill-cost vectors.
    pub costs: VecPool<u64>,
    /// Pool for per-node / per-vreg flag vectors.
    pub flags: VecPool<bool>,
    /// Pool for vreg work lists (the round's spill set).
    pub vregs: VecPool<VReg>,
    /// Pool for per-vreg assignment vectors. Unlike the other pools this
    /// one feeds a *result*: the final round's vector escapes into
    /// [`crate::pipeline::AllocOutput`] and comes back through
    /// [`crate::pipeline::AllocOutput::recycle`] once the caller has
    /// consumed the output. Abandoned rounds (spill, iterate) return
    /// theirs directly.
    pub assignments: VecPool<Option<PhysReg>>,
    /// Pool for rewritten machine-code block storage
    /// (`MachFunction::blocks`), the other result buffer
    /// [`crate::pipeline::AllocOutput::recycle`] brings home.
    pub mach_blocks: NestedPool<MInst>,
    /// Always-on metrics accumulated by every function pushed through
    /// this scratch: per-phase latency histograms plus the
    /// allocation-quality scorecard. Fixed-size arrays — recording never
    /// allocates. Batch workers drain this per function
    /// ([`MetricsRegistry::drain_into`]) and merge at the slot-keyed
    /// join, so totals are bit-identical across job counts.
    pub metrics: MetricsRegistry,
}

impl PhaseScratch {
    /// Creates an empty scratch; the pools warm up over the first few
    /// functions pushed through it.
    pub fn new() -> Self {
        Self::default()
    }
}
