//! # pdgc — Preference-Directed Graph Coloring
//!
//! A complete, from-scratch reproduction of *Preference-Directed Graph
//! Coloring* (Akira Koseki, Hideaki Komatsu, Toshio Nakatani; PLDI 2002):
//! a Chaitin-style register allocator that resolves spill decisions,
//! register coalescing, and irregular-register preferences simultaneously
//! using two graphs — the **Register Preference Graph** (RPG) and the
//! **Coloring Precedence Graph** (CPG).
//!
//! This facade re-exports the whole toolkit:
//!
//! * [`ir`] — the register-transfer IR the allocator consumes;
//! * [`analysis`] — liveness, dominators, loops, frequencies;
//! * [`target`] — register files, conventions, pressure models, machine
//!   code;
//! * [`core`] — the allocator, the RPG/CPG machinery, and six baseline
//!   allocators from the literature;
//! * [`check`] — the post-allocation symbolic checker that independently
//!   proves an allocation correct (see `DESIGN.md` §6f);
//! * [`sim`] — IR/machine interpreters, differential checking, and the
//!   cycle model behind the paper's "elapsed time" figures;
//! * [`workloads`] — seeded SPECjvm98-analog program generation;
//! * [`obs`] — the allocation tracing layer: phase spans, per-node
//!   decision events, and JSONL / DOT sinks.
//!
//! ## Quick start
//!
//! ```
//! use pdgc::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build a function: f(p) = [p] + [p+8]
//! let mut b = FunctionBuilder::new("sum2", vec![RegClass::Int], Some(RegClass::Int));
//! let p = b.param(0);
//! let x = b.load(p, 0);
//! let y = b.load(p, 8);
//! let s = b.bin(BinOp::Add, x, y);
//! b.ret(Some(s));
//! let func = b.finish();
//!
//! // Allocate with the paper's full-preference allocator. The session
//! // holds the pooled storage, the metrics, the checker mode and the
//! // tracer; the default one checks and traces nothing.
//! let target = TargetDesc::ia64_like(PressureModel::Middle);
//! let mut session = AllocSession::default();
//! let out = PreferenceAllocator::full().allocate(&func, &target, &mut session)?;
//!
//! // The adjacent loads were fused into an IA-64-style paired load.
//! assert_eq!(out.stats.paired_loads, 1);
//!
//! // And the allocation is semantics-preserving.
//! let reference = run_ir(&func, &[64], DEFAULT_FUEL)?;
//! let allocated = run_mach(&out.mach, &target, &[64], DEFAULT_FUEL)?;
//! check_equivalent(&reference, &allocated).map_err(|e| format!("diverged: {e}"))?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pdgc_analysis as analysis;
pub use pdgc_check as check;
pub use pdgc_core as core;
pub use pdgc_ir as ir;
pub use pdgc_obs as obs;
pub use pdgc_sim as sim;
pub use pdgc_target as target;
pub use pdgc_workloads as workloads;

/// The commonly-used names in one import.
pub mod prelude {
    pub use pdgc_core::baselines::{
        BriggsAllocator, CallCostAllocator, ChaitinAllocator, IteratedAllocator,
        OptimisticAllocator, PriorityAllocator,
    };
    pub use pdgc_check::{check_allocation, CheckError, CheckMode, CheckReport, Violation};
    pub use pdgc_core::{
        AllocError, AllocOutput, AllocSession, AllocStats, PhaseScratch, PreferenceAllocator,
        PreferenceSet, RegisterAllocator,
    };
    pub use pdgc_ir::{BinOp, Block, CmpOp, Function, FunctionBuilder, RegClass, VReg};
    pub use pdgc_obs::{
        DotDirSink, Event, FanoutTracer, JsonLinesSink, NoopTracer, Phase, RecordingTracer, Tracer,
    };
    pub use pdgc_sim::{check_equivalent, run_ir, run_mach, DEFAULT_FUEL};
    pub use pdgc_target::{
        ClassSpec, MachFunction, PairRule, PairedLoadRule, PhysReg, PressureModel, TargetBuilder,
        TargetDesc, TargetError, TargetRegistry,
    };
    pub use pdgc_workloads::{default_args, generate, specjvm_suite, Workload};
}

/// Every allocator of the paper's evaluation, boxed for uniform harness
/// iteration: the base (Chaitin+aggressive), Briggs+aggressive, iterated
/// coalescing, optimistic coalescing, aggressive+volatility, both
/// configurations of the preference-directed allocator, and the paper's
/// proposed conservative-pre-coalescing refinement.
pub fn all_allocators() -> Vec<Box<dyn core::RegisterAllocator>> {
    use prelude::*;
    vec![
        Box::new(ChaitinAllocator),
        Box::new(BriggsAllocator),
        Box::new(IteratedAllocator),
        Box::new(OptimisticAllocator),
        Box::new(CallCostAllocator),
        Box::new(PriorityAllocator),
        Box::new(PreferenceAllocator::coalescing_only()),
        Box::new(PreferenceAllocator::full()),
        Box::new(PreferenceAllocator::full().with_precoalesce()),
    ]
}
