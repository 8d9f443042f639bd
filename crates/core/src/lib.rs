//! Preference-directed graph-coloring register allocation.
//!
//! This crate implements the complete system of *Preference-Directed Graph
//! Coloring* (Koseki, Komatsu, Nakatani; PLDI 2002):
//!
//! * the **Register Preference Graph** ([`rpg`]) recording coalesce,
//!   sequential±, and prefers relationships with Appendix-model strengths
//!   ([`cost`]);
//! * the **Coloring Precedence Graph** ([`cpg`]) — the partial order
//!   extracted from graph simplification that preserves colorability;
//! * the **integrated select phase** ([`select`]) that resolves spilling,
//!   coalescing, and all preference types simultaneously;
//! * the shared substrate: call lowering against a calling convention
//!   ([`lower`]), interference graphs ([`ifg`], [`build`]), Chaitin/Briggs
//!   simplification ([`simplify`]), spill-code insertion ([`spill`]), and
//!   post-allocation rewriting with copy elimination, caller-save insertion,
//!   and paired-load fusion ([`rewrite`]);
//! * the comparison allocators of the paper's §6 ([`baselines`]): Chaitin
//!   with aggressive coalescing, Briggs optimistic coloring, George–Appel
//!   iterated coalescing, Park–Moon optimistic coalescing, a
//!   Lueh–Gross-style call-cost-directed allocator, and Chow–Hennessy
//!   priority-based coloring.
//!
//! # Quick start
//!
//! ```
//! use pdgc_core::{AllocSession, PreferenceAllocator, RegisterAllocator};
//! use pdgc_ir::{FunctionBuilder, RegClass, BinOp};
//! use pdgc_target::{PressureModel, TargetDesc};
//!
//! # fn main() -> Result<(), pdgc_core::AllocError> {
//! let mut b = FunctionBuilder::new("double", vec![RegClass::Int], Some(RegClass::Int));
//! let p = b.param(0);
//! let r = b.bin(BinOp::Add, p, p);
//! b.ret(Some(r));
//! let func = b.finish();
//!
//! let target = TargetDesc::ia64_like(PressureModel::Middle);
//! let mut session = AllocSession::default();
//! let out = PreferenceAllocator::full().allocate(&func, &target, &mut session)?;
//! assert_eq!(out.stats.spill_instructions, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod build;
pub mod cost;
pub mod cpg;
pub mod dot;
pub mod ifg;
pub mod lower;
pub mod node;
pub mod pipeline;
pub mod rewrite;
pub mod rpg;
pub mod scratch;
pub mod select;
pub mod simplify;
pub mod spill;
mod stats;

mod allocator;

pub use allocator::{
    AllocError, AllocOutput, CheckMode, CheckScope, PreferenceAllocator, PreferenceSet,
    RegisterAllocator,
};
pub use pipeline::AllocSession;
pub use scratch::{ClassScratch, PhaseScratch};
pub use stats::{AllocStats, ClassStats};
