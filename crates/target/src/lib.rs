//! Target and ABI models for the pdgc register allocator.
//!
//! This crate owns everything the paper calls "machine dependent": the
//! register files and their volatile/non-volatile split, the calling
//! convention (argument and return registers), dedicated-register
//! operations, paired-load destination rules, the three pressure models
//! of the evaluation (§6), and the allocated machine code the rewriter
//! emits ([`MachFunction`] / [`MInst`]).
//!
//! ```
//! use pdgc_ir::RegClass;
//! use pdgc_target::{PhysReg, PressureModel, TargetDesc, TargetRegistry};
//!
//! let target = TargetDesc::ia64_like(PressureModel::High);
//! assert_eq!(target.num_regs(RegClass::Int), 16);
//! // The lower half of the file is volatile; arguments go there.
//! assert!(target.is_volatile(PhysReg::int(7)));
//! assert!(!target.is_volatile(PhysReg::int(8)));
//! assert_eq!(target.arg_reg(RegClass::Int, 0), Some(PhysReg::int(0)));
//! // Parity-paired loads accept adjacent destinations.
//! assert!(target.pair_allows(PhysReg::int(1), PhysReg::int(2)));
//! // The same description is reachable by name through the registry.
//! let registry = TargetRegistry::builtin();
//! assert_eq!(registry.resolve("ia64-16").unwrap(), &target);
//! ```
//!
//! Custom targets go through the validating builder:
//!
//! ```
//! use pdgc_ir::RegClass;
//! use pdgc_target::{ClassSpec, PairRule, PairedLoadRule, TargetDesc};
//!
//! let dsp = TargetDesc::builder("dsp12")
//!     .class(
//!         RegClass::Int,
//!         ClassSpec::new(12)
//!             .volatile_prefix(6)
//!             .pair(PairRule::new(PairedLoadRule::Sequential, 4).with_align(4)),
//!     )
//!     .class(RegClass::Float, ClassSpec::new(12).volatile_prefix(6))
//!     .finish()
//!     .unwrap();
//! assert_eq!(dsp.pair_rule(RegClass::Int).unwrap().stride(), 4);
//! assert!(dsp.pair_rule(RegClass::Float).is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod desc;
mod error;
mod mach;
mod mparse;
mod pressure;
mod registry;
mod reg;

pub use builder::{ClassSpec, TargetBuilder, MAX_REGS};
pub use desc::{ClassDesc, TargetDesc};
pub use error::TargetError;
pub use mach::{MInst, MachFunction};
pub use mparse::parse_mach_function;
pub use pressure::{PairRule, PairedLoadRule, PressureModel};
pub use reg::PhysReg;
pub use registry::TargetRegistry;
