//! Register-transfer intermediate representation (IR) for the `pdgc`
//! register-allocation toolkit.
//!
//! The IR models the "intermediate code" that reaches the register allocator
//! in the paper *Preference-Directed Graph Coloring* (Koseki, Komatsu,
//! Nakatani; PLDI 2002): a control-flow graph of basic blocks holding
//! register-transfer instructions over an unbounded supply of virtual
//! registers ([`VReg`]), optionally in SSA form with block-level φ-functions
//! ([`Phi`]) that are later lowered to copies.
//!
//! # Example
//!
//! ```
//! use pdgc_ir::{FunctionBuilder, RegClass, BinOp};
//!
//! let mut b = FunctionBuilder::new("add3", vec![RegClass::Int], Some(RegClass::Int));
//! let p = b.param(0);
//! let t = b.iconst(3);
//! let r = b.bin(BinOp::Add, p, t);
//! b.ret(Some(r));
//! let f = b.finish();
//! assert!(f.verify().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod display;
mod entities;
mod function;
pub mod grammar;
mod ident;
mod inst;
mod parse;
mod phi;
mod verify;

pub use builder::FunctionBuilder;
pub use entities::{Block, RegClass, VReg};
pub use function::{BlockData, CalleeId, FuncSig, Function};
pub use grammar::ParseError;
pub use ident::{validate_ident, IdentError};
pub use inst::{BinOp, CmpOp, Inst};
pub use parse::{parse_function, parse_functions};
pub use phi::{lower_phis, Phi};
pub use verify::VerifyError;
