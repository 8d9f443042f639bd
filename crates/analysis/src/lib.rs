//! Control-flow and dataflow analyses over the [`pdgc_ir`] IR.
//!
//! These are the analyses the register allocator of *Preference-Directed
//! Graph Coloring* (PLDI 2002) relies on:
//!
//! * [`Cfg`] — predecessor/successor maps and reverse postorder;
//! * [`Dominators`] — immediate-dominator tree (Cooper–Harvey–Kennedy);
//! * [`Loops`] — natural loops, per-block loop depth, and the paper's
//!   execution-frequency estimate `Freq_Fact = 10^depth`;
//! * [`Liveness`] — iterative backward liveness with per-instruction
//!   queries, plus live-across-call information for volatile/non-volatile
//!   preferences;
//! * [`InstRef`] — one instruction position, as the cost model and the
//!   paired-load finder name sites;
//! * [`Spl`] — series-parallel-loop shape recognition and the linear
//!   runs that spill-code reload forwarding travels along;
//! * [`BitSet`] — the dense bit set used throughout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod cfg;
mod dom;
mod liveness;
mod loops;
mod spl;

pub use bitset::BitSet;
pub use cfg::{Cfg, CfgScratch};
pub use dom::Dominators;
pub use liveness::{CallCrossing, Liveness, LivenessScratch};
pub use loops::{Loops, DEFAULT_LOOP_FREQ_FACTOR};
pub use spl::{Spl, SplScratch};

use pdgc_ir::Block;

/// A reference to one instruction position within a function.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct InstRef {
    /// The containing block.
    pub block: Block,
    /// Index of the instruction within the block body.
    pub index: usize,
}
