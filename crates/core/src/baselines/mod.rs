//! The comparison allocators of the paper's §6.
//!
//! * [`ChaitinAllocator`] — Chaitin-style coloring with aggressive
//!   coalescing (Figure 1(a)); the *base* of the Figure 9 ratios.
//! * [`BriggsAllocator`] — Briggs optimistic coloring with aggressive
//!   coalescing and biased selection (Figure 1(b)); "Briggs + aggressive".
//! * [`IteratedAllocator`] — George–Appel iterated (conservative)
//!   coalescing with freezing (Figure 2(a)).
//! * [`OptimisticAllocator`] — Park–Moon optimistic coalescing: aggressive
//!   coalescing undone on spill (Figure 2(b)); "optimistic" in Figures
//!   9–11.
//! * [`CallCostAllocator`] — a Lueh–Gross-style call-cost-directed
//!   allocator: aggressive coalescing, benefit-driven simplification, and
//!   volatility-aware selection with a preference decision
//!   ("aggressive+volatility" in Figure 11).
//! * [`PriorityAllocator`] — Chow–Hennessy-style priority-based coloring,
//!   the contrasting school discussed in §7 (simplified: spill-everywhere
//!   instead of live-range splitting).

mod briggs;
mod callcost;
mod chaitin;
pub(crate) mod coalesce;
mod iterated;
mod optimistic;
mod priority;
#[cfg(test)]
mod reference;

pub use briggs::BriggsAllocator;
pub use callcost::CallCostAllocator;
pub use chaitin::ChaitinAllocator;
pub use iterated::IteratedAllocator;
pub use optimistic::OptimisticAllocator;
pub use priority::PriorityAllocator;
