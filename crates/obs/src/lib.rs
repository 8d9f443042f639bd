//! Observability for the pdgc allocation pipeline.
//!
//! The allocator's whole contribution is *which* preference the select
//! phase honors and why; end-of-run statistics cannot show that. This
//! crate defines the event vocabulary the pipeline emits while it works:
//!
//! * **phase spans** — one per pipeline phase (lower, analyze, build,
//!   coalesce, simplify, select, spill, rewrite, check) with
//!   monotonic wall-clock durations and the spill round they belong to;
//! * **decision events** — one per node the select phase resolves: the
//!   ready-frontier snapshot, the strength differential that made the node
//!   urgent, every preference screened (with its `Str(V, P)` strength and
//!   whether it narrowed the candidate set), and the final verdict — a
//!   register, or a spill with its cost;
//! * **graph dumps** — per-round DOT renderings of the interference
//!   graph, Register Preference Graph, and Coloring Precedence Graph, so a
//!   decision can be replayed against the graphs that produced it.
//!
//! Consumers implement [`Tracer`]; the provided sinks serialize to JSON
//! Lines ([`JsonLinesSink`]), DOT files ([`DotDirSink`]), or an in-memory
//! event list ([`RecordingTracer`]). [`NoopTracer`] is the zero-cost default: its
//! `enabled()` returns `false`, and every emit site in the allocator
//! checks that flag before constructing an event, so the untraced hot
//! path performs no allocation and no I/O.
//!
//! Alongside the opt-in event stream sits the **always-on metrics layer**
//! ([`metrics::MetricsRegistry`]): fixed-size counter arrays and log₂
//! histograms that cost a `u64` bump per touch, are merged
//! deterministically across batch workers, and serialize to the
//! `results/metrics.json` snapshots the `pdgc report` regression gate
//! diffs. See the [`metrics`] module docs for the merge contract.
//!
//! Both layers share one clock: every phase is timed by a
//! [`PhaseTimer`], whose single reading becomes the phase's latency
//! observation and, when a tracer is enabled, its [`Event::Span`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Declares a metric enum from one list. Each entry is a variant's doc
/// comment, the variant and its stable snake_case name, and in a `gated`
/// list optionally the variant's [`metrics::Gate`]. The list generates the
/// enum (with the attributes the declaration gives, discriminants in list
/// order), `ALL`, `COUNT`, `index()`, the name method and, when `gated`,
/// `gate()`.
macro_rules! metric_enum {
    (
        $(#[$meta:meta])*
        pub enum $Enum:ident named $name_fn:ident, gated {
            $( $(#[$vmeta:meta])* $Variant:ident = $name:literal $(, $gate:expr)?; )*
        }
    ) => {
        metric_enum! {
            $(#[$meta])*
            pub enum $Enum named $name_fn {
                $( $(#[$vmeta])* $Variant = $name; )*
            }
        }

        impl $Enum {
            /// How `pdgc report` gates this metric, if it is gated.
            pub fn gate(self) -> Option<$crate::metrics::Gate> {
                match self {
                    $( $Enum::$Variant => metric_enum!(@gate $($gate)?), )*
                }
            }
        }
    };
    (@gate) => { None };
    (@gate $gate:expr) => { Some($gate) };
    (
        $(#[$meta:meta])*
        pub enum $Enum:ident named $name_fn:ident {
            $( $(#[$vmeta:meta])* $Variant:ident = $name:literal; )*
        }
    ) => {
        $(#[$meta])*
        pub enum $Enum {
            $( $(#[$vmeta])* $Variant, )*
        }

        impl $Enum {
            /// Every variant, in array order.
            pub const ALL: [$Enum; $Enum::COUNT] = [$( $Enum::$Variant ),*];

            /// Number of variants.
            pub const COUNT: usize = [$( $name ),*].len();

            /// Stable snake_case name, the key snapshots, traces and JSON
            /// records use.
            pub fn $name_fn(self) -> &'static str {
                match self {
                    $( $Enum::$Variant => $name, )*
                }
            }

            /// Dense index (position in `ALL`).
            pub fn index(self) -> usize {
                self as usize
            }
        }
    };
}

pub mod json;
pub mod metrics;
mod sinks;

pub use metrics::{Counter, Histogram, MetricsRegistry, ValueHist};
pub use sinks::{event_json, DotDirSink, FanoutTracer, JsonLinesSink, RecordingTracer};

use pdgc_ir::RegClass;
use pdgc_target::PhysReg;
use std::time::Instant;

metric_enum! {
    /// A pipeline phase, in execution order.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    pub enum Phase named as_str {
        /// ABI lowering (argument homing, call sequences).
        Lower = "lower";
        /// CFG, liveness, loops, call crossings, the per-vreg cost table.
        Analyze = "analyze";
        /// Node universe + interference graph + copy collection.
        Build = "build";
        /// Register Preference Graph construction.
        Rpg = "rpg";
        /// Coalescing (aggressive, conservative, or pre-coalescing).
        Coalesce = "coalesce";
        /// Chaitin/Briggs graph simplification, and for the
        /// preference-directed allocator the Coloring Precedence Graph
        /// construction it performs as it removes.
        Simplify = "simplify";
        /// Register selection (preference-directed or stack coloring).
        Select = "select";
        /// Spill-code insertion between rounds.
        Spill = "spill";
        /// Post-allocation rewrite (copy elimination, caller saves, pairing).
        Rewrite = "rewrite";
        /// Post-allocation symbolic checking (`pdgc-check`).
        Check = "check";
    }
}

/// Which graph a [`Event::GraphDump`] renders.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GraphKind {
    /// The interference graph.
    Ifg,
    /// The Register Preference Graph.
    Rpg,
    /// The Coloring Precedence Graph.
    Cpg,
}

impl GraphKind {
    /// Stable lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            GraphKind::Ifg => "ifg",
            GraphKind::Rpg => "rpg",
            GraphKind::Cpg => "cpg",
        }
    }
}

/// One preference screened while allocating a node (§5.3 step 4).
#[derive(Clone, Debug)]
pub struct Considered {
    /// Preference kind: `"coalesce"`, `"seq+"`, `"seq-"`, or `"prefers"`.
    pub kind: &'static str,
    /// Human-readable target: `"node:7"`, `"r2"`, `"volatile"`,
    /// `"non-volatile"`, or `"set:0xff"`.
    pub target: String,
    /// The `Str(V, P)` strength under which this screen was ordered.
    pub strength: i64,
    /// True when the partner was still unallocated (step 2.2 deferral) and
    /// the screen only reserved registers the partner can still use.
    pub deferred: bool,
    /// Whether the screen actually narrowed the candidate set (a screen
    /// that would empty the set, or adds no gain, is skipped).
    pub narrowed: bool,
    /// Candidate registers remaining after this screen.
    pub survivors: u32,
}

/// Why a node was spilled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpillReason {
    /// All registers were taken by already-colored interference neighbors.
    NoRegister,
    /// §5.4 active spilling: the node's strongest preference is negative —
    /// it prefers to live in memory.
    PreferMemory,
}

impl SpillReason {
    /// Stable name.
    pub fn as_str(self) -> &'static str {
        match self {
            SpillReason::NoRegister => "no-register",
            SpillReason::PreferMemory => "prefer-memory",
        }
    }
}

/// The outcome of one select-phase decision.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// The node received a register.
    Assigned {
        /// The chosen register.
        reg: PhysReg,
    },
    /// The node was spilled.
    Spilled {
        /// Why.
        reason: SpillReason,
        /// The node's spill cost (`u64::MAX` never reaches here — such
        /// nodes are unspillable).
        cost: u64,
    },
}

/// One select-phase decision: everything needed to audit why a node got
/// its register (or its spill verdict).
#[derive(Clone, Debug)]
pub struct Decision {
    /// Spill round the decision belongs to (1-based).
    pub round: u32,
    /// Register class being allocated.
    pub class: RegClass,
    /// Allocation-node index within the class universe.
    pub node: u32,
    /// Virtual registers the node represents.
    pub members: Vec<u32>,
    /// Size of the CPG ready frontier when this node was picked.
    pub frontier: u32,
    /// The step-3 strength differential that made this node the pick.
    pub differential: i64,
    /// Registers available before screening.
    pub available: u32,
    /// Every preference screened, in screening (strength) order.
    pub considered: Vec<Considered>,
    /// The final verdict.
    pub verdict: Verdict,
}

/// A trace event.
#[derive(Clone, Debug)]
pub enum Event {
    /// A spill round began.
    RoundStart {
        /// 1-based round number.
        round: u32,
    },
    /// A pipeline phase completed.
    Span {
        /// Which phase.
        phase: Phase,
        /// The round it ran in (0 for once-per-allocation phases that run
        /// before the first round, i.e. lowering).
        round: u32,
        /// The register class, for per-class phases.
        class: Option<RegClass>,
        /// Monotonic wall-clock duration in nanoseconds.
        nanos: u128,
    },
    /// The select phase resolved one node.
    Decision(Decision),
    /// Spill code was inserted between rounds.
    SpillCode {
        /// The round whose selection forced the spill.
        round: u32,
        /// The virtual registers being spilled.
        vregs: Vec<u32>,
        /// Frame slots in use after insertion.
        slots: u32,
    },
    /// A graph snapshot, rendered to DOT.
    GraphDump {
        /// The round the graph belongs to.
        round: u32,
        /// The class universe.
        class: RegClass,
        /// Which graph.
        kind: GraphKind,
        /// The DOT text.
        dot: String,
    },
    /// The post-allocation symbolic checker rejected the allocation.
    CheckFailed {
        /// The function whose allocation failed the check.
        func: String,
        /// Human-readable violation descriptions, one per broken rule.
        violations: Vec<String>,
    },
    /// Allocation finished.
    Finish {
        /// Rounds used.
        rounds: u32,
        /// Total spill instructions inserted.
        spill_instructions: u64,
        /// Moves eliminated by coalescing.
        moves_eliminated: u64,
    },
}

/// A consumer of allocation trace events.
///
/// All methods have defaults that do nothing, and `enabled()` defaults to
/// `false`; the allocator checks `enabled()` (and `wants_graphs()` for the
/// expensive DOT renders) before constructing any event, so a tracer that
/// stays disabled costs nothing on the hot path.
pub trait Tracer {
    /// Whether the allocator should construct and emit events at all.
    fn enabled(&self) -> bool {
        false
    }

    /// Whether per-round DOT graph dumps should be rendered (they cost
    /// allocation even when the rest of tracing is cheap).
    fn wants_graphs(&self) -> bool {
        false
    }

    /// Receives one event.
    fn record(&mut self, _event: &Event) {}
}

/// The zero-cost default tracer: never enabled, records nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {}

/// The one clock every pipeline phase is timed by.
///
/// [`PhaseTimer::start`] reads the clock when a phase begins;
/// [`PhaseTimer::stop`] reads it once more and hands the same nanoseconds
/// to both consumers: the always-on [`MetricsRegistry`] latency histogram
/// and, when the tracer is enabled, an [`Event::Span`]. A phase's span
/// count and summed span nanos therefore equal its latency histogram's
/// `count` and `sum` exactly.
#[derive(Debug)]
#[must_use = "a phase is only recorded when its timer is stopped"]
pub struct PhaseTimer {
    phase: Phase,
    round: u32,
    class: Option<RegClass>,
    start: Instant,
}

impl PhaseTimer {
    /// Starts timing `phase` in spill round `round` (0 for lowering,
    /// which runs before the first round), for `class` when the phase
    /// runs per register class.
    pub fn start(phase: Phase, round: u32, class: Option<RegClass>) -> PhaseTimer {
        PhaseTimer {
            phase,
            round,
            class,
            start: Instant::now(),
        }
    }

    /// Stops the timer and records the elapsed nanoseconds into
    /// `metrics` and, when `tracer` is enabled, as an [`Event::Span`].
    pub fn stop(self, metrics: &mut MetricsRegistry, tracer: &mut dyn Tracer) {
        let nanos = self.start.elapsed().as_nanos() as u64;
        metrics.observe_latency(self.phase, nanos);
        if tracer.enabled() {
            tracer.record(&Event::Span {
                phase: self.phase,
                round: self.round,
                class: self.class,
                nanos: u128::from(nanos),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_tracer_is_disabled() {
        let t = NoopTracer;
        assert!(!t.enabled());
        assert!(!t.wants_graphs());
    }

    #[test]
    fn phase_timer_skips_events_when_disabled() {
        let mut t = RecordingTracer::default();
        t.set_enabled(false);
        let mut m = MetricsRegistry::new();
        PhaseTimer::start(Phase::Select, 1, None).stop(&mut m, &mut t);
        assert!(t.events().is_empty());
        assert_eq!(m.latency_hist(Phase::Select).count, 1);

        t.set_enabled(true);
        let mut m = MetricsRegistry::new();
        PhaseTimer::start(Phase::Select, 2, Some(RegClass::Int)).stop(&mut m, &mut t);
        assert_eq!(t.events().len(), 1);
        match &t.events()[0] {
            Event::Span {
                phase,
                round,
                class,
                nanos,
            } => {
                assert_eq!(*phase, Phase::Select);
                assert_eq!(*round, 2);
                assert_eq!(*class, Some(RegClass::Int));
                // One clock reading feeds both consumers.
                assert_eq!(*nanos, u128::from(m.latency_hist(Phase::Select).sum));
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.as_str()).collect();
        assert_eq!(
            names,
            [
                "lower", "analyze", "build", "rpg", "coalesce", "simplify", "select", "spill",
                "rewrite", "check"
            ]
        );
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }
}
