//! Differential test of select against a frozen reference: the previous
//! select, whose register sets were `Vec<bool>` rows and pooled
//! `Vec<PhysReg>` vectors and whose frontier was a linear scan, kept in
//! `tests/support/reference_select.rs` with only its `crate::` paths
//! changed.
//!
//! Each case draws a register class of 1 to 64 registers with a random
//! volatile mask and a parity, sequential or absent pair rule; an
//! interference graph over live ranges and precolored registers, some live
//! ranges coalesced; an RPG with every preference kind — coalesce and
//! sequential partners that are precolored, assigned earlier or still
//! pending, volatility and `Set` preferences, negative strengths that
//! trigger active spilling — and the CPG that simplification builds from
//! the graph. Spill temporaries (`no_spill`) are only nodes of degree
//! below K, which always find a register. Under every `SelectConfig`, both
//! selects must return the same `SelectResult`, trace the same `Decision`
//! stream and bump the same counters, and the new select must reach the
//! same result untraced. It reuses one scratch across all eight runs, so
//! state leaking between selects fails here too.
//! Failing seeds persist to `select_reference.proptest-regressions`.

// A verbatim copy: formatting it would make it differ from the original.
#[allow(dead_code)]
#[rustfmt::skip]
#[path = "support/reference_select.rs"]
mod reference_select;

use pdgc_core::cpg::Cpg;
use pdgc_core::ifg::InterferenceGraph;
use pdgc_core::node::{NodeId, NodeMap};
use pdgc_core::rpg::{PrefKind, PrefTarget, Preference, Rpg};
use pdgc_core::select::{select_traced_in, SelectConfig, SelectResult, SelectScratch};
use pdgc_core::simplify::{simplify, SimplifyMode};
use pdgc_ir::{FunctionBuilder, RegClass};
use pdgc_obs::{Counter, MetricsRegistry, NoopTracer, RecordingTracer, Tracer};
use pdgc_target::{ClassSpec, PairRule, PairedLoadRule, TargetDesc};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One select input.
struct Case {
    target: TargetDesc,
    nodes: NodeMap,
    ifg: InterferenceGraph,
    rpg: Rpg,
    cpg: Cpg,
    no_spill: Vec<bool>,
    costs: Vec<u64>,
}

/// A strength in the range the Appendix model produces, negative ones
/// included.
fn strength(rng: &mut StdRng) -> i64 {
    rng.gen_range(-60i64..=120)
}

/// Builds a case over a `k`-register class and `live_ranges` live ranges;
/// `pair` picks the pair rule (0 parity, 1 sequential, 2 none).
fn build_case(seed: u64, k: usize, live_ranges: usize, edge_prob: f64, pair: u8) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let file = if k == 64 { u64::MAX } else { (1u64 << k) - 1 };
    let volatile = loop {
        let mask = rng.gen::<u64>() & file;
        if mask != 0 {
            break mask;
        }
    };
    let mut spec = ClassSpec::new(k).volatile_mask(volatile);
    match pair {
        0 => spec = spec.pair(PairRule::new(PairedLoadRule::Parity, 8)),
        1 => spec = spec.pair(PairRule::new(PairedLoadRule::Sequential, 8)),
        _ => {}
    }
    let target = TargetDesc::builder("select-ref")
        .class(RegClass::Int, spec)
        .class(RegClass::Float, ClassSpec::new(k))
        .finish()
        .expect("a valid class");

    // One integer vreg per live range, all referenced.
    let mut b = FunctionBuilder::new("f", vec![], None);
    let base = b.iconst(0);
    let loaded: Vec<_> = (1..live_ranges)
        .map(|i| b.load(base, 16 * i as i32))
        .collect();
    for &v in &loaded {
        b.store(v, base, 0);
    }
    b.ret(None);
    let func = b.finish();
    let nodes = NodeMap::build(&func, &target, RegClass::Int, &vec![None; func.num_vregs()]);
    let n = nodes.num_nodes();
    let node = |i: usize| NodeId::new(i);

    let mut ifg = InterferenceGraph::new(n, k);
    for a in k..n {
        for x in 0..a {
            let p = if x < k { edge_prob / 4.0 } else { edge_prob };
            if rng.gen_bool(p) {
                ifg.add_edge(node(a), node(x));
            }
        }
    }
    // Pre-coalesce a few non-interfering pairs, into precolored registers
    // and live ranges alike, so preferences resolve through `rep`.
    for _ in 0..live_ranges / 6 {
        let (a, b) = (node(rng.gen_range(0..n)), node(rng.gen_range(k..n)));
        let fresh = ifg.rep(a) != ifg.rep(b) && !ifg.is_precolored(ifg.rep(b));
        if fresh && !ifg.interferes(a, b) {
            ifg.merge(a, b);
        }
    }

    let mut rpg = Rpg::new(n);
    for holder in k..n {
        for _ in 0..rng.gen_range(0usize..=4) {
            let partner = loop {
                let m = rng.gen_range(0..n);
                if m != holder {
                    break PrefTarget::Node(node(m));
                }
            };
            let (kind, target) = match rng.gen_range(0u8..7) {
                0 => (PrefKind::Coalesce, partner),
                1 => (PrefKind::SequentialPlus, partner),
                2 => (PrefKind::SequentialMinus, partner),
                3 => (PrefKind::Prefers, PrefTarget::Volatile),
                4 => (PrefKind::Prefers, PrefTarget::NonVolatile),
                5 => (PrefKind::Prefers, PrefTarget::Set(rng.gen::<u64>())),
                _ => (PrefKind::Prefers, partner),
            };
            // A one-sided preference never admits the excluded kind, whose
            // strength the RPG writes as `i64::MIN`.
            let (strength_vol, strength_nonvol) = match target {
                PrefTarget::Volatile => (strength(&mut rng), i64::MIN),
                PrefTarget::NonVolatile => (i64::MIN, strength(&mut rng)),
                _ => (strength(&mut rng), strength(&mut rng)),
            };
            rpg.add(
                node(holder),
                Preference {
                    kind,
                    target,
                    strength_vol,
                    strength_nonvol,
                },
            );
        }
    }
    if rng.gen_bool(0.5) {
        rpg.sort_by_strength();
    }

    let costs: Vec<u64> = (0..n).map(|_| rng.gen_range(1u64..1000)).collect();
    let sr = simplify(&mut ifg, k, &costs, SimplifyMode::Optimistic);
    ifg.restore_all();
    let cpg = Cpg::build(&ifg, &sr.stack, &sr.optimistic, k);
    let no_spill = (0..n)
        .map(|i| cpg.contains(node(i)) && ifg.degree(node(i)) < k && rng.gen_bool(0.2))
        .collect();
    Case {
        target,
        nodes,
        ifg,
        rpg,
        cpg,
        no_spill,
        costs,
    }
}

/// The select under test on `c`.
fn select_new(
    c: &Case,
    config: SelectConfig,
    tracer: &mut dyn Tracer,
    scratch: &mut SelectScratch,
) -> SelectResult {
    select_traced_in(
        &c.ifg,
        &c.nodes,
        &c.rpg,
        &c.cpg,
        &c.target,
        &c.no_spill,
        &c.costs,
        config,
        1,
        tracer,
        scratch,
    )
}

/// Every counter but `select_heap_pops`, which the reference never bumps.
fn counters(m: &MetricsRegistry) -> Vec<(&'static str, u64)> {
    Counter::ALL
        .into_iter()
        .filter(|&c| c != Counter::SelectHeapPops)
        .map(|c| (c.name(), m.get(c)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn select_matches_the_reference_on_random_graphs(
        seed in any::<u64>(),
        k in 1usize..=64,
        live_ranges in 1usize..72,
        edge_prob in 0.0f64..0.7,
        pair in 0u8..3,
    ) {
        let c = build_case(seed, k, live_ranges, edge_prob, pair);
        let mut scratch = SelectScratch::new();
        for (active_spill, nonvolatile_first) in
            [(false, false), (false, true), (true, false), (true, true)]
        {
            let what = format!(
                "k={k}, pair={pair}, active_spill={active_spill}, \
                 nonvolatile_first={nonvolatile_first}"
            );
            let mut ref_scratch = reference_select::SelectScratch::new();
            let mut ref_trace = RecordingTracer::default();
            let reference = reference_select::select_traced_in(
                &c.ifg,
                &c.nodes,
                &c.rpg,
                &c.cpg,
                &c.target,
                &c.no_spill,
                &c.costs,
                reference_select::SelectConfig { active_spill, nonvolatile_first },
                1,
                &mut ref_trace,
                &mut ref_scratch,
            );
            let config = SelectConfig { active_spill, nonvolatile_first };
            let mut trace = RecordingTracer::default();
            let new = select_new(&c, config, &mut trace, &mut scratch);
            let metrics = std::mem::take(&mut scratch.metrics);
            prop_assert_eq!(&new.assignment, &reference.assignment, "{}", what);
            prop_assert_eq!(&new.spilled, &reference.spilled, "{}", what);
            prop_assert_eq!(
                format!("{:?}", trace.decisions()),
                format!("{:?}", ref_trace.decisions()),
                "{}", what
            );
            prop_assert_eq!(counters(&metrics), counters(&ref_scratch.metrics), "{}", what);
            prop_assert_eq!(
                metrics.scorecard_hists_json(),
                ref_scratch.metrics.scorecard_hists_json(),
                "{}", what
            );
            let picks = trace.decisions().len() as u64;
            prop_assert!(metrics.get(Counter::SelectHeapPops) >= picks, "{}", what);
            new.recycle(&mut scratch);

            // Untraced, the same select reaches the same result.
            let quiet = select_new(&c, config, &mut NoopTracer, &mut scratch);
            scratch.metrics = MetricsRegistry::new();
            prop_assert_eq!(&quiet.assignment, &reference.assignment, "{}", what);
            prop_assert_eq!(&quiet.spilled, &reference.spilled, "{}", what);
            quiet.recycle(&mut scratch);
        }
    }
}
