//! Adversarial exercises of §5.3 step 4 — the strength-ordered screening
//! that resolves competing preferences — on the same-parity and
//! argument-home mixes ROADMAP's audit note asks about. Each scenario
//! runs `select_traced_in` with a [`RecordingTracer`] and asserts on the
//! *trace*: the `considered` list of every decision is the screening
//! order, so the tests check not just the final assignment but that the
//! right preference won for the right reason.
//!
//! The machine is `toy(4)` (r0/r1 volatile argument registers, r2/r3
//! non-volatile, parity-paired loads) unless noted.

use pdgc::core::cpg::Cpg;
use pdgc::core::ifg::{IfgScratch, InterferenceGraph};
use pdgc::core::node::{NodeId, NodeMap};
use pdgc::core::rpg::{PrefKind, PrefTarget, Preference, Rpg};
use pdgc::core::select::{select_traced_in, SelectConfig, SelectResult, SelectScratch};
use pdgc::obs::Decision;
use pdgc::prelude::*;

fn n(i: usize) -> NodeId {
    NodeId::new(i)
}

/// A node universe over `toy(4)`: nodes 0–3 are the precolored r0–r3,
/// node 4 is a base address, and nodes 5.. are `m` live ranges whose
/// interference is exactly `edges`.
fn setup(m: usize, edges: &[(usize, usize)]) -> (InterferenceGraph, NodeMap, TargetDesc) {
    let mut b = FunctionBuilder::new("t", vec![], None);
    let base = b.iconst(0);
    let vs: Vec<_> = (0..m).map(|i| b.load(base, (i * 16) as i32 + 128)).collect();
    for &v in &vs {
        b.store(v, base, 0);
    }
    b.ret(None);
    let f = b.finish();
    let target = TargetDesc::toy(4);
    let pinned = vec![None; f.num_vregs()];
    let nm = NodeMap::build(&f, &target, RegClass::Int, &pinned);
    let mut g =
        InterferenceGraph::new_in(nm.num_nodes(), nm.num_phys(), &mut IfgScratch::default());
    for &(a, b2) in edges {
        g.add_edge(n(a), n(b2));
    }
    (g, nm, target)
}

/// Runs traced selection and returns the result plus its decisions.
fn run(
    g: &mut InterferenceGraph,
    nm: &NodeMap,
    target: &TargetDesc,
    rpg: &Rpg,
) -> (SelectResult, Vec<Decision>) {
    let costs = vec![10u64; nm.num_nodes()];
    let k = 4;
    let sr = pdgc::core::simplify::simplify(g, k, &costs, pdgc::core::simplify::SimplifyMode::Optimistic);
    g.restore_all();
    let cpg = Cpg::build(g, &sr.stack, &sr.optimistic, k);
    let no_spill = vec![false; nm.num_nodes()];
    let mut rec = RecordingTracer::default();
    let r = select_traced_in(
        g,
        nm,
        rpg,
        &cpg,
        target,
        &no_spill,
        &costs,
        SelectConfig::default(),
        1,
        &mut rec,
        &mut SelectScratch::new(),
    );
    (r, rec.decisions().into_iter().cloned().collect())
}

fn decision_for<'d>(decisions: &'d [Decision], node: usize) -> &'d Decision {
    decisions
        .iter()
        .find(|d| d.node == node as u32)
        .unwrap_or_else(|| panic!("no decision for node {node}"))
}

fn seq_pref(kind: PrefKind, to: usize, s: i64) -> Preference {
    Preference {
        kind,
        target: PrefTarget::Node(n(to)),
        strength_vol: s,
        strength_nonvol: s - 2,
    }
}

/// An argument-homed value that is also half of a parity pair: node 5
/// would save a copy by moving into the argument register r0
/// (strength 30), but its pair partner node 6 interferes with r1 — the
/// only register of opposite parity to r0 — so taking the argument home
/// kills the stronger pairing (strength 50). Step 4 must screen the
/// *deferred* partner preference first, pushing node 5 off r0.
#[test]
fn deferred_pairing_outranks_argument_home() {
    let (mut g, nm, target) = setup(2, &[(6, 1)]);
    let mut rpg = Rpg::new(nm.num_nodes());
    rpg.add(
        n(5),
        Preference {
            kind: PrefKind::Coalesce,
            target: PrefTarget::Node(n(0)), // argument home r0
            strength_vol: 30,
            strength_nonvol: 28,
        },
    );
    rpg.add(n(5), seq_pref(PrefKind::SequentialPlus, 6, 50));
    rpg.add(n(6), seq_pref(PrefKind::SequentialMinus, 5, 50));

    let (r, decisions) = run(&mut g, &nm, &target, &rpg);
    let (a, b) = (r.assignment[5].unwrap(), r.assignment[6].unwrap());
    assert_ne!(a, PhysReg::int(0), "argument home must lose to the pairing");
    assert!(target.pair_allows(a, b), "pair {a}/{b} must satisfy parity");

    // The trace shows why: the pairing screened first *as a deferred
    // partner preference* (node 6 not yet allocated) and narrowed the
    // candidates; the weaker argument-home coalesce then could not.
    let d = decision_for(&decisions, 5);
    assert_eq!(
        (d.considered[0].kind, d.considered[0].deferred, d.considered[0].strength),
        ("seq+", true, 50)
    );
    assert!(d.considered[0].narrowed, "pairing must narrow the candidate set");
    let home = d
        .considered
        .iter()
        .find(|c| c.kind == "coalesce")
        .expect("argument-home coalesce must still be screened");
    assert_eq!((home.target.as_str(), home.strength), ("r0", 30));
    assert!(!home.narrowed, "the screened-out home must not narrow");
}

/// The same mix with the strengths reversed: a *weak* pairing
/// (strength 20) must not veto the stronger argument home — node 5
/// takes r0 and the trace shows the coalesce screening first.
#[test]
fn weak_pairing_yields_to_argument_home() {
    let (mut g, nm, target) = setup(2, &[(6, 1)]);
    let mut rpg = Rpg::new(nm.num_nodes());
    rpg.add(
        n(5),
        Preference {
            kind: PrefKind::Coalesce,
            target: PrefTarget::Node(n(0)),
            strength_vol: 30,
            strength_nonvol: 28,
        },
    );
    rpg.add(n(5), seq_pref(PrefKind::SequentialPlus, 6, 20));
    rpg.add(n(6), seq_pref(PrefKind::SequentialMinus, 5, 20));

    let (r, decisions) = run(&mut g, &nm, &target, &rpg);
    assert_eq!(r.assignment[5], Some(PhysReg::int(0)));

    let d = decision_for(&decisions, 5);
    assert_eq!((d.considered[0].kind, d.considered[0].strength), ("coalesce", 30));
    assert!(d.considered[0].narrowed);
    let pairing = d.considered.iter().find(|c| c.kind == "seq+").unwrap();
    assert!(pairing.deferred);
    assert!(
        !pairing.narrowed,
        "a pairing that would empty the candidate set is abandoned"
    );
}

/// Two interfering values both homed to the same argument register r0
/// (e.g. each is the first argument of a different call). The stronger
/// claim wins r0; the loser's home is not even *honorable* (r0 is gone
/// from its available set), so its decision shows an empty screening
/// list and a fallback register.
#[test]
fn argument_home_contention_resolves_by_strength() {
    let (mut g, nm, target) = setup(2, &[(5, 6)]);
    let mut rpg = Rpg::new(nm.num_nodes());
    for (node, s) in [(5usize, 60i64), (6, 20)] {
        rpg.add(
            n(node),
            Preference {
                kind: PrefKind::Coalesce,
                target: PrefTarget::Node(n(0)),
                strength_vol: s,
                strength_nonvol: s - 2,
            },
        );
    }

    let (r, decisions) = run(&mut g, &nm, &target, &rpg);
    assert_eq!(r.assignment[5], Some(PhysReg::int(0)), "stronger claim takes r0");
    assert_ne!(r.assignment[6], Some(PhysReg::int(0)));

    let winner = decision_for(&decisions, 5);
    assert_eq!((winner.considered[0].kind, winner.considered[0].strength), ("coalesce", 60));
    assert!(winner.considered[0].narrowed);
    let loser = decision_for(&decisions, 6);
    assert!(
        loser.considered.is_empty(),
        "a home blocked by a prior selection is not honorable: {:?}",
        loser.considered
    );
    assert_eq!(loser.available, 3, "r0 must already be unavailable");
}

/// Two parity pairs squeezed into one four-register file, with one
/// member also argument-homed. All four values interfere pairwise, so
/// the pairs must land on {even, odd} × {even, odd} without collision —
/// and every decision's screening list must be sorted by strength, the
/// step-4 invariant the trace makes checkable.
#[test]
fn two_pairs_share_the_file_and_screens_stay_strength_sorted() {
    let (mut g, nm, target) = setup(
        4,
        &[(5, 6), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8)],
    );
    let mut rpg = Rpg::new(nm.num_nodes());
    rpg.add(n(5), seq_pref(PrefKind::SequentialPlus, 6, 50));
    rpg.add(n(6), seq_pref(PrefKind::SequentialMinus, 5, 50));
    rpg.add(n(7), seq_pref(PrefKind::SequentialPlus, 8, 44));
    rpg.add(n(8), seq_pref(PrefKind::SequentialMinus, 7, 44));
    // Node 7 is also argument-homed, weaker than its pairing.
    rpg.add(
        n(7),
        Preference {
            kind: PrefKind::Coalesce,
            target: PrefTarget::Node(n(1)),
            strength_vol: 12,
            strength_nonvol: 10,
        },
    );

    let (r, decisions) = run(&mut g, &nm, &target, &rpg);
    assert!(r.spilled.is_empty(), "4 mutually-interfering values fit 4 registers");
    let reg = |i: usize| r.assignment[i].unwrap();
    assert!(target.pair_allows(reg(5), reg(6)));
    assert!(target.pair_allows(reg(7), reg(8)));

    for d in &decisions {
        let strengths: Vec<i64> = d.considered.iter().map(|c| c.strength).collect();
        assert!(
            strengths.windows(2).all(|w| w[0] >= w[1]),
            "node {}: screening not strength-ordered: {strengths:?}",
            d.node
        );
    }
}

fn set_pref(mask: u64, s: i64) -> Preference {
    Preference {
        kind: PrefKind::Prefers,
        target: PrefTarget::Set(mask),
        strength_vol: s,
        strength_nonvol: s - 2,
    }
}

/// A set-mask preference (§3.1 limited register usage) competing with a
/// parity pairing, set stronger: node 5 is restricted to {r1, r2}
/// (strength 60) and paired with node 6 (strength 40), which interferes
/// with both odd registers — so the partner must land even and node 5
/// odd. Step 4 screens the set first (narrowing {r0..r3} → {r1, r2}),
/// then the deferred pairing narrows *within* it ({r1, r2} → {r1}): the
/// final register satisfies both, and the trace shows each screen
/// narrowing in strength order.
#[test]
fn set_mask_screens_before_weaker_pairing_and_both_narrow() {
    let (mut g, nm, target) = setup(2, &[(6, 1), (6, 3)]);
    let mut rpg = Rpg::new(nm.num_nodes());
    rpg.add(n(5), set_pref(0b0110, 60)); // {r1, r2}
    rpg.add(n(5), seq_pref(PrefKind::SequentialPlus, 6, 40));
    rpg.add(n(6), seq_pref(PrefKind::SequentialMinus, 5, 40));

    let (r, decisions) = run(&mut g, &nm, &target, &rpg);
    let (a, b) = (r.assignment[5].unwrap(), r.assignment[6].unwrap());
    assert_eq!(a, PhysReg::int(1), "only r1 satisfies both set and pairing");
    assert!(target.pair_allows(a, b), "pair {a}/{b} must satisfy parity");

    let d = decision_for(&decisions, 5);
    assert_eq!(
        (d.considered[0].kind, d.considered[0].target.as_str(), d.considered[0].strength),
        ("prefers", "set:0x6", 60)
    );
    assert!(d.considered[0].narrowed, "the set must narrow the candidates");
    let pairing = d.considered.iter().find(|c| c.kind == "seq+").unwrap();
    assert_eq!((pairing.deferred, pairing.strength), (true, 40));
    assert!(pairing.narrowed, "the pairing must narrow within the set");
}

/// The same competition where honoring the set makes the pairing
/// *infeasible*: node 5 is pinned to {r0} alone, and node 6 interferes
/// with both odd registers — no opposite-parity partner can exist once
/// node 5 takes r0. The stronger set wins; the pairing screens but is
/// abandoned rather than allowed to empty the candidate set, and no
/// fused pair forms.
#[test]
fn set_mask_strands_an_infeasible_pairing() {
    let (mut g, nm, target) = setup(2, &[(6, 1), (6, 3)]);
    let mut rpg = Rpg::new(nm.num_nodes());
    rpg.add(n(5), set_pref(0b0001, 60)); // {r0} only
    rpg.add(n(5), seq_pref(PrefKind::SequentialPlus, 6, 40));
    rpg.add(n(6), seq_pref(PrefKind::SequentialMinus, 5, 40));

    let (r, decisions) = run(&mut g, &nm, &target, &rpg);
    let (a, b) = (r.assignment[5].unwrap(), r.assignment[6].unwrap());
    assert_eq!(a, PhysReg::int(0), "the set pin must be honored");
    assert!(
        !target.pair_allows(a, b),
        "no parity partner exists for r0 against {{r1, r3}} interference"
    );

    let d = decision_for(&decisions, 5);
    assert_eq!(
        (d.considered[0].kind, d.considered[0].target.as_str(), d.considered[0].narrowed),
        ("prefers", "set:0x1", true)
    );
    let pairing = d.considered.iter().find(|c| c.kind == "seq+").unwrap();
    assert!(pairing.deferred);
    assert!(
        !pairing.narrowed,
        "a pairing that would empty the candidate set is abandoned"
    );
}

/// The full allocator on a real function mixing both hazards: a parity
/// pair whose members are also call arguments. End to end, the trace
/// must still show strength-sorted screening and the pairing surviving
/// the argument homes.
#[test]
fn full_allocator_traces_stay_strength_sorted_on_arg_homed_pair() {
    let mut b = FunctionBuilder::new("mix", vec![RegClass::Int], None);
    let p = b.param(0);
    let lo = b.load(p, 0);
    let hi = b.load(p, 8);
    // Both halves of the pair escape as call arguments, acquiring
    // argument-home preferences that compete with the pairing.
    b.call("f", vec![lo, hi], None);
    let sum = b.bin(BinOp::Add, lo, hi);
    b.ret(Some(sum));
    let func = b.finish();

    let target = TargetDesc::toy(4);
    let mut rec = RecordingTracer::default();
    let mut session = AllocSession {
        tracer: Some(&mut rec),
        ..AllocSession::default()
    };
    let out = PreferenceAllocator::full()
        .allocate(&func, &target, &mut session)
        .unwrap();
    assert_eq!(out.stats.spill_instructions, 0);

    let decisions = rec.decisions();
    assert!(!decisions.is_empty());
    for d in &decisions {
        let strengths: Vec<i64> = d.considered.iter().map(|c| c.strength).collect();
        assert!(
            strengths.windows(2).all(|w| w[0] >= w[1]),
            "node {}: screening not strength-ordered: {strengths:?}",
            d.node
        );
    }
    // At least one decision had to weigh a pairing against another
    // preference — the adversarial mix actually materialized.
    assert!(
        decisions.iter().any(|d| {
            d.considered.len() >= 2
                && d.considered.iter().any(|c| c.kind.starts_with("seq"))
        }),
        "expected a decision mixing a pairing with other preferences"
    );
}
