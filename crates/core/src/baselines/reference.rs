//! The Chaitin-family coloring loops as they were written before they ran
//! on worklists and heaps, kept as executable specifications, and a
//! property test that runs each current loop beside its specification:
//!
//! * `spec_simplify`: simplify with a linear scan of every active node for
//!   the spill candidate;
//! * `spec_simplify_keyed`: the call-cost baseline's simplify, which
//!   rescans every active node for the low-degree pick too;
//! * `spec_iterated`: iterated coalescing, which re-collects the active
//!   nodes and the live copies at every step and tests Briggs' criterion
//!   over a deduplicated neighbor list;
//! * `spec_partners`: biased select's scan of every copy for a node's
//!   partners.
//!
//! Random graphs almost never make a merge survivor the next spill
//! candidate, so one hand-built graph pins that case. Failing seeds
//! persist to `reference.proptest-regressions`.

use super::coalesce::{conservative_ok, merge_pair, CopyPartners};
use super::iterated::coalesce_iteratively;
use crate::build::CopyRel;
use crate::ifg::InterferenceGraph;
use crate::node::NodeId;
use crate::simplify::{simplify_in, simplify_keyed_in, SimplifyMode, SimplifyScratch, SpillHeap};
use pdgc_ir::Block;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The spill candidate among `active`, by a linear scan.
fn spill_candidate(
    ifg: &InterferenceGraph,
    k: usize,
    spill_costs: &[u64],
    active: impl IntoIterator<Item = NodeId>,
) -> NodeId {
    active
        .into_iter()
        .filter(|&n| spill_costs[n.index()] != u64::MAX)
        .min_by(|&a, &b| {
            let lhs = spill_costs[a.index()] as u128 * ifg.degree(b) as u128;
            let rhs = spill_costs[b.index()] as u128 * ifg.degree(a) as u128;
            lhs.cmp(&rhs).then(a.index().cmp(&b.index()))
        })
        .unwrap_or_else(|| panic!("graph blocked with only unspillable nodes (K={k})"))
}

/// Simplify's removal order: the stack, the optimistic removals and the
/// Chaitin spills.
type Removals = (Vec<NodeId>, Vec<NodeId>, Vec<NodeId>);

fn spec_simplify(
    ifg: &mut InterferenceGraph,
    k: usize,
    costs: &[u64],
    mode: SimplifyMode,
) -> Removals {
    let (mut stack, mut optimistic, mut spills) = (Vec::new(), Vec::new(), Vec::new());
    let mut worklist: BinaryHeap<Reverse<usize>> = (ifg.num_phys()..ifg.num_nodes())
        .map(NodeId::new)
        .filter(|&n| !ifg.is_merged(n) && !ifg.is_removed(n) && ifg.degree(n) < k)
        .map(|n| Reverse(n.index()))
        .collect();
    let mut remaining = ifg.active_live_ranges().len();
    let pop_neighbors = |ifg: &mut InterferenceGraph, n: NodeId, worklist: &mut BinaryHeap<_>| {
        ifg.remove(n);
        for &x in ifg.neighbors_slice(n) {
            if !ifg.is_removed(x) && !ifg.is_precolored(x) && ifg.degree(x) + 1 == k {
                worklist.push(Reverse(x.index()));
            }
        }
    };
    while remaining > 0 {
        if let Some(Reverse(i)) = worklist.pop() {
            let n = NodeId::new(i);
            if !ifg.is_removed(n) {
                pop_neighbors(ifg, n, &mut worklist);
                stack.push(n);
                remaining -= 1;
            }
            continue;
        }
        let cand = spill_candidate(ifg, k, costs, ifg.active_live_ranges());
        pop_neighbors(ifg, cand, &mut worklist);
        remaining -= 1;
        match mode {
            SimplifyMode::Chaitin => spills.push(cand),
            SimplifyMode::Optimistic => {
                stack.push(cand);
                optimistic.push(cand);
            }
        }
    }
    (stack, optimistic, spills)
}

fn spec_simplify_keyed(
    ifg: &mut InterferenceGraph,
    k: usize,
    costs: &[u64],
    key: &[i64],
) -> Removals {
    let (mut stack, mut spills) = (Vec::new(), Vec::new());
    loop {
        let active = ifg.active_live_ranges();
        if active.is_empty() {
            break;
        }
        let low = active
            .iter()
            .copied()
            .filter(|&n| ifg.degree(n) < k)
            .min_by_key(|&n| (key[n.index()], n.index()));
        if let Some(n) = low {
            ifg.remove(n);
            stack.push(n);
            continue;
        }
        let cand = spill_candidate(ifg, k, costs, active);
        ifg.remove(cand);
        spills.push(cand);
    }
    (stack, Vec::new(), spills)
}

fn spec_briggs_ok(ifg: &InterferenceGraph, a: NodeId, b: NodeId, k: usize) -> bool {
    let mut combined = ifg.neighbors(a);
    for &x in ifg.neighbors_slice(b) {
        if !combined.contains(&x) {
            combined.push(x);
        }
    }
    let both = |x: NodeId| ifg.interferes(x, a) && ifg.interferes(x, b);
    let significant = combined
        .iter()
        .filter(|&&x| {
            let d = if both(x) {
                ifg.degree(x).saturating_sub(1)
            } else {
                ifg.degree(x)
            };
            d >= k
        })
        .count();
    significant < k
}

fn spec_conservative_ok(ifg: &InterferenceGraph, a: NodeId, b: NodeId, k: usize) -> bool {
    let george_ok = |a: NodeId, b: NodeId| {
        ifg.neighbors_slice(b)
            .iter()
            .all(|&t| t == a || ifg.interferes(t, a) || ifg.degree(t) < k)
    };
    if ifg.is_precolored(a) {
        george_ok(a, b)
    } else if ifg.is_precolored(b) {
        george_ok(b, a)
    } else {
        spec_briggs_ok(ifg, a, b, k)
    }
}

/// Iterated coalescing's stack, freezes and potential spills.
fn spec_iterated(
    ifg: &mut InterferenceGraph,
    copies: &[CopyRel],
    costs: &mut [u64],
    k: usize,
) -> Removals {
    let mut frozen = vec![false; ifg.num_nodes()];
    let (mut stack, mut freezes, mut spills) = (Vec::new(), Vec::new(), Vec::new());
    let live_copies = |ifg: &InterferenceGraph, frozen: &[bool]| {
        copies
            .iter()
            .filter_map(|c| {
                let (a, b) = (ifg.rep(c.dst), ifg.rep(c.src));
                (a != b
                    && !frozen[a.index()]
                    && !frozen[b.index()]
                    && !ifg.interferes(a, b)
                    && !ifg.is_removed(a)
                    && !ifg.is_removed(b))
                .then_some((a, b))
            })
            .collect::<Vec<_>>()
    };
    loop {
        let active = ifg.active_live_ranges();
        if active.is_empty() {
            break;
        }
        let copies = live_copies(ifg, &frozen);
        let move_related = |n: NodeId| copies.iter().any(|&(a, b)| a == n || b == n);
        if let Some(&n) = active
            .iter()
            .find(|&&n| ifg.degree(n) < k && !move_related(n))
        {
            ifg.remove(n);
            stack.push(n);
            continue;
        }
        if let Some(&(a, b)) = copies
            .iter()
            .find(|&&(a, b)| spec_conservative_ok(ifg, a, b, k))
        {
            merge_pair(ifg, costs, a, b);
            continue;
        }
        if let Some(&n) = active
            .iter()
            .find(|&&n| ifg.degree(n) < k && move_related(n))
        {
            frozen[n.index()] = true;
            freezes.push(n);
            continue;
        }
        let cand = spill_candidate(ifg, k, costs, active);
        ifg.remove(cand);
        stack.push(cand);
        spills.push(cand);
    }
    (stack, freezes, spills)
}

/// The copy partners of `n` in copy order, as biased select scanned them
/// (a copy merged into `n` itself offers no register, so it is skipped).
fn spec_partners(ifg: &InterferenceGraph, copies: &[CopyRel], n: NodeId) -> Vec<NodeId> {
    copies
        .iter()
        .filter_map(|c| {
            let (x, y) = (ifg.rep(c.dst), ifg.rep(c.src));
            match (x == n, y == n) {
                (true, _) => Some(y),
                (_, true) => Some(x),
                _ => None,
            }
        })
        .filter(|&p| p != n)
        .collect()
}

/// One random input: a graph over `k` or fewer precolored nodes and up to
/// 40 live ranges, some merged; copies among all of them, duplicates and
/// copies into precolored nodes included; costs with unspillable and huge
/// values; and a call-cost priority key with ties.
struct Case {
    ifg: InterferenceGraph,
    copies: Vec<CopyRel>,
    costs: Vec<u64>,
    key: Vec<i64>,
}

fn build_case(seed: u64, k: usize) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let phys = rng.gen_range(0..=k);
    let n = phys + rng.gen_range(0usize..40);
    let node = NodeId::new;
    let edge_prob = rng.gen_range(0.0f64..0.6);
    let mut ifg = InterferenceGraph::new_in(n, phys, &mut crate::ifg::IfgScratch::default());
    for a in phys..n {
        for x in 0..a {
            let p = if x < phys { edge_prob / 3.0 } else { edge_prob };
            if rng.gen_bool(p) {
                ifg.add_edge(node(a), node(x));
            }
        }
    }
    if n > phys {
        for _ in 0..rng.gen_range(0..=(n - phys) / 5) {
            let (a, b) = (node(rng.gen_range(0..n)), node(rng.gen_range(phys..n)));
            let fresh = ifg.rep(a) != ifg.rep(b) && !ifg.is_precolored(ifg.rep(b));
            if fresh && !ifg.interferes(a, b) {
                ifg.merge(a, b);
            }
        }
    }
    let mut copies: Vec<CopyRel> = Vec::new();
    if n > 0 {
        for _ in 0..rng.gen_range(0..=2 * n) {
            let copy = match copies.last() {
                Some(&c) if rng.gen_bool(0.1) => c,
                _ => CopyRel {
                    dst: node(rng.gen_range(0..n)),
                    src: node(rng.gen_range(0..n)),
                    freq: 1,
                    block: Block::ENTRY,
                    index: copies.len(),
                },
            };
            copies.push(copy);
        }
    }
    let costs = (0..n)
        .map(|_| match rng.gen_range(0u8..10) {
            0 => u64::MAX,
            1 => u64::MAX - rng.gen_range(0..1u64 << 40),
            _ => rng.gen_range(0..200),
        })
        .collect();
    let key = (0..n).map(|_| rng.gen_range(-8i64..8)).collect();
    Case {
        ifg,
        copies,
        costs,
        key,
    }
}

/// Runs `f`, turning a panic into its message.
fn run<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

fn reps(ifg: &InterferenceGraph) -> Vec<NodeId> {
    (0..ifg.num_nodes())
        .map(|i| ifg.rep(NodeId::new(i)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn worklist_loops_match_their_specifications(seed in any::<u64>(), k in 1usize..=8) {
        let c = build_case(seed, k);
        // One scratch for every run, so state left by one run shows in the
        // next.
        let mut scratch = SimplifyScratch::new();

        for mode in [SimplifyMode::Optimistic, SimplifyMode::Chaitin] {
            let (mut g, mut spec_g) = (c.ifg.clone(), c.ifg.clone());
            let new = run(|| {
                let sr = simplify_in(&mut g, k, &c.costs, mode, &mut scratch);
                (sr.stack, sr.optimistic, sr.chaitin_spills)
            });
            let spec = run(|| spec_simplify(&mut spec_g, k, &c.costs, mode));
            prop_assert_eq!(new, spec, "simplify, {:?}, k={}", mode, k);
        }

        let (mut g, mut spec_g) = (c.ifg.clone(), c.ifg.clone());
        let key = |n: NodeId| c.key[n.index()];
        let new = run(|| {
            let sr = simplify_keyed_in(&mut g, k, &c.costs, SimplifyMode::Chaitin, key, &mut scratch);
            (sr.stack, sr.optimistic, sr.chaitin_spills)
        });
        let spec = run(|| spec_simplify_keyed(&mut spec_g, k, &c.costs, &c.key));
        prop_assert_eq!(new, spec, "keyed simplify, k={}", k);

        let (mut g, mut spec_g) = (c.ifg.clone(), c.ifg.clone());
        let (mut costs, mut spec_costs) = (c.costs.clone(), c.costs.clone());
        let new = run(|| {
            let out = coalesce_iteratively(&mut g, &c.copies, &mut costs, k, &mut scratch.spill);
            (out.stack, out.frozen, out.spills)
        });
        let spec = run(|| spec_iterated(&mut spec_g, &c.copies, &mut spec_costs, k));
        let panicked = spec.is_err();
        prop_assert_eq!(new, spec, "iterated, k={}", k);
        if !panicked {
            prop_assert_eq!(&costs, &spec_costs, "iterated costs, k={}", k);
            prop_assert_eq!(reps(&g), reps(&spec_g), "iterated merges, k={}", k);
        }

        // The conservative test on every pair of non-interfering
        // representatives, with some neighbors removed at frozen degrees.
        let mut g = c.ifg.clone();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for n in g.active_live_ranges() {
            if rng.gen_bool(0.3) {
                g.remove(n);
            }
        }
        let ends: Vec<NodeId> = (0..g.num_nodes())
            .map(NodeId::new)
            .filter(|&n| !g.is_merged(n) && !g.is_removed(n))
            .collect();
        for &a in &ends {
            for &b in &ends {
                if a != b && !g.interferes(a, b) {
                    prop_assert_eq!(
                        conservative_ok(&g, a, b, k),
                        spec_conservative_ok(&g, a, b, k),
                        "conservative test of {} and {}, k={}", a, b, k
                    );
                }
            }
        }

        // Biased select's copy partners.
        let partners = CopyPartners::new(&c.ifg, &c.copies);
        for n in (0..c.ifg.num_nodes()).map(NodeId::new).filter(|&n| !c.ifg.is_merged(n)) {
            prop_assert_eq!(partners.of(n), &spec_partners(&c.ifg, &c.copies, n)[..]);
        }
    }
}

/// A merge after the first potential spill whose survivor is a later
/// spill candidate. The survivor's old entry carries its unfolded cost and
/// would win the heap too early; the entry pushed at the merge is the one
/// that ranks it. With K = 2, the precolored `p` keeps the survivor
/// blocked.
#[test]
fn a_merge_survivor_can_be_a_later_spill_candidate() {
    let [p, a, b, s, t, x, y, z, w, q] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9].map(NodeId::new);
    let mut ifg = InterferenceGraph::new_in(10, 1, &mut crate::ifg::IfgScratch::default());
    for (u, v) in [(a, p), (a, t), (b, s), (b, t), (s, x), (x, y), (x, z)] {
        ifg.add_edge(u, v);
    }
    for (u, v) in [
        (t, y),
        (t, z),
        (t, w),
        (t, q),
        (y, z),
        (y, w),
        (y, q),
        (z, w),
        (z, q),
        (w, q),
    ] {
        ifg.add_edge(u, v);
    }
    let copies = [CopyRel {
        dst: a,
        src: b,
        freq: 1,
        block: Block::ENTRY,
        index: 0,
    }];
    let costs = vec![0, 1, 1, 100, 100, 1, 100, 100, 3, 100];
    let (mut g, mut spec_g) = (ifg.clone(), ifg);
    let (mut new_costs, mut spec_costs) = (costs.clone(), costs);
    // `x` spills first (cost 1, degree 3); `s` then simplifies, so Briggs'
    // test admits `a` and `b`. The survivor `a` (cost 2, degree 2) ranks
    // behind `w` (cost 3, degree 4), then spills.
    let out = coalesce_iteratively(
        &mut g,
        &copies,
        &mut new_costs,
        2,
        &mut SpillHeap::default(),
    );
    let spec = spec_iterated(&mut spec_g, &copies, &mut spec_costs, 2);
    assert_eq!(spec.2[..3], [x, w, a]);
    assert_eq!(spec_g.rep(b), a);
    assert_eq!((out.stack, out.frozen, out.spills), spec);
    assert_eq!(new_costs, spec_costs);
}
