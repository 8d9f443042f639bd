//! Criterion benches for the allocator's component phases: interference-
//! graph construction, simplification, RPG construction, and CPG
//! construction — the data structures the paper introduces.

use criterion::{criterion_group, criterion_main, Criterion};
use pdgc_core::build::{build_ifg, collect_copies};
use pdgc_core::cost::CostModel;
use pdgc_core::cpg::Cpg;
use pdgc_core::lower::lower_abi;
use pdgc_core::node::{NodeId, NodeMap};
use pdgc_core::pipeline::analyze;
use pdgc_core::rpg::{build_rpg, PreferenceSet};
use pdgc_core::simplify::{simplify, SimplifyMode};
use pdgc_ir::RegClass;
use pdgc_target::{PressureModel, TargetDesc};
use pdgc_workloads::{generate, specjvm_suite};

fn bench_phases(c: &mut Criterion) {
    let target = TargetDesc::ia64_like(PressureModel::Middle);
    let prof = specjvm_suite()
        .into_iter()
        .find(|p| p.name == "javac")
        .unwrap();
    let w = generate(&prof);
    let lowered = lower_abi(&w.funcs[0], &target).unwrap();
    let analyses = analyze(&lowered.func);
    let nodes = NodeMap::build(&lowered.func, &target, RegClass::Int, &lowered.pinned);
    let k = target.num_regs(RegClass::Int);

    c.bench_function("phase/liveness+analyses", |b| {
        b.iter(|| analyze(&lowered.func))
    });

    c.bench_function("phase/build-ifg", |b| {
        b.iter(|| build_ifg(&lowered.func, &analyses.liveness, &nodes))
    });

    let ifg = build_ifg(&lowered.func, &analyses.liveness, &nodes);
    let costs: Vec<u64> = {
        let cost = CostModel::new(&lowered.func, &analyses.costs, &analyses.loops);
        (0..nodes.num_nodes())
            .map(|i| {
                let n = NodeId::new(i);
                if nodes.is_precolored(n) {
                    u64::MAX
                } else {
                    cost.spill_cost(nodes.members(n)[0])
                }
            })
            .collect()
    };

    c.bench_function("phase/simplify", |b| {
        b.iter(|| {
            let mut g = ifg.clone();
            simplify(&mut g, k, &costs, SimplifyMode::Optimistic)
        })
    });

    c.bench_function("phase/build-rpg", |b| {
        let cost = CostModel::new(&lowered.func, &analyses.costs, &analyses.loops);
        let copies = collect_copies(&lowered.func, &analyses.loops, &nodes);
        b.iter(|| build_rpg(&lowered.func, &nodes, &cost, &copies, PreferenceSet::full(), &target))
    });

    c.bench_function("phase/build-cpg", |b| {
        let mut g = ifg.clone();
        let sr = simplify(&mut g, k, &costs, SimplifyMode::Optimistic);
        g.restore_all();
        b.iter(|| Cpg::build(&g, &sr.stack, &sr.optimistic, k))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_phases
}
criterion_main!(benches);
