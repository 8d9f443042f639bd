//! Criterion benches: end-to-end allocation throughput of every allocator
//! on a representative function from each workload profile.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdgc_core::baselines::{
    BriggsAllocator, CallCostAllocator, ChaitinAllocator, IteratedAllocator, OptimisticAllocator,
};
use pdgc_core::{AllocSession, PreferenceAllocator, RegisterAllocator};
use pdgc_target::{PressureModel, TargetDesc};
use pdgc_workloads::{generate, specjvm_suite};

fn allocators() -> Vec<Box<dyn RegisterAllocator>> {
    vec![
        Box::new(ChaitinAllocator),
        Box::new(BriggsAllocator),
        Box::new(IteratedAllocator),
        Box::new(OptimisticAllocator),
        Box::new(CallCostAllocator),
        Box::new(PreferenceAllocator::coalescing_only()),
        Box::new(PreferenceAllocator::full()),
    ]
}

fn bench_allocators(c: &mut Criterion) {
    let target = TargetDesc::ia64_like(PressureModel::Middle);
    let suite = specjvm_suite();
    // One mid-size function per characteristic profile.
    let picks = ["compress", "jess", "mpegaudio"];
    for pick in picks {
        let prof = suite.iter().find(|p| p.name == pick).unwrap();
        let w = generate(prof);
        let func = &w.funcs[0];
        let mut group = c.benchmark_group(format!("allocate/{pick}"));
        for alloc in allocators() {
            group.bench_with_input(
                BenchmarkId::from_parameter(alloc.name()),
                func,
                |b, func| {
                    b.iter(|| {
                        let out = alloc.allocate(func, &target, &mut AllocSession::default());
                        out.unwrap()
                    });
                },
            );
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_allocators
}
criterion_main!(benches);
