//! Regenerates **Figure 11** of the paper: performance of the integrated
//! approach at middle pressure (24 registers), as elapsed time relative to
//! the full-preference allocator.
//!
//! Columns: the three coalescing-only approaches (ours, Park–Moon
//! optimistic, Briggs+aggressive), the Lueh–Gross-style
//! "aggressive+volatility" allocator, and full preferences (= 1.00).

use pdgc_bench::{
    geo_mean, print_table, run_workload, write_metrics, write_results, WorkloadResult,
};
use pdgc_core::baselines::{BriggsAllocator, CallCostAllocator, OptimisticAllocator};
use pdgc_core::{PreferenceAllocator, RegisterAllocator};
use pdgc_obs::MetricsRegistry;
use pdgc_target::{PressureModel, TargetDesc};
use pdgc_workloads::{generate, specjvm_suite};

fn main() {
    let algs: Vec<Box<dyn RegisterAllocator>> = vec![
        Box::new(PreferenceAllocator::coalescing_only()),
        Box::new(OptimisticAllocator),
        Box::new(BriggsAllocator),
        Box::new(CallCostAllocator),
        Box::new(PreferenceAllocator::full()),
    ];
    let target = TargetDesc::ia64_like(PressureModel::Middle);

    println!("Figure 11: elapsed time relative to full preferences, 24 registers");
    let mut all_results: Vec<WorkloadResult> = Vec::new();
    let mut metrics = MetricsRegistry::default();
    let mut table = Vec::new();
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); algs.len()];
    for prof in specjvm_suite() {
        let w = generate(&prof);
        let results: Vec<WorkloadResult> = algs
            .iter()
            .map(|a| run_workload(a.as_ref(), &w, &target, &mut metrics))
            .collect();
        let cycles: Vec<u64> = results.iter().map(|r| r.cycles).collect();
        all_results.extend(results);
        let full = *cycles.last().unwrap() as f64;
        let mut row = vec![prof.name.clone()];
        for (i, &c) in cycles.iter().enumerate() {
            let r = c as f64 / full;
            ratios[i].push(r);
            row.push(format!("{r:.3}"));
        }
        table.push(row);
    }
    let mut geo_row = vec!["geo.".to_string()];
    geo_row.extend(ratios.iter().map(|r| format!("{:.3}", geo_mean(r))));
    table.push(geo_row);
    print_table(
        &[
            "workload",
            "pdgc-coalesce",
            "optimistic",
            "briggs+aggr",
            "aggr+volat",
            "full-prefs",
        ],
        &table,
    );
    match write_results("fig11", &all_results) {
        Ok(path) => println!("results written to {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
    match write_metrics("fig11", "all", &target.name, &metrics) {
        Ok(path) => println!("metrics written to {}", path.display()),
        Err(e) => eprintln!("could not write metrics: {e}"),
    }
}
