//! Regenerates **Figure 9** of the paper: coalescing capability.
//!
//! * (a) ratio of eliminated move instructions vs the Chaitin-aggressive
//!   base, 16 registers;
//! * (b) ratio of generated spill instructions vs base, 16 registers;
//! * (c) eliminated-move ratio, 32 registers;
//! * (d) spill-instruction ratio, 32 registers.
//!
//! Rows are the SPECjvm98 analogs; `mpegaudio fp` and `mtrt fp` report the
//! floating-point register class of those workloads, as in the paper.
//! Columns are the paper's three algorithms: ours (preference-directed,
//! coalesce preferences only), Park–Moon optimistic coalescing, and
//! Briggs-style coloring with aggressive coalescing.

use pdgc_bench::{
    fmt_ratio, print_table, run_workload, write_metrics, write_results, WorkloadResult,
};
use pdgc_core::baselines::{BriggsAllocator, ChaitinAllocator, OptimisticAllocator};
use pdgc_core::{ClassStats, PreferenceAllocator, RegisterAllocator};
use pdgc_ir::RegClass;
use pdgc_obs::MetricsRegistry;
use pdgc_target::{PressureModel, TargetDesc};
use pdgc_workloads::{generate, specjvm_suite};

fn main() {
    let algs: Vec<Box<dyn RegisterAllocator>> = vec![
        Box::new(PreferenceAllocator::coalescing_only()),
        Box::new(OptimisticAllocator),
        Box::new(BriggsAllocator),
    ];

    let mut all_results: Vec<WorkloadResult> = Vec::new();
    let mut metrics = MetricsRegistry::default();
    for model in [PressureModel::High, PressureModel::Low] {
        let regs = model.num_regs();
        let target = TargetDesc::ia64_like(model);
        let suite = specjvm_suite();

        // Row spec: (label, workload index, class).
        let mut rows_spec: Vec<(String, usize, RegClass)> = suite
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.clone(), i, RegClass::Int))
            .collect();
        for (i, p) in suite.iter().enumerate() {
            if p.float_ratio > 0.3 {
                rows_spec.push((format!("{} fp", p.name), i, RegClass::Float));
            }
        }

        let workloads: Vec<_> = suite.iter().map(generate).collect();
        let base: Vec<WorkloadResult> = workloads
            .iter()
            .map(|w| run_workload(&ChaitinAllocator, w, &target, &mut metrics))
            .collect();
        let results: Vec<Vec<WorkloadResult>> = algs
            .iter()
            .map(|a| {
                workloads
                    .iter()
                    .map(|w| run_workload(a.as_ref(), w, &target, &mut metrics))
                    .collect()
            })
            .collect();
        all_results.extend(base.iter().cloned());
        all_results.extend(results.iter().flatten().cloned());

        let class_stats = |r: &WorkloadResult, class: RegClass| -> ClassStats {
            *r.stats.class(class)
        };

        let sub = if regs == 16 { "(a)" } else { "(c)" };
        println!(
            "Figure 9{sub}: eliminated moves relative to Chaitin-aggressive, {regs} registers"
        );
        let mut table = Vec::new();
        for (label, wi, class) in &rows_spec {
            let b = class_stats(&base[*wi], *class);
            let mut row = vec![label.clone()];
            for alg_results in &results {
                let a = class_stats(&alg_results[*wi], *class);
                row.push(fmt_ratio(a.moves_eliminated, b.moves_eliminated));
            }
            // Context: what fraction of all moves the base removed.
            row.push(fmt_ratio(b.moves_eliminated, b.copies_before));
            table.push(row);
        }
        print_table(
            &["workload", "pdgc-coalesce", "optimistic", "briggs+aggr", "base rate"],
            &table,
        );

        let sub = if regs == 16 { "(b)" } else { "(d)" };
        println!(
            "Figure 9{sub}: generated spill instructions relative to Chaitin-aggressive, {regs} registers"
        );
        let mut table = Vec::new();
        for (label, wi, class) in &rows_spec {
            let b = class_stats(&base[*wi], *class);
            let mut row = vec![label.clone()];
            for alg_results in &results {
                let a = class_stats(&alg_results[*wi], *class);
                row.push(fmt_ratio(a.spill_instructions(), b.spill_instructions()));
            }
            row.push(format!("{}", b.spill_instructions()));
            table.push(row);
        }
        print_table(
            &["workload", "pdgc-coalesce", "optimistic", "briggs+aggr", "base spills"],
            &table,
        );
    }
    match write_results("fig9", &all_results) {
        Ok(path) => println!("results written to {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
    match write_metrics("fig9", "all", "ia64-16+32", &metrics) {
        Ok(path) => println!("metrics written to {}", path.display()),
        Err(e) => eprintln!("could not write metrics: {e}"),
    }
}
