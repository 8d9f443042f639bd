//! A JIT-style pipeline over a whole synthetic workload: generate the
//! `jess` SPECjvm98 analog, push every function through all seven
//! allocators, and print a comparison table — move elimination, spill
//! code, caller saves, and simulated execution cycles.
//!
//! Run with `cargo run --release --example allocator_shootout`.

use pdgc::all_allocators;
use pdgc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let prof = specjvm_suite()
        .into_iter()
        .find(|p| p.name == "jess")
        .expect("suite contains jess");
    let workload = generate(&prof);
    let target = TargetDesc::ia64_like(PressureModel::Middle);

    println!(
        "workload `{}`: {} functions, {} instructions\n",
        workload.name,
        workload.funcs.len(),
        workload.funcs.iter().map(|f| f.num_insts()).sum::<usize>()
    );
    println!(
        "{:<24}{:>8}{:>8}{:>8}{:>8}{:>10}",
        "allocator", "elim", "copies", "spills", "saves", "cycles"
    );

    for alloc in all_allocators() {
        let mut stats = AllocStats::default();
        let mut cycles = 0u64;
        let mut session = AllocSession::default();
        for func in &workload.funcs {
            let out = alloc.allocate(func, &target, &mut session)?;
            stats.accumulate(&out.stats);
            let args = default_args(func);
            // Re-verify equivalence while we are at it.
            let reference = run_ir(func, &args, DEFAULT_FUEL)?;
            let allocated = run_mach(&out.mach, &target, &args, DEFAULT_FUEL)?;
            check_equivalent(&reference, &allocated)
                .map_err(|e| format!("{} diverged on {}: {e}", alloc.name(), func.name))?;
            cycles += allocated.cycles;
        }
        println!(
            "{:<24}{:>8}{:>8}{:>8}{:>8}{:>10}",
            alloc.name(),
            stats.moves_eliminated,
            stats.copies_remaining,
            stats.spill_instructions,
            stats.caller_save_insts,
            cycles
        );
    }

    println!(
        "\nEvery row computed identical results (differentially verified); \
         the rows differ only in how well the allocator honored the \
         workload's preferences."
    );
    Ok(())
}
