//! Quickstart: build a small function, allocate registers with the
//! preference-directed allocator, inspect the result, and prove the
//! allocation is semantics-preserving with the differential interpreters.
//!
//! Run with `cargo run --example quickstart`.

use pdgc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // dot2(p) = [p]*[p+16] + [p+8]*[p+24]
    let mut b = FunctionBuilder::new("dot2", vec![RegClass::Int], Some(RegClass::Int));
    let p = b.param(0);
    let a0 = b.load(p, 0);
    let a1 = b.load(p, 8);
    let b0 = b.load(p, 16);
    let b1 = b.load(p, 24);
    let m0 = b.bin(BinOp::Mul, a0, b0);
    let m1 = b.bin(BinOp::Mul, a1, b1);
    let s = b.bin(BinOp::Add, m0, m1);
    b.ret(Some(s));
    let func = b.finish();
    func.verify()?;

    println!("--- input IR ---\n{func}\n");

    // The paper's IA-64-like middle-pressure model: 24 registers per
    // class, half volatile, parity-paired loads.
    let target = TargetDesc::ia64_like(PressureModel::Middle);
    let mut session = AllocSession::default();
    let out = PreferenceAllocator::full().allocate(&func, &target, &mut session)?;

    println!("--- allocated machine code ---\n{}\n", out.mach);
    println!(
        "copies: {} before, {} eliminated; paired loads fused: {}; spills: {}",
        out.stats.copies_before,
        out.stats.moves_eliminated,
        out.stats.paired_loads,
        out.stats.spill_instructions,
    );

    // Differential check: virtual-register semantics == machine semantics.
    let args = vec![4096u64];
    let reference = run_ir(&func, &args, DEFAULT_FUEL)?;
    let allocated = run_mach(&out.mach, &target, &args, DEFAULT_FUEL)?;
    check_equivalent(&reference, &allocated).map_err(|e| format!("diverged: {e}"))?;
    println!(
        "\nequivalence verified: both return {:#x} in {} vs {} simulated cycles",
        reference.ret.unwrap(),
        reference.cycles,
        allocated.cycles,
    );
    Ok(())
}
