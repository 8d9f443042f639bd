//! Irregular-register preferences in action: paired loads (IA-64-style
//! parity rule) and volatile/non-volatile selection around calls.
//!
//! Compares the full preference-directed allocator against the
//! coalescing-only configuration on a kernel that needs *both* a paired
//! load and a call-surviving accumulator — the combination §4 of the paper
//! argues static approaches mishandle.
//!
//! Run with `cargo run --example irregular_registers`.

use pdgc::prelude::*;

/// A streaming kernel: each iteration loads a pair of adjacent words,
/// combines them, calls a helper, and accumulates its result.
fn kernel() -> Function {
    let mut b = FunctionBuilder::new("stream", vec![RegClass::Int, RegClass::Int], Some(RegClass::Int));
    let base = b.param(0);
    let n = b.param(1);
    let header = b.create_block();
    let body = b.create_block();
    let exit = b.create_block();

    let acc = b.iconst(0);
    let i = b.copy(n);
    b.jump(header);

    b.switch_to(header);
    b.branch_imm(CmpOp::Gt, i, 0, body, exit);

    b.switch_to(body);
    let x = b.load(base, 0); // paired-load candidate
    let y = b.load(base, 8);
    let s = b.bin(BinOp::Add, x, y);
    let r = b.call("combine", vec![s], Some(RegClass::Int)).unwrap();
    b.emit(pdgc::ir::Inst::Bin {
        op: BinOp::Add,
        dst: acc,
        lhs: acc,
        rhs: r,
    });
    b.emit(pdgc::ir::Inst::BinImm {
        op: BinOp::Sub,
        dst: i,
        lhs: i,
        imm: 1,
    });
    b.jump(header);

    b.switch_to(exit);
    b.ret(Some(acc));
    b.finish()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let func = kernel();
    let target = TargetDesc::ia64_like(PressureModel::High);
    println!("--- kernel ---\n{func}\n");

    for alloc in [
        PreferenceAllocator::coalescing_only(),
        PreferenceAllocator::full(),
    ] {
        let out = alloc.allocate(&func, &target, &mut AllocSession::default())?;
        let exec = run_mach(&out.mach, &target, &[0, 8], DEFAULT_FUEL)?;
        println!(
            "{:<22} paired loads: {}  caller-saves: {}  non-volatiles: {}  cycles: {}",
            alloc.name(),
            out.stats.paired_loads,
            out.stats.caller_save_insts,
            out.stats.nonvolatiles_used,
            exec.cycles,
        );
        // Both must still compute the same thing as the reference.
        let reference = run_ir(&func, &[0, 8], DEFAULT_FUEL)?;
        check_equivalent(&reference, &exec).map_err(|e| format!("diverged: {e}"))?;
    }

    println!(
        "\nThe full allocator fuses the paired load (different-parity \
         destinations) and keeps the accumulator in a non-volatile register \
         across the call; the coalescing-only allocator leaves those cycles \
         on the table."
    );
    Ok(())
}
