//! The paper's Figure 7 walkthrough as an example program.
//!
//! Builds the sample loop of Figure 7(a), allocates it on the
//! three-register machine, and prints the assignment and final code —
//! which match Figure 7(g)/(h) exactly (see `tests/figure7.rs` for the
//! assertions, and `cargo run -p pdgc-bench --bin fig7` for the full
//! walkthrough including the RPG and CPG).
//!
//! Run with `cargo run --example paper_figure7`.

use pdgc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut b = FunctionBuilder::new("fig7", vec![RegClass::Int], None);
    let arg0 = b.param(0);
    let header = b.create_block();
    let exit = b.create_block();
    let v0 = b.load(arg0, 0); // i0: v0 = [arg0]
    b.jump(header);
    b.switch_to(header);
    let v1 = b.load(v0, 0); // i1: v1 = [v0]
    let v2 = b.load(v0, 8); // i2: v2 = [v0+8]
    let v3 = b.copy(v0); // i3: v3 = v0
    let v4 = b.bin(BinOp::Add, v1, v2); // i4: v4 = v1 + v2
    b.call("g", vec![v3], None); // i5/i6: arg0 = v3; call
    b.emit(pdgc::ir::Inst::BinImm {
        op: BinOp::Add,
        dst: v0,
        lhs: v4,
        imm: 1,
    }); // i7: v0 = v4 + 1
    b.branch_imm(CmpOp::Ne, v0, 0, header, exit); // i8
    b.switch_to(exit);
    b.ret(None); // i9
    let func = b.finish();

    println!("Figure 7(a):\n{func}\n");

    // Paper registers r1, r2, r3 are r0, r1, r2 here: r0 = arg0/return
    // (volatile), r1 = arg1 (volatile), r2 = non-volatile.
    let target = TargetDesc::figure7();
    let mut session = AllocSession::default();
    let out = PreferenceAllocator::full().allocate(&func, &target, &mut session)?;

    println!("Assignment (paper names):");
    for (v, name) in [(v0, "v0"), (v1, "v1"), (v2, "v2"), (v3, "v3"), (v4, "v4")] {
        println!("  {name} -> {}", out.assignment[v.index()].unwrap());
    }
    println!("\nFigure 7(h):\n{}", out.mach);
    println!(
        "\nAll {} copies coalesced, {} paired load fused, {} spills — \
         the paper's result, reproduced.",
        out.stats.moves_eliminated, out.stats.paired_loads, out.stats.spill_instructions
    );
    Ok(())
}
