//! Walks through the paper's **Figure 7** end to end, printing each
//! artifact: the sample program, the Register Preference Graph strengths,
//! the Coloring Precedence Graph, the final assignment, and the final
//! machine code with its fused paired load.

use pdgc_bench::{write_metrics, write_results, WorkloadResult};
use pdgc_core::build::collect_copies;
use pdgc_core::cost::CostModel;
use pdgc_core::cpg::Cpg;
use pdgc_core::lower::lower_abi;
use pdgc_core::node::NodeMap;
use pdgc_core::pipeline::analyze;
use pdgc_core::rpg::{build_rpg, PrefTarget};
use pdgc_core::simplify::{simplify, SimplifyMode};
use pdgc_core::{AllocSession, PreferenceAllocator, PreferenceSet, RegisterAllocator};
use pdgc_ir::{BinOp, CmpOp, FunctionBuilder, RegClass};
use pdgc_obs::JsonLinesSink;
use pdgc_target::TargetDesc;

/// `--trace PATH` / `--trace=PATH` from the command line, if given.
fn trace_arg() -> Option<String> {
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if a == "--trace" {
            return it.next();
        }
        if let Some(v) = a.strip_prefix("--trace=") {
            return Some(v.to_string());
        }
    }
    None
}

/// `--check` / `--check=MODE` from the command line (`Off` when absent).
fn check_arg() -> pdgc_core::CheckMode {
    for a in std::env::args().skip(1) {
        if a == "--check" {
            return pdgc_core::CheckMode::Always;
        }
        if let Some(v) = a.strip_prefix("--check=") {
            return pdgc_core::CheckMode::parse(v)
                .unwrap_or_else(|| panic!("bad --check mode `{v}` (off, debug, always)"));
        }
    }
    pdgc_core::CheckMode::Off
}

fn main() {
    // Figure 7(a): the sample loop.
    let mut b = FunctionBuilder::new("fig7", vec![RegClass::Int], None);
    let arg0 = b.param(0);
    let header = b.create_block();
    let exit = b.create_block();
    let v0 = b.load(arg0, 0);
    b.jump(header);
    b.switch_to(header);
    let v1 = b.load(v0, 0);
    let v2 = b.load(v0, 8);
    let v3 = b.copy(v0);
    let v4 = b.bin(BinOp::Add, v1, v2);
    b.call("g", vec![v3], None);
    b.emit(pdgc_ir::Inst::BinImm {
        op: BinOp::Add,
        dst: v0,
        lhs: v4,
        imm: 1,
    });
    b.branch_imm(CmpOp::Ne, v0, 0, header, exit);
    b.switch_to(exit);
    b.ret(None);
    let func = b.finish();

    println!("=== Figure 7(a): sample code ===\n{func}\n");

    let target = TargetDesc::figure7();
    let lowered = lower_abi(&func, &target).unwrap();
    let analyses = analyze(&lowered.func);
    let cost = CostModel::new(&lowered.func, &analyses.costs, &analyses.loops);
    let nodes = NodeMap::build(&lowered.func, &target, RegClass::Int, &lowered.pinned);
    let copies = collect_copies(&lowered.func, &analyses.loops, &nodes);
    let rpg = build_rpg(&lowered.func, &nodes, &cost, &copies, PreferenceSet::full(), &target);

    println!("=== Figure 7(c): Register Preference Graph ===");
    let names = [
        (arg0, "arg0"),
        (v0, "v0"),
        (v1, "v1"),
        (v2, "v2"),
        (v3, "v3"),
        (v4, "v4"),
    ];
    for (v, name) in names {
        let n = nodes.node_of(v).unwrap();
        for p in rpg.prefs(n) {
            let tgt = match p.target {
                PrefTarget::Node(m) if nodes.is_precolored(m) => {
                    format!("{}", nodes.phys_reg(m))
                }
                PrefTarget::Node(m) => {
                    let member = nodes.members(m)[0];
                    names
                        .iter()
                        .find(|(w, _)| *w == member)
                        .map(|(_, s)| s.to_string())
                        .unwrap_or_else(|| format!("{member}"))
                }
                PrefTarget::Volatile => "volatile".to_string(),
                PrefTarget::NonVolatile => "non-volatile".to_string(),
                PrefTarget::Set(mask) => format!("regs{{{mask:#x}}}"),
            };
            println!(
                "  {name} --{:?}--> {tgt}  (vol: {}, n-vol: {})",
                p.kind,
                show(p.strength_vol),
                show(p.strength_nonvol)
            );
        }
    }
    println!();

    // Simplification and the CPG.
    let mut ctx_ifg = pdgc_core::build::build_ifg(&lowered.func, &analyses.liveness, &nodes);
    let costs: Vec<u64> = (0..nodes.num_nodes())
        .map(|i| {
            let n = pdgc_core::node::NodeId::new(i);
            if nodes.is_precolored(n) {
                u64::MAX
            } else {
                cost.spill_cost(nodes.members(n)[0])
            }
        })
        .collect();
    let sr = simplify(&mut ctx_ifg, 3, &costs, SimplifyMode::Optimistic);
    ctx_ifg.restore_all();
    println!("=== Figure 7(d): simplification stack (removal order) ===");
    let node_name = |n: pdgc_core::node::NodeId| -> String {
        let member = nodes.members(n)[0];
        names
            .iter()
            .find(|(w, _)| *w == member)
            .map(|(_, s)| s.to_string())
            .unwrap_or_else(|| format!("{member}"))
    };
    println!(
        "  {:?}\n",
        sr.stack.iter().map(|&n| node_name(n)).collect::<Vec<_>>()
    );

    // Transitively reduced, as Figure 7(e) draws it.
    let cpg = Cpg::build(&ctx_ifg, &sr.stack, &sr.optimistic, 3).transitive_reduction();
    println!("=== Figure 7(e): Coloring Precedence Graph (K = 3) ===");
    for n in cpg.nodes() {
        let mut edges = Vec::new();
        if cpg.from_top(n) {
            edges.push("top -> self".to_string());
        }
        for &s in cpg.succs(n) {
            edges.push(format!("self -> {}", node_name(s)));
        }
        if cpg.to_bottom(n) {
            edges.push("self -> bottom".to_string());
        }
        println!("  {}: {}", node_name(n), edges.join(", "));
    }
    println!();

    // The full allocation, with the tracing layer attached: phase spans
    // and select decisions go to `--trace PATH` (JSON Lines) when given,
    // and the per-phase wall-clock always lands in `results/fig7.json`.
    let alloc = PreferenceAllocator::full();
    let check = check_arg();
    let trace = trace_arg();
    let mut sink = trace.as_ref().map(|path| {
        let file =
            std::fs::File::create(path).unwrap_or_else(|e| panic!("creating trace {path}: {e}"));
        JsonLinesSink::new(std::io::BufWriter::new(file))
    });
    let mut session = AllocSession {
        check,
        ..AllocSession::default()
    };
    if let Some(sink) = sink.as_mut() {
        session.tracer = Some(sink);
    }
    let out = alloc.allocate(&func, &target, &mut session).unwrap();
    let metrics = session.scratch.metrics;
    if let (Some(sink), Some(path)) = (sink, trace) {
        use std::io::Write as _;
        sink.into_inner().flush().unwrap();
        eprintln!("trace written to {path}");
    }
    if check.should_check() {
        println!("symbolic check passed ({check} mode)");
    }
    println!("=== Figure 7(g): assignment ===");
    for (v, name) in names {
        println!("  {name} -> {}", out.assignment[v.index()].unwrap());
    }
    println!("\n=== Figure 7(h): final code ===\n{}", out.mach);
    println!(
        "\n(copies eliminated: {}/{}, paired loads fused: {}, spills: {})",
        out.stats.moves_eliminated,
        out.stats.copies_before,
        out.stats.paired_loads,
        out.stats.spill_instructions
    );

    let record = WorkloadResult {
        allocator: alloc.name(),
        workload: "figure7".to_string(),
        target: target.name.clone(),
        stats: out.stats,
        cycles: 0, // the Figure 7 walkthrough is not executed
        metrics,
    };
    match write_results("fig7", std::slice::from_ref(&record)) {
        Ok(path) => println!("results written to {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
    match write_metrics("fig7", alloc.name(), &target.name, &record.metrics) {
        Ok(path) => println!("metrics written to {}", path.display()),
        Err(e) => eprintln!("could not write metrics: {e}"),
    }
}

fn show(s: i64) -> String {
    if s == i64::MIN {
        "-inf".to_string()
    } else {
        s.to_string()
    }
}
