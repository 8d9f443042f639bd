//! The word-parallel interference build and the per-round cost table,
//! held to their specifications (`tests/support/reference_build.rs`): the
//! edge-by-edge build walk and the per-site Appendix cost sums.
//!
//! Inputs are of two kinds:
//!
//! * suite functions adapted to several targets and ABI-lowered, some with
//!   a round of spill code inserted (reloads, spill stores, temporaries);
//! * hand-built functions with a loop and calls, where several vregs are
//!   pinned to one register and live at once, copies run from and to
//!   pinned vregs, definitions can be dead, vregs can be live into the
//!   entry, and sites such as `v = v + v` and loads whose base is their
//!   destination touch one vreg twice.
//!
//! For both register classes, the two builds must agree on every matrix
//! bit, every adjacency set and every degree. For every vreg, the cost
//! table must agree with the specification on `Spill_Cost`, `Op_Cost`,
//! `Mem_Cost` and the volatile `Call_Cost`, and on `Ideal_Op_Cost` and the
//! three strengths for random zeroed-site lists, duplicates and sites that
//! do not touch the vreg included. One scratch serves every build of a
//! case, so state left by one build shows in the next.
//! Failing seeds persist to `build_reference.proptest-regressions`.

// A verbatim copy: formatting it would make it differ from the original.
#[allow(dead_code)]
#[rustfmt::skip]
#[path = "support/reference_build.rs"]
mod reference_build;

use pdgc::analysis::{Cfg, Dominators, InstRef, Liveness, Loops};
use pdgc::core::build::{build_ifg_in, BuildScratch};
use pdgc::core::cost::{CostModel, CostTable};
use pdgc::core::ifg::IfgScratch;
use pdgc::core::lower::lower_abi;
use pdgc::core::node::{NodeId, NodeMap};
use pdgc::core::pipeline::analyze;
use pdgc::core::spill::insert_spill_code_fwd;
use pdgc::ir::{CalleeId, Inst};
use pdgc::prelude::*;
use pdgc::target::PhysReg;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TARGETS: [&str; 4] = ["ia64-24", "ia64-16", "x86-16", "tight8"];

fn pick(rng: &mut StdRng, pool: &[VReg]) -> VReg {
    pool[rng.gen_range(0..pool.len())]
}

/// Appends up to eight random instructions to the current block.
fn fill(b: &mut FunctionBuilder, rng: &mut StdRng, ints: &[VReg], floats: &[VReg], g: CalleeId) {
    for _ in 0..rng.gen_range(0..=8) {
        let (d, x, y) = (pick(rng, ints), pick(rng, ints), pick(rng, ints));
        let offset = 8 * rng.gen_range(0..4);
        let inst = match rng.gen_range(0..12) {
            0 => Inst::Copy { dst: d, src: x },
            1 => Inst::Copy {
                dst: pick(rng, floats),
                src: pick(rng, floats),
            },
            // `v = v + v` touches one vreg three times.
            2 => Inst::Bin {
                op: BinOp::Add,
                dst: d,
                lhs: d,
                rhs: d,
            },
            3 => Inst::Bin {
                op: BinOp::Sub,
                dst: d,
                lhs: x,
                rhs: y,
            },
            4 => Inst::BinImm {
                op: BinOp::Add,
                dst: d,
                lhs: x,
                imm: 1,
            },
            // A load whose base is its destination.
            5 => Inst::Load {
                dst: d,
                base: d,
                offset,
            },
            6 => Inst::Load8 {
                dst: d,
                base: x,
                offset,
            },
            7 => Inst::Store {
                src: x,
                base: y,
                offset,
            },
            8 => Inst::Iconst { dst: d, value: 7 },
            9 => Inst::Call {
                callee: g,
                args: (0..rng.gen_range(0..3)).map(|_| pick(rng, ints)).collect(),
                ret: rng.gen_bool(0.5).then_some(d),
            },
            10 => Inst::Reload { dst: d, slot: 0 },
            _ => Inst::Bin {
                op: BinOp::FAdd,
                dst: pick(rng, floats),
                lhs: pick(rng, floats),
                rhs: pick(rng, floats),
            },
        };
        b.emit(inst);
    }
}

/// A function of an entry block, a self-looping body and an exit, over a
/// small pool of vregs (some used before any definition, so they are live
/// into the entry), with about a third of its vregs pinned to the first
/// three registers of their class.
fn hand_built(rng: &mut StdRng) -> (Function, Vec<Option<PhysReg>>) {
    let params = vec![RegClass::Int, RegClass::Int, RegClass::Float];
    let mut b = FunctionBuilder::new("hand", params, Some(RegClass::Int));
    let mut ints = vec![b.param(0), b.param(1)];
    let mut floats = vec![b.param(2)];
    for _ in 0..rng.gen_range(1..8) {
        ints.push(b.new_vreg(RegClass::Int));
    }
    for _ in 0..rng.gen_range(0..3) {
        floats.push(b.new_vreg(RegClass::Float));
    }
    let g = b.intern_callee("g");
    let (body, exit) = (b.create_block(), b.create_block());
    fill(&mut b, rng, &ints, &floats, g);
    b.jump(body);
    b.switch_to(body);
    fill(&mut b, rng, &ints, &floats, g);
    b.branch_imm(CmpOp::Ne, pick(rng, &ints), 0, body, exit);
    b.switch_to(exit);
    fill(&mut b, rng, &ints, &floats, g);
    b.ret(Some(pick(rng, &ints)));
    let func = b.finish();
    let pinned = (0..func.num_vregs())
        .map(|i| {
            let class = func.class_of(VReg::new(i));
            rng.gen_bool(0.35)
                .then(|| PhysReg::new(class, rng.gen_range(0..3)))
        })
        .collect();
    (func, pinned)
}

/// One suite function adapted to `target` and ABI-lowered; with
/// probability one half, a random quarter of its unpinned, defined vregs
/// is spilled, as a spill round would.
fn lowered_suite(rng: &mut StdRng, target: &TargetDesc) -> (Function, Vec<Option<PhysReg>>) {
    let suite = specjvm_suite();
    let mut profile = suite[rng.gen_range(0..suite.len())].for_target(target);
    profile.seed ^= rng.gen::<u64>();
    profile.num_funcs = 1;
    let func = &generate(&profile).funcs[0];
    let mut lowered = lower_abi(func, target).expect("suite functions lower");
    if rng.gen_bool(0.5) {
        let mut defined = vec![false; lowered.func.num_vregs()];
        for b in lowered.func.block_ids() {
            for inst in &lowered.func.block(b).insts {
                if let Some(d) = inst.def() {
                    defined[d.index()] = true;
                }
            }
        }
        let spilled: Vec<VReg> = (0..lowered.func.num_vregs())
            .filter(|&i| defined[i] && lowered.pinned[i].is_none() && rng.gen_bool(0.25))
            .map(VReg::new)
            .collect();
        let analyses = analyze(&lowered.func);
        let mut slots = 0;
        insert_spill_code_fwd(&mut lowered.func, &spilled, &mut slots, Some(&analyses.spl));
        lowered.sync_pinned_len();
    }
    (lowered.func, lowered.pinned)
}

/// The sorted neighbours of `n`.
fn adjacency(g: &pdgc::core::ifg::InterferenceGraph, n: NodeId) -> Vec<NodeId> {
    let mut adj = g.neighbors_slice(n).to_vec();
    adj.sort();
    adj
}

/// Up to four sites: mostly `v`'s own, some elsewhere, some repeated.
fn zeroed_sites(rng: &mut StdRng, func: &Function, own: &[InstRef]) -> Vec<InstRef> {
    let mut zeroed: Vec<InstRef> = Vec::new();
    for _ in 0..rng.gen_range(0..=4) {
        let site = if !zeroed.is_empty() && rng.gen_bool(0.25) {
            zeroed[rng.gen_range(0..zeroed.len())]
        } else if !own.is_empty() && rng.gen_bool(0.7) {
            own[rng.gen_range(0..own.len())]
        } else {
            let block = Block::new(rng.gen_range(0..func.num_blocks()));
            let len = func.block(block).insts.len();
            InstRef {
                block,
                index: rng.gen_range(0..len),
            }
        };
        zeroed.push(site);
    }
    zeroed
}

/// Builds both classes' graphs and the cost table of `func` both ways and
/// compares them.
fn compare(
    func: &Function,
    pinned: &[Option<PhysReg>],
    target: &TargetDesc,
    rng: &mut StdRng,
) -> TestCaseResult {
    let cfg = Cfg::compute(func);
    let liveness = Liveness::compute(func, &cfg);
    let loops = Loops::compute(&cfg, &Dominators::compute(&cfg));
    let crossings = liveness.call_crossings(func);
    let (mut ifg_scratch, mut build_scratch) = (IfgScratch::new(), BuildScratch::new());
    for class in RegClass::ALL {
        let nodes = NodeMap::build(func, target, class, pinned);
        let spec = reference_build::build_ifg(func, &liveness, &nodes);
        let got = build_ifg_in(
            func,
            &liveness,
            &nodes,
            &mut ifg_scratch,
            &mut build_scratch,
        );
        for a in nodes.all_nodes() {
            for b in nodes.all_nodes() {
                prop_assert_eq!(
                    got.interferes(a, b),
                    spec.interferes(a, b),
                    "{class:?} bit ({a}, {b})"
                );
            }
            prop_assert_eq!(
                adjacency(&got, a),
                adjacency(&spec, a),
                "{class:?} neighbours of {a}"
            );
            prop_assert_eq!(got.degree(a), spec.degree(a), "{class:?} degree of {a}");
        }
        got.recycle(&mut ifg_scratch);
    }

    let defuse = reference_build::DefUse::compute(func);
    let spec = reference_build::CostModel::new(func, &defuse, &loops, &crossings);
    let table = CostTable::compute(func, &loops, &crossings);
    let got = CostModel::new(func, &table, &loops);
    for i in 0..func.num_vregs() {
        let v = VReg::new(i);
        prop_assert_eq!(got.spill_cost(v), spec.spill_cost(v), "Spill_Cost({v})");
        prop_assert_eq!(got.op_cost(v), spec.op_cost(v), "Op_Cost({v})");
        prop_assert_eq!(got.mem_cost(v), spec.mem_cost(v), "Mem_Cost({v})");
        prop_assert_eq!(
            got.call_cost_volatile(v),
            spec.call_cost_volatile(v),
            "Call_Cost({v})"
        );
        let own: Vec<InstRef> = defuse
            .uses(v)
            .iter()
            .chain(defuse.defs(v))
            .copied()
            .collect();
        for _ in 0..4 {
            let zeroed = zeroed_sites(rng, func, &own);
            let z = &zeroed;
            prop_assert_eq!(
                got.ideal_op_cost(v, z),
                spec.ideal_op_cost(v, z),
                "{v} {z:?}"
            );
            prop_assert_eq!(
                got.strength_volatile(v, z),
                spec.strength_volatile(v, z),
                "{v} {z:?}"
            );
            prop_assert_eq!(
                got.strength_nonvolatile(v, z),
                spec.strength_nonvolatile(v, z),
                "{v} {z:?}"
            );
            prop_assert_eq!(
                got.strength_ignoring_volatility(v, z),
                spec.strength_ignoring_volatility(v, z),
                "{v} {z:?}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hand_built_functions_match_the_specifications(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (func, pinned) = hand_built(&mut rng);
        compare(&func, &pinned, &TargetDesc::toy(4), &mut rng)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lowered_suite_functions_match_the_specifications(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let registry = TargetRegistry::builtin();
        let target = registry.get(TARGETS[rng.gen_range(0..TARGETS.len())]).expect("builtin");
        let (func, pinned) = lowered_suite(&mut rng, target);
        compare(&func, &pinned, target, &mut rng)?;
    }
}
