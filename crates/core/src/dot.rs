//! Graphviz DOT renderings of the allocator's three graphs, for the
//! per-round dump sink: a select decision recorded in a trace can be
//! replayed against the exact interference, preference, and precedence
//! graphs that produced it.
//!
//! Node labels use the allocation-node index (`n4`) plus the member vregs
//! (`v7`) or the physical register for precolored nodes, matching the
//! `node` / `members` fields of decision events.

use crate::cpg::Cpg;
use crate::ifg::InterferenceGraph;
use crate::node::{NodeId, NodeMap};
use crate::rpg::{PrefTarget, Rpg};
use std::fmt::Write as _;

fn node_label(nodes: &NodeMap, n: NodeId) -> String {
    if nodes.is_precolored(n) {
        format!("n{} ({})", n.index(), nodes.phys_reg(n))
    } else {
        let members: Vec<String> = nodes.members(n).iter().map(|v| format!("v{}", v.index())).collect();
        format!("n{} [{}]", n.index(), members.join(","))
    }
}

fn emit_nodes(buf: &mut String, nodes: &NodeMap, include: impl Fn(NodeId) -> bool) {
    for n in nodes.all_nodes() {
        if !include(n) {
            continue;
        }
        let shape = if nodes.is_precolored(n) { "box" } else { "ellipse" };
        let _ = writeln!(
            buf,
            "  n{} [label=\"{}\", shape={shape}];",
            n.index(),
            node_label(nodes, n)
        );
    }
}

/// Renders the interference graph (undirected; merged nodes collapse into
/// their representative, removed nodes are skipped).
pub fn ifg_to_dot(ifg: &InterferenceGraph, nodes: &NodeMap) -> String {
    let mut buf = String::from("graph ifg {\n");
    emit_nodes(&mut buf, nodes, |n| !ifg.is_merged(n));
    for i in 0..ifg.num_nodes() {
        let n = NodeId::new(i);
        if ifg.is_merged(n) {
            continue;
        }
        for m in ifg.neighbors(n) {
            if m.index() > i {
                let _ = writeln!(buf, "  n{} -- n{};", i, m.index());
            }
        }
    }
    buf.push_str("}\n");
    buf
}

/// Renders the Register Preference Graph: one directed edge per
/// preference, labeled `kind s=vol/nonvol`.
pub fn rpg_to_dot(rpg: &Rpg, nodes: &NodeMap) -> String {
    let mut buf = String::from("digraph rpg {\n");
    emit_nodes(&mut buf, nodes, |_| true);
    let show = |s: i64| {
        if s == i64::MIN {
            "-inf".to_string()
        } else {
            s.to_string()
        }
    };
    for n in nodes.all_nodes() {
        for p in rpg.prefs(n) {
            let label = format!(
                "{} {}/{}",
                p.kind.label(),
                show(p.strength_vol),
                show(p.strength_nonvol)
            );
            match p.target {
                PrefTarget::Node(m) => {
                    let _ = writeln!(
                        buf,
                        "  n{} -> n{} [label=\"{label}\"];",
                        n.index(),
                        m.index()
                    );
                }
                PrefTarget::Volatile | PrefTarget::NonVolatile | PrefTarget::Set(_) => {
                    // Class targets render as a shared sink node.
                    let sink = match p.target {
                        PrefTarget::Volatile => "volatile".to_string(),
                        PrefTarget::NonVolatile => "nonvolatile".to_string(),
                        PrefTarget::Set(mask) => format!("set_{mask:x}"),
                        PrefTarget::Node(_) => unreachable!(),
                    };
                    let _ = writeln!(
                        buf,
                        "  n{} -> {sink} [label=\"{label}\"];",
                        n.index()
                    );
                }
            }
        }
    }
    buf.push_str("}\n");
    buf
}

/// Renders the Coloring Precedence Graph with its `top`/`bottom`
/// sentinels, transitively reduced as the paper draws it.
pub fn cpg_to_dot(cpg: &Cpg, nodes: &NodeMap) -> String {
    let cpg = cpg.transitive_reduction();
    let mut buf = String::from("digraph cpg {\n");
    buf.push_str("  top [shape=plaintext];\n  bottom [shape=plaintext];\n");
    emit_nodes(&mut buf, nodes, |n| cpg.contains(n));
    for n in cpg.nodes() {
        if cpg.from_top(n) {
            let _ = writeln!(buf, "  top -> n{};", n.index());
        }
        for &s in cpg.succs(n) {
            let _ = writeln!(buf, "  n{} -> n{};", n.index(), s.index());
        }
        if cpg.to_bottom(n) {
            let _ = writeln!(buf, "  n{} -> bottom;", n.index());
        }
    }
    buf.push_str("}\n");
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_ifg, collect_copies};
    use crate::cost::CostModel;
    use crate::pipeline::analyze;
    use crate::rpg::{build_rpg, PreferenceSet};
    use crate::simplify::{simplify, SimplifyMode};
    use pdgc_ir::{BinOp, FunctionBuilder, RegClass};
    use pdgc_target::TargetDesc;

    fn graphs() -> (InterferenceGraph, NodeMap, Rpg, Cpg) {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let x = b.load(p, 0);
        let y = b.load(p, 8);
        let s = b.bin(BinOp::Add, x, y);
        let d = b.copy(s);
        b.ret(Some(d));
        let f = b.finish();
        let target = TargetDesc::toy(4);
        let lowered = crate::lower::lower_abi(&f, &target).unwrap();
        let analyses = analyze(&lowered.func);
        let nodes = NodeMap::build(&lowered.func, &target, RegClass::Int, &lowered.pinned);
        let mut ifg = build_ifg(&lowered.func, &analyses.liveness, &nodes);
        let cost = CostModel::new(&lowered.func, &analyses.costs, &analyses.loops);
        let copies = collect_copies(&lowered.func, &analyses.loops, &nodes);
        let rpg = build_rpg(&lowered.func, &nodes, &cost, &copies, PreferenceSet::full(), &target);
        let costs = vec![1u64; nodes.num_nodes()];
        let sr = simplify(&mut ifg, 4, &costs, SimplifyMode::Optimistic);
        ifg.restore_all();
        let cpg = Cpg::build(&ifg, &sr.stack, &sr.optimistic, 4);
        (ifg, nodes, rpg, cpg)
    }

    #[test]
    fn ifg_dot_is_undirected_and_mentions_members() {
        let (ifg, nodes, _, _) = graphs();
        let dot = ifg_to_dot(&ifg, &nodes);
        assert!(dot.starts_with("graph ifg {"));
        assert!(dot.contains(" -- "), "{dot}");
        assert!(dot.contains('['), "{dot}");
    }

    #[test]
    fn rpg_dot_labels_strengths() {
        let (_, nodes, rpg, _) = graphs();
        let dot = rpg_to_dot(&rpg, &nodes);
        assert!(dot.starts_with("digraph rpg {"));
        assert!(dot.contains("seq+"), "{dot}");
        assert!(dot.contains("coalesce"), "{dot}");
    }

    #[test]
    fn cpg_dot_has_sentinels() {
        let (_, nodes, _, cpg) = graphs();
        let dot = cpg_to_dot(&cpg, &nodes);
        assert!(dot.starts_with("digraph cpg {"));
        assert!(dot.contains("top"), "{dot}");
        assert!(dot.contains("bottom"), "{dot}");
    }
}
