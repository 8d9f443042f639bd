//! Interference-graph construction.
//!
//! Chaitin semantics: at every definition point, the defined node interferes
//! with everything live *after* the instruction — so operands that die at
//! the instruction do **not** interfere with its result — and a copy's
//! source is exempted (copy-relatedness instead of interference). This is
//! the construction needed to reproduce the paper's Figure 7 interference
//! graph exactly.
//!
//! The walk works a machine word at a time. Each block keeps its live set
//! twice: per vreg (to know what a definition kills) and as a node-indexed
//! row of `u64` words, with a count of the live vregs behind each
//! precolored node (several vregs can be pinned to one register). A
//! definition ORs the row into its node's matrix row, leaving its own bit
//! and — for a copy whose source is live and is the only live vreg behind
//! its node — the source's bit as they were. One closing pass then makes
//! the matrix symmetric and fills the adjacency table row by row (each
//! row in ascending node order) and the degrees from it.

use crate::ifg::{IfgScratch, InterferenceGraph};
use crate::node::{NodeId, NodeMap};
use pdgc_analysis::{BitSet, Liveness, Loops};
use pdgc_arena::VecPool;
use pdgc_ir::{Block, Function, Inst, VReg};
use pdgc_obs::{Counter, MetricsRegistry};

/// Resettable scratch for [`build_ifg_in`] and [`collect_copies_in`].
#[derive(Debug, Default)]
pub struct BuildScratch {
    walk: BitSet,
    row: Vec<u64>,
    pins: Vec<u32>,
    copies: VecPool<CopyRel>,
    ifg_edges: u64,
    row_words: u64,
    nodes: u64,
    matrix_words: u64,
}

impl BuildScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a copy-relatedness vector taken from
    /// [`collect_copies_in`] to the pool.
    pub fn recycle_copies(&mut self, copies: Vec<CopyRel>) {
        self.copies.put(copies);
    }

    /// Moves the work the builds counted since the last flush —
    /// [`Counter::BuildIfgEdges`], [`Counter::BuildRowWords`],
    /// [`Counter::BuildNodes`] and [`Counter::BuildMatrixWords`] — into
    /// `metrics`.
    pub fn flush_counters(&mut self, metrics: &mut MetricsRegistry) {
        metrics.add(Counter::BuildIfgEdges, std::mem::take(&mut self.ifg_edges));
        metrics.add(Counter::BuildRowWords, std::mem::take(&mut self.row_words));
        metrics.add(Counter::BuildNodes, std::mem::take(&mut self.nodes));
        metrics.add(
            Counter::BuildMatrixWords,
            std::mem::take(&mut self.matrix_words),
        );
    }
}

/// The walk's node-indexed live row: one bit per node with a live vreg,
/// and, per precolored node, how many of its vregs are live.
struct LiveRow<'a> {
    row: &'a mut [u64],
    pins: &'a mut [u32],
}

impl LiveRow<'_> {
    fn enter(&mut self, n: NodeId) {
        let i = n.index();
        if let Some(count) = self.pins.get_mut(i) {
            *count += 1;
        }
        self.row[i / 64] |= 1 << (i % 64);
    }

    fn leave(&mut self, n: NodeId) {
        let i = n.index();
        if let Some(count) = self.pins.get_mut(i) {
            *count -= 1;
            if *count > 0 {
                return;
            }
        }
        self.row[i / 64] &= !(1 << (i % 64));
    }

    /// Whether `n` has exactly one live vreg behind it.
    fn single(&self, n: NodeId) -> bool {
        self.pins.get(n.index()).is_none_or(|&count| count == 1)
    }
}

/// A copy-relatedness record: the move `dst = src` at frequency `freq`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CopyRel {
    /// Node of the copy destination.
    pub dst: NodeId,
    /// Node of the copy source.
    pub src: NodeId,
    /// Frequency weight of the move (the benefit of coalescing it).
    pub freq: u64,
    /// Location of the move.
    pub block: Block,
    /// Instruction index within the block.
    pub index: usize,
}

/// Builds the interference graph for one class's node universe.
pub fn build_ifg(
    func: &Function,
    liveness: &Liveness,
    nodes: &NodeMap,
) -> InterferenceGraph {
    build_ifg_in(
        func,
        liveness,
        nodes,
        &mut IfgScratch::default(),
        &mut BuildScratch::default(),
    )
}

/// Like [`build_ifg`], drawing the graph's storage and the construction
/// temporaries from pooled scratch.
pub fn build_ifg_in(
    func: &Function,
    liveness: &Liveness,
    nodes: &NodeMap,
    ifg_scratch: &mut IfgScratch,
    scratch: &mut BuildScratch,
) -> InterferenceGraph {
    let mut g = InterferenceGraph::new_in(nodes.num_nodes(), nodes.num_phys(), ifg_scratch);
    let stride = g.row_words();
    let BuildScratch {
        walk,
        row,
        pins,
        ifg_edges,
        row_words,
        nodes: num_nodes,
        matrix_words,
        ..
    } = scratch;
    *num_nodes += nodes.num_nodes() as u64;
    *matrix_words += (nodes.num_nodes() * stride) as u64;
    let mut live = LiveRow {
        row: reset(row, stride),
        pins: reset(pins, nodes.num_phys()),
    };

    // Values live into the entry block are all defined "at entry"
    // (pre-lowering parameters): make them pairwise interfere.
    let entry_live = || {
        liveness
            .live_in(Block::ENTRY)
            .iter()
            .filter_map(|v| nodes.node_of(VReg::new(v)))
    };
    entry_live().for_each(|n| live.enter(n));
    for n in entry_live() {
        g.or_row(n, live.row, None);
        *row_words += stride as u64;
    }

    for b in func.block_ids() {
        walk.copy_from(liveness.live_out(b));
        live.row.fill(0);
        live.pins.fill(0);
        walk.iter()
            .filter_map(|v| nodes.node_of(VReg::new(v)))
            .for_each(|n| live.enter(n));
        for inst in func.block(b).insts.iter().rev() {
            if let Some(d) = inst.def() {
                if let Some(nd) = nodes.node_of(d) {
                    let exempt = inst
                        .as_copy()
                        .filter(|&(_, s)| walk.contains(s.index()))
                        .and_then(|(_, s)| nodes.node_of(s))
                        .filter(|&ns| live.single(ns));
                    g.or_row(nd, live.row, exempt);
                    *row_words += stride as u64;
                }
                if walk.remove(d.index()) {
                    if let Some(nd) = nodes.node_of(d) {
                        live.leave(nd);
                    }
                }
            }
            inst.visit_uses(|u| {
                if walk.insert(u.index()) {
                    if let Some(nu) = nodes.node_of(u) {
                        live.enter(nu);
                    }
                }
            });
        }
    }
    *ifg_edges += g.close_rows() as u64;
    g
}

/// Clears `buf` to `len` zeros and returns it.
fn reset<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    buf.clear();
    buf.resize(len, T::default());
    buf
}

/// Collects the copy-relatedness pairs of one class: every
/// `Copy { dst, src }` whose endpoints map to *distinct* nodes of this
/// universe, weighted by loop frequency.
pub fn collect_copies(func: &Function, loops: &Loops, nodes: &NodeMap) -> Vec<CopyRel> {
    collect_copies_in(func, loops, nodes, &mut BuildScratch::default())
}

/// Like [`collect_copies`], drawing the result vector from pooled scratch;
/// return it with [`BuildScratch::recycle_copies`] when done.
pub fn collect_copies_in(
    func: &Function,
    loops: &Loops,
    nodes: &NodeMap,
    scratch: &mut BuildScratch,
) -> Vec<CopyRel> {
    let mut out = scratch.copies.take();
    for b in func.block_ids() {
        for (i, inst) in func.block(b).insts.iter().enumerate() {
            if let Inst::Copy { dst, src } = inst {
                let (Some(nd), Some(ns)) = (nodes.node_of(*dst), nodes.node_of(*src)) else {
                    continue;
                };
                if nd != ns {
                    out.push(CopyRel {
                        dst: nd,
                        src: ns,
                        freq: loops.freq(b),
                        block: b,
                        index: i,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgc_analysis::{Cfg, Dominators};
    use pdgc_ir::{BinOp, FunctionBuilder, RegClass};
    use pdgc_target::TargetDesc;

    fn analyze(
        func: &Function,
    ) -> (Cfg, Liveness, Loops, NodeMap) {
        let cfg = Cfg::compute(func);
        let lv = Liveness::compute(func, &cfg);
        let dom = Dominators::compute(&cfg);
        let loops = Loops::compute(&cfg, &dom);
        let pinned = vec![None; func.num_vregs()];
        let nm = NodeMap::build(func, &TargetDesc::toy(4), RegClass::Int, &pinned);
        (cfg, lv, loops, nm)
    }

    #[test]
    fn dying_operand_does_not_interfere_with_def() {
        // x = p + p; y = x + x; x dies at the second add.
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let x = b.bin(BinOp::Add, p, p);
        let y = b.bin(BinOp::Add, x, x);
        b.ret(Some(y));
        let f = b.finish();
        let (_, lv, _, nm) = analyze(&f);
        let g = build_ifg(&f, &lv, &nm);
        let (np, nx, ny) = (
            nm.node_of(p).unwrap(),
            nm.node_of(x).unwrap(),
            nm.node_of(y).unwrap(),
        );
        assert!(!g.interferes(np, nx)); // p dies at x's def
        assert!(!g.interferes(nx, ny)); // x dies at y's def
        assert!(!g.interferes(np, ny));
    }

    #[test]
    fn overlapping_ranges_interfere() {
        // x and p both live across the middle instruction.
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let x = b.bin_imm(BinOp::Add, p, 1);
        let y = b.bin(BinOp::Add, x, p); // p still live here
        b.ret(Some(y));
        let f = b.finish();
        let (_, lv, _, nm) = analyze(&f);
        let g = build_ifg(&f, &lv, &nm);
        assert!(g.interferes(nm.node_of(p).unwrap(), nm.node_of(x).unwrap()));
    }

    #[test]
    fn copy_source_exempted() {
        // c = p; use both later => they do interfere only if both live
        // after; here p dies after the copy-use.
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let c = b.copy(p);
        b.ret(Some(c));
        let f = b.finish();
        let (_, lv, _, nm) = analyze(&f);
        let g = build_ifg(&f, &lv, &nm);
        assert!(!g.interferes(nm.node_of(p).unwrap(), nm.node_of(c).unwrap()));
    }

    #[test]
    fn copy_pair_shares_value_even_when_both_live() {
        // c = p; y = p + c : both are live after the copy but hold the
        // same value, so Chaitin's copy exemption correctly omits the
        // edge — they may share a register (and should coalesce).
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let c = b.copy(p);
        let y = b.bin(BinOp::Add, p, c);
        b.ret(Some(y));
        let f = b.finish();
        let (_, lv, _, nm) = analyze(&f);
        let g = build_ifg(&f, &lv, &nm);
        assert!(!g.interferes(nm.node_of(p).unwrap(), nm.node_of(c).unwrap()));
    }

    #[test]
    fn redefined_copy_source_does_interfere() {
        // c = p; p = c + 1 (redefinition); y = p + c : after p's
        // redefinition the values diverge, so the edge must exist.
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let c = b.copy(p);
        b.emit(pdgc_ir::Inst::BinImm {
            op: BinOp::Add,
            dst: p,
            lhs: c,
            imm: 1,
        });
        let y = b.bin(BinOp::Add, p, c);
        b.ret(Some(y));
        let f = b.finish();
        let (_, lv, _, nm) = analyze(&f);
        let g = build_ifg(&f, &lv, &nm);
        assert!(g.interferes(nm.node_of(p).unwrap(), nm.node_of(c).unwrap()));
    }

    #[test]
    fn copies_collected_with_freq() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let c = b.copy(p);
        b.ret(Some(c));
        let f = b.finish();
        let (_, _, loops, nm) = analyze(&f);
        let copies = collect_copies(&f, &loops, &nm);
        assert_eq!(copies.len(), 1);
        assert_eq!(copies[0].dst, nm.node_of(c).unwrap());
        assert_eq!(copies[0].src, nm.node_of(p).unwrap());
        assert_eq!(copies[0].freq, 1);
    }

    #[test]
    fn entry_liveins_pairwise_interfere() {
        let mut b = FunctionBuilder::new(
            "f",
            vec![RegClass::Int, RegClass::Int],
            Some(RegClass::Int),
        );
        let p = b.param(0);
        let q = b.param(1);
        let y = b.bin(BinOp::Add, p, q);
        b.ret(Some(y));
        let f = b.finish();
        let (_, lv, _, nm) = analyze(&f);
        let g = build_ifg(&f, &lv, &nm);
        assert!(g.interferes(nm.node_of(p).unwrap(), nm.node_of(q).unwrap()));
    }
}
