//! Series-parallel-loop (SPL) shape recognition of the CFG, and the linear
//! runs reload forwarding travels along.
//!
//! Most compiler-generated CFGs are *structured*: they collapse into one
//! region under a small grammar of series regions (straight-line chains),
//! parallel regions (if-then / if-then-else diamonds), and loop regions
//! (while-shaped and self-loops). [`Spl::compute`] runs that collapse;
//! anything the grammar cannot express — irreducible cycles, branch arms
//! that never rejoin, multi-exit shapes — makes [`Spl::is_spl`] report
//! `false`.
//!
//! The decomposition also exposes *linear runs* — maximal chains of blocks
//! where each link is the predecessor's only exit and the successor's only
//! entry — which the spill-code inserter uses to forward reloaded values
//! across block boundaries instead of reloading per use. On an SPL-shaped
//! CFG a run executes as straight-line code, so [`Spl::run_pred`] is a
//! proof that a value available at the end of one block is still in its
//! temporary at the start of the next.

use crate::Cfg;
use pdgc_arena::{NestedPool, VecPool};
use pdgc_ir::Block;

/// Sentinel for "no node / no run".
const NONE: u32 = u32::MAX;

/// Resettable pools for [`Spl::compute_in`], so SPL detection on a stream
/// of functions performs no steady-state heap allocation.
#[derive(Debug, Default)]
pub struct SplScratch {
    adj: NestedPool<u32>,
    nums: VecPool<u32>,
    flags: VecPool<bool>,
}

impl SplScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The outcome of the SPL collapse over a CFG, and its linear runs.
#[derive(Clone, Debug)]
pub struct Spl {
    /// The unique in-run predecessor block per block (`NONE` at run heads).
    run_pred: Vec<u32>,
    num_runs: u32,
    /// Whether the CFG fully collapsed into one region.
    is_spl: bool,
    regions: u32,
    loop_regions: u32,
}

/// Mutable state of the collapse; split out so the pattern matcher can
/// borrow it whole.
///
/// Nodes `0..num_blocks` are the basic blocks; each collapse appends one
/// composite node that replaces its members.
struct Builder<'a> {
    alive: Vec<bool>,
    succs: Vec<Vec<u32>>,
    preds: Vec<Vec<u32>>,
    work: Vec<u32>,
    on_work: Vec<bool>,
    adj: &'a mut NestedPool<u32>,
    live_nodes: usize,
    regions: u32,
    loop_regions: u32,
}

impl Builder<'_> {
    fn push_work(&mut self, x: u32) {
        if !self.on_work[x as usize] {
            self.on_work[x as usize] = true;
            self.work.push(x);
        }
    }

    /// Replaces `members` (in schema role order, entry first) with one new
    /// region node, rewiring external edges onto it.
    fn collapse(&mut self, members: &[u32], is_loop: bool) {
        let id = self.alive.len() as u32;
        self.regions += 1;
        if is_loop {
            self.loop_regions += 1;
        }
        self.alive.push(true);
        self.on_work.push(false);
        // External edges of the merged set; internal ones (including any
        // back edge onto the entry) disappear into the region.
        let mut ns = self.adj.take_inner();
        let mut np = self.adj.take_inner();
        for &m in members {
            for &s in &self.succs[m as usize] {
                if !members.contains(&s) && !ns.contains(&s) {
                    ns.push(s);
                }
            }
            for &p in &self.preds[m as usize] {
                if !members.contains(&p) && !np.contains(&p) {
                    np.push(p);
                }
            }
            self.alive[m as usize] = false;
        }
        self.live_nodes -= members.len();
        self.live_nodes += 1;
        for &s in &ns {
            let pl = &mut self.preds[s as usize];
            pl.retain(|p| !members.contains(p));
            pl.push(id);
        }
        for &p in &np {
            let sl = &mut self.succs[p as usize];
            sl.retain(|s| !members.contains(s));
            sl.push(id);
        }
        self.succs.push(ns);
        self.preds.push(np);
        self.push_work(id);
    }

    /// Tries every schema with `x` as the pivot (the region entry).
    /// Returns whether a collapse happened.
    fn try_reduce_at(&mut self, x: u32) -> bool {
        let xi = x as usize;
        if !self.alive[xi] {
            return false;
        }
        // Self-loop: an edge from x back onto itself.
        if self.succs[xi].contains(&x) {
            self.collapse(&[x], true);
            return true;
        }
        // While: x is the header, some successor is a body whose only
        // neighbor (both directions) is x.
        for i in 0..self.succs[xi].len() {
            let b = self.succs[xi][i];
            if b != x && self.succs[b as usize] == [x] && self.preds[b as usize] == [x] {
                self.collapse(&[x, b], true);
                return true;
            }
        }
        // Diamonds: x branches two ways.
        if self.succs[xi].len() == 2 {
            let (s0, s1) = (self.succs[xi][0], self.succs[xi][1]);
            for (t, e) in [(s0, s1), (s1, s0)] {
                if t == x || e == x {
                    continue;
                }
                let ti = t as usize;
                if self.preds[ti] != [x] || self.succs[ti].len() != 1 {
                    continue;
                }
                let j = self.succs[ti][0];
                if j == x || j == t {
                    continue;
                }
                if j == e {
                    // The arm rejoins x's fall-through edge: if-then.
                    self.collapse(&[x, t], false);
                    return true;
                }
                let ei = e as usize;
                if self.preds[ei] == [x] && self.succs[ei] == [j] {
                    // Both arms rejoin at j: if-then-else.
                    self.collapse(&[x, t, e], false);
                    return true;
                }
            }
        }
        // Series: x's single exit is its successor's single entry. A
        // return edge b → x is NOT part of the schema (that cycle must
        // collapse as a loop or not at all), so it blocks the merge —
        // collapsing anyway would silently drop the back edge.
        if self.succs[xi].len() == 1 {
            let b = self.succs[xi][0];
            if b != x && self.preds[b as usize] == [x] && !self.succs[b as usize].contains(&x) {
                self.collapse(&[x, b], false);
                return true;
            }
        }
        false
    }
}

impl Spl {
    /// Detects SPL shape with throwaway scratch. Prefer
    /// [`Spl::compute_in`] on hot paths.
    pub fn compute(cfg: &Cfg) -> Self {
        Self::compute_in(cfg, &mut SplScratch::default())
    }

    /// Runs the collapse over `cfg`'s reachable subgraph, drawing every
    /// buffer from `scratch`.
    pub fn compute_in(cfg: &Cfg, scratch: &mut SplScratch) -> Self {
        let nb = cfg.num_blocks();
        let mut alive = scratch.flags.take();
        alive.resize(nb, false);
        let mut succs = scratch.adj.take(nb);
        let mut preds = scratch.adj.take(nb);

        // Deduplicated adjacency over reachable blocks only: a branch with
        // both targets equal is one edge for region purposes, and edges
        // touching unreachable code never execute. Successors of a
        // reachable block are reachable, so only the source needs a check.
        let mut live_nodes = 0usize;
        for i in 0..nb {
            let b = Block::new(i);
            if !cfg.is_reachable(b) {
                continue;
            }
            alive[i] = true;
            live_nodes += 1;
            for &s in cfg.succs(b) {
                let si = s.index() as u32;
                if !succs[i].contains(&si) {
                    succs[i].push(si);
                    preds[s.index()].push(i as u32);
                }
            }
        }

        // Linear runs: maximal chains where each edge is the source's only
        // exit and the sink's only entry. RPO guarantees a chain head is
        // seen before its tail (a chain edge cannot be a back edge unless
        // the head is still unplaced, which breaks the chain).
        let mut placed = scratch.flags.take();
        placed.resize(nb, false);
        let mut run_pred = scratch.nums.take();
        run_pred.resize(nb, NONE);
        let mut num_runs = 0u32;
        for &b in cfg.reverse_postorder() {
            let i = b.index();
            let joined = preds[i].len() == 1 && {
                let p = preds[i][0] as usize;
                succs[p].len() == 1 && placed[p]
            };
            if joined {
                run_pred[i] = preds[i][0];
            } else {
                num_runs += 1;
            }
            placed[i] = true;
        }
        scratch.flags.put(placed);

        let work = scratch.nums.take();
        let mut on_work = scratch.flags.take();
        on_work.resize(nb, false);
        let mut st = Builder {
            alive,
            succs,
            preds,
            work,
            on_work,
            adj: &mut scratch.adj,
            live_nodes,
            regions: 0,
            loop_regions: 0,
        };
        for i in (0..nb).rev() {
            if st.alive[i] {
                st.push_work(i as u32);
            }
        }
        while let Some(x) = st.work.pop() {
            st.on_work[x as usize] = false;
            if !st.alive[x as usize] {
                continue;
            }
            if st.try_reduce_at(x) {
                continue;
            }
            // Every non-pivot role in every schema has the pivot as its
            // unique predecessor, so one hop covers patterns this node
            // participates in without being their entry.
            if st.preds[x as usize].len() == 1 {
                let p = st.preds[x as usize][0];
                if p != x && st.alive[p as usize] {
                    st.try_reduce_at(p);
                }
            }
        }

        let is_spl = st.live_nodes == 1;
        if is_spl {
            let r = st.alive.iter().position(|&a| a).expect("one live node");
            debug_assert!(st.succs[r].is_empty() && st.preds[r].is_empty());
        }
        let (regions, loop_regions) = (st.regions, st.loop_regions);

        // Dismantle the builder, returning every buffer but the runs.
        let Builder {
            alive,
            succs,
            preds,
            work,
            on_work,
            ..
        } = st;
        scratch.adj.put(succs);
        scratch.adj.put(preds);
        scratch.flags.put(alive);
        scratch.flags.put(on_work);
        scratch.nums.put(work);

        Spl {
            run_pred,
            num_runs,
            is_spl,
            regions,
            loop_regions,
        }
    }

    /// Returns the run buffer to `scratch` for reuse.
    pub fn recycle(self, scratch: &mut SplScratch) {
        scratch.nums.put(self.run_pred);
    }

    /// Whether the CFG fully collapsed into one SPL region.
    pub fn is_spl(&self) -> bool {
        self.is_spl
    }

    /// Number of composite regions built (0 when nothing collapsed).
    pub fn regions(&self) -> usize {
        self.regions as usize
    }

    /// Number of loop regions (while-shaped plus self-loops).
    pub fn loop_regions(&self) -> usize {
        self.loop_regions as usize
    }

    /// Number of linear runs over the reachable blocks.
    pub fn runs(&self) -> usize {
        self.num_runs as usize
    }

    /// The unique in-run predecessor of `b`: the block whose only exit
    /// falls through into `b`, `b`'s only entry. `None` at run heads.
    ///
    /// Only meaningful for spill forwarding when [`Spl::is_spl`] holds —
    /// the collapse is what proves a run executes as straight line.
    pub fn run_pred(&self, b: Block) -> Option<Block> {
        match self.run_pred[b.index()] {
            NONE => None,
            p => Some(Block::new(p as usize)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgc_ir::{BinOp, CmpOp, Function, FunctionBuilder, RegClass};

    /// entry → diamond → while loop → exit, with values flowing across.
    fn structured_function() -> Function {
        let mut b = FunctionBuilder::new("s", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let t = b.create_block();
        let e = b.create_block();
        let j = b.create_block();
        let h = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        let z = b.iconst(0);
        b.branch(CmpOp::Gt, p, z, t, e);
        b.switch_to(t);
        let x1 = b.bin_imm(BinOp::Add, p, 1);
        b.store(x1, p, 0);
        b.jump(j);
        b.switch_to(e);
        let x2 = b.bin_imm(BinOp::Mul, p, 2);
        b.store(x2, p, 8);
        b.jump(j);
        b.switch_to(j);
        b.jump(h);
        b.switch_to(h);
        b.branch(CmpOp::Ne, p, z, body, exit);
        b.switch_to(body);
        let y = b.bin_imm(BinOp::Sub, p, 1);
        b.store(y, p, 16);
        b.jump(h);
        b.switch_to(exit);
        b.ret(Some(p));
        b.finish()
    }

    #[test]
    fn structured_function_collapses() {
        let f = structured_function();
        let cfg = Cfg::compute(&f);
        let spl = Spl::compute(&cfg);
        assert!(spl.is_spl());
        assert!(spl.loop_regions() >= 1);
        assert!(spl.regions() >= 4);
    }

    #[test]
    fn two_latch_continue_loop_is_spl() {
        let mut b = FunctionBuilder::new("c", vec![RegClass::Int], None);
        let p = b.param(0);
        let h = b.create_block();
        let body1 = b.create_block();
        let body2 = b.create_block();
        let exit = b.create_block();
        let z = b.iconst(0);
        b.jump(h);
        b.switch_to(h);
        b.branch(CmpOp::Ne, p, z, body1, exit);
        b.switch_to(body1);
        b.branch(CmpOp::Gt, p, z, h, body2);
        b.switch_to(body2);
        b.jump(h);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let spl = Spl::compute(&cfg);
        assert!(spl.is_spl(), "continue-shaped loops are SPL");
        // The `continue` arm folds into the body as an if-then, so both
        // latches close one loop region.
        assert_eq!(spl.loop_regions(), 1);
    }

    #[test]
    fn self_loop_block_is_spl() {
        let mut b = FunctionBuilder::new("l", vec![RegClass::Int], None);
        let p = b.param(0);
        let h = b.create_block();
        let exit = b.create_block();
        let z = b.iconst(0);
        b.jump(h);
        b.switch_to(h);
        b.branch(CmpOp::Ne, p, z, h, exit);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let spl = Spl::compute(&cfg);
        assert!(spl.is_spl());
        assert_eq!(spl.loop_regions(), 1);
    }

    #[test]
    fn irreducible_cfg_falls_back() {
        // entry branches into a two-block cycle with two entry points:
        // no natural loop, no SPL decomposition.
        let mut bld = FunctionBuilder::new("irr", vec![RegClass::Int], None);
        let p = bld.param(0);
        let a = bld.create_block();
        let b = bld.create_block();
        let exit = bld.create_block();
        let z = bld.iconst(0);
        bld.branch(CmpOp::Gt, p, z, a, b);
        bld.switch_to(a);
        bld.jump(b);
        bld.switch_to(b);
        bld.branch(CmpOp::Ne, p, z, a, exit);
        bld.switch_to(exit);
        bld.ret(None);
        let f = bld.finish();
        let cfg = Cfg::compute(&f);
        let spl = Spl::compute(&cfg);
        assert!(!spl.is_spl(), "irreducible cycles must not collapse");
    }

    #[test]
    fn multi_exit_falls_back() {
        // A branch whose arms both return: no rejoin, not SPL.
        let mut bld = FunctionBuilder::new("mx", vec![RegClass::Int], Some(RegClass::Int));
        let p = bld.param(0);
        let t = bld.create_block();
        let e = bld.create_block();
        let z = bld.iconst(0);
        bld.branch(CmpOp::Gt, p, z, t, e);
        bld.switch_to(t);
        bld.ret(Some(p));
        bld.switch_to(e);
        bld.ret(Some(z));
        let f = bld.finish();
        let cfg = Cfg::compute(&f);
        let spl = Spl::compute(&cfg);
        assert!(!spl.is_spl());
    }

    #[test]
    fn linear_runs_chain_straight_line_blocks() {
        let mut b = FunctionBuilder::new("runs", vec![RegClass::Int], None);
        let p = b.param(0);
        let m1 = b.create_block();
        let m2 = b.create_block();
        let t = b.create_block();
        let e = b.create_block();
        let j = b.create_block();
        let z = b.iconst(0);
        b.jump(m1);
        b.switch_to(m1);
        b.jump(m2);
        b.switch_to(m2);
        b.branch(CmpOp::Gt, p, z, t, e);
        b.switch_to(t);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let spl = Spl::compute(&cfg);
        assert!(spl.is_spl());
        // entry→m1→m2 is one run; t, e, j each start their own.
        assert_eq!(spl.run_pred(m1), Some(Block::ENTRY));
        assert_eq!(spl.run_pred(m2), Some(m1));
        assert_eq!(spl.run_pred(t), None, "branch target starts a run");
        assert_eq!(spl.run_pred(j), None, "join starts a run");
        assert_eq!(spl.runs(), 4);
    }

    #[test]
    fn scratch_reuse_is_identical_and_pooled() {
        let f = structured_function();
        let cfg = Cfg::compute(&f);
        let mut scratch = SplScratch::new();
        let fresh = Spl::compute(&cfg);
        for _ in 0..3 {
            let spl = Spl::compute_in(&cfg, &mut scratch);
            assert_eq!(spl.is_spl(), fresh.is_spl());
            assert_eq!(spl.regions(), fresh.regions());
            assert_eq!(spl.loop_regions(), fresh.loop_regions());
            assert_eq!(spl.runs(), fresh.runs());
            for blk in f.block_ids() {
                assert_eq!(spl.run_pred(blk), fresh.run_pred(blk));
            }
            spl.recycle(&mut scratch);
        }
    }
}
