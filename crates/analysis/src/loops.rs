//! Natural-loop detection and execution-frequency estimation.
//!
//! The paper's Appendix weights every cost by `Freq_Fact(I)`, "obtained by
//! loop analysis": instructions outside loops get weight 1, and each level
//! of loop nesting multiplies the weight by 10 (the Figure 7 example uses
//! exactly `Freq_Fact = 10` inside the single loop). [`Loops`] reproduces
//! that estimate from natural-loop structure.

use crate::{Cfg, CfgScratch, Dominators};
use pdgc_ir::Block;

/// The per-nesting-level frequency multiplier from the paper's Appendix.
pub const DEFAULT_LOOP_FREQ_FACTOR: u64 = 10;

/// Natural loops and per-block loop depth / frequency estimates.
#[derive(Clone, Debug)]
pub struct Loops {
    depth: Vec<u32>,
    headers: Vec<Block>,
    freq_factor: u64,
}

impl Loops {
    /// Detects natural loops (back edges `t -> h` where `h` dominates `t`)
    /// and computes each block's nesting depth, using the paper's default
    /// frequency factor of 10 per level.
    pub fn compute(cfg: &Cfg, dom: &Dominators) -> Self {
        Self::compute_with_factor(cfg, dom, DEFAULT_LOOP_FREQ_FACTOR)
    }

    /// As [`compute`](Self::compute) with a custom per-level factor.
    pub fn compute_with_factor(cfg: &Cfg, dom: &Dominators, freq_factor: u64) -> Self {
        Self::compute_in(cfg, dom, freq_factor, &mut CfgScratch::default())
    }

    /// As [`compute_with_factor`](Self::compute_with_factor), drawing every
    /// buffer from `scratch`; return the result's tables with
    /// [`recycle`](Self::recycle) when done.
    pub fn compute_in(
        cfg: &Cfg,
        dom: &Dominators,
        freq_factor: u64,
        scratch: &mut CfgScratch,
    ) -> Self {
        let n = cfg.num_blocks();
        let mut depth = std::mem::take(&mut scratch.depth);
        depth.clear();
        depth.resize(n, 0);
        // All back edges t -> h (h dominates t), grouped by header below.
        // A header with several latches (e.g. a loop with a `continue`) is
        // ONE natural loop — the union of the per-latch bodies — not a
        // nest, so depth increments once per header, not once per edge.
        let back_edges = &mut scratch.back_edges;
        back_edges.clear();
        for b in (0..n).map(Block::new) {
            if !cfg.is_reachable(b) {
                continue;
            }
            for &s in cfg.succs(b) {
                if dom.dominates(s, b) {
                    back_edges.push((s, b));
                }
            }
        }
        back_edges.sort_unstable_by_key(|&(h, t)| (h.index(), t.index()));
        // The headers, ascending: the sorted edges' distinct heads.
        let mut headers = std::mem::take(&mut scratch.headers);
        headers.clear();
        headers.extend(back_edges.iter().map(|&(h, _)| h));
        headers.dedup();
        let in_loop = &mut scratch.marks;
        let stack = &mut scratch.blocks;
        stack.clear();
        let mut edge = 0;
        for &h in &headers {
            // The natural loop of h: h plus every block that reaches one
            // of h's latches without passing through h.
            in_loop.clear();
            in_loop.resize(n, false);
            in_loop[h.index()] = true;
            while edge < back_edges.len() && back_edges[edge].0 == h {
                let t = back_edges[edge].1;
                if !in_loop[t.index()] {
                    in_loop[t.index()] = true;
                    stack.push(t);
                }
                edge += 1;
            }
            while let Some(x) = stack.pop() {
                for &p in cfg.preds(x) {
                    if !in_loop[p.index()] {
                        in_loop[p.index()] = true;
                        stack.push(p);
                    }
                }
            }
            for (i, &inl) in in_loop.iter().enumerate() {
                if inl {
                    depth[i] += 1;
                }
            }
        }
        Loops {
            depth,
            headers,
            freq_factor,
        }
    }

    /// Returns the depth and header tables to `scratch`.
    pub fn recycle(self, scratch: &mut CfgScratch) {
        scratch.depth = self.depth;
        scratch.headers = self.headers;
    }

    /// The loop-nesting depth of `b` (0 = not in a loop).
    ///
    /// A block inside several distinct natural loops (distinct headers)
    /// counts each of them, so irreducible regions may report
    /// conservative (higher) depths. Back edges sharing a header are one
    /// loop and count once.
    pub fn depth(&self, b: Block) -> u32 {
        self.depth[b.index()]
    }

    /// The paper's `Freq_Fact` for instructions in `b`: `factor^depth`,
    /// saturating. Depth is capped at 9 levels to keep weights finite.
    pub fn freq(&self, b: Block) -> u64 {
        let d = self.depth[b.index()].min(9);
        self.freq_factor.saturating_pow(d)
    }

    /// The detected loop headers (one entry per natural loop header).
    pub fn headers(&self) -> &[Block] {
        &self.headers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgc_ir::{CmpOp, FunctionBuilder, RegClass};

    /// entry -> h1 -> h2 -> body -> h2 | h1-exit ...
    /// Builds a doubly nested loop.
    fn nested_loops() -> pdgc_ir::Function {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], None);
        let p = b.param(0);
        let h1 = b.create_block();
        let h2 = b.create_block();
        let body = b.create_block();
        let latch1 = b.create_block();
        let exit = b.create_block();
        let z = b.iconst(0);
        b.jump(h1);
        b.switch_to(h1);
        b.branch(CmpOp::Ne, p, z, h2, exit);
        b.switch_to(h2);
        b.branch(CmpOp::Ne, p, z, body, latch1);
        b.switch_to(body);
        b.jump(h2); // back edge of inner loop
        b.switch_to(latch1);
        b.jump(h1); // back edge of outer loop
        b.switch_to(exit);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn nesting_depths() {
        let f = nested_loops();
        let cfg = Cfg::compute(&f);
        let dom = Dominators::compute(&cfg);
        let loops = Loops::compute(&cfg, &dom);
        assert_eq!(loops.depth(Block::ENTRY), 0);
        assert_eq!(loops.depth(Block::new(1)), 1); // h1
        assert_eq!(loops.depth(Block::new(2)), 2); // h2
        assert_eq!(loops.depth(Block::new(3)), 2); // body
        assert_eq!(loops.depth(Block::new(4)), 1); // latch1
        assert_eq!(loops.depth(Block::new(5)), 0); // exit
        assert_eq!(loops.freq(Block::new(3)), 100);
        assert_eq!(loops.freq(Block::new(5)), 1);
        assert_eq!(loops.headers().len(), 2);
    }

    /// A `while` loop whose body `continue`s from one arm: two latches
    /// (body1 -> h and body2 -> h) share the header `h`. This is ONE loop;
    /// the old per-back-edge counting reported depth 2 / freq 100 for the
    /// header and the continuing arm as if they were nested.
    #[test]
    fn two_latch_continue_loop_counts_once() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], None);
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
        b.branch(CmpOp::Gt, p, z, h, body2); // `continue` latch
        b.switch_to(body2);
        b.jump(h); // normal latch
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let dom = Dominators::compute(&cfg);
        let loops = Loops::compute(&cfg, &dom);
        assert_eq!(loops.headers(), &[h], "one loop, one header");
        assert_eq!(loops.depth(h), 1);
        assert_eq!(loops.depth(body1), 1);
        assert_eq!(loops.depth(body2), 1);
        assert_eq!(loops.depth(exit), 0);
        assert_eq!(loops.freq(h), 10, "two latches are not two nested loops");
        assert_eq!(loops.freq(body1), 10);
    }

    #[test]
    fn headers_are_sorted_and_deduped() {
        let f = nested_loops();
        let cfg = Cfg::compute(&f);
        let dom = Dominators::compute(&cfg);
        let loops = Loops::compute(&cfg, &dom);
        assert_eq!(loops.headers(), &[Block::new(1), Block::new(2)]);
    }

    #[test]
    fn straight_line_has_no_loops() {
        let mut b = FunctionBuilder::new("f", vec![], None);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let dom = Dominators::compute(&cfg);
        let loops = Loops::compute(&cfg, &dom);
        assert_eq!(loops.depth(Block::ENTRY), 0);
        assert_eq!(loops.freq(Block::ENTRY), 1);
        assert!(loops.headers().is_empty());
    }

    #[test]
    fn custom_factor() {
        let f = nested_loops();
        let cfg = Cfg::compute(&f);
        let dom = Dominators::compute(&cfg);
        let loops = Loops::compute_with_factor(&cfg, &dom, 2);
        assert_eq!(loops.freq(Block::new(3)), 4);
    }

    #[test]
    fn deep_nesting_saturates_not_panics() {
        // Manually fake a very deep nest by chaining self-loops is hard;
        // instead check the cap arithmetic directly.
        let f = nested_loops();
        let cfg = Cfg::compute(&f);
        let dom = Dominators::compute(&cfg);
        let mut loops = Loops::compute(&cfg, &dom);
        loops.depth[1] = 40;
        assert_eq!(loops.freq(Block::new(1)), 10u64.pow(9));
    }
}
