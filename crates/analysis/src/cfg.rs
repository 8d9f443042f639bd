//! Control-flow graph utilities: predecessor/successor maps and orders.

use pdgc_arena::RowTable;
use pdgc_ir::{Block, Function};

/// Precomputed CFG structure for a function.
#[derive(Clone, Debug, Default)]
pub struct Cfg {
    succs: RowTable<Block>,
    preds: RowTable<Block>,
    rpo: Vec<Block>,
    rpo_index: Vec<usize>,
}

/// Resettable scratch for the per-round control-flow analyses:
/// [`Cfg::compute_in`], [`Dominators::compute_in`](crate::Dominators::compute_in)
/// and [`Loops::compute_in`](crate::Loops::compute_in).
///
/// Holds the tables of a recycled [`Cfg`], `Dominators` and `Loops`, and
/// the walks' work buffers, so recomputing them for a stream of functions
/// makes no steady-state heap allocation.
#[derive(Debug, Default)]
pub struct CfgScratch {
    cfg: Cfg,
    // A recycled `Dominators`' and `Loops`' tables.
    pub(crate) idom: Vec<Option<Block>>,
    pub(crate) depth: Vec<u32>,
    pub(crate) headers: Vec<Block>,
    // Per-block marks: the CFG walk's visited set, then each loop's body.
    pub(crate) marks: Vec<bool>,
    // The loop-body walk's stack and the back edges it starts from.
    pub(crate) blocks: Vec<Block>,
    pub(crate) back_edges: Vec<(Block, Block)>,
    // The CFG walk's depth-first stack.
    dfs: Vec<(Block, usize)>,
}

impl Cfg {
    /// Computes successors, predecessors, and a reverse postorder from the
    /// entry block.
    ///
    /// Blocks unreachable from the entry are excluded from the reverse
    /// postorder (their `rpo_number` is `usize::MAX`) but still appear in
    /// the predecessor/successor maps.
    pub fn compute(func: &Function) -> Self {
        Self::compute_in(func, &mut CfgScratch::default())
    }

    /// Like [`compute`](Self::compute), drawing every table from `scratch`;
    /// return them with [`recycle`](Self::recycle) when done.
    pub fn compute_in(func: &Function, scratch: &mut CfgScratch) -> Self {
        let n = func.num_blocks();
        let mut cfg = std::mem::take(&mut scratch.cfg);
        cfg.succs.reset(n);
        for b in func.block_ids() {
            cfg.succs
                .fill_row(b.index(), func.block(b).terminator().successor_iter());
        }
        // Each block's predecessors in ascending block order, as the
        // successor walk meets them.
        let succs = &cfg.succs;
        cfg.preds.fill_counted(n, || {
            (0..n).flat_map(move |b| succs.row(b).iter().map(move |s| (s.index(), Block::new(b))))
        });
        // Iterative postorder DFS.
        let post = &mut cfg.rpo;
        post.clear();
        let visited = &mut scratch.marks;
        visited.clear();
        visited.resize(n, false);
        let stack = &mut scratch.dfs;
        stack.clear();
        stack.push((Block::ENTRY, 0));
        visited[Block::ENTRY.index()] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if let Some(&s) = cfg.succs.row(b.index()).get(*i) {
                *i += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        cfg.rpo_index.clear();
        cfg.rpo_index.resize(n, usize::MAX);
        for (i, b) in cfg.rpo.iter().enumerate() {
            cfg.rpo_index[b.index()] = i;
        }
        cfg
    }

    /// Returns this CFG's tables to `scratch`.
    pub fn recycle(self, scratch: &mut CfgScratch) {
        scratch.cfg = self;
    }

    /// Successors of `b`.
    pub fn succs(&self, b: Block) -> &[Block] {
        self.succs.row(b.index())
    }

    /// Predecessors of `b`.
    pub fn preds(&self, b: Block) -> &[Block] {
        self.preds.row(b.index())
    }

    /// Blocks in reverse postorder (reachable blocks only).
    pub fn reverse_postorder(&self) -> &[Block] {
        &self.rpo
    }

    /// The reverse-postorder number of `b`, or `usize::MAX` if unreachable.
    pub fn rpo_number(&self, b: Block) -> usize {
        self.rpo_index[b.index()]
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: Block) -> bool {
        self.rpo_index[b.index()] != usize::MAX
    }

    /// Number of blocks in the underlying function.
    pub fn num_blocks(&self) -> usize {
        self.succs.num_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgc_ir::{CmpOp, FunctionBuilder, RegClass};

    /// entry -> header -> (body -> header | exit)
    fn loop_fn() -> pdgc_ir::Function {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let header = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.jump(header);
        b.switch_to(header);
        let z = b.iconst(0);
        b.branch(CmpOp::Ne, p, z, body, exit);
        b.switch_to(body);
        b.jump(header);
        b.switch_to(exit);
        b.ret(Some(p));
        b.finish()
    }

    #[test]
    fn preds_and_succs() {
        let f = loop_fn();
        let cfg = Cfg::compute(&f);
        let header = Block::new(1);
        let body = Block::new(2);
        let exit = Block::new(3);
        assert_eq!(cfg.succs(Block::ENTRY), &[header]);
        assert_eq!(cfg.preds(header), &[Block::ENTRY, body]);
        assert_eq!(cfg.succs(header), &[body, exit]);
        assert_eq!(cfg.preds(exit), &[header]);
    }

    #[test]
    fn rpo_starts_at_entry_and_respects_forward_edges() {
        let f = loop_fn();
        let cfg = Cfg::compute(&f);
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo[0], Block::ENTRY);
        assert!(cfg.rpo_number(Block::new(1)) < cfg.rpo_number(Block::new(2)));
        assert!(cfg.rpo_number(Block::new(1)) < cfg.rpo_number(Block::new(3)));
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn unreachable_block_excluded_from_rpo() {
        let mut b = FunctionBuilder::new("f", vec![], None);
        b.ret(None);
        let dead = b.create_block();
        b.switch_to(dead);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        assert!(!cfg.is_reachable(dead));
        assert_eq!(cfg.reverse_postorder().len(), 1);
    }
}
