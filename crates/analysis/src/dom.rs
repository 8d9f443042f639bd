//! Dominator-tree computation (Cooper–Harvey–Kennedy).

use crate::{Cfg, CfgScratch};
use pdgc_ir::Block;

/// The immediate-dominator tree of a CFG.
#[derive(Clone, Debug)]
pub struct Dominators {
    /// `idom[b]` = immediate dominator of `b`; entry's idom is itself.
    /// `None` for unreachable blocks.
    idom: Vec<Option<Block>>,
}

impl Dominators {
    /// Computes dominators with the Cooper–Harvey–Kennedy iterative
    /// algorithm over reverse postorder.
    pub fn compute(cfg: &Cfg) -> Self {
        Self::compute_in(cfg, &mut CfgScratch::default())
    }

    /// Like [`compute`](Self::compute), drawing the tree from `scratch`;
    /// return it with [`recycle`](Self::recycle) when done.
    pub fn compute_in(cfg: &Cfg, scratch: &mut CfgScratch) -> Self {
        let n = cfg.num_blocks();
        let mut idom = std::mem::take(&mut scratch.idom);
        idom.clear();
        idom.resize(n, None);
        idom[Block::ENTRY.index()] = Some(Block::ENTRY);
        let rpo = cfg.reverse_postorder();
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<Block> = None;
                for &p in cfg.preds(b) {
                    if idom[p.index()].is_none() {
                        continue; // not yet processed / unreachable
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cfg, p, cur),
                    });
                }
                if new_idom != idom[b.index()] {
                    idom[b.index()] = new_idom;
                    changed = true;
                }
            }
        }
        Dominators { idom }
    }

    /// Returns the tree's storage to `scratch`.
    pub fn recycle(self, scratch: &mut CfgScratch) {
        scratch.idom = self.idom;
    }

    /// The immediate dominator of `b` (`None` for the entry and for
    /// unreachable blocks).
    pub fn idom(&self, b: Block) -> Option<Block> {
        let d = self.idom[b.index()]?;
        if d == b {
            None
        } else {
            Some(d)
        }
    }

    /// Whether `a` dominates `b` (reflexively).
    pub fn dominates(&self, a: Block, b: Block) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom(cur) {
                Some(d) => cur = d,
                None => return false,
            }
        }
    }
}

fn intersect(idom: &[Option<Block>], cfg: &Cfg, mut a: Block, mut b: Block) -> Block {
    while a != b {
        while cfg.rpo_number(a) > cfg.rpo_number(b) {
            a = idom[a.index()].expect("processed block has idom");
        }
        while cfg.rpo_number(b) > cfg.rpo_number(a) {
            b = idom[b.index()].expect("processed block has idom");
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgc_ir::{CmpOp, FunctionBuilder, RegClass};

    /// Diamond: 0 -> 1, 2; 1 -> 3; 2 -> 3.
    fn diamond() -> pdgc_ir::Function {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], None);
        let p = b.param(0);
        let l = b.create_block();
        let r = b.create_block();
        let j = b.create_block();
        let z = b.iconst(0);
        b.branch(CmpOp::Eq, p, z, l, r);
        b.switch_to(l);
        b.jump(j);
        b.switch_to(r);
        b.jump(j);
        b.switch_to(j);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn diamond_idoms() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        let dom = Dominators::compute(&cfg);
        assert_eq!(dom.idom(Block::ENTRY), None);
        assert_eq!(dom.idom(Block::new(1)), Some(Block::ENTRY));
        assert_eq!(dom.idom(Block::new(2)), Some(Block::ENTRY));
        // Join is dominated by entry, not by either arm.
        assert_eq!(dom.idom(Block::new(3)), Some(Block::ENTRY));
        assert!(dom.dominates(Block::ENTRY, Block::new(3)));
        assert!(!dom.dominates(Block::new(1), Block::new(3)));
        assert!(dom.dominates(Block::new(3), Block::new(3)));
    }

    #[test]
    fn chain_idoms() {
        let mut b = FunctionBuilder::new("f", vec![], None);
        let b1 = b.create_block();
        let b2 = b.create_block();
        b.jump(b1);
        b.switch_to(b1);
        b.jump(b2);
        b.switch_to(b2);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let dom = Dominators::compute(&cfg);
        assert_eq!(dom.idom(b1), Some(Block::ENTRY));
        assert_eq!(dom.idom(b2), Some(b1));
        assert!(dom.dominates(b1, b2));
        assert!(!dom.dominates(b2, b1));
    }
}
