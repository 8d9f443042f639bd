//! Property tests for the analyses, validated against brute-force
//! definitions on random CFGs.

use pdgc_analysis::{Cfg, Dominators, Liveness, Loops, Spl};
use pdgc_ir::{Block, CmpOp, Function, FunctionBuilder, RegClass};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random function with `n` blocks and arbitrary forward/backward
/// branches; every block ends in a jump, a two-way branch, or a return.
fn random_cfg(n: usize, seed: u64) -> Function {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = FunctionBuilder::new("r", vec![RegClass::Int], None);
    let p = b.param(0);
    let blocks: Vec<Block> = std::iter::once(b.current_block())
        .chain((1..n).map(|_| b.create_block()))
        .collect();
    for (i, &blk) in blocks.iter().enumerate() {
        b.switch_to(blk);
        let choice = rng.gen_range(0..10);
        if choice < 2 || i == n - 1 {
            b.ret(None);
        } else if choice < 6 {
            let t = blocks[rng.gen_range(0..n)];
            b.jump(t);
        } else {
            let t = blocks[rng.gen_range(0..n)];
            let e = blocks[rng.gen_range(0..n)];
            b.branch_imm(CmpOp::Gt, p, 0, t, e);
        }
    }
    let f = b.finish();
    assert!(f.verify().is_ok());
    f
}

/// Brute force: `a` dominates `b` iff every entry→b path passes through
/// `a`, i.e. `b` is unreachable from the entry when `a` is removed.
fn dominates_brute(cfg: &Cfg, a: Block, b: Block) -> bool {
    if !cfg.is_reachable(b) {
        return false;
    }
    if a == b {
        return true;
    }
    if b == Block::ENTRY {
        // Only the entry dominates the entry (the empty path reaches it).
        return false;
    }
    let mut seen = vec![false; cfg.num_blocks()];
    let mut stack = vec![Block::ENTRY];
    if Block::ENTRY == a {
        return true; // entry dominates everything reachable
    }
    seen[Block::ENTRY.index()] = true;
    while let Some(x) = stack.pop() {
        for &s in cfg.succs(x) {
            if s == a || seen[s.index()] {
                continue;
            }
            if s == b {
                return false;
            }
            seen[s.index()] = true;
            stack.push(s);
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The CHK dominator tree agrees with the path-based definition.
    #[test]
    fn dominators_match_brute_force(n in 1usize..12, seed in any::<u64>()) {
        let f = random_cfg(n, seed);
        let cfg = Cfg::compute(&f);
        let dom = Dominators::compute(&cfg);
        for a in f.block_ids() {
            for b in f.block_ids() {
                if !cfg.is_reachable(a) || !cfg.is_reachable(b) {
                    continue;
                }
                prop_assert_eq!(
                    dom.dominates(a, b),
                    dominates_brute(&cfg, a, b),
                    "dominates({}, {}) disagrees (seed {})", a, b, seed
                );
            }
        }
    }

    /// Reverse postorder numbers every reachable block exactly once, with
    /// the entry first.
    #[test]
    fn rpo_covers_reachable_blocks(n in 1usize..15, seed in any::<u64>()) {
        let f = random_cfg(n, seed);
        let cfg = Cfg::compute(&f);
        let rpo = cfg.reverse_postorder();
        prop_assert_eq!(rpo[0], Block::ENTRY);
        let reachable = f.block_ids().filter(|&b| cfg.is_reachable(b)).count();
        prop_assert_eq!(rpo.len(), reachable);
        let mut seen = vec![false; f.num_blocks()];
        for &b in rpo {
            prop_assert!(!seen[b.index()], "duplicate {} in RPO", b);
            seen[b.index()] = true;
        }
    }

    /// Loop headers dominate every block of their loop (checked via the
    /// depth map: any block with depth > 0 is dominated by some header).
    #[test]
    fn loop_depth_blocks_dominated_by_a_header(n in 2usize..12, seed in any::<u64>()) {
        let f = random_cfg(n, seed);
        let cfg = Cfg::compute(&f);
        let dom = Dominators::compute(&cfg);
        let loops = Loops::compute(&cfg, &dom);
        for b in f.block_ids() {
            if cfg.is_reachable(b) && loops.depth(b) > 0 {
                prop_assert!(
                    loops.headers().iter().any(|&h| dom.dominates(h, b)),
                    "{} has loop depth but no dominating header (seed {})", b, seed
                );
            }
        }
    }

    /// Linear runs match their definition: a block's run predecessor is
    /// its only reachable predecessor, whose only successor it is; every
    /// block but the entry with such a predecessor joins its run; and each
    /// run has one head.
    #[test]
    fn linear_runs_match_their_definition_on_random_cfgs(n in 1usize..14, seed in any::<u64>()) {
        let f = random_cfg(n, seed);
        let cfg = Cfg::compute(&f);
        let spl = Spl::compute(&cfg);
        let distinct = |bs: &[Block]| {
            let mut v: Vec<Block> = bs.iter().copied().filter(|&b| cfg.is_reachable(b)).collect();
            v.sort_unstable_by_key(|b| b.index());
            v.dedup();
            v
        };
        let mut heads = 0;
        for b in f.block_ids().filter(|&b| cfg.is_reachable(b)) {
            let preds = distinct(cfg.preds(b));
            let chain_pred = match preds[..] {
                [p] if b != Block::ENTRY && distinct(cfg.succs(p)) == [b] => Some(p),
                _ => None,
            };
            prop_assert_eq!(spl.run_pred(b), chain_pred, "run_pred({}) (seed {})", b, seed);
            heads += usize::from(chain_pred.is_none());
        }
        prop_assert_eq!(spl.runs(), heads, "run count (seed {})", seed);
    }

    /// Liveness is a fixpoint of the dataflow equations:
    /// `out[b] = ∪ in[s]`, `in[b] = gen[b] ∪ (out[b] ∖ kill[b])`.
    #[test]
    fn liveness_is_a_fixpoint(n in 1usize..10, seed in any::<u64>()) {
        let f = random_cfg(n, seed);
        let cfg = Cfg::compute(&f);
        let lv = Liveness::compute(&f, &cfg);
        for b in f.block_ids() {
            if !cfg.is_reachable(b) {
                // Unreachable blocks keep empty sets by construction.
                continue;
            }
            // out[b] = union of successors' in-sets.
            let mut out = pdgc_analysis::BitSet::new(f.num_vregs());
            for &s in cfg.succs(b) {
                out.union_with(lv.live_in(s));
            }
            prop_assert_eq!(&out, lv.live_out(b), "out[{}] not a fixpoint", b);
            // in[b] via a backward walk of the block's instructions.
            let mut inn = out;
            for inst in f.block(b).insts.iter().rev() {
                if let Some(d) = inst.def() {
                    inn.remove(d.index());
                }
                inst.visit_uses(|u| {
                    inn.insert(u.index());
                });
            }
            prop_assert_eq!(&inn, lv.live_in(b), "in[{}] not a fixpoint", b);
        }
    }
}
