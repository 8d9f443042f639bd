//! Iterative backward liveness analysis.

use crate::{BitSet, Cfg, CfgScratch, Loops, SplScratch};
use pdgc_arena::{RowTable, VecPool};
use pdgc_ir::{Block, Function, Inst, VReg};

/// Resettable scratch for [`Liveness::compute_in`] and
/// [`Liveness::call_crossings_in`].
///
/// Holds the gen/kill/live-in/live-out set carcasses, the traversal order
/// buffer, and the per-block fixpoint temporaries, so recomputing liveness
/// for a stream of functions performs no steady-state heap allocation once
/// the scratch has grown to the largest function seen. Recycle a finished
/// [`Liveness`] with [`Liveness::recycle`] to keep its sets in the pool.
/// Also carries the [`CfgScratch`] pools for the CFG, dominator and loop
/// analyses and the [`SplScratch`] pools for SPL shape detection, so one
/// scratch covers the whole analysis phase.
#[derive(Debug, Default)]
pub struct LivenessScratch {
    /// Pooled `Vec<BitSet>` carcasses (gen/kill/live-in/live-out shaped).
    sets: Vec<Vec<BitSet>>,
    order: Vec<Block>,
    out_tmp: BitSet,
    in_tmp: BitSet,
    walk_tmp: BitSet,
    crossings: RowTable<(Block, usize)>,
    /// The walk's call sites, each with the end of its run in `crossers`.
    calls: Vec<((Block, usize), usize)>,
    /// The vregs live across each call of `calls`, call after call.
    crossers: Vec<u32>,
    /// Pool for the allocator's per-vreg cost table, summed in the same
    /// analysis pass (`pdgc_core::cost::CostTable`).
    pub costs: VecPool<u64>,
    /// Pools for [`crate::Spl`] detection.
    pub spl: SplScratch,
    /// Pools for [`Cfg`], [`crate::Dominators`] and [`Loops`].
    pub cfg: CfgScratch,
}

impl LivenessScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a pooled set vector with at least `nb` sets of capacity `nv`,
    /// all cleared. Extra sets beyond `nb` are kept (cleared, allocations
    /// intact) rather than dropped: the pool serves functions of every
    /// block count, and truncating on every size change would re-allocate
    /// the difference each round.
    pub(crate) fn take_sets(&mut self, nb: usize, nv: usize) -> Vec<BitSet> {
        let mut v = self.sets.pop().unwrap_or_default();
        for s in &mut v {
            s.reset(nv);
        }
        while v.len() < nb {
            v.push(BitSet::new(nv));
        }
        v
    }

    /// Returns a set vector to the pool, allocations intact.
    pub(crate) fn put_sets(&mut self, v: Vec<BitSet>) {
        self.sets.push(v);
    }

    /// Number of pooled set vectors (diagnostic; used by reuse tests).
    pub fn pooled_sets(&self) -> usize {
        self.sets.len()
    }
}

/// Block-level live-in/live-out sets with per-instruction queries.
///
/// Computed by a standard backward iterative fixpoint over the CFG.
/// Requires φ-functions to be lowered first (the allocator pipeline always
/// lowers them before analysis).
#[derive(Clone, Debug)]
pub struct Liveness {
    live_in: Vec<BitSet>,
    live_out: Vec<BitSet>,
    num_vregs: usize,
}

impl Liveness {
    /// Runs the fixpoint.
    ///
    /// # Panics
    ///
    /// Panics if the function still contains φ-functions.
    pub fn compute(func: &Function, cfg: &Cfg) -> Self {
        Self::compute_in(func, cfg, &mut LivenessScratch::default())
    }

    /// Runs the fixpoint using (and refilling) pooled scratch buffers.
    ///
    /// Identical results to [`Liveness::compute`]; the only difference is
    /// where the sets' storage comes from. Pass the [`Liveness`] back via
    /// [`Liveness::recycle`] when done to keep its allocations pooled.
    pub fn compute_in(func: &Function, cfg: &Cfg, scratch: &mut LivenessScratch) -> Self {
        let nb = func.num_blocks();
        let nv = func.num_vregs();
        let mut gen = scratch.take_sets(nb, nv);
        let mut kill = scratch.take_sets(nb, nv);
        fill_gen_kill(func, &mut gen, &mut kill);
        let mut live_in = scratch.take_sets(nb, nv);
        let mut live_out = scratch.take_sets(nb, nv);
        // Iterate in postorder (reverse of RPO) for fast convergence.
        scratch.order.clear();
        scratch
            .order
            .extend(cfg.reverse_postorder().iter().rev().copied());
        let out = &mut scratch.out_tmp;
        let inn = &mut scratch.in_tmp;
        out.reset(nv);
        inn.reset(nv);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &scratch.order {
                out.clear();
                for &s in cfg.succs(b) {
                    out.union_with(&live_in[s.index()]);
                }
                inn.copy_from(out);
                inn.subtract(&kill[b.index()]);
                inn.union_with(&gen[b.index()]);
                if *out != live_out[b.index()] {
                    live_out[b.index()].copy_from(out);
                    changed = true;
                }
                if *inn != live_in[b.index()] {
                    live_in[b.index()].copy_from(inn);
                    changed = true;
                }
            }
        }
        scratch.put_sets(gen);
        scratch.put_sets(kill);
        Liveness {
            live_in,
            live_out,
            num_vregs: nv,
        }
    }

    /// Returns this analysis's set storage to `scratch` for reuse.
    pub fn recycle(self, scratch: &mut LivenessScratch) {
        scratch.put_sets(self.live_in);
        scratch.put_sets(self.live_out);
    }

    /// Registers live at entry to `b`.
    pub fn live_in(&self, b: Block) -> &BitSet {
        &self.live_in[b.index()]
    }

    /// Registers live at exit of `b`.
    pub fn live_out(&self, b: Block) -> &BitSet {
        &self.live_out[b.index()]
    }

    /// Number of virtual registers the analysis covers.
    pub fn num_vregs(&self) -> usize {
        self.num_vregs
    }

    /// Walks `b`'s instructions backward, invoking `f(index, inst, live_after)`
    /// where `live_after` holds the registers live immediately *after* the
    /// instruction executes.
    pub fn for_each_inst_backward(
        &self,
        func: &Function,
        b: Block,
        f: impl FnMut(usize, &Inst, &BitSet),
    ) {
        let mut live = BitSet::default();
        self.for_each_inst_backward_in(func, b, &mut live, f);
    }

    /// Like [`Liveness::for_each_inst_backward`], but reuses `live` as the
    /// running set instead of cloning `live_out` per call. `live` is reset
    /// on entry; its previous contents are irrelevant.
    pub fn for_each_inst_backward_in(
        &self,
        func: &Function,
        b: Block,
        live: &mut BitSet,
        mut f: impl FnMut(usize, &Inst, &BitSet),
    ) {
        live.copy_from(&self.live_out[b.index()]);
        for (i, inst) in func.block(b).insts.iter().enumerate().rev() {
            f(i, inst, live);
            if let Some(d) = inst.def() {
                live.remove(d.index());
            }
            inst.visit_uses(|u| {
                live.insert(u.index());
            });
        }
    }

    /// Computes, for every virtual register, the call sites it is live
    /// across (live after the call and not defined by it).
    pub fn call_crossings(&self, func: &Function) -> CallCrossing {
        self.call_crossings_in(func, &mut LivenessScratch::default())
    }

    /// Scratch-backed variant of [`Liveness::call_crossings`]; recycle the
    /// result with [`CallCrossing::recycle`].
    pub fn call_crossings_in(&self, func: &Function, scratch: &mut LivenessScratch) -> CallCrossing {
        let LivenessScratch {
            walk_tmp: live,
            calls,
            crossers,
            ..
        } = &mut *scratch;
        calls.clear();
        crossers.clear();
        for b in func.block_ids() {
            self.for_each_inst_backward_in(func, b, live, |i, inst, live_after| {
                if inst.is_call() {
                    let def = inst.def().map(|d| d.index());
                    crossers.extend(
                        live_after
                            .iter()
                            .filter(|&v| Some(v) != def)
                            .map(|v| v as u32),
                    );
                    calls.push(((b, i), crossers.len()));
                }
            });
        }
        let mut crossings = std::mem::take(&mut scratch.crossings);
        let (calls, crossers) = (&scratch.calls, &scratch.crossers);
        crossings.fill_counted(self.num_vregs, || {
            let mut end = 0;
            calls.iter().flat_map(move |&(site, next)| {
                let start = std::mem::replace(&mut end, next);
                crossers[start..next]
                    .iter()
                    .map(move |&v| (v as usize, site))
            })
        });
        CallCrossing { crossings }
    }

    /// The maximum number of simultaneously live registers of the given
    /// class anywhere in the function (a register-pressure estimate).
    pub fn max_pressure(&self, func: &Function, class: pdgc_ir::RegClass) -> usize {
        let mut max = 0;
        for b in func.block_ids() {
            let count = |set: &BitSet| {
                set.iter()
                    .filter(|&v| func.class_of(VReg::new(v)) == class)
                    .count()
            };
            max = max.max(count(self.live_in(b)));
            self.for_each_inst_backward(func, b, |_, _, live| {
                max = max.max(count(live));
            });
        }
        max
    }
}

/// Fills per-block transfer-function sets: `gen[b]` holds the registers
/// used in `b` before any def (upward-exposed uses), `kill[b]` the
/// registers defined in `b`.
///
/// # Panics
///
/// Panics if the function still contains φ-functions.
fn fill_gen_kill(func: &Function, gen: &mut [BitSet], kill: &mut [BitSet]) {
    for b in func.block_ids() {
        assert!(
            func.block(b).phis.is_empty(),
            "Liveness requires lowered phis"
        );
        let (g, k) = (&mut gen[b.index()], &mut kill[b.index()]);
        for inst in &func.block(b).insts {
            inst.visit_uses(|u| {
                if !k.contains(u.index()) {
                    g.insert(u.index());
                }
            });
            if let Some(d) = inst.def() {
                k.insert(d.index());
            }
        }
    }
}

/// For each register, the call sites it is live across.
///
/// Drives the paper's third preference type ("prefers non-volatile") and the
/// `Call_Cost` term of the Appendix.
#[derive(Clone, Debug)]
pub struct CallCrossing {
    /// Row `v`: the sites `v` crosses, in walk order (blocks ascending,
    /// each walked backward).
    crossings: RowTable<(Block, usize)>,
}

impl CallCrossing {
    /// The call sites `v` is live across.
    pub fn sites(&self, v: VReg) -> &[(Block, usize)] {
        self.crossings.row(v.index())
    }

    /// Whether `v` is live across any call.
    pub fn crosses_any(&self, v: VReg) -> bool {
        !self.sites(v).is_empty()
    }

    /// The frequency-weighted number of calls `v` is live across
    /// (`Σ Freq_Fact(Call(V))` from the Appendix).
    ///
    /// Each site contributes up to `factor^9`, so the sum can exceed
    /// `u64::MAX`; it saturates rather than wrapping (or panicking in
    /// debug builds, as a plain `.sum()` would).
    pub fn weighted(&self, v: VReg, loops: &Loops) -> u64 {
        self.sites(v)
            .iter()
            .fold(0u64, |acc, &(b, _)| acc.saturating_add(loops.freq(b)))
    }

    /// Returns the per-register site storage to `scratch` for reuse.
    pub fn recycle(self, scratch: &mut LivenessScratch) {
        scratch.crossings = self.crossings;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dominators;
    use pdgc_ir::{BinOp, CmpOp, FunctionBuilder, RegClass};

    #[test]
    fn straight_line_liveness() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let x = b.bin_imm(BinOp::Add, p, 1);
        let y = b.bin(BinOp::Mul, x, p);
        b.ret(Some(y));
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let lv = Liveness::compute(&f, &cfg);
        assert!(lv.live_in(Block::ENTRY).contains(p.index()));
        assert!(!lv.live_in(Block::ENTRY).contains(x.index()));
        assert!(lv.live_out(Block::ENTRY).is_empty());
        // After the add, p is still live (used by mul) and x is live.
        let mut seen = Vec::new();
        lv.for_each_inst_backward(&f, Block::ENTRY, |i, _, live| {
            seen.push((i, live.iter().collect::<Vec<_>>()));
        });
        seen.reverse();
        assert_eq!(seen[0].1, vec![p.index(), x.index()]); // after add
        assert_eq!(seen[1].1, vec![y.index()]); // after mul
        assert_eq!(seen[2].1, Vec::<usize>::new()); // after ret
    }

    #[test]
    fn loop_carried_value_live_around_backedge() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let header = b.create_block();
        let exit = b.create_block();
        b.jump(header);
        b.switch_to(header);
        let z = b.iconst(0);
        b.branch(CmpOp::Ne, p, z, header, exit);
        b.switch_to(exit);
        b.ret(Some(p));
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let lv = Liveness::compute(&f, &cfg);
        assert!(lv.live_in(header).contains(p.index()));
        assert!(lv.live_out(header).contains(p.index()));
    }

    #[test]
    fn call_crossing_detected() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let t = b.call("g", vec![], Some(RegClass::Int)).unwrap();
        let r = b.bin(BinOp::Add, t, p);
        b.ret(Some(r));
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let lv = Liveness::compute(&f, &cfg);
        let cc = lv.call_crossings(&f);
        // p crosses the call; t is defined by it; r doesn't exist yet.
        assert!(cc.crosses_any(p));
        assert!(!cc.crosses_any(t));
        assert!(!cc.crosses_any(r));
        assert_eq!(cc.sites(p).len(), 1);
    }

    #[test]
    fn weighted_crossing_uses_loop_freq() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let header = b.create_block();
        let exit = b.create_block();
        b.jump(header);
        b.switch_to(header);
        b.call("g", vec![], None);
        let z = b.iconst(0);
        b.branch(CmpOp::Ne, p, z, header, exit);
        b.switch_to(exit);
        b.ret(Some(p));
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let lv = Liveness::compute(&f, &cfg);
        let cc = lv.call_crossings(&f);
        let dom = Dominators::compute(&cfg);
        let loops = Loops::compute(&cfg, &dom);
        assert_eq!(cc.weighted(p, &loops), 10);
    }

    /// Saturation pin: with the frequency factor itself near `u64::MAX`
    /// (standing in for "very many sites at the depth-9 cap"), summing two
    /// crossed call sites overflows `u64`; `weighted` must saturate, not
    /// wrap or panic.
    #[test]
    fn weighted_crossing_saturates_instead_of_overflowing() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let header = b.create_block();
        let exit = b.create_block();
        b.jump(header);
        b.switch_to(header);
        b.call("g", vec![], None);
        b.call("h", vec![], None);
        let z = b.iconst(0);
        b.branch(CmpOp::Ne, p, z, header, exit);
        b.switch_to(exit);
        b.ret(Some(p));
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let lv = Liveness::compute(&f, &cfg);
        let cc = lv.call_crossings(&f);
        assert_eq!(cc.sites(p).len(), 2);
        let dom = Dominators::compute(&cfg);
        let loops = Loops::compute_with_factor(&cfg, &dom, u64::MAX);
        assert_eq!(cc.weighted(p, &loops), u64::MAX);
    }

    #[test]
    fn scratch_reuse_matches_fresh_compute() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let header = b.create_block();
        let exit = b.create_block();
        b.jump(header);
        b.switch_to(header);
        let z = b.iconst(0);
        b.branch(CmpOp::Ne, p, z, header, exit);
        b.switch_to(exit);
        b.ret(Some(p));
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let fresh = Liveness::compute(&f, &cfg);

        let mut scratch = LivenessScratch::new();
        for _ in 0..3 {
            let lv = Liveness::compute_in(&f, &cfg, &mut scratch);
            for blk in f.block_ids() {
                assert_eq!(lv.live_in(blk), fresh.live_in(blk));
                assert_eq!(lv.live_out(blk), fresh.live_out(blk));
            }
            let cc = lv.call_crossings_in(&f, &mut scratch);
            assert!(!cc.crosses_any(p));
            cc.recycle(&mut scratch);
            lv.recycle(&mut scratch);
        }
        // gen/kill + live_in/live_out all parked back in the pool.
        assert_eq!(scratch.pooled_sets(), 4);
    }

    #[test]
    fn max_pressure_counts_class() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int, RegClass::Float], None);
        let p = b.param(0);
        let q = b.param(1);
        let a = b.bin_imm(BinOp::Add, p, 1);
        let c = b.bin(BinOp::Add, a, p);
        b.store(c, p, 0);
        let d = b.bin(BinOp::FAdd, q, q);
        b.store(d, p, 8);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let lv = Liveness::compute(&f, &cfg);
        assert!(lv.max_pressure(&f, RegClass::Int) >= 2);
        assert_eq!(lv.max_pressure(&f, RegClass::Float), 1);
    }
}
