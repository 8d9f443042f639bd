//! Specifications for the interference-graph build and the Appendix cost
//! model: the edge-by-edge build walk and the per-site cost sums, as they
//! were before the build went word-parallel and the costs moved into a
//! per-round table. Kept verbatim apart from their paths and the pooling
//! (the site lists allocate plainly); `tests/build_reference.rs` holds the
//! current code to them.

use pdgc::analysis::{BitSet, CallCrossing, InstRef, Liveness, Loops};
use pdgc::core::cost::{CALLEE_SAVE_COST, LOAD_COST, SAVE_RESTORE_COST, STORE_COST};
use pdgc::core::ifg::InterferenceGraph;
use pdgc::core::node::NodeMap;
use pdgc::ir::{Block, Function, Inst, VReg};

/// Per-register definition and use sites.
///
/// The paper's cost model (Appendix) sums costs over `Using(V)` and
/// `Defining(V)` — exactly the site lists recorded here.
#[derive(Clone, Debug)]
pub struct DefUse {
    defs: Vec<Vec<InstRef>>,
    uses: Vec<Vec<InstRef>>,
}

impl DefUse {
    /// Scans the function (φs must be lowered) and records every def and
    /// use site of every virtual register.
    ///
    /// # Panics
    ///
    /// Panics if the function still contains φ-functions.
    pub fn compute(func: &Function) -> Self {
        let n = func.num_vregs();
        let mut defs = vec![Vec::new(); n];
        let mut uses = vec![Vec::new(); n];
        for b in func.block_ids() {
            assert!(
                func.block(b).phis.is_empty(),
                "DefUse requires lowered phis"
            );
            for (i, inst) in func.block(b).insts.iter().enumerate() {
                let r = InstRef { block: b, index: i };
                if let Some(d) = inst.def() {
                    defs[d.index()].push(r);
                }
                inst.visit_uses(|u| uses[u.index()].push(r));
            }
        }
        DefUse { defs, uses }
    }

    /// Definition sites of `v` (empty for parameters).
    pub fn defs(&self, v: VReg) -> &[InstRef] {
        &self.defs[v.index()]
    }

    /// Use sites of `v`. An instruction using `v` twice appears twice.
    pub fn uses(&self, v: VReg) -> &[InstRef] {
        &self.uses[v.index()]
    }
}

/// Builds the interference graph edge by edge.
pub fn build_ifg(
    func: &Function,
    liveness: &Liveness,
    nodes: &NodeMap,
) -> InterferenceGraph {
    let mut g = InterferenceGraph::new_in(
        nodes.num_nodes(),
        nodes.num_phys(),
        &mut pdgc::core::ifg::IfgScratch::default(),
    );

    // Values live into the entry block are all defined "at entry"
    // (pre-lowering parameters): make them pairwise interfere.
    let mut entry_live = Vec::new();
    entry_live.extend(
        liveness
            .live_in(Block::ENTRY)
            .iter()
            .filter_map(|v| nodes.node_of(VReg::new(v))),
    );
    for (i, &a) in entry_live.iter().enumerate() {
        for &b in &entry_live[i + 1..] {
            g.add_edge(a, b);
        }
    }

    let mut walk = BitSet::default();
    for b in func.block_ids() {
        liveness.for_each_inst_backward_in(func, b, &mut walk, |_, inst, live_after| {
            let Some(d) = inst.def() else { return };
            let Some(nd) = nodes.node_of(d) else { return };
            let copy_src = inst.as_copy().map(|(_, s)| s);
            for v in live_after.iter() {
                let v = VReg::new(v);
                if v == d || copy_src == Some(v) {
                    continue;
                }
                if let Some(nv) = nodes.node_of(v) {
                    g.add_edge(nd, nv);
                }
            }
        });
    }
    g
}

/// Evaluates the Appendix cost functions over one function.
#[derive(Clone, Debug)]
pub struct CostModel<'a> {
    func: &'a Function,
    defuse: &'a DefUse,
    loops: &'a Loops,
    crossings: &'a CallCrossing,
}

impl<'a> CostModel<'a> {
    /// Bundles the analyses the model reads.
    pub fn new(
        func: &'a Function,
        defuse: &'a DefUse,
        loops: &'a Loops,
        crossings: &'a CallCrossing,
    ) -> Self {
        CostModel {
            func,
            defuse,
            loops,
            crossings,
        }
    }

    fn inst_at(&self, r: InstRef) -> &Inst {
        &self.func.block(r.block).insts[r.index]
    }

    /// `Freq_Fact` of the instruction's block.
    ///
    /// `depth` counts *natural loops* — all back edges sharing a header
    /// form one loop, so a two-latch (`continue`-shaped) loop weighs its
    /// body 10×, not 100×.
    pub fn freq(&self, r: InstRef) -> u64 {
        self.loops.freq(r.block)
    }

    /// `Inst_Cost`: 2 for memory loads, undefined (0) for calls, 1
    /// otherwise.
    pub fn inst_cost(&self, r: InstRef) -> u64 {
        match self.inst_at(r) {
            Inst::Load { .. } | Inst::Load8 { .. } | Inst::Reload { .. } => 2,
            Inst::Call { .. } => 0,
            _ => 1,
        }
    }

    /// `Spill_Cost(V)`: reload before every use, store after every def.
    pub fn spill_cost(&self, v: VReg) -> u64 {
        let loads: u64 = self
            .defuse
            .uses(v)
            .iter()
            .map(|&r| LOAD_COST * self.freq(r))
            .sum();
        let stores: u64 = self
            .defuse
            .defs(v)
            .iter()
            .map(|&r| STORE_COST * self.freq(r))
            .sum();
        loads + stores
    }

    /// `Op_Cost(V)`: the frequency-weighted cost of the instructions that
    /// touch `V`.
    pub fn op_cost(&self, v: VReg) -> u64 {
        self.sites(v).map(|r| self.inst_cost(r) * self.freq(r)).sum()
    }

    /// `Mem_Cost(V) = Spill_Cost(V) + Op_Cost(V)`.
    pub fn mem_cost(&self, v: VReg) -> u64 {
        self.spill_cost(v) + self.op_cost(v)
    }

    /// `Call_Cost(V)` when `V` lives in a volatile register: save+restore
    /// around every call it crosses.
    pub fn call_cost_volatile(&self, v: VReg) -> u64 {
        SAVE_RESTORE_COST * self.crossings.weighted(v, self.loops)
    }

    /// `Call_Cost(V)` when `V` lives in a non-volatile register.
    pub fn call_cost_nonvolatile(&self, _v: VReg) -> u64 {
        CALLEE_SAVE_COST
    }

    /// `Ideal_Op_Cost(V, P)`: like [`op_cost`](Self::op_cost) but the
    /// instructions in `zeroed` — those the preference `P` eliminates —
    /// cost nothing.
    pub fn ideal_op_cost(&self, v: VReg, zeroed: &[InstRef]) -> u64 {
        self.sites(v)
            .map(|r| {
                if zeroed.contains(&r) {
                    0
                } else {
                    self.inst_cost(r) * self.freq(r)
                }
            })
            .sum()
    }

    /// `Str(V, P)` for a preference that would be honored with a volatile
    /// register and eliminates the instructions in `zeroed`.
    pub fn strength_volatile(&self, v: VReg, zeroed: &[InstRef]) -> i64 {
        self.mem_cost(v) as i64
            - (self.call_cost_volatile(v) + self.ideal_op_cost(v, zeroed)) as i64
    }

    /// `Str(V, P)` for a preference honored with a non-volatile register.
    pub fn strength_nonvolatile(&self, v: VReg, zeroed: &[InstRef]) -> i64 {
        self.mem_cost(v) as i64
            - (self.call_cost_nonvolatile(v) + self.ideal_op_cost(v, zeroed)) as i64
    }

    /// `Str(V, P)` with the `Call_Cost` term omitted — the strength used
    /// by the "only coalescing" configuration of §6.1, where the allocator
    /// reflects nothing but the coalescing benefit (volatile and
    /// non-volatile registers look identical to it).
    pub fn strength_ignoring_volatility(&self, v: VReg, zeroed: &[InstRef]) -> i64 {
        self.mem_cost(v) as i64 - self.ideal_op_cost(v, zeroed) as i64
    }

    fn sites(&self, v: VReg) -> impl Iterator<Item = InstRef> + '_ {
        self.defuse
            .uses(v)
            .iter()
            .chain(self.defuse.defs(v).iter())
            .copied()
    }
}
