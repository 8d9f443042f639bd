//! The Register Preference Graph (RPG) — §5.1 of the paper.
//!
//! A directed graph in which nodes are live ranges, physical registers, or
//! register classes, and each edge records one preference:
//!
//! * `Coalesce` — use the same register as the destination node;
//! * `SequentialPlus` — use the register *before* the partner's (this node
//!   is the first word of a paired load);
//! * `SequentialMinus` — use the register *after* the partner's (this node
//!   is the second word);
//! * `Prefers` — use a register from a set (volatile or non-volatile).
//!
//! Every edge carries two strengths — the benefit when honored with a
//! volatile register and with a non-volatile register — computed with the
//! Appendix model ([`crate::cost`]); the Figure 7 example's 50/48, 40/38,
//! and 28 values are reproduced by the unit tests in [`crate::cost`].

use crate::build::CopyRel;
use crate::cost::CostModel;
use crate::node::{NodeId, NodeMap};
use pdgc_analysis::InstRef;
use pdgc_arena::RowTable;
use pdgc_ir::{Function, Inst, RegClass, VReg};
use pdgc_target::TargetDesc;

/// The kind of preference an RPG edge expresses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PrefKind {
    /// Use the same register as the target.
    Coalesce,
    /// This node is the *first* word of a paired load; its register must
    /// pair (target rule) as first word with the partner's.
    SequentialPlus,
    /// This node is the *second* word of a paired load.
    SequentialMinus,
    /// Use any register from the target set.
    Prefers,
}

impl PrefKind {
    /// The kind's label in traces and graph dumps.
    pub fn label(self) -> &'static str {
        match self {
            PrefKind::Coalesce => "coalesce",
            PrefKind::SequentialPlus => "seq+",
            PrefKind::SequentialMinus => "seq-",
            PrefKind::Prefers => "prefers",
        }
    }
}

/// What a preference points at.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PrefTarget {
    /// Another allocation node (live range or precolored register).
    Node(NodeId),
    /// The volatile registers of the class.
    Volatile,
    /// The non-volatile registers of the class.
    NonVolatile,
    /// An explicit register set, as a bit mask over register indices —
    /// the paper's *limited register usage* (e.g. x86 byte registers).
    Set(u64),
}

impl PrefTarget {
    /// A `Set` target covering register indices `0..n` (every index when
    /// `n` is 64 or more).
    pub fn low_regs(n: u8) -> PrefTarget {
        PrefTarget::Set(1u64.checked_shl(n.into()).map_or(u64::MAX, |bit| bit - 1))
    }
}

/// One weighted preference edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Preference {
    /// Edge kind.
    pub kind: PrefKind,
    /// Edge destination.
    pub target: PrefTarget,
    /// `Str(V, P)` when honored with a volatile register.
    pub strength_vol: i64,
    /// `Str(V, P)` when honored with a non-volatile register.
    pub strength_nonvol: i64,
}

impl Preference {
    /// The strength of honoring this preference with `reg`.
    pub fn strength_with(&self, reg: pdgc_target::PhysReg, target: &TargetDesc) -> i64 {
        if target.is_volatile(reg) {
            self.strength_vol
        } else {
            self.strength_nonvol
        }
    }

    /// The best strength over both register kinds this preference admits.
    pub fn best_strength(&self) -> i64 {
        match self.target {
            PrefTarget::Volatile => self.strength_vol,
            PrefTarget::NonVolatile => self.strength_nonvol,
            PrefTarget::Node(_) | PrefTarget::Set(_) => {
                self.strength_vol.max(self.strength_nonvol)
            }
        }
    }
}

/// The Register Preference Graph: per-node outgoing preference edges.
///
/// The edges are the rows of one [`RowTable`], a row per node. The build
/// records every edge in the order it finds them — coalesce groups in
/// first-copy order, paired loads, byte loads, volatility — lays the rows
/// out from that record in one counting pass, and sorts each row by
/// strength, stably, so ties keep that order.
#[derive(Clone, Debug, Default)]
pub struct Rpg {
    prefs: RowTable<Preference>,
}

impl Rpg {
    /// An RPG over `num_nodes` nodes with no edges.
    pub fn new(num_nodes: usize) -> Self {
        let mut prefs = RowTable::new();
        prefs.reset(num_nodes);
        Rpg { prefs }
    }

    /// Adds a preference edge out of `node`.
    pub fn add(&mut self, node: NodeId, pref: Preference) {
        self.prefs.push(node.index(), pref);
    }

    /// The preferences of `node`, strongest first.
    pub fn prefs(&self, node: NodeId) -> &[Preference] {
        self.prefs.row(node.index())
    }

    /// Total number of edges (for diagnostics).
    pub fn num_edges(&self) -> usize {
        self.prefs.num_entries()
    }

    /// Sorts every node's preferences by descending best strength.
    pub fn sort_by_strength(&mut self) {
        for i in 0..self.prefs.num_rows() {
            self.prefs
                .row_mut(i)
                .sort_by_key(|pref| std::cmp::Reverse(pref.best_strength()));
        }
    }

    /// Returns this graph's table to `scratch` for the next build.
    pub fn recycle(self, scratch: &mut RpgScratch) {
        scratch.prefs = self.prefs;
    }
}

/// Reusable storage for [`build_rpg_in`]: the preference table and the
/// build's temporaries. One scratch serves any number of sequential
/// builds; recycle each [`Rpg`] with [`Rpg::recycle`].
#[derive(Debug, Default)]
pub struct RpgScratch {
    prefs: RowTable<Preference>,
    /// Every edge with its source node, in the order the build found it.
    found: Vec<(NodeId, Preference)>,
    /// Each copy's unordered node pair and index; sorted, equal pairs
    /// form a group.
    keyed: Vec<(NodeId, NodeId, u32)>,
    /// The copy sites of every group, group after group.
    sites: Vec<InstRef>,
    /// Per group: its first copy's index and its run of `sites`.
    groups: Vec<(u32, u32, u32)>,
    pairs: Vec<LoadPairCandidate>,
    used: Vec<bool>,
    savings: Vec<(NodeId, VReg, i64)>,
    saving_of: Vec<usize>,
}

/// Which preference kinds to record — the paper's §6 configurations:
/// `coalescing_only()` for the coalescing-capability comparison and
/// `full()` for the full-featured allocator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PreferenceSet {
    /// Record coalesce edges (live-range↔live-range and to dedicated
    /// registers).
    pub coalesce: bool,
    /// Record sequential± edges for paired-load candidates.
    pub sequential: bool,
    /// Record volatile/non-volatile `Prefers` edges (and enable active
    /// spilling of memory-preferring nodes).
    pub volatility: bool,
    /// Record limited-register-usage `Prefers` edges (byte-load
    /// destinations on targets with a restricted byte-register set).
    pub limited: bool,
}

impl PreferenceSet {
    /// All preference kinds (the paper's "full preferences").
    pub fn full() -> Self {
        PreferenceSet {
            coalesce: true,
            sequential: true,
            volatility: true,
            limited: true,
        }
    }

    /// Coalesce edges only (the paper's "only coalescing").
    pub fn coalescing_only() -> Self {
        PreferenceSet {
            coalesce: true,
            sequential: false,
            volatility: false,
            limited: false,
        }
    }
}

/// A paired-load candidate: two loads of consecutive words.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LoadPairCandidate {
    /// The load of the lower-addressed word.
    pub first: InstRef,
    /// The load of the higher-addressed word.
    pub second: InstRef,
    /// Destination of the first load.
    pub dst1: VReg,
    /// Destination of the second load.
    pub dst2: VReg,
}

/// Finds `class`'s paired-load candidates: two loads in one block from
/// `base+o` and `base+o+stride`, with no intervening redefinition of the
/// base or first destination, store, or call. Each load joins at most one
/// candidate; a load already claimed by a pair is still scanned past, and
/// still stops the scan if it redefines the base or first destination.
///
/// The stride and the first word's alignment come from the target's
/// per-class [`PairRule`](pdgc_target::PairRule); a class without a pair
/// rule contributes no candidates.
///
/// The candidates are appended to `out`; `used` marks a block's paired
/// loads, one block at a time.
fn find_load_pairs_in(
    func: &Function,
    target: &TargetDesc,
    class: RegClass,
    used: &mut Vec<bool>,
    out: &mut Vec<LoadPairCandidate>,
) {
    let Some(rule) = target.pair_rule(class) else {
        return;
    };
    for b in func.block_ids() {
        let insts = &func.block(b).insts;
        used.clear();
        used.resize(insts.len(), false);
        for i in 0..insts.len() {
            if used[i] {
                continue;
            }
            let Inst::Load { dst, base, offset } = insts[i] else {
                continue;
            };
            if func.class_of(dst) != class || !rule.aligned(offset) {
                continue;
            }
            'scan: for (j, cand) in insts.iter().enumerate().skip(i + 1) {
                match cand {
                    Inst::Load {
                        dst: dst2,
                        base: base2,
                        offset: offset2,
                    } if !used[j]
                        && *base2 == base
                        && *offset2 == offset + rule.stride()
                        && *dst2 != dst
                        && func.class_of(*dst2) == class =>
                    {
                        used[i] = true;
                        used[j] = true;
                        out.push(LoadPairCandidate {
                            first: InstRef { block: b, index: i },
                            second: InstRef { block: b, index: j },
                            dst1: dst,
                            dst2: *dst2,
                        });
                        break 'scan;
                    }
                    // A different load, or one already paired, is fine to
                    // scan past.
                    Inst::Load { .. } => {}
                    Inst::Store { .. } | Inst::Call { .. } | Inst::Spill { .. } => break 'scan,
                    _ => {}
                }
                // Stop if the base or first destination is redefined.
                if cand.def() == Some(base) || cand.def() == Some(dst) {
                    break 'scan;
                }
                if cand.is_terminator() {
                    break 'scan;
                }
            }
        }
    }
}

/// Builds the RPG for one class.
///
/// `copies` are the class's copy-relatedness records (built by
/// [`crate::build::collect_copies`]); paired-load candidates are detected
/// here. Pinned (precolored) nodes receive no outgoing preferences.
pub fn build_rpg(
    func: &Function,
    nodes: &NodeMap,
    cost: &CostModel<'_>,
    copies: &[CopyRel],
    prefs: PreferenceSet,
    target: &TargetDesc,
) -> Rpg {
    build_rpg_in(
        func,
        nodes,
        cost,
        copies,
        prefs,
        target,
        &mut RpgScratch::default(),
    )
}

/// Like [`build_rpg`], drawing the graph's table and every temporary from
/// pooled scratch. Return the graph with [`Rpg::recycle`] when done.
pub fn build_rpg_in(
    func: &Function,
    nodes: &NodeMap,
    cost: &CostModel<'_>,
    copies: &[CopyRel],
    prefs: PreferenceSet,
    target: &TargetDesc,
    scratch: &mut RpgScratch,
) -> Rpg {
    let mut found = std::mem::take(&mut scratch.found);
    found.clear();

    if prefs.coalesce {
        // Group copies by unordered node pair so one edge zeroes all moves
        // between the pair. Groups keep the order of their first copy:
        // the stable strength sort breaks ties by it.
        let RpgScratch {
            keyed,
            sites,
            groups,
            ..
        } = &mut *scratch;
        keyed.clear();
        keyed.extend(copies.iter().enumerate().map(|(i, c)| {
            let (a, b) = pair_key(c);
            (a, b, u32::try_from(i).expect("copy count fits u32"))
        }));
        keyed.sort_unstable();
        sites.clear();
        groups.clear();
        for run in keyed.chunk_by(|x, y| (x.0, x.1) == (y.0, y.1)) {
            let start = sites.len() as u32;
            sites.extend(run.iter().map(|&(_, _, i)| {
                let c = &copies[i as usize];
                InstRef {
                    block: c.block,
                    index: c.index,
                }
            }));
            groups.push((run[0].2, start, sites.len() as u32));
        }
        groups.sort_unstable_by_key(|&(first, _, _)| first);
        for &(first, start, end) in groups.iter() {
            let (a, b) = pair_key(&copies[first as usize]);
            let sites = &sites[start as usize..end as usize];
            for (me, partner) in [(a, b), (b, a)] {
                if nodes.is_precolored(me) {
                    continue;
                }
                let v = nodes.members(me)[0];
                let (sv, snv) = strengths(cost, v, sites, prefs);
                found.push((
                    me,
                    Preference {
                        kind: PrefKind::Coalesce,
                        target: PrefTarget::Node(partner),
                        strength_vol: sv,
                        strength_nonvol: snv,
                    },
                ));
            }
        }
    }

    if prefs.sequential {
        scratch.pairs.clear();
        find_load_pairs_in(
            func,
            target,
            nodes.class(),
            &mut scratch.used,
            &mut scratch.pairs,
        );
        // Each load defines its destination, so both are referenced
        // vregs of the class and have nodes.
        let node = |v: VReg| nodes.node_of(v).expect("a loaded vreg has a node");
        for pair in &scratch.pairs {
            let (n1, n2) = (node(pair.dst1), node(pair.dst2));
            if nodes.is_precolored(n1) || nodes.is_precolored(n2) || n1 == n2 {
                continue;
            }
            let (sv1, snv1) = strengths(cost, pair.dst1, &[pair.first], prefs);
            found.push((
                n1,
                Preference {
                    kind: PrefKind::SequentialPlus,
                    target: PrefTarget::Node(n2),
                    strength_vol: sv1,
                    strength_nonvol: snv1,
                },
            ));
            let (sv2, snv2) = strengths(cost, pair.dst2, &[pair.second], prefs);
            found.push((
                n2,
                Preference {
                    kind: PrefKind::SequentialMinus,
                    target: PrefTarget::Node(n1),
                    strength_vol: sv2,
                    strength_nonvol: snv2,
                },
            ));
        }
    }

    if prefs.limited {
        if let Some(nbytes) = target.class(nodes.class()).byte_regs() {
            // Collect byte-load destinations with their total frequency-
            // weighted extension saving (one cycle per dishonored load),
            // in the order of each node's first byte load.
            let RpgScratch {
                savings, saving_of, ..
            } = &mut *scratch;
            savings.clear();
            saving_of.clear();
            saving_of.resize(nodes.num_nodes(), usize::MAX);
            for b in func.block_ids() {
                for (i, inst) in func.block(b).insts.iter().enumerate() {
                    if let Inst::Load8 { dst, .. } = inst {
                        let Some(n) = nodes.node_of(*dst) else { continue };
                        if nodes.is_precolored(n) {
                            continue;
                        }
                        let site = InstRef { block: b, index: i };
                        let save = cost.freq(site) as i64;
                        match savings.get_mut(saving_of[n.index()]) {
                            Some((_, _, acc)) => *acc += save,
                            None => {
                                saving_of[n.index()] = savings.len();
                                savings.push((n, *dst, save));
                            }
                        }
                    }
                }
            }
            for &(n, v, save) in savings.iter() {
                let (sv, snv) = strengths(cost, v, &[], prefs);
                found.push((
                    n,
                    Preference {
                        kind: PrefKind::Prefers,
                        target: PrefTarget::low_regs(nbytes),
                        strength_vol: sv.saturating_add(save),
                        strength_nonvol: snv.saturating_add(save),
                    },
                ));
            }
        }
    }

    if prefs.volatility {
        for n in nodes.live_range_nodes() {
            let v = nodes.members(n)[0];
            let sv = cost.strength_volatile(v, &[]);
            let snv = cost.strength_nonvolatile(v, &[]);
            found.push((
                n,
                Preference {
                    kind: PrefKind::Prefers,
                    target: PrefTarget::Volatile,
                    strength_vol: sv,
                    strength_nonvol: i64::MIN,
                },
            ));
            found.push((
                n,
                Preference {
                    kind: PrefKind::Prefers,
                    target: PrefTarget::NonVolatile,
                    strength_vol: i64::MIN,
                    strength_nonvol: snv,
                },
            ));
        }
    }

    let mut table = std::mem::take(&mut scratch.prefs);
    table.fill_counted(nodes.num_nodes(), || {
        found.iter().map(|&(n, pref)| (n.index(), pref))
    });
    scratch.found = found;
    let mut rpg = Rpg { prefs: table };
    rpg.sort_by_strength();
    rpg
}

/// A copy's endpoints as an unordered pair, lower node first.
fn pair_key(c: &CopyRel) -> (NodeId, NodeId) {
    if c.dst <= c.src {
        (c.dst, c.src)
    } else {
        (c.src, c.dst)
    }
}

/// The (volatile, non-volatile) strength pair for a preference on `v`
/// eliminating `zeroed`. With volatility preferences disabled (the "only
/// coalescing" configuration), the `Call_Cost` term is omitted so the two
/// register kinds look identical to the allocator.
fn strengths(
    cost: &CostModel<'_>,
    v: VReg,
    zeroed: &[InstRef],
    prefs: PreferenceSet,
) -> (i64, i64) {
    if prefs.volatility {
        (
            cost.strength_volatile(v, zeroed),
            cost.strength_nonvolatile(v, zeroed),
        )
    } else {
        let s = cost.strength_ignoring_volatility(v, zeroed);
        (s, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostTable;
    use pdgc_analysis::{Cfg, Dominators, Liveness, Loops};
    use pdgc_ir::{FunctionBuilder, RegClass};

    /// A stride-8 paper-like target for the detection tests.
    fn t8() -> TargetDesc {
        TargetDesc::toy(8)
    }

    /// A target whose integer pairs are aligned stride-16 quadwords.
    fn t16() -> TargetDesc {
        use pdgc_target::{ClassSpec, PairRule, PairedLoadRule};
        TargetDesc::builder("stride16")
            .class(
                RegClass::Int,
                ClassSpec::new(8).pair(PairRule::new(PairedLoadRule::Parity, 16).with_align(16)),
            )
            .class(RegClass::Float, ClassSpec::new(8))
            .finish()
            .unwrap()
    }

    #[test]
    fn low_regs_covers_a_full_64_register_file() {
        assert_eq!(PrefTarget::low_regs(0), PrefTarget::Set(0));
        assert_eq!(PrefTarget::low_regs(4), PrefTarget::Set(0b1111));
        assert_eq!(PrefTarget::low_regs(63), PrefTarget::Set(u64::MAX >> 1));
        assert_eq!(PrefTarget::low_regs(64), PrefTarget::Set(u64::MAX));
    }

    /// The candidates [`find_load_pairs_in`] finds in each class, class
    /// after class, from fresh buffers.
    fn find_load_pairs(func: &Function, target: &TargetDesc) -> Vec<LoadPairCandidate> {
        let mut out = Vec::new();
        for class in RegClass::ALL {
            find_load_pairs_in(func, target, class, &mut Vec::new(), &mut out);
        }
        out
    }

    #[test]
    fn load_pair_detection_basic() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], None);
        let p = b.param(0);
        let a = b.load(p, 0);
        let c = b.load(p, 8);
        b.store(a, p, 64);
        b.store(c, p, 72);
        b.ret(None);
        let f = b.finish();
        let pairs = find_load_pairs(&f, &t8());
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].dst1, a);
        assert_eq!(pairs[0].dst2, c);
    }

    #[test]
    fn stride_comes_from_the_target_rule() {
        // Loads 16 bytes apart: no candidate on a stride-8 target, one
        // on the stride-16 target.
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], None);
        let p = b.param(0);
        let a = b.load(p, 0);
        let c = b.load(p, 16);
        b.store(a, p, 1 << 20);
        b.store(c, p, (1 << 20) + 8);
        b.ret(None);
        let f = b.finish();
        assert!(find_load_pairs(&f, &t8()).is_empty());
        let pairs = find_load_pairs(&f, &t16());
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].dst1, a);
        assert_eq!(pairs[0].dst2, c);
    }

    #[test]
    fn alignment_gates_the_first_word() {
        // The quadword rule of t16 requires the first offset to be a
        // multiple of 16; offset 8 cannot start a pair.
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], None);
        let p = b.param(0);
        let a = b.load(p, 8);
        let c = b.load(p, 24);
        b.store(a, p, 1 << 20);
        b.store(c, p, (1 << 20) + 8);
        b.ret(None);
        let f = b.finish();
        assert!(find_load_pairs(&f, &t16()).is_empty());
    }

    #[test]
    fn class_without_pair_rule_has_no_candidates() {
        // t16 gives floats no pair rule at all.
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], None);
        let p = b.param(0);
        let a = b.fload(p, 0);
        let c = b.fload(p, 16);
        b.store(a, p, 1 << 20);
        b.store(c, p, (1 << 20) + 8);
        b.ret(None);
        let f = b.finish();
        assert!(find_load_pairs(&f, &t16()).is_empty());
        // On the paper-like target the same floats pair at stride 8.
        let mut b = FunctionBuilder::new("g", vec![RegClass::Int], None);
        let p = b.param(0);
        let a = b.fload(p, 0);
        let c = b.fload(p, 8);
        b.store(a, p, 1 << 20);
        b.store(c, p, (1 << 20) + 8);
        b.ret(None);
        let f = b.finish();
        assert_eq!(find_load_pairs(&f, &t8()).len(), 1);
    }

    #[test]
    fn load_pair_blocked_by_store_or_call() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], None);
        let p = b.param(0);
        let a = b.load(p, 0);
        b.store(a, p, 64);
        let c = b.load(p, 8);
        b.store(c, p, 72);
        b.ret(None);
        let f = b.finish();
        assert!(find_load_pairs(&f, &t8()).is_empty());

        let mut b = FunctionBuilder::new("g", vec![RegClass::Int], None);
        let p = b.param(0);
        let a = b.load(p, 0);
        b.call("h", vec![], None);
        let c = b.load(p, 8);
        let s = b.bin(pdgc_ir::BinOp::Add, a, c);
        b.store(s, p, 64);
        b.ret(None);
        let f = b.finish();
        assert!(find_load_pairs(&f, &t8()).is_empty());
    }

    #[test]
    fn load_pair_blocked_by_base_redef() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], None);
        let p = b.param(0);
        let a = b.load(p, 0);
        // p redefined via copy to itself is not expressible in SSA builder;
        // emit a raw redefinition.
        b.emit(pdgc_ir::Inst::BinImm {
            op: pdgc_ir::BinOp::Add,
            dst: p,
            lhs: p,
            imm: 0,
        });
        let c = b.load(p, 8);
        let s = b.bin(pdgc_ir::BinOp::Add, a, c);
        b.store(s, p, 64);
        b.ret(None);
        let f = b.finish();
        assert!(find_load_pairs(&f, &t8()).is_empty());
    }

    /// A load an earlier pair claimed still ends the scan when it
    /// redefines the base or the first destination: a later load of the
    /// next word reads a new base, or follows an overwritten first word.
    #[test]
    fn a_claimed_load_that_redefines_still_stops_the_scan() {
        for redefine_base in [true, false] {
            let mut b = FunctionBuilder::new("f", vec![RegClass::Int, RegClass::Int], None);
            let (q, p) = (b.param(0), b.param(1));
            let x = b.load(q, 0);
            let a = b.load(p, 0);
            // Pairs with `x`'s load, claiming it before `a`'s scan reaches it.
            let redefined = if redefine_base { p } else { a };
            b.emit(Inst::Load {
                dst: redefined,
                base: q,
                offset: 8,
            });
            let c = b.load(p, 8);
            for (i, v) in [x, a, c].into_iter().enumerate() {
                b.store(v, q, 64 + 8 * i as i32);
            }
            b.ret(None);
            let f = b.finish();
            let pairs = find_load_pairs(&f, &t8());
            assert_eq!(pairs.len(), 1, "redefine_base {redefine_base}: {pairs:?}");
            assert_eq!((pairs[0].dst1, pairs[0].dst2), (x, redefined));
        }
    }

    #[test]
    fn wrong_stride_not_paired() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], None);
        let p = b.param(0);
        let a = b.load(p, 0);
        let c = b.load(p, 16);
        let s = b.bin(pdgc_ir::BinOp::Add, a, c);
        b.store(s, p, 64);
        b.ret(None);
        let f = b.finish();
        assert!(find_load_pairs(&f, &t8()).is_empty());
    }

    #[test]
    fn rpg_build_produces_expected_edge_kinds() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let a = b.load(p, 0);
        let c = b.load(p, 8);
        let s = b.bin(pdgc_ir::BinOp::Add, a, c);
        let d = b.copy(s);
        b.ret(Some(d));
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let lv = Liveness::compute(&f, &cfg);
        let dom = Dominators::compute(&cfg);
        let loops = Loops::compute(&cfg, &dom);
        let cc = lv.call_crossings(&f);
        let table = CostTable::compute(&f, &loops, &cc);
        let cost = CostModel::new(&f, &table, &loops);
        let pinned = vec![None; f.num_vregs()];
        let nodes = NodeMap::build(&f, &TargetDesc::toy(8), RegClass::Int, &pinned);
        let copies = crate::build::collect_copies(&f, &loops, &nodes);
        let rpg = build_rpg(&f, &nodes, &cost, &copies, PreferenceSet::full(), &TargetDesc::toy(8));

        let na = nodes.node_of(a).unwrap();
        let nc = nodes.node_of(c).unwrap();
        let ns = nodes.node_of(s).unwrap();
        let nd = nodes.node_of(d).unwrap();

        // a: sequential-plus toward c, plus the two Prefers edges.
        assert!(rpg
            .prefs(na)
            .iter()
            .any(|p| p.kind == PrefKind::SequentialPlus && p.target == PrefTarget::Node(nc)));
        assert!(rpg
            .prefs(nc)
            .iter()
            .any(|p| p.kind == PrefKind::SequentialMinus && p.target == PrefTarget::Node(na)));
        // d and s are copy-related in both directions.
        assert!(rpg
            .prefs(nd)
            .iter()
            .any(|p| p.kind == PrefKind::Coalesce && p.target == PrefTarget::Node(ns)));
        assert!(rpg
            .prefs(ns)
            .iter()
            .any(|p| p.kind == PrefKind::Coalesce && p.target == PrefTarget::Node(nd)));
        // Every live range got volatility edges.
        assert!(rpg
            .prefs(na)
            .iter()
            .any(|p| p.kind == PrefKind::Prefers && p.target == PrefTarget::Volatile));
        // Sorted strongest-first.
        let strengths: Vec<i64> = rpg.prefs(na).iter().map(|p| p.best_strength()).collect();
        let mut sorted = strengths.clone();
        sorted.sort_by_key(|s| std::cmp::Reverse(*s));
        assert_eq!(strengths, sorted);
    }

    #[test]
    fn coalescing_only_suppresses_other_kinds() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let a = b.load(p, 0);
        let c = b.load(p, 8);
        let s = b.bin(pdgc_ir::BinOp::Add, a, c);
        b.ret(Some(s));
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let lv = Liveness::compute(&f, &cfg);
        let dom = Dominators::compute(&cfg);
        let loops = Loops::compute(&cfg, &dom);
        let cc = lv.call_crossings(&f);
        let table = CostTable::compute(&f, &loops, &cc);
        let cost = CostModel::new(&f, &table, &loops);
        let pinned = vec![None; f.num_vregs()];
        let nodes = NodeMap::build(&f, &TargetDesc::toy(8), RegClass::Int, &pinned);
        let copies = crate::build::collect_copies(&f, &loops, &nodes);
        let rpg = build_rpg(&f, &nodes, &cost, &copies, PreferenceSet::coalescing_only(), &TargetDesc::toy(8));
        for n in nodes.live_range_nodes() {
            assert!(rpg
                .prefs(n)
                .iter()
                .all(|p| p.kind == PrefKind::Coalesce));
        }
    }
}
