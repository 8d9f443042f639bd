//! Post-allocation symbolic checking: an independent proof that a register
//! assignment and the machine code rewritten from it preserve the semantics
//! of the input IR.
//!
//! The allocator pipeline is trusted nowhere here. Given the lowered
//! [`Function`], the final per-vreg `assignment`, and the rewritten
//! [`MachFunction`], [`check_allocation`] re-derives everything it asserts:
//!
//! 1. **Value flow** — it abstractly interprets the machine code in
//!    lockstep with the IR, tracking for every physical register and spill
//!    slot the set of virtual registers whose current value it *provably*
//!    holds (a must-analysis: sets intersect at join points, and every
//!    call empties every volatile register). Each IR use is then required
//!    to read a location that holds its vreg's value — through copies,
//!    eliminated copies, spill stores/reloads, caller-save shadows, and
//!    hoisted halves of fused paired loads.
//! 2. **Liveness / interference** — it recomputes liveness and, at every
//!    definition, requires that no simultaneously-live vreg shares the
//!    defined register unless the abstract state proves both hold the same
//!    value (the coalesced-copy-chain case).
//! 3. **Target rules** — every assigned register must exist in its class's
//!    file and match the vreg's class; every fused `LoadPair` must satisfy
//!    the class's [`PairRule`](pdgc_target::PairRule) (destination
//!    constraint, stride, alignment of the lower word); returned values
//!    must sit in the convention's return register; written
//!    non-volatiles must be declared for callee-save.
//! 4. **Frame bookkeeping** — every slot is written before it is read,
//!    and all spill traffic stays inside the declared frame
//!    (`MachFunction::num_slots`).
//!
//! The design follows regalloc2's symbolic checker: rather than executing
//! the code on concrete values, it proves the correspondence for *all*
//! inputs at once. See `DESIGN.md` §6f for the abstract domain.

use pdgc_analysis::{BitSet, Cfg, Liveness, LivenessScratch};
use pdgc_arena::{NestedPool, VecPool};
use pdgc_ir::{BinOp, Block, Function, Inst, RegClass, VReg};
use pdgc_target::{MInst, MachFunction, PhysReg, TargetDesc};
use std::fmt;
use std::ops::Range;

/// When the pipeline runs the checker.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum CheckMode {
    /// Never check (the default): allocation output is returned as-is.
    #[default]
    Off,
    /// Check every allocation.
    Always,
}

impl CheckMode {
    /// Whether this mode runs the checker.
    pub fn should_check(self) -> bool {
        self == CheckMode::Always
    }

    /// Parses a CLI or request spelling: `off`, or `always` (alias `on`).
    ///
    /// # Errors
    ///
    /// A message naming the bad spelling and the accepted ones.
    pub fn parse(s: &str) -> Result<CheckMode, String> {
        match s {
            "off" => Ok(CheckMode::Off),
            "always" | "on" => Ok(CheckMode::Always),
            _ => Err(format!("bad check mode `{s}` (off, always)")),
        }
    }
}

impl fmt::Display for CheckMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CheckMode::Off => "off",
            CheckMode::Always => "always",
        })
    }
}

/// How much of the function the checker value-replays: every reachable
/// block, the only scope there is.
///
/// The type stays, with its one variant, because the benchmark's traced
/// replica (`perfbench/src/bin/trace/replica.rs`) still names
/// `CheckScope::Full` when it calls `check_output_metered`. It goes when
/// that replica is retired.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum CheckScope {
    /// Replay every reachable block.
    #[default]
    Full,
}

/// Resettable scratch for [`check_allocation_in`]: pools the checker's
/// liveness storage, its abstract states, and every per-block buffer, so
/// batch drivers and the daemon can verify many functions without
/// re-allocating.
#[derive(Debug, Default)]
pub struct CheckScratch {
    liveness: LivenessScratch,
    live_after: NestedPool<VReg>,
    walk: BitSet,
    /// The rule pass's referenced vregs.
    referenced: BitSet,
    /// The fixpoint worklist, over reverse-postorder positions.
    work: BitSet,
    /// Each block's reverse-postorder position.
    rpo_pos: VecPool<usize>,
    /// The entry block's live-in vregs.
    live_in: VecPool<VReg>,
    /// Each block's converged out-state, while a check runs.
    outs: Vec<Option<State>>,
    /// Free abstract states.
    states: Vec<State>,
    bufs: Buffers,
}

impl CheckScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One rule the allocation breaks.
#[derive(Clone, PartialEq, Debug)]
pub enum Violation {
    /// A vreg referenced by reachable code has no assigned register.
    Unassigned {
        /// The unassigned vreg.
        vreg: VReg,
    },
    /// An assignment that no execution could make correct: wrong class,
    /// out-of-range index, or a returned value outside the return register.
    BadRegister {
        /// The mis-assigned vreg.
        vreg: VReg,
        /// The register it was given.
        reg: PhysReg,
        /// Which rule the register breaks.
        why: String,
    },
    /// Two simultaneously-live vregs share a register without provably
    /// holding the same value.
    Interference {
        /// The vreg being defined (or the first live-in).
        a: VReg,
        /// The live vreg sharing its register.
        b: VReg,
        /// The shared register.
        reg: PhysReg,
        /// Block of the defining instruction.
        block: Block,
        /// Instruction index within the block.
        inst: usize,
    },
    /// A fused `LoadPair` breaks the class's pairing rule.
    BadPair {
        /// Block holding the paired load (machine indexing).
        block: Block,
        /// Machine-instruction index within the block.
        inst: usize,
        /// Which part of the rule fails.
        why: String,
    },
    /// Spill bookkeeping is wrong (a slot read before any write, or
    /// traffic outside the declared frame).
    BadSlot {
        /// The offending frame slot.
        slot: u32,
        /// Block of the offending access.
        block: Block,
        /// Instruction index within the block.
        inst: usize,
        /// What went wrong.
        why: String,
    },
    /// An IR use reads a register that does not provably hold the used
    /// vreg's value on every path (e.g. clobbered by a call with no
    /// caller-save, or overwritten by another live range).
    StaleValue {
        /// The vreg whose value was expected.
        vreg: VReg,
        /// The register the use reads.
        reg: PhysReg,
        /// Block of the use.
        block: Block,
        /// IR instruction index within the block.
        inst: usize,
    },
    /// The machine code does not structurally implement the IR (missing,
    /// extra, or mismatched instructions).
    Structure {
        /// Block where the correspondence breaks.
        block: Block,
        /// IR instruction index the walk was trying to match.
        inst: usize,
        /// What was expected vs. found.
        why: String,
    },
    /// A function-level invariant is broken (block counts, frame size,
    /// undeclared callee-saves).
    Frame {
        /// What was expected vs. found.
        why: String,
    },
}

impl Violation {
    /// A stable short tag for the violation category (used by trace
    /// events and tests).
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::Unassigned { .. } => "unassigned",
            Violation::BadRegister { .. } => "bad-register",
            Violation::Interference { .. } => "interference",
            Violation::BadPair { .. } => "bad-pair",
            Violation::BadSlot { .. } => "bad-slot",
            Violation::StaleValue { .. } => "stale-value",
            Violation::Structure { .. } => "structure",
            Violation::Frame { .. } => "frame",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Unassigned { vreg } => {
                write!(f, "{vreg} is referenced but has no register")
            }
            Violation::BadRegister { vreg, reg, why } => write!(f, "{vreg} in {reg}: {why}"),
            Violation::Interference {
                a,
                b,
                reg,
                block,
                inst,
            } => write!(
                f,
                "{a} and {b} are simultaneously live in {reg} at {block}:{inst}"
            ),
            Violation::BadPair { block, inst, why } => {
                write!(f, "paired load at {block}:{inst}: {why}")
            }
            Violation::BadSlot {
                slot,
                block,
                inst,
                why,
            } => write!(f, "frame slot {slot} at {block}:{inst}: {why}"),
            Violation::StaleValue {
                vreg,
                reg,
                block,
                inst,
            } => write!(
                f,
                "use of {vreg} at {block}:{inst} reads {reg}, which does not hold its value"
            ),
            Violation::Structure { block, inst, why } => write!(
                f,
                "machine code diverges from the IR at {block}, instruction {inst}: {why}"
            ),
            Violation::Frame { why } => f.write_str(why),
        }
    }
}

/// The checker's verdict when an allocation is wrong.
#[derive(Clone, PartialEq, Debug)]
pub struct CheckError {
    /// Name of the function whose allocation failed.
    pub func: String,
    /// Every rule the allocation breaks, in discovery order.
    pub violations: Vec<Violation>,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "checker rejected the allocation of `{}` ({} violation{})",
            self.func,
            self.violations.len(),
            if self.violations.len() == 1 { "" } else { "s" }
        )?;
        for v in &self.violations {
            write!(f, "\n  - [{}] {v}", v.kind())?;
        }
        Ok(())
    }
}

impl std::error::Error for CheckError {}

/// What a successful check covered.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CheckReport {
    /// Reachable blocks proven.
    pub blocks: usize,
    /// IR instructions matched against machine code.
    pub ir_insts: usize,
    /// Machine instructions consumed by the walk.
    pub mach_insts: usize,
    /// Fused paired loads validated against the target's `PairRule`.
    pub paired_loads: usize,
}

/// Independently proves that `mach` (rewritten under `assignment`)
/// preserves the semantics of `func` on `target`.
///
/// `func` must be the *lowered* function the assignment refers to (the
/// `lowered` field of `AllocOutput`): φs eliminated and calls routed
/// through pinned argument registers, with any spill code of later rounds
/// already inserted.
pub fn check_allocation(
    func: &Function,
    assignment: &[Option<PhysReg>],
    mach: &MachFunction,
    target: &TargetDesc,
) -> Result<CheckReport, CheckError> {
    check_allocation_in(func, assignment, mach, target, &mut CheckScratch::default())
}

/// Like [`check_allocation`], drawing the checker's liveness storage,
/// abstract states and per-block buffers from `scratch`, which is reset
/// and reused across calls.
pub fn check_allocation_in(
    func: &Function,
    assignment: &[Option<PhysReg>],
    mach: &MachFunction,
    target: &TargetDesc,
    scratch: &mut CheckScratch,
) -> Result<CheckReport, CheckError> {
    let mut violations = Vec::new();
    let fail = |violations: Vec<Violation>| {
        Err(CheckError {
            func: func.name.clone(),
            violations,
        })
    };

    // Shape sanity: without matching block tables or lowered φs the walk
    // below has nothing to anchor on.
    if mach.blocks.len() != func.num_blocks() {
        violations.push(Violation::Frame {
            why: format!(
                "machine code has {} blocks but the IR has {}",
                mach.blocks.len(),
                func.num_blocks()
            ),
        });
        return fail(violations);
    }
    for b in func.block_ids() {
        if !func.block(b).phis.is_empty() {
            violations.push(Violation::Structure {
                block: b,
                inst: 0,
                why: "φs must be lowered before checking".into(),
            });
            return fail(violations);
        }
    }

    let cfg = Cfg::compute(func);
    let liveness = Liveness::compute_in(func, &cfg, &mut scratch.liveness);
    let result = check_body(
        func, assignment, mach, target, &cfg, &liveness, scratch, violations,
    );
    liveness.recycle(&mut scratch.liveness);
    result
}

/// The pass sequence behind [`check_allocation_in`], split out so the
/// pooled liveness can be recycled on every exit path.
#[allow(clippy::too_many_arguments)]
fn check_body(
    func: &Function,
    assignment: &[Option<PhysReg>],
    mach: &MachFunction,
    target: &TargetDesc,
    cfg: &Cfg,
    liveness: &Liveness,
    scratch: &mut CheckScratch,
    mut violations: Vec<Violation>,
) -> Result<CheckReport, CheckError> {
    let fail = |violations: Vec<Violation>| {
        Err(CheckError {
            func: func.name.clone(),
            violations,
        })
    };

    // Rule pass: every vreg referenced by reachable code has a register of
    // its class inside the class's file.
    let referenced = &mut scratch.referenced;
    referenced.reset(func.num_vregs());
    for b in func.block_ids().filter(|&b| cfg.is_reachable(b)) {
        for inst in &func.block(b).insts {
            if let Some(d) = inst.def() {
                referenced.insert(d.index());
            }
            inst.visit_uses(|u| {
                referenced.insert(u.index());
            });
        }
    }
    let mut unassigned = false;
    for v in referenced.iter().map(VReg::new) {
        match assignment.get(v.index()).copied().flatten() {
            None => {
                unassigned = true;
                violations.push(Violation::Unassigned { vreg: v });
            }
            Some(r) => {
                if r.class() != func.class_of(v) {
                    violations.push(Violation::BadRegister {
                        vreg: v,
                        reg: r,
                        why: format!(
                            "a {} vreg cannot live in a {} register",
                            func.class_of(v),
                            r.class()
                        ),
                    });
                } else if r.index() >= target.num_regs(r.class()) {
                    violations.push(Violation::BadRegister {
                        vreg: v,
                        reg: r,
                        why: format!(
                            "register index out of range for the {}-register {} file",
                            target.num_regs(r.class()),
                            r.class()
                        ),
                    });
                }
            }
        }
    }
    if unassigned {
        // The walk needs every referenced vreg mapped; report what we have.
        return fail(violations);
    }

    // Pair pass: every fused paired load satisfies its class's rule.
    let mut paired_loads = 0;
    for (bi, blk) in mach.blocks.iter().enumerate() {
        if !cfg.is_reachable(Block::new(bi)) {
            continue;
        }
        for (ii, m) in blk.iter().enumerate() {
            if let MInst::LoadPair {
                dst1,
                dst2,
                base,
                offset,
                offset2,
            } = m
            {
                paired_loads += 1;
                if let Some(why) = pair_violation(target, *dst1, *dst2, *base, *offset, *offset2) {
                    violations.push(Violation::BadPair {
                        block: Block::new(bi),
                        inst: ii,
                        why,
                    });
                }
            }
        }
    }

    // Frame pass: machine code stays inside the declared register files and
    // frame, and declares every non-volatile it writes.
    for (bi, blk) in mach.blocks.iter().enumerate() {
        for (ii, m) in blk.iter().enumerate() {
            m.for_each_reg(|r| {
                if r.index() >= target.num_regs(r.class()) {
                    violations.push(Violation::Frame {
                        why: format!(
                            "machine code at b{bi}:{ii} touches {r}, outside the {}-register {} file",
                            target.num_regs(r.class()),
                            r.class()
                        ),
                    });
                }
            });
            m.for_each_def(|r| {
                if !target.is_volatile(r) && !mach.used_nonvolatiles.contains(&r) {
                    violations.push(Violation::Frame {
                        why: format!(
                            "machine code at b{bi}:{ii} writes non-volatile {r}, which is not declared in used_nonvolatiles"
                        ),
                    });
                }
            });
            if let MInst::SpillLoad { slot, .. } | MInst::SpillStore { slot, .. } = m {
                if *slot >= mach.num_slots {
                    violations.push(Violation::BadSlot {
                        slot: *slot,
                        block: Block::new(bi),
                        inst: ii,
                        why: format!("outside the declared {}-slot frame", mach.num_slots),
                    });
                }
            }
        }
    }

    let checker = Checker {
        func,
        mach,
        target,
        assignment,
        spill_slots: func.spill_slot_bound(),
        cfg,
        liveness,
    };
    checker.run(scratch, &mut violations);

    if violations.is_empty() {
        let reachable = cfg.reverse_postorder();
        Ok(CheckReport {
            blocks: reachable.len(),
            ir_insts: reachable
                .iter()
                .map(|&b| func.block(b).insts.len())
                .sum(),
            mach_insts: reachable
                .iter()
                .map(|&b| mach.blocks[b.index()].len())
                .sum(),
            paired_loads,
        })
    } else {
        fail(violations)
    }
}

/// Why a `LoadPair` breaks `target`'s rule for its class, if it does.
fn pair_violation(
    target: &TargetDesc,
    dst1: PhysReg,
    dst2: PhysReg,
    base: PhysReg,
    offset: i32,
    offset2: i32,
) -> Option<String> {
    if dst1.class() != dst2.class() {
        return Some(format!("destinations {dst1} and {dst2} are in different classes"));
    }
    let Some(rule) = target.pair_rule(dst1.class()) else {
        return Some(format!("class {} has no pairing rule", dst1.class()));
    };
    if dst1 == dst2 {
        return Some(format!("both words target {dst1}"));
    }
    if dst1 == base {
        return Some(format!("first destination {dst1} is the base register"));
    }
    // `dst1` receives the word at `offset`; the rule constrains the pair as
    // (lower-addressed word, higher-addressed word).
    let (lo_dst, lo_off, hi_dst) = if offset2 == offset + rule.stride() {
        (dst1, offset, dst2)
    } else if offset2 == offset - rule.stride() {
        (dst2, offset2, dst1)
    } else {
        return Some(format!(
            "offsets {offset} and {offset2} are not a stride-{} pair",
            rule.stride()
        ));
    };
    if !rule.aligned(lo_off) {
        return Some(format!(
            "lower offset {lo_off} is not {}-aligned",
            rule.alignment()
        ));
    }
    if !rule.allows(lo_dst, hi_dst) {
        return Some(format!(
            "destinations ({lo_dst}, {hi_dst}) break the {:?} rule",
            rule.dest()
        ));
    }
    None
}

/// Whether the sorted set `set` holds `v`.
fn set_contains(set: &[u64], v: VReg) -> bool {
    set.binary_search(&(v.index() as u64)).is_ok()
}

/// Adds `v` to the sorted set `set`.
fn set_insert(set: &mut Vec<u64>, v: VReg) {
    if let Err(i) = set.binary_search(&(v.index() as u64)) {
        set.insert(i, v.index() as u64);
    }
}

/// Removes `v` from the sorted set `set`.
fn set_remove(set: &mut Vec<u64>, v: VReg) {
    if let Ok(i) = set.binary_search(&(v.index() as u64)) {
        set.remove(i);
    }
}

/// A location the abstract state tracks: a frame slot (its number) or a
/// physical register (above bit 32: class above bit 8, index below). Every
/// slot sorts before every register, so the frequent register writes that
/// change a run's length move only the register facts behind them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Loc(u64);

impl Loc {
    const REG: u64 = 1 << 32;

    fn reg(r: PhysReg) -> Loc {
        Loc(Loc::REG | (r.class().index() as u64) << 8 | r.index() as u64)
    }

    fn slot(slot: u32) -> Loc {
        Loc(u64::from(slot))
    }

    /// The register this location is, if it is one.
    fn as_reg(self) -> Option<PhysReg> {
        (self.0 >= Loc::REG).then(|| {
            let class = RegClass::ALL[((self.0 >> 8) & 1) as usize];
            PhysReg::new(class, self.0 as u8)
        })
    }
}

/// One fact of the abstract state: `loc` holds the current value of the
/// vreg whose index is `val` — or, when `val` is [`WRITTEN`], `loc` is a
/// definitely-written slot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Fact {
    loc: Loc,
    val: u64,
}

/// The marker fact's value: above every vreg index, so it ends its slot's
/// run of facts.
const WRITTEN: u64 = u64::MAX;

/// The abstract machine state: for every location, the set of vregs whose
/// *current* value it provably holds.
///
/// `facts` is must-information: one sorted, duplicate-free list of
/// (location, vreg) pairs over registers and frame slots. A register with
/// no fact holds no vreg's value that we can prove (⊥). A slot without its
/// [`WRITTEN`] marker has not definitely been written; a marker with no
/// other fact means written with a value we cannot name. Join (at
/// control-flow merges) is the intersection of the two lists — one merge,
/// which keeps a vreg only where both sides hold it and a marker only
/// where both sides wrote the slot.
///
/// `defined` is the must-defined vreg set: vregs with a def (or, for the
/// argument carriers, the calling convention) on *every* path from entry.
/// The IR is not SSA and generated workloads may read a vreg on a path
/// that never defines it — such a read yields garbage in the IR itself, so
/// the machine code cannot be wrong about its value, and value checks only
/// apply to must-defined uses. `written_slots` (sorted) is the dual may-set
/// for spill slots: slots some path has spilled to. A reload of a slot
/// outside it can *never* observe spilled data — broken bookkeeping — while
/// a reload of a may-written slot on an unwritten path mirrors the IR's own
/// garbage read of a not-must-defined vreg.
#[derive(Default, Debug)]
struct State {
    facts: Vec<Fact>,
    /// A superset of the vregs `facts` names, so that [`State::kill`] skips
    /// the walk for a vreg no location holds — most definitions.
    held: BitSet,
    defined: BitSet,
    written_slots: Vec<u32>,
}

/// Equal states prove the same facts; `held` is only a filter.
impl PartialEq for State {
    fn eq(&self, other: &State) -> bool {
        self.facts == other.facts
            && self.defined == other.defined
            && self.written_slots == other.written_slots
    }
}

impl State {
    /// Empties the state for a function of `num_vregs` vregs, keeping its
    /// storage.
    fn reset(&mut self, num_vregs: usize) {
        self.facts.clear();
        self.held.reset(num_vregs);
        self.defined.reset(num_vregs);
        self.written_slots.clear();
    }

    /// Makes `self` a copy of `other`, reusing `self`'s storage.
    fn copy_from(&mut self, other: &State) {
        self.facts.clear();
        self.facts.extend_from_slice(&other.facts);
        self.held.copy_from(&other.held);
        self.defined.copy_from(&other.defined);
        self.written_slots.clear();
        self.written_slots.extend_from_slice(&other.written_slots);
    }

    /// `self = self ⊓ other`; the slot union is built in `buf`.
    fn meet_with(&mut self, other: &State, buf: &mut Vec<u32>) {
        let theirs = &other.facts;
        let mut j = 0;
        self.facts.retain(|f| {
            while j < theirs.len() && theirs[j] < *f {
                j += 1;
            }
            j < theirs.len() && theirs[j] == *f
        });
        self.held.intersect_with(&other.held);
        self.defined.intersect_with(&other.defined);
        let (a, b) = (&self.written_slots, &other.written_slots);
        let (mut i, mut j) = (0, 0);
        buf.clear();
        while i < a.len() && j < b.len() {
            let s = a[i].min(b[j]);
            buf.push(s);
            i += usize::from(a[i] == s);
            j += usize::from(b[j] == s);
        }
        buf.extend_from_slice(&a[i..]);
        buf.extend_from_slice(&b[j..]);
        std::mem::swap(&mut self.written_slots, buf);
    }

    /// The range of `facts` about `loc`.
    fn span(&self, loc: Loc) -> Range<usize> {
        let start = self.facts.partition_point(|f| f.loc < loc);
        let len = self.facts[start..]
            .iter()
            .take_while(|f| f.loc == loc)
            .count();
        start..start + len
    }

    /// Copies into `out` (sorted) the vregs whose values `loc` holds, and
    /// returns whether `loc` has any fact at all — for a slot, whether it
    /// is definitely written.
    fn read(&self, loc: Loc, out: &mut Vec<u64>) -> bool {
        let span = self.span(loc);
        out.clear();
        out.extend(
            self.facts[span.clone()]
                .iter()
                .map(|f| f.val)
                .filter(|&v| v != WRITTEN),
        );
        !span.is_empty()
    }

    /// The vreg's old value is dead everywhere once it is redefined.
    fn kill(&mut self, v: VReg) {
        if self.held.remove(v.index()) {
            let v = v.index() as u64;
            self.facts.retain(|f| f.val != v);
        }
    }

    /// Register `r` now holds exactly the values of `vals` (sorted vreg
    /// indices; empty makes it ⊥).
    fn write(&mut self, r: PhysReg, vals: &[u64]) {
        let loc = Loc::reg(r);
        let span = self.span(loc);
        self.facts
            .splice(span, vals.iter().map(|&val| Fact { loc, val }));
        self.held.extend(vals.iter().map(|&v| v as usize));
    }

    /// Register `r` now holds exactly `v`'s value.
    fn write_one(&mut self, r: PhysReg, v: VReg) {
        self.write(r, &[v.index() as u64]);
    }

    /// Register `r` holds no provable value.
    fn clobber(&mut self, r: PhysReg) {
        let span = self.span(Loc::reg(r));
        self.facts.drain(span);
    }

    /// Slot `slot` is now written with the values of `vals` (sorted vreg
    /// indices).
    fn store(&mut self, slot: u32, vals: &[u64]) {
        let loc = Loc::slot(slot);
        let span = self.span(loc);
        self.facts.splice(
            span,
            vals.iter()
                .copied()
                .chain([WRITTEN])
                .map(|val| Fact { loc, val }),
        );
        self.held.extend(vals.iter().map(|&v| v as usize));
    }

    fn holds(&self, r: PhysReg, v: VReg) -> bool {
        let fact = Fact {
            loc: Loc::reg(r),
            val: v.index() as u64,
        };
        self.facts.binary_search(&fact).is_ok()
    }

    fn is_defined(&self, v: VReg) -> bool {
        self.defined.contains(v.index())
    }
}

/// Which of the three walks over the function is running.
///
/// The IR↔machine correspondence (which machine instructions implement
/// which IR instruction) is state-independent, so it is established once in
/// `Structure` from a throwaway state; `Fixpoint` then iterates the value
/// state to convergence without recording anything; `Final` replays once
/// more from the converged in-states and records value violations.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    Structure,
    Fixpoint,
    Final,
}

/// A pending second half of a fused paired load: `LoadPair` already loaded
/// `[base + offset2]` into `dst2`, and a later IR load in the same block
/// will claim it. `base_vals` snapshots (sorted vreg indices) which vregs'
/// values the base register held when the address was read; copies extend
/// it, and any redefinition of a member evicts it.
#[derive(Debug)]
struct Hoist {
    dst2: PhysReg,
    base_reg: PhysReg,
    offset2: i32,
    base_vals: Vec<u64>,
}

/// The buffers a walk over one block borrows.
#[derive(Debug, Default)]
struct Buffers {
    /// Pending hoisted paired-load halves, in issue order.
    ledger: Vec<Hoist>,
    /// Spare storage for [`Hoist::base_vals`].
    snapshots: VecPool<u64>,
    /// A location's values, copied out before another location is written.
    vals: Vec<u64>,
    /// Where a meet builds its union of written slots.
    slots: Vec<u32>,
}

impl Buffers {
    /// Drops, in order, every ledger entry `keep` rejects.
    fn evict(&mut self, mut keep: impl FnMut(&Hoist) -> bool) {
        let mut i = 0;
        while i < self.ledger.len() {
            if keep(&self.ledger[i]) {
                i += 1;
            } else {
                let h = self.ledger.remove(i);
                self.snapshots.put(h.base_vals);
            }
        }
    }
}

/// A pooled state, emptied for a function of `num_vregs` vregs.
fn take_state(states: &mut Vec<State>, num_vregs: usize) -> State {
    let mut st = states.pop().unwrap_or_default();
    st.reset(num_vregs);
    st
}

struct Checker<'a> {
    func: &'a Function,
    mach: &'a MachFunction,
    target: &'a TargetDesc,
    assignment: &'a [Option<PhysReg>],
    /// Slots `0..spill_slots` carry IR spill code; higher slots are
    /// caller-save shadows ([`Function::spill_slot_bound`]).
    spill_slots: u64,
    cfg: &'a Cfg,
    liveness: &'a Liveness,
}

impl Checker<'_> {
    fn reg(&self, v: VReg) -> PhysReg {
        self.assignment[v.index()].expect("referenced vreg screened as assigned")
    }

    /// Fills the (empty) `st` with the state on entry: each argument
    /// register holds the vreg that carries that parameter, when the
    /// assignment actually put it there. (Lowered functions copy the pinned
    /// argument register into the param vreg at block entry; hand-built
    /// functions use the param directly.)
    fn entry_state(&self, st: &mut State) {
        let entry = &self.func.block(Block::ENTRY).insts;
        let mut counts = [0usize; RegClass::ALL.len()];
        for (i, &p) in self.func.param_vregs.iter().enumerate() {
            let class = self.func.sig.params[i];
            let nth = counts[class.index()];
            counts[class.index()] += 1;
            let Some(r) = self.target.arg_reg(class, nth) else {
                continue;
            };
            let carrier = entry
                .iter()
                .find_map(|inst| match inst {
                    Inst::Copy { dst, src } if *dst == p => Some(*src),
                    _ => None,
                })
                .unwrap_or(p);
            // The carrier is defined by the convention whether or not the
            // assignment honoured it; a dishonoured carrier surfaces as a
            // stale value at its first use.
            st.defined.insert(carrier.index());
            if self.assignment.get(carrier.index()).copied().flatten() == Some(r) {
                st.held.insert(carrier.index());
                let fact = Fact {
                    loc: Loc::reg(r),
                    val: carrier.index() as u64,
                };
                if let Err(at) = st.facts.binary_search(&fact) {
                    st.facts.insert(at, fact);
                }
            }
        }
    }

    fn run(&self, scratch: &mut CheckScratch, violations: &mut Vec<Violation>) {
        let rpo = self.cfg.reverse_postorder();
        let num_vregs = self.func.num_vregs();
        let mut entry_seed = take_state(&mut scratch.states, num_vregs);
        self.entry_state(&mut entry_seed);
        let mut st = take_state(&mut scratch.states, num_vregs);

        // Structure pass: the correspondence walk, from a throwaway state.
        let mut structural = Vec::new();
        for &b in rpo {
            st.reset(num_vregs);
            let _ = self.transfer(
                b,
                &mut st,
                Pass::Structure,
                &[],
                &mut structural,
                &mut scratch.bufs,
            );
        }
        if !structural.is_empty() {
            violations.append(&mut structural);
            scratch.states.extend([st, entry_seed]);
            return;
        }

        // Fixpoint: iterate block out-states to convergence (a must-
        // analysis over a finite lattice of shrinking sets, so this
        // terminates). Worklist-driven, ordered by RPO position: a block
        // re-runs only when a predecessor's out-state changed, so acyclic
        // regions converge in a single sweep instead of sweep-per-change.
        let mut outs = std::mem::take(&mut scratch.outs);
        outs.resize_with(self.func.num_blocks(), || None);
        let mut rpo_pos = scratch
            .rpo_pos
            .take_filled(self.func.num_blocks(), usize::MAX);
        for (p, &b) in rpo.iter().enumerate() {
            rpo_pos[b.index()] = p;
        }
        let work = &mut scratch.work;
        work.reset(rpo.len());
        work.extend(0..rpo.len());
        while let Some(p) = work.iter().next() {
            work.remove(p);
            let b = rpo[p];
            if !self.in_state(b, &outs, &entry_seed, &mut st, &mut scratch.bufs.slots) {
                continue;
            }
            self.transfer(
                b,
                &mut st,
                Pass::Fixpoint,
                &[],
                &mut Vec::new(),
                &mut scratch.bufs,
            )
            .expect("correspondence verified by the structure pass");
            match &mut outs[b.index()] {
                Some(old) if *old == st => continue,
                Some(old) => std::mem::swap(old, &mut st),
                None => {
                    let spare = take_state(&mut scratch.states, num_vregs);
                    outs[b.index()] = Some(std::mem::replace(&mut st, spare));
                }
            }
            for &s in self.cfg.succs(b) {
                if rpo_pos[s.index()] != usize::MAX {
                    work.insert(rpo_pos[s.index()]);
                }
            }
        }
        scratch.rpo_pos.put(rpo_pos);

        // Entry interference: live-in vregs sharing a register must both be
        // proven to hold that register's value (same-value coalescing).
        let mut live_in = scratch.live_in.take();
        live_in.extend(self.liveness.live_in(Block::ENTRY).iter().map(VReg::new));
        for (i, &a) in live_in.iter().enumerate() {
            for &b in &live_in[i + 1..] {
                // Live-in vregs that are not argument carriers hold garbage
                // on entry; sharing a register cannot make them wronger.
                if !(entry_seed.is_defined(a) && entry_seed.is_defined(b)) {
                    continue;
                }
                let ra = self.reg(a);
                if ra == self.reg(b) && !(entry_seed.holds(ra, a) && entry_seed.holds(ra, b)) {
                    violations.push(Violation::Interference {
                        a,
                        b,
                        reg: ra,
                        block: Block::ENTRY,
                        inst: 0,
                    });
                }
            }
        }
        scratch.live_in.put(live_in);

        // Final pass: replay each block from its converged in-state and
        // record every value violation.
        for &b in rpo {
            if !self.in_state(b, &outs, &entry_seed, &mut st, &mut scratch.bufs.slots) {
                continue;
            }
            let mut live_after = scratch.live_after.take(self.func.block(b).insts.len());
            self.liveness
                .for_each_inst_backward_in(self.func, b, &mut scratch.walk, |i, _, la| {
                    live_after[i].extend(la.iter().map(VReg::new));
                });
            let _ = self.transfer(
                b,
                &mut st,
                Pass::Final,
                &live_after,
                violations,
                &mut scratch.bufs,
            );
            scratch.live_after.put(live_after);
        }
        scratch.states.extend(outs.drain(..).flatten());
        scratch.states.extend([st, entry_seed]);
        scratch.outs = outs;
    }

    /// Sets `st` to the meet-over-predecessors in-state of `b` (met with
    /// the argument seed for the entry block); `false` when no predecessor
    /// has been evaluated yet.
    fn in_state(
        &self,
        b: Block,
        outs: &[Option<State>],
        seed: &State,
        st: &mut State,
        buf: &mut Vec<u32>,
    ) -> bool {
        let mut any = b == Block::ENTRY;
        if any {
            st.copy_from(seed);
        }
        for &p in self.cfg.preds(b) {
            if let Some(o) = &outs[p.index()] {
                if any {
                    st.meet_with(o, buf);
                } else {
                    st.copy_from(o);
                    any = true;
                }
            }
        }
        any
    }

    /// Walks block `b`'s IR and machine code in lockstep, applying the
    /// abstract transfer of each instruction to `st` in place.
    ///
    /// `Err(())` means the machine code does not structurally implement
    /// the IR; the mismatch is recorded only in the `Structure` pass.
    fn transfer(
        &self,
        b: Block,
        st: &mut State,
        pass: Pass,
        live_after: &[Vec<VReg>],
        violations: &mut Vec<Violation>,
        bufs: &mut Buffers,
    ) -> Result<(), ()> {
        let ir = &self.func.block(b).insts;
        let mc = &self.mach.blocks[b.index()];
        let mut mi = 0usize;
        // A walk that failed to match may have left hoists behind.
        bufs.evict(|_| false);
        let record = pass == Pass::Final;

        macro_rules! structure {
            ($i:expr, $($why:tt)*) => {{
                if pass == Pass::Structure {
                    violations.push(Violation::Structure {
                        block: b,
                        inst: $i,
                        why: format!($($why)*),
                    });
                }
                return Err(());
            }};
        }
        // Takes the next machine instruction, requiring `$pat` (with guard)
        // to match it; keeps the hoist ledger honest afterwards.
        macro_rules! expect {
            ($i:expr, $want:expr, $pat:pat $(if $guard:expr)?) => {{
                match mc.get(mi) {
                    Some(m @ $pat) $(if $guard)? => {
                        let _ = m;
                        mi += 1;
                        let m = &mc[mi - 1];
                        match m {
                            MInst::Store { .. } | MInst::SpillStore { .. } | MInst::Call { .. } => {
                                bufs.evict(|_| false)
                            }
                            _ => bufs.evict(|h| !m.writes(h.dst2)),
                        }
                    }
                    found => structure!(
                        $i,
                        "expected {}, found {}",
                        $want,
                        found.map_or("end of block".to_string(), |m| format!("`{m:?}`"))
                    ),
                }
            }};
        }

        let found = |mi: usize| {
            mc.get(mi)
                .map_or("end of block".to_string(), |m| format!("`{m:?}`"))
        };

        for (i, inst) in ir.iter().enumerate() {
            // A use must read a location proven to hold the vreg's value —
            // unless the vreg is not must-defined here, in which case the
            // IR itself reads garbage on some path and any value refines it.
            macro_rules! use_check {
                ($v:expr) => {{
                    let v: VReg = $v;
                    if record && st.is_defined(v) && !st.holds(self.reg(v), v) {
                        violations.push(Violation::StaleValue {
                            vreg: v,
                            reg: self.reg(v),
                            block: b,
                            inst: i,
                        });
                    }
                }};
            }

            match inst {
                Inst::Copy { dst, src } => {
                    let (rd, rs) = (self.reg(*dst), self.reg(*src));
                    // A coalesced copy (`rd == rs`) emits nothing; the
                    // value claim it makes is what the replay verifies.
                    if rd != rs {
                        expect!(
                            i,
                            format!("`{rd} = {rs}`"),
                            MInst::Copy { dst: md, src: ms } if *md == rd && *ms == rs
                        );
                    }
                    use_check!(*src);
                    st.kill(*dst);
                    st.read(Loc::reg(rs), &mut bufs.vals);
                    set_insert(&mut bufs.vals, *dst);
                    st.write(rd, &bufs.vals);
                    // A copy propagates pending paired-load base values.
                    for h in &mut bufs.ledger {
                        let had_src = set_contains(&h.base_vals, *src);
                        set_remove(&mut h.base_vals, *dst);
                        if had_src {
                            set_insert(&mut h.base_vals, *dst);
                        }
                    }
                }
                Inst::Iconst { dst, value } => {
                    let rd = self.reg(*dst);
                    expect!(
                        i,
                        format!("`{rd} = {value}`"),
                        MInst::Iconst { dst: md, value: mv } if *md == rd && mv == value
                    );
                    st.kill(*dst);
                    st.write_one(rd, *dst);
                }
                Inst::Fconst { dst, value } => {
                    let rd = self.reg(*dst);
                    expect!(
                        i,
                        format!("`{rd} = {value}`"),
                        MInst::Fconst { dst: md, value: mv }
                            if *md == rd && mv.to_bits() == value.to_bits()
                    );
                    st.kill(*dst);
                    st.write_one(rd, *dst);
                }
                Inst::Load { dst, base, offset } => {
                    let (rd, rb) = (self.reg(*dst), self.reg(*base));
                    match mc.get(mi) {
                        Some(MInst::Load {
                            dst: md,
                            base: mb,
                            offset: mo,
                        }) if *md == rd && *mb == rb && mo == offset => {
                            mi += 1;
                            bufs.evict(|h| h.dst2 != rd);
                            use_check!(*base);
                            st.kill(*dst);
                            st.write_one(rd, *dst);
                        }
                        Some(MInst::LoadPair {
                            dst1,
                            dst2,
                            base: mb,
                            offset: mo,
                            offset2,
                        }) if *dst1 == rd && *mb == rb && mo == offset => {
                            let (dst2, offset2) = (*dst2, *offset2);
                            mi += 1;
                            bufs.evict(|h| h.dst2 != rd && h.dst2 != dst2);
                            use_check!(*base);
                            // The address was read now: snapshot what the
                            // base register holds before any writes.
                            let mut base_vals = bufs.snapshots.take();
                            st.read(Loc::reg(rb), &mut base_vals);
                            st.kill(*dst);
                            st.write_one(rd, *dst);
                            // The second word landed in dst2, but no vreg's
                            // value lives there until the claiming load.
                            st.clobber(dst2);
                            bufs.ledger.push(Hoist {
                                dst2,
                                base_reg: rb,
                                offset2,
                                base_vals,
                            });
                        }
                        _ => {
                            // The hoisted second half of an earlier pair?
                            let Some(pos) = bufs.ledger.iter().position(|h| {
                                h.dst2 == rd && h.base_reg == rb && h.offset2 == *offset
                            }) else {
                                structure!(
                                    i,
                                    "expected `{rd} = [{rb} + {offset}]` (or its paired/hoisted form), found {}",
                                    found(mi)
                                );
                            };
                            let h = bufs.ledger.remove(pos);
                            // The base was consumed when the pair issued:
                            // the vreg used *here* must have held the base
                            // register's value back then.
                            if record && st.is_defined(*base) && !set_contains(&h.base_vals, *base)
                            {
                                violations.push(Violation::StaleValue {
                                    vreg: *base,
                                    reg: rb,
                                    block: b,
                                    inst: i,
                                });
                            }
                            bufs.snapshots.put(h.base_vals);
                            st.kill(*dst);
                            st.write_one(rd, *dst);
                        }
                    }
                }
                Inst::Load8 { dst, base, offset } => {
                    let (rd, rb) = (self.reg(*dst), self.reg(*base));
                    expect!(
                        i,
                        format!("`{rd} = byte [{rb} + {offset}]`"),
                        MInst::Load8 { dst: md, base: mb, offset: mo }
                            if *md == rd && *mb == rb && mo == offset
                    );
                    if !self.target.is_byte_capable(rd) {
                        expect!(
                            i,
                            format!("zero-extension `{rd} &= 0xff` after a byte load into {rd}"),
                            MInst::BinImm { op: BinOp::And, dst: md, lhs: ml, imm: 0xff }
                                if *md == rd && *ml == rd
                        );
                    }
                    use_check!(*base);
                    st.kill(*dst);
                    st.write_one(rd, *dst);
                }
                Inst::Store { src, base, offset } => {
                    let (rs, rb) = (self.reg(*src), self.reg(*base));
                    expect!(
                        i,
                        format!("`[{rb} + {offset}] = {rs}`"),
                        MInst::Store { src: ms, base: mb, offset: mo }
                            if *ms == rs && *mb == rb && mo == offset
                    );
                    use_check!(*src);
                    use_check!(*base);
                }
                Inst::Bin { op, dst, lhs, rhs } => {
                    let (rd, rl, rr) = (self.reg(*dst), self.reg(*lhs), self.reg(*rhs));
                    expect!(
                        i,
                        format!("`{rd} = {rl} {op:?} {rr}`"),
                        MInst::Bin { op: mop, dst: md, lhs: ml, rhs: mr }
                            if mop == op && *md == rd && *ml == rl && *mr == rr
                    );
                    use_check!(*lhs);
                    use_check!(*rhs);
                    st.kill(*dst);
                    st.write_one(rd, *dst);
                }
                Inst::BinImm { op, dst, lhs, imm } => {
                    let (rd, rl) = (self.reg(*dst), self.reg(*lhs));
                    expect!(
                        i,
                        format!("`{rd} = {rl} {op:?} {imm}`"),
                        MInst::BinImm { op: mop, dst: md, lhs: ml, imm: mimm }
                            if mop == op && *md == rd && *ml == rl && mimm == imm
                    );
                    use_check!(*lhs);
                    st.kill(*dst);
                    st.write_one(rd, *dst);
                }
                Inst::Call { callee, args, ret } => {
                    // Nothing hoisted survives a call.
                    bufs.evict(|_| false);
                    // Caller-save stores: shadow slots sit above the IR
                    // spill area, so they cannot be IR `Spill`s.
                    while let Some(MInst::SpillStore { src, slot }) = mc.get(mi) {
                        if u64::from(*slot) < self.spill_slots {
                            break;
                        }
                        st.read(Loc::reg(*src), &mut bufs.vals);
                        st.store(*slot, &bufs.vals);
                        mi += 1;
                    }
                    match mc.get(mi) {
                        Some(MInst::Call {
                            callee: mcallee,
                            arg_regs,
                            ret_reg,
                        }) if mcallee == callee
                            && arg_regs.len() == args.len()
                            && args.iter().zip(arg_regs).all(|(a, r)| self.reg(*a) == *r)
                            && *ret_reg == ret.map(|v| self.reg(v)) =>
                        {
                            mi += 1;
                        }
                        _ => structure!(
                            i,
                            "expected a call of callee #{} with arguments in {:?} returning into {:?}, found {}",
                            callee.index(),
                            args.iter().map(|&a| self.reg(a)).collect::<Vec<_>>(),
                            ret.map(|v| self.reg(v)),
                            found(mi)
                        ),
                    }
                    for &a in args {
                        use_check!(a);
                    }
                    // The callee may write every volatile register.
                    st.facts
                        .retain(|f| !f.loc.as_reg().is_some_and(|r| self.target.is_volatile(r)));
                    if let Some(v) = ret {
                        st.kill(*v);
                        st.write_one(self.reg(*v), *v);
                    }
                    // Caller-save reloads restore the shadowed values.
                    while let Some(MInst::SpillLoad { dst, slot }) = mc.get(mi) {
                        if u64::from(*slot) < self.spill_slots {
                            break;
                        }
                        if st.read(Loc::slot(*slot), &mut bufs.vals) {
                            st.write(*dst, &bufs.vals);
                        } else {
                            if record {
                                violations.push(Violation::BadSlot {
                                    slot: *slot,
                                    block: b,
                                    inst: i,
                                    why: "caller-save restore reads an unwritten slot".into(),
                                });
                            }
                            st.clobber(*dst);
                        }
                        mi += 1;
                    }
                }
                Inst::Jump { target } => {
                    expect!(
                        i,
                        format!("`jump {target}`"),
                        MInst::Jump { target: mt } if mt == target
                    );
                }
                Inst::Branch {
                    op,
                    lhs,
                    rhs,
                    then_dst,
                    else_dst,
                } => {
                    let (rl, rr) = (self.reg(*lhs), self.reg(*rhs));
                    expect!(
                        i,
                        format!("`if {rl} {op:?} {rr} then {then_dst} else {else_dst}`"),
                        MInst::Branch { op: mop, lhs: ml, rhs: mr, then_dst: mt, else_dst: me }
                            if mop == op && *ml == rl && *mr == rr && mt == then_dst && me == else_dst
                    );
                    use_check!(*lhs);
                    use_check!(*rhs);
                }
                Inst::BranchImm {
                    op,
                    lhs,
                    imm,
                    then_dst,
                    else_dst,
                } => {
                    let rl = self.reg(*lhs);
                    expect!(
                        i,
                        format!("`if {rl} {op:?} {imm} then {then_dst} else {else_dst}`"),
                        MInst::BranchImm { op: mop, lhs: ml, imm: mimm, then_dst: mt, else_dst: me }
                            if mop == op && *ml == rl && mimm == imm && mt == then_dst && me == else_dst
                    );
                    use_check!(*lhs);
                }
                Inst::Ret { value } => {
                    expect!(i, "`ret`".to_string(), MInst::Ret);
                    if let Some(v) = value {
                        let want = self.target.ret_reg(self.func.class_of(*v));
                        if record && self.reg(*v) != want {
                            violations.push(Violation::BadRegister {
                                vreg: *v,
                                reg: self.reg(*v),
                                why: format!("returned values must live in {want}"),
                            });
                        }
                        use_check!(*v);
                    }
                }
                Inst::Reload { dst, slot } => {
                    let rd = self.reg(*dst);
                    expect!(
                        i,
                        format!("`{rd} = frame[{slot}]`"),
                        MInst::SpillLoad { dst: md, slot: ms } if *md == rd && ms == slot
                    );
                    // The slot's content is read before the kill below.
                    st.read(Loc::slot(*slot), &mut bufs.vals);
                    if record && st.written_slots.binary_search(slot).is_err() {
                        violations.push(Violation::BadSlot {
                            slot: *slot,
                            block: b,
                            inst: i,
                            why: "read before any possible write".into(),
                        });
                    }
                    st.kill(*dst);
                    set_insert(&mut bufs.vals, *dst);
                    st.write(rd, &bufs.vals);
                }
                Inst::Spill { src, slot } => {
                    let rs = self.reg(*src);
                    expect!(
                        i,
                        format!("`frame[{slot}] = {rs}`"),
                        MInst::SpillStore { src: ms, slot: mslot } if *ms == rs && mslot == slot
                    );
                    use_check!(*src);
                    st.read(Loc::reg(rs), &mut bufs.vals);
                    st.store(*slot, &bufs.vals);
                    if let Err(at) = st.written_slots.binary_search(slot) {
                        st.written_slots.insert(at, *slot);
                    }
                }
            }

            // Redefining a vreg evicts its (old) value from pending
            // paired-load base snapshots; copies were handled above.
            if !matches!(inst, Inst::Copy { .. }) {
                if let Some(d) = inst.def() {
                    for h in &mut bufs.ledger {
                        set_remove(&mut h.base_vals, d);
                    }
                }
            }
            if let Some(d) = inst.def() {
                st.defined.insert(d.index());
            }

            // Interference: anything still live may not share the defined
            // register unless it provably holds the same value.
            if record {
                if let Some(d) = inst.def() {
                    let rd = self.reg(d);
                    for &v in &live_after[i] {
                        if v != d && self.reg(v) == rd && st.is_defined(v) && !st.holds(rd, v) {
                            violations.push(Violation::Interference {
                                a: d,
                                b: v,
                                reg: rd,
                                block: b,
                                inst: i,
                            });
                        }
                    }
                }
            }
        }

        if mi != mc.len() {
            structure!(
                ir.len(),
                "{} trailing machine instruction(s), starting with {}",
                mc.len() - mi,
                found(mi)
            );
        }
        if let Some(h) = bufs.ledger.first() {
            structure!(
                ir.len(),
                "a paired load hoisted a word into {} that no load claims",
                h.dst2
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgc_ir::{BinOp, FunctionBuilder, RegClass};
    use pdgc_target::{MachFunction, PressureModel, TargetDesc};

    /// `f(p) = [p] + [p+8]`, the paired-load shape.
    fn sum2() -> Function {
        let mut b = FunctionBuilder::new("sum2", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let x = b.load(p, 0);
        let y = b.load(p, 8);
        let s = b.bin(BinOp::Add, x, y);
        b.ret(Some(s));
        b.finish()
    }

    fn assign(pairs: &[(usize, PhysReg)], n: usize) -> Vec<Option<PhysReg>> {
        let mut a = vec![None; n];
        for &(v, r) in pairs {
            a[v] = Some(r);
        }
        a
    }

    fn mach_of(func: &Function, blocks: Vec<Vec<MInst>>, num_slots: u32) -> MachFunction {
        MachFunction {
            name: func.name.clone(),
            sig: func.sig.clone(),
            blocks,
            num_slots,
            used_nonvolatiles: Vec::new(),
            callees: func.callees.clone(),
        }
    }

    fn r(i: u8) -> PhysReg {
        PhysReg::int(i)
    }

    fn target() -> TargetDesc {
        TargetDesc::ia64_like(PressureModel::Middle)
    }

    fn kinds(err: &CheckError) -> Vec<&'static str> {
        err.violations.iter().map(Violation::kind).collect()
    }

    #[test]
    fn meet_keeps_facts_and_markers_present_on_both_sides() {
        let (v1, v2, v3) = (VReg::new(1), VReg::new(2), VReg::new(3));
        let mut vals = Vec::new();
        let mut left = State::default();
        left.reset(4);
        left.write(r(1), &[1, 2]);
        left.store(0, &[1]);
        left.store(1, &[]);
        left.store(2, &[3]);
        left.written_slots = vec![0, 2];
        left.defined.extend([1, 2]);
        let mut right = State::default();
        right.reset(4);
        right.write(r(1), &[2, 3]);
        right.store(0, &[2]);
        right.store(2, &[3]);
        right.written_slots = vec![1, 2];
        right.defined.extend([2, 3]);

        left.meet_with(&right, &mut Vec::new());
        assert!(left.holds(r(1), v2) && !left.holds(r(1), v1) && !left.holds(r(1), v3));
        // Slot 0 was written on both sides with different values: present,
        // but naming no vreg.
        assert!(left.read(Loc::slot(0), &mut vals) && vals.is_empty());
        // Slot 1 was written on one side only: not definitely written.
        assert!(!left.read(Loc::slot(1), &mut vals));
        assert!(left.read(Loc::slot(2), &mut vals) && vals == [3]);
        assert_eq!(left.written_slots, [0, 1, 2]);
        assert_eq!(left.defined.iter().collect::<Vec<_>>(), [2]);

        // A kill empties a register entirely but keeps a slot's marker.
        left.kill(v2);
        left.kill(v3);
        assert!(!left.read(Loc::reg(r(1)), &mut vals));
        assert!(left.read(Loc::slot(2), &mut vals) && vals.is_empty());
    }

    #[test]
    fn accepts_a_straight_line_function() {
        let f = sum2();
        // p=v0 in r0 (the argument register), x=v1, y=v2, s=v3 in the
        // return register r0.
        let a = assign(&[(0, r(0)), (1, r(1)), (2, r(2)), (3, r(0))], f.num_vregs());
        let m = mach_of(
            &f,
            vec![vec![
                MInst::Load { dst: r(1), base: r(0), offset: 0 },
                MInst::Load { dst: r(2), base: r(0), offset: 8 },
                MInst::Bin { op: BinOp::Add, dst: r(0), lhs: r(1), rhs: r(2) },
                MInst::Ret,
            ]],
            0,
        );
        let report = check_allocation(&f, &a, &m, &target()).unwrap();
        assert_eq!(report.blocks, 1);
        assert_eq!(report.ir_insts, 4);
        assert_eq!(report.paired_loads, 0);
    }

    #[test]
    fn accepts_a_fused_paired_load() {
        let f = sum2();
        let a = assign(&[(0, r(0)), (1, r(1)), (2, r(2)), (3, r(0))], f.num_vregs());
        let m = mach_of(
            &f,
            vec![vec![
                MInst::LoadPair { dst1: r(1), dst2: r(2), base: r(0), offset: 0, offset2: 8 },
                MInst::Bin { op: BinOp::Add, dst: r(0), lhs: r(1), rhs: r(2) },
                MInst::Ret,
            ]],
            0,
        );
        let report = check_allocation(&f, &a, &m, &target()).unwrap();
        assert_eq!(report.paired_loads, 1);
    }

    #[test]
    fn accepts_a_minus_stride_paired_load() {
        // The loads arrive high-offset-first: [p+8] then [p].
        let mut b = FunctionBuilder::new("rsum2", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let y = b.load(p, 8);
        let x = b.load(p, 0);
        let s = b.bin(BinOp::Add, x, y);
        b.ret(Some(s));
        let f = b.finish();
        let a = assign(&[(0, r(0)), (1, r(2)), (2, r(1)), (3, r(0))], f.num_vregs());
        let m = mach_of(
            &f,
            vec![vec![
                // dst1 takes [p+8], dst2 the hoisted [p]: a descending pair.
                MInst::LoadPair { dst1: r(2), dst2: r(1), base: r(0), offset: 8, offset2: 0 },
                MInst::Bin { op: BinOp::Add, dst: r(0), lhs: r(1), rhs: r(2) },
                MInst::Ret,
            ]],
            0,
        );
        let report = check_allocation(&f, &a, &m, &target()).unwrap();
        assert_eq!(report.paired_loads, 1);
        let _ = (x, y, s, p);
    }

    #[test]
    fn rejects_a_wrong_class_register() {
        let f = sum2();
        let a = assign(
            &[(0, r(0)), (1, PhysReg::float(1)), (2, r(2)), (3, r(0))],
            f.num_vregs(),
        );
        let m = mach_of(&f, vec![vec![MInst::Ret]], 0);
        let err = check_allocation(&f, &a, &m, &target()).unwrap_err();
        assert!(kinds(&err).contains(&"bad-register"), "{err}");
    }

    #[test]
    fn rejects_an_out_of_file_register() {
        let f = sum2();
        let a = assign(&[(0, r(0)), (1, r(63)), (2, r(2)), (3, r(0))], f.num_vregs());
        let m = mach_of(&f, vec![vec![MInst::Ret]], 0);
        let err = check_allocation(&f, &a, &m, &target()).unwrap_err();
        assert!(kinds(&err).contains(&"bad-register"), "{err}");
    }

    #[test]
    fn rejects_interfering_vregs_in_one_register() {
        let f = sum2();
        // x and y are simultaneously live but both get r1.
        let a = assign(&[(0, r(0)), (1, r(1)), (2, r(1)), (3, r(0))], f.num_vregs());
        let m = mach_of(
            &f,
            vec![vec![
                MInst::Load { dst: r(1), base: r(0), offset: 0 },
                MInst::Load { dst: r(1), base: r(0), offset: 8 },
                MInst::Bin { op: BinOp::Add, dst: r(0), lhs: r(1), rhs: r(1) },
                MInst::Ret,
            ]],
            0,
        );
        let err = check_allocation(&f, &a, &m, &target()).unwrap_err();
        assert!(kinds(&err).contains(&"interference"), "{err}");
        assert!(kinds(&err).contains(&"stale-value"), "{err}");
    }

    #[test]
    fn rejects_a_clobbered_pair() {
        let f = sum2();
        // r1/r3 breaks the parity rule (indices must differ by one).
        let a = assign(&[(0, r(0)), (1, r(1)), (2, r(3)), (3, r(0))], f.num_vregs());
        let m = mach_of(
            &f,
            vec![vec![
                MInst::LoadPair { dst1: r(1), dst2: r(3), base: r(0), offset: 0, offset2: 8 },
                MInst::Bin { op: BinOp::Add, dst: r(0), lhs: r(1), rhs: r(3) },
                MInst::Ret,
            ]],
            0,
        );
        let err = check_allocation(&f, &a, &m, &target()).unwrap_err();
        assert_eq!(kinds(&err), vec!["bad-pair"], "{err}");
    }

    #[test]
    fn rejects_a_slot_read_before_write() {
        let mut b = FunctionBuilder::new("rbw", vec![], Some(RegClass::Int));
        let t = b.iconst(7);
        b.ret(Some(t));
        let mut f = b.finish();
        // Replace the body: reload from a slot nothing ever spilled to.
        f.blocks[0].insts[0] = Inst::Reload { dst: t, slot: 0 };
        let a = assign(&[(0, r(0))], f.num_vregs());
        let m = mach_of(
            &f,
            vec![vec![MInst::SpillLoad { dst: r(0), slot: 0 }, MInst::Ret]],
            1,
        );
        let err = check_allocation(&f, &a, &m, &target()).unwrap_err();
        assert!(kinds(&err).contains(&"bad-slot"), "{err}");
    }

    #[test]
    fn rejects_spill_traffic_outside_the_frame() {
        let mut b = FunctionBuilder::new("oob", vec![], Some(RegClass::Int));
        let t = b.iconst(7);
        b.ret(Some(t));
        let mut f = b.finish();
        f.blocks[0].insts = vec![
            Inst::Iconst { dst: t, value: 7 },
            Inst::Spill { src: t, slot: 3 },
            Inst::Reload { dst: t, slot: 3 },
            Inst::Ret { value: Some(t) },
        ];
        let a = assign(&[(0, r(0))], f.num_vregs());
        let m = mach_of(
            &f,
            vec![vec![
                MInst::Iconst { dst: r(0), value: 7 },
                MInst::SpillStore { src: r(0), slot: 3 },
                MInst::SpillLoad { dst: r(0), slot: 3 },
                MInst::Ret,
            ]],
            2, // the frame claims 2 slots; slot 3 is out of bounds
        );
        let err = check_allocation(&f, &a, &m, &target()).unwrap_err();
        assert!(kinds(&err).contains(&"bad-slot"), "{err}");
    }

    #[test]
    fn rejects_a_missing_caller_save() {
        let mut b = FunctionBuilder::new("nosave", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        b.call("ext", vec![], None);
        let s = b.bin(BinOp::Add, p, p);
        b.ret(Some(s));
        let f = b.finish();
        // p lives in volatile r0 across the call with no save/restore.
        let a = assign(&[(0, r(0)), (1, r(0))], f.num_vregs());
        let call = MInst::Call {
            callee: pdgc_ir::CalleeId::new(0),
            arg_regs: vec![],
            ret_reg: None,
        };
        let m = mach_of(
            &f,
            vec![vec![
                call.clone(),
                MInst::Bin { op: BinOp::Add, dst: r(0), lhs: r(0), rhs: r(0) },
                MInst::Ret,
            ]],
            0,
        );
        let err = check_allocation(&f, &a, &m, &target()).unwrap_err();
        assert!(kinds(&err).contains(&"stale-value"), "{err}");

        // The same code with the caller-save shadow is accepted.
        let m = mach_of(
            &f,
            vec![vec![
                MInst::SpillStore { src: r(0), slot: 0 },
                call,
                MInst::SpillLoad { dst: r(0), slot: 0 },
                MInst::Bin { op: BinOp::Add, dst: r(0), lhs: r(0), rhs: r(0) },
                MInst::Ret,
            ]],
            1,
        );
        check_allocation(&f, &a, &m, &target()).unwrap();
    }

    #[test]
    fn rejects_an_undeclared_nonvolatile_write() {
        let f = sum2();
        // r13 is non-volatile on the 24-register ia64 model.
        let nv = r(13);
        assert!(!target().is_volatile(nv));
        let a = assign(&[(0, r(0)), (1, nv), (2, r(2)), (3, r(0))], f.num_vregs());
        let m = mach_of(
            &f,
            vec![vec![
                MInst::Load { dst: nv, base: r(0), offset: 0 },
                MInst::Load { dst: r(2), base: r(0), offset: 8 },
                MInst::Bin { op: BinOp::Add, dst: r(0), lhs: nv, rhs: r(2) },
                MInst::Ret,
            ]],
            0,
        );
        let err = check_allocation(&f, &a, &m, &target()).unwrap_err();
        assert!(kinds(&err).contains(&"frame"), "{err}");
    }

    #[test]
    fn rejects_structurally_divergent_machine_code() {
        let f = sum2();
        let a = assign(&[(0, r(0)), (1, r(1)), (2, r(2)), (3, r(0))], f.num_vregs());
        // The second load is simply missing.
        let m = mach_of(
            &f,
            vec![vec![
                MInst::Load { dst: r(1), base: r(0), offset: 0 },
                MInst::Bin { op: BinOp::Add, dst: r(0), lhs: r(1), rhs: r(2) },
                MInst::Ret,
            ]],
            0,
        );
        let err = check_allocation(&f, &a, &m, &target()).unwrap_err();
        assert!(kinds(&err).contains(&"structure"), "{err}");
    }

    #[test]
    fn rejects_an_unassigned_vreg() {
        let f = sum2();
        let a = assign(&[(0, r(0)), (1, r(1)), (3, r(0))], f.num_vregs());
        let m = mach_of(&f, vec![vec![MInst::Ret]], 0);
        let err = check_allocation(&f, &a, &m, &target()).unwrap_err();
        assert!(kinds(&err).contains(&"unassigned"), "{err}");
    }

    #[test]
    fn rejects_a_wrong_return_register() {
        let f = sum2();
        // The sum lands in r3, not the convention's return register r0;
        // the machine code is otherwise a faithful direct mapping.
        let a = assign(&[(0, r(0)), (1, r(1)), (2, r(2)), (3, r(3))], f.num_vregs());
        let m = mach_of(
            &f,
            vec![vec![
                MInst::Load { dst: r(1), base: r(0), offset: 0 },
                MInst::Load { dst: r(2), base: r(0), offset: 8 },
                MInst::Bin { op: BinOp::Add, dst: r(3), lhs: r(1), rhs: r(2) },
                MInst::Ret,
            ]],
            0,
        );
        let err = check_allocation(&f, &a, &m, &target()).unwrap_err();
        assert!(kinds(&err).contains(&"bad-register"), "{err}");
    }

    #[test]
    fn scratch_reuse_matches_fresh_checks() {
        let f = sum2();
        let good = assign(&[(0, r(0)), (1, r(1)), (2, r(2)), (3, r(0))], f.num_vregs());
        let bad = assign(&[(0, r(0)), (1, r(1)), (2, r(1)), (3, r(0))], f.num_vregs());
        let m_good = mach_of(
            &f,
            vec![vec![
                MInst::LoadPair { dst1: r(1), dst2: r(2), base: r(0), offset: 0, offset2: 8 },
                MInst::Bin { op: BinOp::Add, dst: r(0), lhs: r(1), rhs: r(2) },
                MInst::Ret,
            ]],
            0,
        );
        let m_bad = mach_of(
            &f,
            vec![vec![
                MInst::LoadPair { dst1: r(1), dst2: r(1), base: r(0), offset: 0, offset2: 8 },
                MInst::Bin { op: BinOp::Add, dst: r(0), lhs: r(1), rhs: r(1) },
                MInst::Ret,
            ]],
            0,
        );
        let mut scratch = CheckScratch::new();
        for _ in 0..3 {
            let pooled = check_allocation_in(&f, &good, &m_good, &target(), &mut scratch);
            assert_eq!(pooled, check_allocation(&f, &good, &m_good, &target()));
            let pooled = check_allocation_in(&f, &bad, &m_bad, &target(), &mut scratch);
            let fresh = check_allocation(&f, &bad, &m_bad, &target());
            assert_eq!(
                pooled.as_ref().map_err(kinds),
                fresh.as_ref().map_err(kinds)
            );
        }
    }

    #[test]
    fn mode_parsing_and_gating() {
        assert_eq!(CheckMode::parse("off"), Ok(CheckMode::Off));
        assert_eq!(CheckMode::parse("always"), Ok(CheckMode::Always));
        assert_eq!(CheckMode::parse("on"), Ok(CheckMode::Always));
        for bad in ["debug", "sometimes"] {
            assert_eq!(
                CheckMode::parse(bad),
                Err(format!("bad check mode `{bad}` (off, always)"))
            );
        }
        assert!(!CheckMode::Off.should_check());
        assert!(CheckMode::Always.should_check());
        assert_eq!(CheckMode::Always.to_string(), "always");
    }
}
