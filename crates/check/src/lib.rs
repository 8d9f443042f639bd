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
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// When the pipeline runs the checker.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum CheckMode {
    /// Never check (the default): allocation output is returned as-is.
    #[default]
    Off,
    /// Check only in builds with debug assertions enabled.
    DebugAssert,
    /// Check every allocation, in every build.
    Always,
}

impl CheckMode {
    /// Whether this mode runs the checker in the current build.
    pub fn should_check(self) -> bool {
        match self {
            CheckMode::Off => false,
            CheckMode::DebugAssert => cfg!(debug_assertions),
            CheckMode::Always => true,
        }
    }

    /// Parses a CLI spelling: `off`, `debug`, or `always` (alias `on`).
    pub fn parse(s: &str) -> Option<CheckMode> {
        match s {
            "off" => Some(CheckMode::Off),
            "debug" | "debug-assert" => Some(CheckMode::DebugAssert),
            "always" | "on" => Some(CheckMode::Always),
            _ => None,
        }
    }
}

impl fmt::Display for CheckMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CheckMode::Off => "off",
            CheckMode::DebugAssert => "debug",
            CheckMode::Always => "always",
        })
    }
}

/// How much of the function the checker value-replays.
///
/// Structural IR↔machine correspondence, register-file membership, pairing
/// rules, and frame bookkeeping are always proven for every reachable
/// block. The scope controls the expensive part — the converged abstract
/// replay that records stale-value and interference violations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum CheckScope {
    /// Replay every reachable block (the default; what single-function
    /// runs use).
    #[default]
    Full,
    /// Replay only the blocks where the rewriter deviated from the direct
    /// instruction-for-instruction mapping — fused or hoisted paired
    /// loads, eliminated copies, byte-load zero-extensions, calls and
    /// their caller-save shadows, spill traffic — plus any block that
    /// returns from a non-convention register. Batch drivers use this to
    /// make re-verification pay per rewrite instead of per function.
    Rewritten,
}

/// Resettable scratch for [`check_allocation_in`]: pools the checker's
/// internal liveness storage and per-block buffers so batch drivers can
/// verify many functions without re-allocating.
#[derive(Debug, Default)]
pub struct CheckScratch {
    liveness: LivenessScratch,
    deviated: VecPool<bool>,
    live_after: NestedPool<VReg>,
    walk: BitSet,
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
    /// The scope the proof ran at ([`CheckScope::Full`] re-proves value
    /// flow everywhere; [`CheckScope::Rewritten`] replays only
    /// rewriter-changed blocks) — recorded so metrics snapshots can tell
    /// full proofs from incremental ones.
    pub scope: CheckScope,
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
    check_allocation_in(
        func,
        assignment,
        mach,
        target,
        CheckScope::Full,
        &mut CheckScratch::default(),
    )
}

/// Like [`check_allocation`], with an explicit [`CheckScope`].
pub fn check_allocation_scoped(
    func: &Function,
    assignment: &[Option<PhysReg>],
    mach: &MachFunction,
    target: &TargetDesc,
    scope: CheckScope,
) -> Result<CheckReport, CheckError> {
    check_allocation_in(
        func,
        assignment,
        mach,
        target,
        scope,
        &mut CheckScratch::default(),
    )
}

/// Like [`check_allocation`], drawing the checker's internal liveness
/// storage and per-block buffers from `scratch`, which is reset and reused
/// across calls.
pub fn check_allocation_in(
    func: &Function,
    assignment: &[Option<PhysReg>],
    mach: &MachFunction,
    target: &TargetDesc,
    scope: CheckScope,
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
        func, assignment, mach, target, scope, &cfg, &liveness, scratch, violations,
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
    scope: CheckScope,
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
    let mut referenced = BTreeSet::new();
    for b in func.block_ids().filter(|&b| cfg.is_reachable(b)) {
        for inst in &func.block(b).insts {
            if let Some(d) = inst.def() {
                referenced.insert(d);
            }
            inst.visit_uses(|u| {
                referenced.insert(u);
            });
        }
    }
    let mut unassigned = false;
    for &v in &referenced {
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
            for r in m.regs() {
                if r.index() >= target.num_regs(r.class()) {
                    violations.push(Violation::Frame {
                        why: format!(
                            "machine code at b{bi}:{ii} touches {r}, outside the {}-register {} file",
                            target.num_regs(r.class()),
                            r.class()
                        ),
                    });
                }
            }
            for r in m.defs() {
                if !target.is_volatile(r) && !mach.used_nonvolatiles.contains(&r) {
                    violations.push(Violation::Frame {
                        why: format!(
                            "machine code at b{bi}:{ii} writes non-volatile {r}, which is not declared in used_nonvolatiles"
                        ),
                    });
                }
            }
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

    // Slots below this index belong to IR spill code; slots at or above it
    // are caller-save shadows the rewriter introduced around calls.
    let mut spill_slots = 0;
    for b in func.block_ids() {
        for inst in &func.block(b).insts {
            if let Inst::Spill { slot, .. } | Inst::Reload { slot, .. } = inst {
                spill_slots = spill_slots.max(slot + 1);
            }
        }
    }

    let checker = Checker {
        func,
        mach,
        target,
        assignment,
        spill_slots,
        cfg,
        liveness,
    };
    checker.run(scope, scratch, &mut violations);

    if violations.is_empty() {
        let reachable: Vec<Block> = cfg.reverse_postorder().to_vec();
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
            scope,
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

/// The abstract machine state: for every location, the set of vregs whose
/// *current* value it provably holds.
///
/// `regs` and `slots` are must-information. A register absent from `regs`
/// holds no vreg's value that we can prove (⊥). A slot absent from `slots`
/// has not definitely been written; present-but-empty means written with a
/// value we cannot name. Join (at control-flow merges) is key-wise set
/// intersection.
///
/// `defined` is the must-defined vreg set: vregs with a def (or, for the
/// argument carriers, the calling convention) on *every* path from entry.
/// The IR is not SSA and generated workloads may read a vreg on a path
/// that never defines it — such a read yields garbage in the IR itself, so
/// the machine code cannot be wrong about its value, and value checks only
/// apply to must-defined uses. `written_slots` is the dual may-set for
/// spill slots: slots some path has spilled to. A reload of a slot outside
/// it can *never* observe spilled data — broken bookkeeping — while a
/// reload of a may-written slot on an unwritten path mirrors the IR's own
/// garbage read of a not-must-defined vreg.
#[derive(Clone, PartialEq, Eq, Default)]
struct State {
    regs: BTreeMap<PhysReg, BTreeSet<VReg>>,
    slots: BTreeMap<u32, BTreeSet<VReg>>,
    defined: BTreeSet<VReg>,
    written_slots: BTreeSet<u32>,
}

impl State {
    fn meet(&self, other: &State) -> State {
        let mut regs = BTreeMap::new();
        for (r, s) in &self.regs {
            if let Some(t) = other.regs.get(r) {
                let i: BTreeSet<VReg> = s.intersection(t).copied().collect();
                if !i.is_empty() {
                    regs.insert(*r, i);
                }
            }
        }
        let mut slots = BTreeMap::new();
        for (k, s) in &self.slots {
            if let Some(t) = other.slots.get(k) {
                slots.insert(*k, s.intersection(t).copied().collect());
            }
        }
        State {
            regs,
            slots,
            defined: self.defined.intersection(&other.defined).copied().collect(),
            written_slots: self
                .written_slots
                .union(&other.written_slots)
                .copied()
                .collect(),
        }
    }

    /// The vreg's old value is dead everywhere once it is redefined.
    fn kill(&mut self, v: VReg) {
        self.regs.retain(|_, s| {
            s.remove(&v);
            !s.is_empty()
        });
        for s in self.slots.values_mut() {
            s.remove(&v);
        }
    }

    fn write(&mut self, r: PhysReg, set: BTreeSet<VReg>) {
        if set.is_empty() {
            self.regs.remove(&r);
        } else {
            self.regs.insert(r, set);
        }
    }

    fn holds(&self, r: PhysReg, v: VReg) -> bool {
        self.regs.get(&r).is_some_and(|s| s.contains(&v))
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
/// will claim it. `base_vals` snapshots which vregs' values the base
/// register held when the address was read; copies extend it, and any
/// redefinition of a member evicts it.
struct Hoist {
    dst2: PhysReg,
    base_reg: PhysReg,
    offset2: i32,
    base_vals: BTreeSet<VReg>,
}

struct Checker<'a> {
    func: &'a Function,
    mach: &'a MachFunction,
    target: &'a TargetDesc,
    assignment: &'a [Option<PhysReg>],
    /// Slots `0..spill_slots` carry IR spill code; higher slots are
    /// caller-save shadows.
    spill_slots: u32,
    cfg: &'a Cfg,
    liveness: &'a Liveness,
}

impl Checker<'_> {
    fn reg(&self, v: VReg) -> PhysReg {
        self.assignment[v.index()].expect("referenced vreg screened as assigned")
    }

    /// The state on entry: each argument register holds the vreg that
    /// carries that parameter, when the assignment actually put it there.
    /// (Lowered functions copy the pinned argument register into the param
    /// vreg at block entry; hand-built functions use the param directly.)
    fn entry_state(&self) -> State {
        let mut st = State::default();
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
            st.defined.insert(carrier);
            if self.assignment.get(carrier.index()).copied().flatten() == Some(r) {
                st.regs.entry(r).or_default().insert(carrier);
            }
        }
        st
    }

    fn run(&self, scope: CheckScope, scratch: &mut CheckScratch, violations: &mut Vec<Violation>) {
        let rpo: Vec<Block> = self.cfg.reverse_postorder().to_vec();
        let entry_seed = self.entry_state();

        // Structure pass: the correspondence walk, from a throwaway state.
        // It also records, per block, whether the rewriter deviated from
        // the direct instruction-for-instruction mapping; under
        // `CheckScope::Rewritten` only those blocks are value-replayed.
        let mut deviated = scratch.deviated.take_filled(self.func.num_blocks(), false);
        let mut structural = Vec::new();
        for &b in &rpo {
            let _ = self.transfer(
                b,
                State::default(),
                Pass::Structure,
                &[],
                &mut deviated[b.index()],
                &mut structural,
            );
        }
        if !structural.is_empty() {
            violations.append(&mut structural);
            scratch.deviated.put(deviated);
            return;
        }

        // A value returned from a non-convention register is a violation
        // the direct mapping can still exhibit (`Ret` matches machine
        // `Ret` regardless of the register): route those blocks into the
        // replayed set.
        for &b in &rpo {
            for inst in &self.func.block(b).insts {
                if let Inst::Ret { value: Some(v) } = inst {
                    if self.reg(*v) != self.target.ret_reg(self.func.class_of(*v)) {
                        deviated[b.index()] = true;
                    }
                }
            }
        }

        let replay_all = scope == CheckScope::Full;
        let any_replay = replay_all || deviated.iter().any(|&d| d);
        let mut sink = false;

        // Fixpoint: iterate block out-states to convergence (a must-
        // analysis over a finite lattice of shrinking sets, so this
        // terminates). Worklist-driven, ordered by RPO position: a block
        // re-runs only when a predecessor's out-state changed, so acyclic
        // regions converge in a single sweep instead of sweep-per-change.
        // Skipped entirely when no block will be replayed — the converged
        // states would go unread.
        let mut outs: Vec<Option<State>> = vec![None; self.func.num_blocks()];
        if any_replay {
            let mut pos_of = vec![usize::MAX; self.func.num_blocks()];
            for (p, &b) in rpo.iter().enumerate() {
                pos_of[b.index()] = p;
            }
            let mut work: BTreeSet<usize> = (0..rpo.len()).collect();
            while let Some(p) = work.pop_first() {
                let b = rpo[p];
                let Some(inp) = self.in_state(b, &outs, &entry_seed) else {
                    continue;
                };
                let out = self
                    .transfer(b, inp, Pass::Fixpoint, &[], &mut sink, &mut Vec::new())
                    .expect("correspondence verified by the structure pass");
                if outs[b.index()].as_ref() != Some(&out) {
                    outs[b.index()] = Some(out);
                    for &s in self.cfg.succs(b) {
                        if pos_of[s.index()] != usize::MAX {
                            work.insert(pos_of[s.index()]);
                        }
                    }
                }
            }
        }

        // Entry interference: live-in vregs sharing a register must both be
        // proven to hold that register's value (same-value coalescing).
        let live_in: Vec<VReg> = self
            .liveness
            .live_in(Block::ENTRY)
            .iter()
            .map(VReg::new)
            .collect();
        for (i, &a) in live_in.iter().enumerate() {
            for &b in &live_in[i + 1..] {
                // Live-in vregs that are not argument carriers hold garbage
                // on entry; sharing a register cannot make them wronger.
                if !(entry_seed.defined.contains(&a) && entry_seed.defined.contains(&b)) {
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

        // Final pass: replay each in-scope block from its converged
        // in-state and record every value violation.
        for &b in &rpo {
            if !(replay_all || deviated[b.index()]) {
                continue;
            }
            let Some(inp) = self.in_state(b, &outs, &entry_seed) else {
                continue;
            };
            let mut live_after = scratch.live_after.take(self.func.block(b).insts.len());
            self.liveness
                .for_each_inst_backward_in(self.func, b, &mut scratch.walk, |i, _, la| {
                    live_after[i].extend(la.iter().map(VReg::new));
                });
            let _ = self.transfer(b, inp, Pass::Final, &live_after, &mut sink, violations);
            scratch.live_after.put(live_after);
        }
        scratch.deviated.put(deviated);
    }

    /// The meet-over-predecessors in-state of `b` (plus the argument seed
    /// for the entry block), or `None` when no predecessor has been
    /// evaluated yet.
    fn in_state(&self, b: Block, outs: &[Option<State>], seed: &State) -> Option<State> {
        let mut inp: Option<State> = (b == Block::ENTRY).then(|| seed.clone());
        for &p in self.cfg.preds(b) {
            if let Some(o) = &outs[p.index()] {
                inp = Some(match inp {
                    Some(a) => a.meet(o),
                    None => o.clone(),
                });
            }
        }
        inp
    }

    /// Walks block `b`'s IR and machine code in lockstep, applying the
    /// abstract transfer of each instruction to `st`.
    ///
    /// `Err(())` means the machine code does not structurally implement
    /// the IR; the mismatch is recorded only in the `Structure` pass.
    fn transfer(
        &self,
        b: Block,
        mut st: State,
        pass: Pass,
        live_after: &[Vec<VReg>],
        deviated: &mut bool,
        violations: &mut Vec<Violation>,
    ) -> Result<State, ()> {
        let ir = &self.func.block(b).insts;
        let mc = &self.mach.blocks[b.index()];
        let mut mi = 0usize;
        let mut ledger: Vec<Hoist> = Vec::new();
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
                                ledger.clear()
                            }
                            _ => {
                                let defs = m.defs();
                                ledger.retain(|h| !defs.contains(&h.dst2));
                            }
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
                    if record && st.defined.contains(&v) && !st.holds(self.reg(v), v) {
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
                    if rd != rs {
                        expect!(
                            i,
                            format!("`{rd} = {rs}`"),
                            MInst::Copy { dst: md, src: ms } if *md == rd && *ms == rs
                        );
                    } else {
                        // A coalesced copy emits nothing: the value claim
                        // it makes is exactly what the replay must verify.
                        *deviated = true;
                    }
                    use_check!(*src);
                    st.kill(*dst);
                    let mut set = st.regs.get(&rs).cloned().unwrap_or_default();
                    set.insert(*dst);
                    st.write(rd, set);
                    // A copy propagates pending paired-load base values.
                    for h in &mut ledger {
                        let had_src = h.base_vals.contains(src);
                        h.base_vals.remove(dst);
                        if had_src {
                            h.base_vals.insert(*dst);
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
                    st.write(rd, BTreeSet::from([*dst]));
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
                    st.write(rd, BTreeSet::from([*dst]));
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
                            ledger.retain(|h| h.dst2 != rd);
                            use_check!(*base);
                            st.kill(*dst);
                            st.write(rd, BTreeSet::from([*dst]));
                        }
                        Some(MInst::LoadPair {
                            dst1,
                            dst2,
                            base: mb,
                            offset: mo,
                            offset2,
                        }) if *dst1 == rd && *mb == rb && mo == offset => {
                            *deviated = true;
                            let (dst2, offset2) = (*dst2, *offset2);
                            mi += 1;
                            ledger.retain(|h| h.dst2 != rd && h.dst2 != dst2);
                            use_check!(*base);
                            // The address was read now: snapshot what the
                            // base register holds before any writes.
                            let base_vals = st.regs.get(&rb).cloned().unwrap_or_default();
                            st.kill(*dst);
                            st.write(rd, BTreeSet::from([*dst]));
                            // The second word landed in dst2, but no vreg's
                            // value lives there until the claiming load.
                            st.regs.remove(&dst2);
                            ledger.push(Hoist {
                                dst2,
                                base_reg: rb,
                                offset2,
                                base_vals,
                            });
                        }
                        _ => {
                            // The hoisted second half of an earlier pair?
                            let Some(pos) = ledger.iter().position(|h| {
                                h.dst2 == rd && h.base_reg == rb && h.offset2 == *offset
                            }) else {
                                structure!(
                                    i,
                                    "expected `{rd} = [{rb} + {offset}]` (or its paired/hoisted form), found {}",
                                    found(mi)
                                );
                            };
                            *deviated = true;
                            let h = ledger.remove(pos);
                            // The base was consumed when the pair issued:
                            // the vreg used *here* must have held the base
                            // register's value back then.
                            if record && st.defined.contains(base) && !h.base_vals.contains(base) {
                                violations.push(Violation::StaleValue {
                                    vreg: *base,
                                    reg: rb,
                                    block: b,
                                    inst: i,
                                });
                            }
                            st.kill(*dst);
                            st.write(rd, BTreeSet::from([*dst]));
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
                        *deviated = true;
                        expect!(
                            i,
                            format!("zero-extension `{rd} &= 0xff` after a byte load into {rd}"),
                            MInst::BinImm { op: BinOp::And, dst: md, lhs: ml, imm: 0xff }
                                if *md == rd && *ml == rd
                        );
                    }
                    use_check!(*base);
                    st.kill(*dst);
                    st.write(rd, BTreeSet::from([*dst]));
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
                    st.write(rd, BTreeSet::from([*dst]));
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
                    st.write(rd, BTreeSet::from([*dst]));
                }
                Inst::Call { callee, args, ret } => {
                    // Calls clobber every volatile and grow caller-save
                    // shadows: always value-interesting.
                    *deviated = true;
                    // Nothing hoisted survives a call.
                    ledger.clear();
                    // Caller-save stores: shadow slots sit above the IR
                    // spill area, so they cannot be IR `Spill`s.
                    while let Some(MInst::SpillStore { src, slot }) = mc.get(mi) {
                        if *slot < self.spill_slots {
                            break;
                        }
                        let saved = st.regs.get(src).cloned().unwrap_or_default();
                        st.slots.insert(*slot, saved);
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
                    for class in RegClass::ALL {
                        for r in self.target.volatiles(class) {
                            st.regs.remove(&r);
                        }
                    }
                    if let Some(v) = ret {
                        st.kill(*v);
                        st.write(self.reg(*v), BTreeSet::from([*v]));
                    }
                    // Caller-save reloads restore the shadowed values.
                    while let Some(MInst::SpillLoad { dst, slot }) = mc.get(mi) {
                        if *slot < self.spill_slots {
                            break;
                        }
                        match st.slots.get(slot).cloned() {
                            Some(s) => st.write(*dst, s),
                            None => {
                                if record {
                                    violations.push(Violation::BadSlot {
                                        slot: *slot,
                                        block: b,
                                        inst: i,
                                        why: "caller-save restore reads an unwritten slot".into(),
                                    });
                                }
                                st.regs.remove(dst);
                            }
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
                    *deviated = true;
                    let rd = self.reg(*dst);
                    expect!(
                        i,
                        format!("`{rd} = frame[{slot}]`"),
                        MInst::SpillLoad { dst: md, slot: ms } if *md == rd && ms == slot
                    );
                    let content = st.slots.get(slot).cloned();
                    if record && !st.written_slots.contains(slot) {
                        violations.push(Violation::BadSlot {
                            slot: *slot,
                            block: b,
                            inst: i,
                            why: "read before any possible write".into(),
                        });
                    }
                    st.kill(*dst);
                    let mut set = content.unwrap_or_default();
                    set.insert(*dst);
                    st.write(rd, set);
                }
                Inst::Spill { src, slot } => {
                    *deviated = true;
                    let rs = self.reg(*src);
                    expect!(
                        i,
                        format!("`frame[{slot}] = {rs}`"),
                        MInst::SpillStore { src: ms, slot: mslot } if *ms == rs && mslot == slot
                    );
                    use_check!(*src);
                    let stored = st.regs.get(&rs).cloned().unwrap_or_default();
                    st.slots.insert(*slot, stored);
                    st.written_slots.insert(*slot);
                }
            }

            // Redefining a vreg evicts its (old) value from pending
            // paired-load base snapshots; copies were handled above.
            if !matches!(inst, Inst::Copy { .. }) {
                if let Some(d) = inst.def() {
                    for h in &mut ledger {
                        h.base_vals.remove(&d);
                    }
                }
            }
            if let Some(d) = inst.def() {
                st.defined.insert(d);
            }

            // Interference: anything still live may not share the defined
            // register unless it provably holds the same value.
            if record {
                if let Some(d) = inst.def() {
                    let rd = self.reg(d);
                    for &v in &live_after[i] {
                        if v != d
                            && self.reg(v) == rd
                            && st.defined.contains(&v)
                            && !st.holds(rd, v)
                        {
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
        if !ledger.is_empty() {
            structure!(
                ir.len(),
                "a paired load hoisted a word into {} that no load claims",
                ledger[0].dst2
            );
        }
        Ok(st)
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
    fn rewritten_scope_still_catches_call_clobbers() {
        // Same shape as `rejects_a_missing_caller_save`: p lives in
        // volatile r0 across a call with no save/restore. Call blocks are
        // always in the replayed set, so the narrow scope still sees it.
        let mut b = FunctionBuilder::new("nosave", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        b.call("ext", vec![], None);
        let s = b.bin(BinOp::Add, p, p);
        b.ret(Some(s));
        let f = b.finish();
        let a = assign(&[(0, r(0)), (1, r(0))], f.num_vregs());
        let m = mach_of(
            &f,
            vec![vec![
                MInst::Call {
                    callee: pdgc_ir::CalleeId::new(0),
                    arg_regs: vec![],
                    ret_reg: None,
                },
                MInst::Bin { op: BinOp::Add, dst: r(0), lhs: r(0), rhs: r(0) },
                MInst::Ret,
            ]],
            0,
        );
        let err =
            check_allocation_scoped(&f, &a, &m, &target(), CheckScope::Rewritten).unwrap_err();
        assert!(kinds(&err).contains(&"stale-value"), "{err}");
    }

    #[test]
    fn rewritten_scope_catches_a_wrong_return_register() {
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
        let err =
            check_allocation_scoped(&f, &a, &m, &target(), CheckScope::Rewritten).unwrap_err();
        assert!(kinds(&err).contains(&"bad-register"), "{err}");
    }

    #[test]
    fn rewritten_scope_skips_replay_of_directly_mapped_blocks() {
        // The interfering-assignment function from
        // `rejects_interfering_vregs_in_one_register` contains no rewriter
        // deviation at all, so the narrow scope intentionally accepts it:
        // that is the pay-per-rewrite trade batch runs opt into. The full
        // scope must keep rejecting it.
        let f = sum2();
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
        assert!(check_allocation(&f, &a, &m, &target()).is_err());
        check_allocation_scoped(&f, &a, &m, &target(), CheckScope::Rewritten).unwrap();
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
            for scope in [CheckScope::Full, CheckScope::Rewritten] {
                let pooled =
                    check_allocation_in(&f, &good, &m_good, &target(), scope, &mut scratch);
                assert_eq!(pooled, check_allocation_scoped(&f, &good, &m_good, &target(), scope));
                let pooled = check_allocation_in(&f, &bad, &m_bad, &target(), scope, &mut scratch);
                let fresh = check_allocation_scoped(&f, &bad, &m_bad, &target(), scope);
                assert_eq!(
                    pooled.as_ref().map_err(kinds),
                    fresh.as_ref().map_err(kinds)
                );
            }
        }
    }

    #[test]
    fn mode_parsing_and_gating() {
        assert_eq!(CheckMode::parse("off"), Some(CheckMode::Off));
        assert_eq!(CheckMode::parse("debug"), Some(CheckMode::DebugAssert));
        assert_eq!(CheckMode::parse("always"), Some(CheckMode::Always));
        assert_eq!(CheckMode::parse("on"), Some(CheckMode::Always));
        assert_eq!(CheckMode::parse("sometimes"), None);
        assert!(!CheckMode::Off.should_check());
        assert!(CheckMode::Always.should_check());
        assert_eq!(
            CheckMode::DebugAssert.should_check(),
            cfg!(debug_assertions)
        );
        assert_eq!(CheckMode::Always.to_string(), "always");
    }
}
