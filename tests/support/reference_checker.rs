//! The symbolic checker as it stood before its abstract state became a
//! flat, pooled fact list: a frozen reference for `tests/check_reference.rs`.
//!
//! The domain (`State`: `BTreeMap`s of `BTreeSet`s) and every transfer
//! function below are the previous `crates/check/src/lib.rs` verbatim. Only
//! the surroundings differ: the public result types come from `pdgc_check`
//! so verdicts compare directly, and the scratch pools are plain
//! allocating stand-ins with the same method names. This copy is deleted
//! once the next change to the checker has been compared against it.

use pdgc_analysis::{BitSet, Cfg, Liveness, LivenessScratch};
use pdgc_check::{CheckError, CheckReport, CheckScope, Violation};
use pdgc_ir::{BinOp, Block, Function, Inst, RegClass, VReg};
use pdgc_target::{MInst, MachFunction, PhysReg, TargetDesc};
use std::collections::{BTreeMap, BTreeSet};

/// Allocates what the pooled `VecPool` would have reused.
#[derive(Debug)]
struct VecPool<T>(std::marker::PhantomData<T>);

impl<T> Default for VecPool<T> {
    fn default() -> Self {
        VecPool(std::marker::PhantomData)
    }
}

impl<T: Clone> VecPool<T> {
    fn take_filled(&mut self, len: usize, value: T) -> Vec<T> {
        vec![value; len]
    }

    fn put(&mut self, _: Vec<T>) {}
}

/// Allocates what the pooled `NestedPool` would have reused.
#[derive(Debug)]
struct NestedPool<T>(std::marker::PhantomData<T>);

impl<T> Default for NestedPool<T> {
    fn default() -> Self {
        NestedPool(std::marker::PhantomData)
    }
}

impl<T> NestedPool<T> {
    fn take(&mut self, n: usize) -> Vec<Vec<T>> {
        (0..n).map(|_| Vec::new()).collect()
    }

    fn put(&mut self, _: Vec<Vec<T>>) {}
}

/// The reference checker's scratch; nothing in it outlives one check.
#[derive(Debug, Default)]
pub struct CheckScratch {
    liveness: LivenessScratch,
    deviated: VecPool<bool>,
    live_after: NestedPool<VReg>,
    walk: BitSet,
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
