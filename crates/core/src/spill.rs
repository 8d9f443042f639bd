//! Spill-code insertion (Chaitin-style live-range splitting).
//!
//! A spilled live range is "split into smaller live ranges by spilling out
//! the value after its definitions and spilling in before its uses" (§2).
//! Each def site gets a fresh temporary stored to the range's frame slot;
//! each use site gets a fresh temporary reloaded just before. The
//! temporaries have tiny live ranges and are marked unspillable for
//! subsequent rounds.
//!
//! When the caller hands over an SPL region decomposition
//! ([`insert_spill_code_fwd`]), the pass additionally *forwards* reloaded
//! (or just-stored) values along the decomposition's linear runs: inside a
//! block, and across an edge that the decomposition proves is the only way
//! into the next block, a temporary that already holds the slot's value
//! serves later uses directly instead of reloading per use. Forwarding
//! lengthens temporary live ranges (they are unspillable), so the pipeline
//! only enables it for the first [`SPL_FORWARD_MAX_ROUNDS`] spill rounds —
//! late rounds revert to minimal per-use reloads to guarantee convergence.

use pdgc_analysis::Spl;
use pdgc_ir::{Block, Function, Inst, VReg};

/// Last spill round in which run-based reload forwarding stays enabled;
/// later rounds insert minimal per-use reloads only.
pub const SPL_FORWARD_MAX_ROUNDS: usize = 4;

/// The result of one spill-insertion pass.
#[derive(Clone, Debug, Default)]
pub struct SpillOutcome {
    /// Fresh temporaries created (callers mark them unspillable).
    pub new_temps: Vec<VReg>,
    /// Reload instructions inserted.
    pub loads: usize,
    /// Spill-store instructions inserted.
    pub stores: usize,
    /// Reloads avoided by forwarding an already-available temporary.
    pub forwarded: usize,
}

/// Splits every register in `spilled`, assigning each a fresh frame slot
/// starting at `*next_slot` (updated).
///
/// # Panics
///
/// Panics if a spilled register has uses but no definition anywhere
/// (an unlowered parameter — the pipeline lowers parameters into explicit
/// copies before allocating).
pub fn insert_spill_code(
    func: &mut Function,
    spilled: &[VReg],
    next_slot: &mut u32,
) -> SpillOutcome {
    insert_spill_code_fwd(func, spilled, next_slot, None)
}

/// [`insert_spill_code`] with reload forwarding along SPL linear runs.
///
/// With `regions: None` (or a decomposition whose [`Spl::is_spl`] is
/// false) this is exactly [`insert_spill_code`]: every use site reloads.
/// With an SPL-shaped decomposition, a temporary that already holds a
/// spilled value — from a reload or from the store after a def — serves
/// subsequent uses in the same block, and across a block boundary when
/// [`Spl::run_pred`] proves the boundary is a straight-line fall-through
/// (the next block's only entry). Frame slots are still written at every
/// def, so the memory image is identical either way; only redundant
/// reloads disappear.
///
/// # Panics
///
/// Same as [`insert_spill_code`].
pub fn insert_spill_code_fwd(
    func: &mut Function,
    spilled: &[VReg],
    next_slot: &mut u32,
    regions: Option<&Spl>,
) -> SpillOutcome {
    let mut outcome = SpillOutcome::default();
    if spilled.is_empty() {
        return outcome;
    }
    let forwarding = regions.is_some_and(Spl::is_spl);
    // Per original vreg: the fresh temporary currently holding its value,
    // valid for the block whose index is `avail_owner` (and, via
    // `run_pred`, into that block's unique fall-through successor).
    let mut avail: Vec<Option<VReg>> = if forwarding {
        vec![None; func.num_vregs()]
    } else {
        Vec::new()
    };
    let mut avail_owner: Option<usize> = None;
    // Per vreg: whether it is a temporary that ended up serving extra
    // sites. Such a temporary no longer has the tiny single-site live
    // range that justifies the unspillable mark, so it is dropped from
    // `new_temps` below and stays spillable: if a later round is squeezed,
    // it can split it back into per-use reloads instead of blocking the
    // simplify stack. Grown on demand, as temporaries are numbered.
    let mut widened: Vec<bool> = Vec::new();
    // The spilled vregs the current instruction uses, in visit order.
    let mut wanted: Vec<VReg> = Vec::new();
    let mut slot_of = vec![None; func.num_vregs()];
    let mut has_def = vec![false; func.num_vregs()];
    for b in func.block_ids() {
        for inst in &func.block(b).insts {
            if let Some(d) = inst.def() {
                has_def[d.index()] = true;
            }
        }
    }
    for &v in spilled {
        assert!(
            has_def[v.index()],
            "spilling {v} which has no definition (unlowered parameter?)"
        );
        // A duplicate would silently burn a second frame slot and leave the
        // first slot orphaned in `slot_of`.
        debug_assert!(
            slot_of[v.index()].is_none(),
            "duplicate spilled vreg {v}"
        );
        slot_of[v.index()] = Some(*next_slot);
        *next_slot += 1;
    }

    for bi in 0..func.num_blocks() {
        if forwarding {
            // The map's contents describe `avail_owner`'s end state; keep
            // them only when this block's sole entry is that very block's
            // sole exit (the run edge). Blocks are visited in id order, so
            // a run predecessor processed further back simply clears.
            let carried = avail_owner.is_some()
                && regions.unwrap().run_pred(Block::new(bi)).map(|p| p.index()) == avail_owner;
            if !carried {
                avail.iter_mut().for_each(|a| *a = None);
            }
        }
        // Taken-buffer audit: nothing between this take and the write-back
        // below can return early or panic on user input (slot lookups are
        // guarded by `slot_of` entries created above), so the block cannot
        // be left empty.
        let old = std::mem::take(&mut func.blocks[bi].insts);
        let mut new = Vec::with_capacity(old.len());
        for mut inst in old {
            // Reload before uses.
            wanted.clear();
            inst.visit_uses(|u| {
                if slot_of[u.index()].is_some() && !wanted.contains(&u) {
                    wanted.push(u);
                }
            });
            for &orig in &wanted {
                if forwarding {
                    if let Some(t) = avail[orig.index()] {
                        // A live temporary already holds the slot's value.
                        outcome.forwarded += 1;
                        if widened.len() <= t.index() {
                            widened.resize(t.index() + 1, false);
                        }
                        widened[t.index()] = true;
                        let (o, t) = (orig, t);
                        inst.visit_uses_mut(|u| {
                            if *u == o {
                                *u = t;
                            }
                        });
                        continue;
                    }
                }
                let slot = slot_of[orig.index()].unwrap();
                let temp = func.vreg_classes.len();
                func.vreg_classes.push(func.vreg_classes[orig.index()]);
                let temp = VReg::new(temp);
                outcome.new_temps.push(temp);
                outcome.loads += 1;
                new.push(Inst::Reload { dst: temp, slot });
                if forwarding {
                    avail[orig.index()] = Some(temp);
                }
                let (o, t) = (orig, temp);
                inst.visit_uses_mut(|u| {
                    if *u == o {
                        *u = t;
                    }
                });
            }
            // A temporary forwarded across a call would be a call-crossing
            // live range — exactly what §5.4 active spilling pays Mem_Cost
            // to avoid (it would come back as caller save/restore pairs).
            // The slot is the value's home across calls; drop every
            // forwarding candidate at the boundary. (Reloads feeding the
            // call itself happened above and their temps die here.)
            if forwarding && inst.is_call() {
                avail.iter_mut().for_each(|a| *a = None);
            }
            // Store after defs.
            match inst.def() {
                Some(d) if slot_of[d.index()].is_some() => {
                    let slot = slot_of[d.index()].unwrap();
                    let temp = func.vreg_classes.len();
                    func.vreg_classes.push(func.vreg_classes[d.index()]);
                    let temp = VReg::new(temp);
                    outcome.new_temps.push(temp);
                    outcome.stores += 1;
                    if let Some(dm) = inst.def_mut() {
                        *dm = temp;
                    }
                    new.push(inst);
                    new.push(Inst::Spill { src: temp, slot });
                    if forwarding {
                        // The just-stored temporary is the freshest copy.
                        avail[d.index()] = Some(temp);
                    }
                }
                _ => new.push(inst),
            }
        }
        func.blocks[bi].insts = new;
        if forwarding {
            avail_owner = Some(bi);
        }
    }
    if !widened.is_empty() {
        outcome
            .new_temps
            .retain(|t| widened.get(t.index()) != Some(&true));
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdgc_ir::{BinOp, FunctionBuilder, RegClass};

    #[test]
    fn def_and_uses_split() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let x = b.bin_imm(BinOp::Add, p, 1);
        let y = b.bin(BinOp::Mul, x, x);
        let z = b.bin(BinOp::Add, y, x);
        b.ret(Some(z));
        let f0 = b.finish();

        let mut f = f0.clone();
        let mut next = 0;
        let out = insert_spill_code(&mut f, &[x], &mut next);
        assert_eq!(next, 1);
        assert_eq!(out.stores, 1); // one def
        assert_eq!(out.loads, 2); // two use sites (y's double use counts once)
        assert_eq!(out.new_temps.len(), 3);
        assert!(f.verify().is_ok());
        // x itself no longer appears anywhere.
        let mut x_seen = false;
        for blk in &f.blocks {
            for i in &blk.insts {
                if i.def() == Some(x) {
                    x_seen = true;
                }
                i.visit_uses(|u| {
                    if u == x {
                        x_seen = true;
                    }
                });
            }
        }
        assert!(!x_seen);
        // Shape: add; spill; reload; mul; reload; add; ret
        let kinds: Vec<_> = f.blocks[0]
            .insts
            .iter()
            .map(|i| match i {
                Inst::Spill { .. } => "spill",
                Inst::Reload { .. } => "reload",
                Inst::Ret { .. } => "ret",
                _ => "op",
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["op", "spill", "reload", "op", "reload", "op", "ret"]
        );
    }

    #[test]
    fn multiple_spills_get_distinct_slots() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let x = b.bin_imm(BinOp::Add, p, 1);
        let y = b.bin_imm(BinOp::Add, p, 2);
        let z = b.bin(BinOp::Add, x, y);
        b.ret(Some(z));
        let mut f = b.finish();
        let mut next = 5;
        insert_spill_code(&mut f, &[x, y], &mut next);
        assert_eq!(next, 7);
        let mut slots = vec![];
        for blk in &f.blocks {
            for i in &blk.insts {
                if let Inst::Spill { slot, .. } = i {
                    slots.push(*slot);
                }
            }
        }
        slots.sort();
        assert_eq!(slots, vec![5, 6]);
    }

    #[test]
    fn instruction_using_and_defining_same_reg() {
        // v = v + 1 pattern (non-SSA).
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        b.emit(Inst::BinImm {
            op: BinOp::Add,
            dst: p,
            lhs: p,
            imm: 1,
        });
        b.ret(Some(p));
        let mut f = b.finish();
        // p needs a def first (it is a parameter) — give it one.
        f.blocks[0].insts.insert(
            0,
            Inst::Iconst {
                dst: p,
                value: 3,
            },
        );
        let mut next = 0;
        let out = insert_spill_code(&mut f, &[p], &mut next);
        // defs: iconst + add = 2 stores; uses: add + ret = 2 loads.
        assert_eq!(out.stores, 2);
        assert_eq!(out.loads, 2);
        assert!(f.verify().is_ok());
    }

    /// Forwarding carries a reloaded value along a linear run, but a call
    /// ends it even inside the run, and a join block reloads.
    #[test]
    fn forwarding_stops_at_calls_and_joins() {
        use pdgc_analysis::Cfg;
        use pdgc_ir::CmpOp;
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let run = b.create_block();
        let t = b.create_block();
        let e = b.create_block();
        let join = b.create_block();
        let x = b.bin_imm(BinOp::Add, p, 1);
        b.jump(run);
        b.switch_to(run);
        let y = b.bin_imm(BinOp::Add, x, 2);
        b.call("g", vec![y], None);
        let z = b.bin_imm(BinOp::Add, x, 3);
        b.branch_imm(CmpOp::Gt, z, 0, t, e);
        b.switch_to(t);
        b.jump(join);
        b.switch_to(e);
        b.jump(join);
        b.switch_to(join);
        let w = b.bin_imm(BinOp::Add, x, 4);
        b.ret(Some(w));
        let f0 = b.finish();
        let spl = Spl::compute(&Cfg::compute(&f0));
        assert!(spl.is_spl());
        assert_eq!(spl.run_pred(run), Some(Block::ENTRY));
        assert_eq!(spl.run_pred(join), None);

        let mut f = f0.clone();
        let mut next = 0;
        let out = insert_spill_code_fwd(&mut f, &[x], &mut next, Some(&spl));
        assert!(f.verify().is_ok());
        assert_eq!(out.stores, 1);
        // The stored temporary serves `y` across the run edge; `z` (after
        // the call) and `w` (at the join) reload.
        assert_eq!(out.forwarded, 1);
        assert_eq!(out.loads, 2);
        let is_reload = |i: &Inst| matches!(i, Inst::Reload { .. });
        let run_insts = &f.blocks[run.index()].insts;
        assert!(!is_reload(&run_insts[0]), "y is forwarded");
        let call = run_insts.iter().position(Inst::is_call).unwrap();
        assert!(is_reload(&run_insts[call + 1]), "z reloads after the call");
        assert!(
            is_reload(&f.blocks[join.index()].insts[0]),
            "the join reloads w"
        );
        // The widened store temporary stays spillable.
        assert_eq!(out.new_temps.len(), 2);

        // Without a decomposition every use reloads.
        let mut plain = f0.clone();
        let mut next = 0;
        let out = insert_spill_code(&mut plain, &[x], &mut next);
        assert_eq!((out.loads, out.forwarded), (3, 0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate spilled vreg")]
    fn duplicate_spilled_vreg_panics_in_debug() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        let x = b.bin_imm(BinOp::Add, p, 1);
        b.ret(Some(x));
        let mut f = b.finish();
        let mut next = 0;
        insert_spill_code(&mut f, &[x, x], &mut next);
    }

    #[test]
    #[should_panic(expected = "no definition")]
    fn spilling_undefined_register_panics() {
        let mut b = FunctionBuilder::new("f", vec![RegClass::Int], Some(RegClass::Int));
        let p = b.param(0);
        b.ret(Some(p));
        let mut f = b.finish();
        let mut next = 0;
        insert_spill_code(&mut f, &[p], &mut next);
    }
}
