//! Input IR may carry its own spill code (`frame[k] = v`, `v = frame[k]`).
//! The allocator must number its own spill slots and caller-save shadows
//! above the input's, size the frame to hold both, and report a slot it
//! cannot number above as an error — never a panic or a wrapped index.
//!
//! The symbolic checker cannot catch a collision here by itself: it proves
//! the machine code against the post-spill IR, which already contains the
//! allocator's spill code. So each allocation below is also executed and
//! compared with the input's own execution.

use pdgc::ir::parse_function;
use pdgc::prelude::*;
use pdgc::sim::ExecError;
use pdgc::target::MInst;
use pdgc_bench::serve::{request_line, ServeConfig, ServeSession};

/// Spills `v1` to `frame[0]`, then holds twelve loads live at once.
const SPILL_THEN_PRESSURE: &str = include_str!("fixtures/spill_input.pdgc");

/// Spills `v1` to `frame[5]` across a call that needs a caller-save shadow.
const SPILL_ACROSS_CALL: &str = "fn across(v0: int) -> int {
b0:
    v1 = add v0, v0
    frame[5] = v1
    call sink(v0)
    v2 = frame[5]
    v3 = add v2, v0
    ret v3
}
";

/// Uses the highest slot a frame can hold, with no call that would need a
/// caller-save shadow above it.
const HIGHEST_SLOT: &str = "fn highest(v0: int) -> int {
b0:
    frame[4294967294] = v0
    v1 = frame[4294967294]
    ret v1
}
";

/// Uses the one slot number no frame can hold.
const LAST_SLOT: &str = "fn last(v0: int) -> int {
b0:
    frame[4294967295] = v0
    v1 = frame[4294967295]
    ret v1
}
";

fn target(name: &str) -> TargetDesc {
    TargetRegistry::builtin()
        .resolve(name)
        .expect("builtin target")
        .clone()
}

/// Allocates `text` under `CheckMode::Always` and requires the machine
/// code to compute what the input computes.
fn allocate_and_compare(text: &str, target: &TargetDesc, args: &[u64]) -> AllocOutput {
    let func = parse_function(text).expect("fixture parses");
    let mut session = AllocSession {
        check: CheckMode::Always,
        ..AllocSession::default()
    };
    let out = PreferenceAllocator::full()
        .allocate(&func, target, &mut session)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", func.name, target.name));
    let reference = run_ir(&func, args, DEFAULT_FUEL).expect("the input runs");
    let allocated = run_mach(&out.mach, target, args, DEFAULT_FUEL).expect("the machine code runs");
    check_equivalent(&reference, &allocated)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", func.name, target.name));
    out
}

/// Every slot the machine code addresses.
fn slots_used(mach: &MachFunction) -> Vec<u32> {
    let mut slots: Vec<u32> = mach
        .blocks
        .iter()
        .flatten()
        .filter_map(|m| match m {
            MInst::SpillLoad { slot, .. } | MInst::SpillStore { slot, .. } => Some(*slot),
            _ => None,
        })
        .collect();
    slots.sort_unstable();
    slots.dedup();
    slots
}

#[test]
fn the_allocators_spill_slots_sit_above_the_inputs() {
    for name in ["tight8", "ia64-24", "x86-16"] {
        let t = target(name);
        let out = allocate_and_compare(SPILL_THEN_PRESSURE, &t, &[4096]);
        let slots = slots_used(&out.mach);
        assert_eq!(slots.first(), Some(&0), "{name}: the input's slot is kept");
        assert!(
            slots.iter().all(|&s| s < out.mach.num_slots),
            "{name}: slots {slots:?} outside a {}-slot frame",
            out.mach.num_slots
        );
    }
    // Twelve live loads cannot fit eight registers: tight8 spills for
    // itself, into slots of its own.
    let out = allocate_and_compare(SPILL_THEN_PRESSURE, &target("tight8"), &[4096]);
    assert!(
        out.mach.num_slots > 1,
        "tight8 must spill beyond the input's slot"
    );
}

#[test]
fn caller_save_shadows_sit_above_the_inputs_slots() {
    let out = allocate_and_compare(SPILL_ACROSS_CALL, &target("ia64-24"), &[7]);
    // The input's slot 5, then one shadow for v0 across the call.
    assert_eq!(out.mach.num_slots, 7);
    assert_eq!(slots_used(&out.mach), vec![5, 6]);
}

#[test]
fn high_slots_allocate_and_run_without_a_dense_frame() {
    // A call-free input may fill the largest frame: it needs no shadow.
    for name in ["ia64-24", "tight8"] {
        let out = allocate_and_compare(HIGHEST_SLOT, &target(name), &[7]);
        assert_eq!(out.mach.num_slots, u32::MAX, "{name}");
    }
    // A four-billion-slot frame with a shadow above the input's slot runs
    // in the machine interpreter without allocating the whole frame.
    let text = SPILL_ACROSS_CALL.replace("frame[5]", "frame[4000000000]");
    let out = allocate_and_compare(&text, &target("ia64-24"), &[7]);
    assert_eq!(out.mach.num_slots, 4_000_000_002);
    assert_eq!(slots_used(&out.mach), vec![4_000_000_000, 4_000_000_001]);
}

#[test]
fn a_slot_no_frame_can_hold_is_an_allocation_error() {
    let func = parse_function(LAST_SLOT).expect("fixture parses");
    for check in [CheckMode::Off, CheckMode::Always] {
        let mut session = AllocSession {
            check,
            ..AllocSession::default()
        };
        let err = PreferenceAllocator::full()
            .allocate(&func, &target("ia64-24"), &mut session)
            .expect_err("slot u32::MAX cannot be in a frame");
        assert!(matches!(err, AllocError::FrameOverflow { .. }), "{err}");
    }
}

#[test]
fn the_daemon_answers_a_slot_no_frame_can_hold_with_an_error() {
    let mut serve = ServeSession::new(ServeConfig::default());
    let line = request_line(LAST_SLOT, "ia64-24", "full");
    let out = serve.handle_line(&line);
    assert!(out.response.contains("\"ok\":false"), "{}", out.response);
    assert!(
        out.response.contains("needs a slot past"),
        "{}",
        out.response
    );
    // The session survives to answer the next request.
    let line = request_line(SPILL_ACROSS_CALL, "ia64-24", "full");
    let out = serve.handle_line(&line);
    assert!(out.response.contains("\"ok\":true"), "{}", out.response);
}

#[test]
fn machine_code_outside_its_frame_is_an_execution_error() {
    let t = target("ia64-24");
    let r0 = PhysReg::int(0);
    let mach = MachFunction {
        name: "oob".into(),
        sig: parse_function(LAST_SLOT).expect("fixture parses").sig,
        blocks: vec![vec![
            MInst::SpillStore { src: r0, slot: 2 },
            MInst::SpillLoad { dst: r0, slot: 2 },
            MInst::Ret,
        ]],
        num_slots: 2,
        used_nonvolatiles: Vec::new(),
        callees: Vec::new(),
    };
    let err = run_mach(&mach, &t, &[1], DEFAULT_FUEL).expect_err("slot 2 of a 2-slot frame");
    assert_eq!(
        err,
        ExecError::SlotOutOfFrame {
            func: "oob".into(),
            slot: 2,
            num_slots: 2
        }
    );
}
