//! Property-based round-trip coverage for both textual forms.
//!
//! On randomly generated programs:
//!
//! * **IR level** — `parse(print(f))` must succeed, be structurally
//!   equal to `f.with_canonical_callees()` (the parser interns callees
//!   in order of appearance; the generator may not), and print back
//!   byte-identically, on every builtin target's adaptation of the
//!   profile.
//! * **machine level** — after allocation, `parse(print(m))` must
//!   reproduce the rewritten [`MachFunction`] exactly and reach the
//!   printed fixpoint, cycling through every shipped allocator.
//!
//! Failing seeds persist to `roundtrip_properties.proptest-regressions`
//! and replay before fresh cases.

use proptest::prelude::*;

use pdgc::prelude::*;
use pdgc::workloads::WorkloadProfile;

fn profile(seed: u64, ops: usize, loop_depth: u32, call_density: f64, diamond_density: f64, float_ratio: f64) -> WorkloadProfile {
    WorkloadProfile {
        name: "roundtrip-prop".into(),
        seed,
        num_funcs: 2,
        ops_per_func: ops,
        loop_depth,
        call_density,
        float_ratio,
        paired_density: 0.3,
        byte_density: 0.15,
        pressure: 9,
        diamond_density,
        pair_stride: 8,
        pair_align: 1,
    }
}

/// Certifies the IR contract for one function; returns the canonical
/// reparse for further use.
fn ir_roundtrip(func: &Function) -> Result<Function, TestCaseError> {
    let printed = func.to_string();
    let reparsed = pdgc::ir::parse_function(&printed)
        .map_err(|e| TestCaseError::fail(format!("{}: reparse failed: {e}\n{printed}", func.name)))?;
    prop_assert_eq!(
        &reparsed,
        &func.with_canonical_callees(),
        "parse(print(f)) != canon(f) for {}",
        func.name
    );
    prop_assert_eq!(
        reparsed.to_string(),
        printed,
        "print-parse-print not a fixpoint for {}",
        func.name
    );
    Ok(reparsed)
}

/// Certifies the machine-level contract for one allocated function.
fn mach_roundtrip(mach: &MachFunction) -> Result<(), TestCaseError> {
    let printed = mach.to_string();
    let reparsed = pdgc::target::parse_mach_function(&printed).map_err(|e| {
        TestCaseError::fail(format!("{}: mach reparse failed: {e}\n{printed}", mach.name))
    })?;
    prop_assert_eq!(&reparsed, mach, "parse(print(m)) != m for {}", mach.name);
    prop_assert_eq!(
        reparsed.to_string(),
        printed,
        "mach print-parse-print not a fixpoint for {}",
        mach.name
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// IR text round-trips exactly on every builtin target's adaptation
    /// of a random profile (figure7 included — round-trip needs no
    /// allocation, so the three-register machine participates too).
    #[test]
    fn ir_text_roundtrips_on_every_builtin_target(
        seed in any::<u64>(),
        ops in 10usize..45,
        loop_depth in 0u32..3,
        call_density in 0.0f64..0.4,
        diamond_density in 0.0f64..0.5,
        float_ratio in 0.0f64..0.5,
    ) {
        let registry = TargetRegistry::builtin();
        for name in registry.names() {
            let target = registry.resolve(name).expect("registry target");
            let prof = profile(seed, ops, loop_depth, call_density, diamond_density, float_ratio)
                .for_target(target);
            for func in &generate(&prof).funcs {
                prop_assume!(func.verify().is_ok());
                let reparsed = ir_roundtrip(func)?;
                // The reparse is itself canonical: one more trip is the
                // identity at the structural level too.
                prop_assert_eq!(&reparsed.with_canonical_callees(), &reparsed);
            }
        }
    }

    /// The rewriter's machine code round-trips exactly, cycling through
    /// every shipped allocator under the symbolic checker (figure7's
    /// three-register file cannot allocate generated workloads and is
    /// exempt, as in `tests/target_matrix.rs`).
    #[test]
    fn mach_text_roundtrips_for_every_allocator(
        seed in any::<u64>(),
        ops in 10usize..40,
        loop_depth in 0u32..3,
        call_density in 0.0f64..0.4,
        diamond_density in 0.0f64..0.5,
        which_alloc in 0usize..9,
        which_target in 0usize..2,
    ) {
        // One allocator × one non-toy target per case keeps a case cheap
        // while the strategy dimensions cover the full matrix across
        // cases.
        let name = ["ia64-24", "x86-24"][which_target];
        let target = TargetRegistry::builtin().resolve(name).expect("registry target").clone();
        let prof = profile(seed, ops, loop_depth, call_density, diamond_density, 0.25)
            .for_target(&target);
        let allocators = pdgc::all_allocators();
        let alloc = &allocators[which_alloc % allocators.len()];
        let mut session = AllocSession { check: CheckMode::Always, ..AllocSession::default() };
        for func in &generate(&prof).funcs {
            prop_assume!(func.verify().is_ok());
            let out = alloc
                .allocate(func, &target, &mut session)
                .map_err(|e| TestCaseError::fail(format!(
                    "{} on {} ({name}): {e}", alloc.name(), func.name
                )))?;
            mach_roundtrip(&out.mach)?;
        }
    }
}
