//! Windowed paired-load fusion must beat the old adjacent-only scan on
//! real (generated) code: the machine-code rewriter scans up to the pair
//! rule's `window` instructions ahead, so paired candidates separated by
//! spill reloads or interleaved arithmetic still fuse, where an
//! adjacent-only rewriter (window 1) misses them.
//!
//! The two targets below are identical except for the fusion window, so
//! register assignment (which is window-independent — the RPG pairs by
//! stride, not instruction adjacency) matches exactly, and any difference
//! in `paired_loads` comes from the rewrite scan alone.

use pdgc::prelude::*;
use pdgc::workloads::specjvm_suite;
use pdgc_ir::RegClass;

/// An `ia64-24` twin whose only degree of freedom is the fusion window.
fn ia64_with_window(window: usize) -> TargetDesc {
    let rule = PairRule::new(PairedLoadRule::Parity, 8).with_window(window);
    let spec = || ClassSpec::new(24).volatile_prefix(12).pair(rule);
    TargetDesc::builder(format!("ia64-24-w{window}"))
        .class(RegClass::Int, spec())
        .class(RegClass::Float, spec())
        .finish()
        .expect("window twin is statically valid")
}

/// Total fused pairs across the suite for one target.
fn total_pairs(alloc: &dyn RegisterAllocator, target: &TargetDesc) -> usize {
    specjvm_suite()
        .iter()
        .flat_map(|p| generate(p).funcs)
        .map(|f| {
            alloc
                .allocate(&f, target, &mut AllocSession::default())
                .unwrap_or_else(|e| panic!("{} failed on {}: {e}", alloc.name(), f.name))
                .stats
                .paired_loads
        })
        .sum()
}

#[test]
fn windowed_fusion_finds_strictly_more_pairs_than_adjacent_only() {
    let windowed = ia64_with_window(4);
    let adjacent = ia64_with_window(1);
    // Same file, same volatile split, same pair rule apart from the scan
    // window — so the assignments (and therefore the fusion *candidates*)
    // are identical.
    assert_eq!(windowed.num_regs(RegClass::Int), adjacent.num_regs(RegClass::Int));
    assert_eq!(
        windowed.pair_rule(RegClass::Int).unwrap().stride(),
        adjacent.pair_rule(RegClass::Int).unwrap().stride()
    );

    let alloc = PreferenceAllocator::full();
    let wide = total_pairs(&alloc, &windowed);
    let narrow = total_pairs(&alloc, &adjacent);
    eprintln!("paired loads fused: window=4 {wide}, window=1 {narrow}");
    assert!(
        wide > narrow,
        "windowed fusion ({wide}) must strictly beat adjacent-only ({narrow})"
    );
    // Sanity: both fuse something at all on the paired-load-dense suite.
    assert!(narrow > 0, "adjacent-only fusion found nothing");
}
