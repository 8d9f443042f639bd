//! One clock per phase: every phase an allocation runs is timed once, and
//! that one reading feeds both the always-on metrics registry and the
//! tracer. For every allocator, under the checker, on a function that
//! spills, each phase's span count and summed span nanoseconds must equal
//! its latency histogram's `count` and `sum` exactly — a phase timed by
//! only one of the two, or by two different clocks, fails here.

use pdgc::obs::{Event, Phase};
use pdgc::prelude::*;
use pdgc_bench::serve::{allocator_by_name, ALLOCATOR_NAMES};

/// Seven loads summed into a chain: more simultaneously live values than
/// `toy(4)` has registers, so every allocator spills and iterates.
fn load_chain() -> Function {
    let mut b = FunctionBuilder::new("chain", vec![RegClass::Int], Some(RegClass::Int));
    let p = b.param(0);
    let vals: Vec<_> = (0..7).map(|i| b.load(p, 16 + 32 * i)).collect();
    let mut acc = vals[0];
    for &v in &vals[1..] {
        acc = b.bin(BinOp::Add, acc, v);
    }
    b.ret(Some(acc));
    b.finish()
}

#[test]
fn every_phase_span_matches_its_latency_observation() {
    let func = load_chain();
    let target = TargetDesc::toy(4);
    for name in ALLOCATOR_NAMES {
        let alloc = allocator_by_name(name).expect("listed allocator");
        let mut rec = RecordingTracer::default();
        let mut session = AllocSession {
            check: CheckMode::Always,
            tracer: Some(&mut rec),
            ..AllocSession::default()
        };
        let out = alloc
            .allocate(&func, &target, &mut session)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(out.stats.spill_instructions > 0, "{name} must spill");
        let metrics = session.scratch.metrics;
        for phase in Phase::ALL {
            let nanos: Vec<u128> = rec
                .events()
                .iter()
                .filter_map(|e| match e {
                    Event::Span {
                        phase: p, nanos, ..
                    } if *p == phase => Some(*nanos),
                    _ => None,
                })
                .collect();
            let hist = metrics.latency_hist(phase);
            let label = format!("{name}/{}", phase.as_str());
            assert_eq!(nanos.len() as u64, hist.count, "{label}: span count");
            assert_eq!(
                nanos.iter().sum::<u128>(),
                u128::from(hist.sum),
                "{label}: nanos"
            );
        }
        // The phases every allocator runs on a spilling function.
        for phase in [
            Phase::Lower,
            Phase::Analyze,
            Phase::Build,
            Phase::Select,
            Phase::Spill,
            Phase::Rewrite,
            Phase::Check,
        ] {
            assert!(
                metrics.latency_hist(phase).count > 0,
                "{name} never timed {}",
                phase.as_str()
            );
        }
    }
}
