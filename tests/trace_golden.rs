//! Golden trace of the paper's Figure 7 walkthrough: the decision-event
//! sequence emitted by the integrated select phase is part of the
//! observable behavior this repo pins down. A change here means the
//! allocator visits nodes in a different order or resolves preferences
//! differently — which must be a deliberate algorithmic change, never
//! drift. (The paper's §5.3 narrative is exactly this sequence.)

use pdgc::obs::{event_json, Event, Phase};
use pdgc::prelude::*;

/// The Figure 7(a) program (same construction as `tests/figure7.rs`).
fn figure7_func() -> Function {
    let mut b = FunctionBuilder::new("fig7", vec![RegClass::Int], None);
    let arg0 = b.param(0);
    let header = b.create_block();
    let exit = b.create_block();
    let v0 = b.load(arg0, 0);
    b.jump(header);
    b.switch_to(header);
    let v1 = b.load(v0, 0);
    let v2 = b.load(v0, 8);
    let v3 = b.copy(v0);
    let v4 = b.bin(BinOp::Add, v1, v2);
    b.call("g", vec![v3], None);
    b.emit(pdgc::ir::Inst::BinImm {
        op: BinOp::Add,
        dst: v0,
        lhs: v4,
        imm: 1,
    });
    b.branch_imm(CmpOp::Ne, v0, 0, header, exit);
    b.switch_to(exit);
    b.ret(None);
    b.finish()
}

fn traced_run() -> (pdgc::core::AllocOutput, RecordingTracer) {
    let func = figure7_func();
    let target = TargetDesc::figure7();
    let mut rec = RecordingTracer::default();
    let mut session = AllocSession {
        tracer: Some(&mut rec),
        ..AllocSession::default()
    };
    let out = PreferenceAllocator::full()
        .allocate(&func, &target, &mut session)
        .unwrap();
    (out, rec)
}

/// The exact decision lines the JSON sink emits for Figure 7 — one per
/// selected node, in CPG walk order. Decision events carry no timings,
/// so their serialized form is fully deterministic.
const GOLDEN_DECISIONS: [&str; 6] = [
    // v4: volatility screening narrows {r1,r2} to the non-volatile r2.
    r#"{"type":"decision","round":1,"class":"int","node":8,"members":[5],"frontier":4,"differential":28,"available":2,"considered":[{"kind":"prefers","target":"non-volatile","strength":28,"deferred":false,"narrowed":true,"survivors":1},{"kind":"prefers","target":"volatile","strength":0,"deferred":false,"narrowed":false,"survivors":1}],"verdict":"assigned","reg":"r2"}"#,
    r#"{"type":"decision","round":1,"class":"int","node":7,"members":[4],"frontier":3,"differential":10,"available":2,"considered":[{"kind":"coalesce","target":"r0","strength":40,"deferred":false,"narrowed":true,"survivors":1},{"kind":"coalesce","target":"node:4","strength":40,"deferred":true,"narrowed":true,"survivors":1},{"kind":"prefers","target":"volatile","strength":30,"deferred":false,"narrowed":true,"survivors":1}],"verdict":"assigned","reg":"r0"}"#,
    r#"{"type":"decision","round":1,"class":"int","node":3,"members":[0],"frontier":3,"differential":3,"available":3,"considered":[{"kind":"coalesce","target":"r0","strength":4,"deferred":false,"narrowed":true,"survivors":1},{"kind":"prefers","target":"volatile","strength":3,"deferred":false,"narrowed":true,"survivors":1},{"kind":"prefers","target":"non-volatile","strength":1,"deferred":false,"narrowed":false,"survivors":1}],"verdict":"assigned","reg":"r0"}"#,
    // v1/v2: the seq+/seq- pair lands in adjacent registers r1/r2.
    r#"{"type":"decision","round":1,"class":"int","node":5,"members":[2],"frontier":2,"differential":2,"available":2,"considered":[{"kind":"seq+","target":"node:6","strength":50,"deferred":true,"narrowed":true,"survivors":2},{"kind":"prefers","target":"volatile","strength":30,"deferred":false,"narrowed":true,"survivors":1},{"kind":"prefers","target":"non-volatile","strength":28,"deferred":false,"narrowed":false,"survivors":1}],"verdict":"assigned","reg":"r1"}"#,
    r#"{"type":"decision","round":1,"class":"int","node":6,"members":[3],"frontier":1,"differential":0,"available":1,"considered":[{"kind":"seq-","target":"node:5","strength":48,"deferred":false,"narrowed":true,"survivors":1},{"kind":"prefers","target":"non-volatile","strength":28,"deferred":false,"narrowed":true,"survivors":1}],"verdict":"assigned","reg":"r2"}"#,
    // v3 coalesces into v0's register across the call.
    r#"{"type":"decision","round":1,"class":"int","node":4,"members":[1],"frontier":1,"differential":0,"available":1,"considered":[{"kind":"coalesce","target":"node:7","strength":101,"deferred":false,"narrowed":true,"survivors":1},{"kind":"prefers","target":"volatile","strength":91,"deferred":false,"narrowed":true,"survivors":1}],"verdict":"assigned","reg":"r0"}"#,
];

#[test]
fn figure7_decision_sequence_is_stable() {
    let (_, rec) = traced_run();
    let got: Vec<String> = rec
        .events()
        .iter()
        .filter(|e| matches!(e, Event::Decision(_)))
        .map(|e| event_json(e, false).unwrap())
        .collect();
    assert_eq!(got.len(), GOLDEN_DECISIONS.len(), "decision count changed");
    for (i, (got, want)) in got.iter().zip(GOLDEN_DECISIONS).enumerate() {
        assert_eq!(got, want, "decision {i} diverged from the golden trace");
    }
}

#[test]
fn figure7_phase_spans_cover_the_pipeline() {
    let (_, rec) = traced_run();
    let spans: Vec<(Phase, u32, Option<RegClass>)> = rec
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::Span { phase, round, class, nanos: _ } => Some((*phase, *round, *class)),
            _ => None,
        })
        .collect();
    let int = Some(RegClass::Int);
    let float = Some(RegClass::Float);
    assert_eq!(
        spans,
        vec![
            (Phase::Lower, 0, None),
            (Phase::Analyze, 1, None),
            (Phase::Build, 1, int),
            (Phase::Rpg, 1, int),
            (Phase::Simplify, 1, int),
            (Phase::Cpg, 1, int),
            (Phase::Select, 1, int),
            (Phase::Build, 1, float),
            (Phase::Rpg, 1, float),
            (Phase::Simplify, 1, float),
            (Phase::Cpg, 1, float),
            (Phase::Select, 1, float),
            (Phase::Rewrite, 1, None),
        ],
        "phase span sequence changed"
    );
    // Figure 7 colors without spilling, so exactly one round and no
    // spill-code events.
    assert!(rec
        .events()
        .iter()
        .all(|e| !matches!(e, Event::SpillCode { .. })));
    assert!(rec.events().iter().any(|e| matches!(
        e,
        Event::Finish { rounds: 1, spill_instructions: 0, .. }
    )));
}

#[test]
fn json_sink_emits_one_line_per_event() {
    let func = figure7_func();
    let target = TargetDesc::figure7();
    let mut sink = JsonLinesSink::new(Vec::new());
    let mut session = AllocSession {
        tracer: Some(&mut sink),
        ..AllocSession::default()
    };
    PreferenceAllocator::full()
        .allocate(&func, &target, &mut session)
        .unwrap();
    let text = String::from_utf8(sink.into_inner()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "trace must not be empty");
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object line: {line}"
        );
        assert!(line.contains("\"type\":\""), "line missing type: {line}");
    }
    // One decision per selected node, with spans and the terminator
    // interleaved in pipeline order.
    let decisions: Vec<&&str> = lines
        .iter()
        .filter(|l| l.contains("\"type\":\"decision\""))
        .collect();
    assert_eq!(decisions.len(), GOLDEN_DECISIONS.len());
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("\"type\":\"span\""))
            .count(),
        13
    );
    assert!(lines.last().unwrap().contains("\"type\":\"finish\""));
}

/// With no tracer attached the allocator must produce bit-identical
/// results — tracing is pure observation.
#[test]
fn tracing_does_not_perturb_the_allocation() {
    let func = figure7_func();
    let target = TargetDesc::figure7();
    let plain = PreferenceAllocator::full()
        .allocate(&func, &target, &mut AllocSession::default())
        .unwrap();
    let (traced, _) = traced_run();
    assert_eq!(plain.assignment, traced.assignment);
    assert_eq!(plain.stats, traced.stats);
    assert_eq!(format!("{}", plain.mach), format!("{}", traced.mach));
}

/// Graph dumps are gated on `wants_graphs`, not `enabled`: a DOT-only
/// tracer gets the three per-round graphs and nothing else.
#[test]
fn graph_dumps_fire_only_when_requested() {
    let (_, rec) = traced_run();
    assert!(rec
        .events()
        .iter()
        .all(|e| !matches!(e, Event::GraphDump { .. })));

    struct GraphsOnly(Vec<(pdgc::obs::GraphKind, String)>);
    impl Tracer for GraphsOnly {
        fn wants_graphs(&self) -> bool {
            true
        }
        fn record(&mut self, event: &Event) {
            if let Event::GraphDump { kind, dot, .. } = event {
                self.0.push((*kind, dot.clone()));
            }
        }
    }
    let func = figure7_func();
    let mut g = GraphsOnly(Vec::new());
    let mut session = AllocSession {
        tracer: Some(&mut g),
        ..AllocSession::default()
    };
    PreferenceAllocator::full()
        .allocate(&func, &TargetDesc::figure7(), &mut session)
        .unwrap();
    // One IFG/RPG/CPG triple per class per round: two classes, one round.
    let kinds: Vec<pdgc::obs::GraphKind> = g.0.iter().map(|(k, _)| *k).collect();
    use pdgc::obs::GraphKind::*;
    assert_eq!(kinds, vec![Ifg, Rpg, Cpg, Ifg, Rpg, Cpg]);
    for (_, dot) in &g.0 {
        assert!(dot.starts_with("digraph") || dot.starts_with("graph"), "{dot}");
    }
}
