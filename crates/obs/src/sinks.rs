//! Trace sinks: JSON Lines, per-round DOT graph files, in-memory recording,
//! and fan-out composition.

use crate::json::{self, JsonObject};
use crate::{Decision, Event, Tracer, Verdict};
use pdgc_ir::RegClass;
use std::io::Write;
use std::path::PathBuf;

fn class_str(class: RegClass) -> &'static str {
    match class {
        RegClass::Int => "int",
        RegClass::Float => "float",
    }
}

fn decision_json(d: &Decision) -> String {
    let considered = json::array(d.considered.iter().map(|c| {
        JsonObject::new()
            .str("kind", c.kind)
            .str("target", &c.target)
            .i64("strength", c.strength)
            .bool("deferred", c.deferred)
            .bool("narrowed", c.narrowed)
            .u64("survivors", c.survivors as u64)
            .finish()
    }));
    let obj = JsonObject::new()
        .str("type", "decision")
        .u64("round", d.round as u64)
        .str("class", class_str(d.class))
        .u64("node", d.node as u64)
        .raw("members", &json::int_array(&d.members))
        .u64("frontier", d.frontier as u64)
        .i64("differential", d.differential)
        .u64("available", d.available as u64)
        .raw("considered", &considered);
    match &d.verdict {
        Verdict::Assigned { reg } => obj
            .str("verdict", "assigned")
            .str("reg", &reg.to_string())
            .finish(),
        Verdict::Spilled { reason, cost } => obj
            .str("verdict", "spilled")
            .str("reason", reason.as_str())
            .u64("cost", *cost)
            .finish(),
    }
}

/// Serializes one event to a single-line JSON object; `None` for graph
/// dumps, which belong in a [`DotDirSink`].
pub fn event_json(event: &Event) -> Option<String> {
    Some(match event {
        Event::RoundStart { round } => JsonObject::new()
            .str("type", "round")
            .u64("round", *round as u64)
            .finish(),
        Event::Span {
            phase,
            round,
            class,
            nanos,
        } => {
            let mut o = JsonObject::new()
                .str("type", "span")
                .str("phase", phase.as_str())
                .u64("round", *round as u64);
            if let Some(c) = class {
                o = o.str("class", class_str(*c));
            }
            o.u64("ns", *nanos as u64).finish()
        }
        Event::Decision(d) => decision_json(d),
        Event::SpillCode { round, vregs, slots } => JsonObject::new()
            .str("type", "spill-code")
            .u64("round", *round as u64)
            .raw("vregs", &json::int_array(vregs))
            .u64("slots", *slots as u64)
            .finish(),
        Event::GraphDump { .. } => return None,
        Event::CheckFailed { func, violations } => JsonObject::new()
            .str("type", "check-failed")
            .str("func", func)
            .raw(
                "violations",
                &json::array(
                    violations
                        .iter()
                        .map(|v| format!("\"{}\"", json::escape(v))),
                ),
            )
            .finish(),
        Event::Finish {
            rounds,
            spill_instructions,
            moves_eliminated,
        } => JsonObject::new()
            .str("type", "finish")
            .u64("rounds", *rounds as u64)
            .u64("spill_instructions", *spill_instructions)
            .u64("moves_eliminated", *moves_eliminated)
            .finish(),
    })
}

/// Writes one JSON object per event per line — the `--trace` format.
#[derive(Debug)]
pub struct JsonLinesSink<W: Write> {
    writer: W,
    io_errors: usize,
}

impl<W: Write> JsonLinesSink<W> {
    /// A sink writing to `writer`. Graph dumps are omitted (they belong in
    /// a [`DotDirSink`]).
    pub fn new(writer: W) -> Self {
        JsonLinesSink {
            writer,
            io_errors: 0,
        }
    }

    /// Write errors swallowed so far (tracing never aborts allocation).
    pub fn io_errors(&self) -> usize {
        self.io_errors
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.writer.flush();
        self.writer
    }
}

impl<W: Write> Tracer for JsonLinesSink<W> {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: &Event) {
        if let Some(line) = event_json(event) {
            if writeln!(self.writer, "{line}").is_err() {
                self.io_errors += 1;
            }
        }
    }
}

/// Writes each [`Event::GraphDump`] to `<dir>/round<R>-<class>-<kind>.dot`.
///
/// `enabled()` stays `false`: this sink costs nothing unless the caller
/// also wants spans/decisions; the allocator gates DOT rendering on
/// [`Tracer::wants_graphs`] alone.
#[derive(Debug)]
pub struct DotDirSink {
    dir: PathBuf,
    files_written: usize,
    io_errors: usize,
}

impl DotDirSink {
    /// A sink writing DOT files under `dir` (created on first dump).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DotDirSink {
            dir: dir.into(),
            files_written: 0,
            io_errors: 0,
        }
    }

    /// Number of `.dot` files successfully written.
    pub fn files_written(&self) -> usize {
        self.files_written
    }

    /// Write errors swallowed so far.
    pub fn io_errors(&self) -> usize {
        self.io_errors
    }
}

impl Tracer for DotDirSink {
    fn wants_graphs(&self) -> bool {
        true
    }

    fn record(&mut self, event: &Event) {
        let Event::GraphDump {
            round,
            class,
            kind,
            dot,
        } = event
        else {
            return;
        };
        let name = format!("round{round}-{}-{}.dot", class_str(*class), kind.as_str());
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(&self.dir)?;
            std::fs::write(self.dir.join(&name), dot)
        };
        match write() {
            Ok(()) => self.files_written += 1,
            Err(_) => self.io_errors += 1,
        }
    }
}

/// Keeps every event in memory — the test-harness tracer.
#[derive(Debug)]
pub struct RecordingTracer {
    events: Vec<Event>,
    enabled: bool,
}

impl Default for RecordingTracer {
    fn default() -> Self {
        RecordingTracer {
            events: Vec::new(),
            enabled: true,
        }
    }
}

impl RecordingTracer {
    /// Toggles event emission.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Only the select-phase decisions, in order.
    pub fn decisions(&self) -> Vec<&Decision> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Decision(d) => Some(d),
                _ => None,
            })
            .collect()
    }

    /// Drops all recorded events.
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

impl Tracer for RecordingTracer {
    fn enabled(&self) -> bool {
        self.enabled
    }

    fn record(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

/// Forwards every event to each child sink; enabled/wants-graphs are the
/// union of the children's. Lets the CLI write a JSON trace and DOT dumps
/// from one allocation.
#[derive(Default)]
pub struct FanoutTracer {
    children: Vec<Box<dyn Tracer>>,
}

impl FanoutTracer {
    /// An empty fan-out (disabled until a child is added).
    pub fn new() -> Self {
        FanoutTracer::default()
    }

    /// Adds a child sink.
    pub fn push(&mut self, child: Box<dyn Tracer>) {
        self.children.push(child);
    }

    /// Number of child sinks.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// Whether there are no children.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }
}

impl Tracer for FanoutTracer {
    fn enabled(&self) -> bool {
        self.children.iter().any(|c| c.enabled())
    }

    fn wants_graphs(&self) -> bool {
        self.children.iter().any(|c| c.wants_graphs())
    }

    fn record(&mut self, event: &Event) {
        for c in &mut self.children {
            c.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphKind, SpillReason};
    use pdgc_target::PhysReg;

    fn sample_decision() -> Decision {
        Decision {
            round: 1,
            class: RegClass::Int,
            node: 4,
            members: vec![7],
            frontier: 2,
            differential: 50,
            available: 3,
            considered: vec![crate::Considered {
                kind: "coalesce",
                target: "node:5".into(),
                strength: 40,
                deferred: false,
                narrowed: true,
                survivors: 1,
            }],
            verdict: Verdict::Assigned { reg: PhysReg::int(0) },
        }
    }

    #[test]
    fn json_lines_round_trip_shape() {
        let mut sink = JsonLinesSink::new(Vec::new());
        sink.record(&Event::RoundStart { round: 1 });
        sink.record(&Event::Decision(sample_decision()));
        sink.record(&Event::Finish {
            rounds: 1,
            spill_instructions: 0,
            moves_eliminated: 3,
        });
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"type\":\"round\""));
        assert!(lines[1].contains("\"verdict\":\"assigned\""));
        assert!(lines[1].contains("\"reg\":\"r0\""));
        assert!(lines[1].contains("\"strength\":40"));
        assert!(lines[2].contains("\"moves_eliminated\":3"));
    }

    #[test]
    fn json_lines_omits_graphs() {
        let mut sink = JsonLinesSink::new(Vec::new());
        assert!(!sink.wants_graphs());
        sink.record(&Event::GraphDump {
            round: 1,
            class: RegClass::Int,
            kind: GraphKind::Ifg,
            dot: "graph {}".into(),
        });
        assert!(sink.into_inner().is_empty());
    }

    #[test]
    fn spilled_verdict_serializes_reason_and_cost() {
        let mut d = sample_decision();
        d.verdict = Verdict::Spilled {
            reason: SpillReason::PreferMemory,
            cost: 12,
        };
        let line = event_json(&Event::Decision(d)).unwrap();
        assert!(line.contains("\"verdict\":\"spilled\""));
        assert!(line.contains("\"reason\":\"prefer-memory\""));
        assert!(line.contains("\"cost\":12"));
    }

    #[test]
    fn dot_dir_sink_writes_files() {
        let dir = std::env::temp_dir().join(format!("pdgc-obs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sink = DotDirSink::new(&dir);
        assert!(sink.wants_graphs());
        assert!(!sink.enabled());
        sink.record(&Event::GraphDump {
            round: 2,
            class: RegClass::Int,
            kind: GraphKind::Cpg,
            dot: "digraph cpg {}".into(),
        });
        assert_eq!(sink.files_written(), 1);
        let path = dir.join("round2-int-cpg.dot");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "digraph cpg {}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fanout_unions_capabilities() {
        let mut f = FanoutTracer::new();
        assert!(!f.enabled());
        f.push(Box::new(DotDirSink::new("/nonexistent-unused")));
        assert!(!f.enabled());
        assert!(f.wants_graphs());
        f.push(Box::new(RecordingTracer::default()));
        assert!(f.enabled());
        assert_eq!(f.len(), 2);
    }
}
