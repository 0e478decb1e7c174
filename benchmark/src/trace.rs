//! Spans: `{id, parent, name, tick, start_ns, end_ns}` held in memory
//! while a traced replay runs and written out when the benchmark ends.
//!
//! The spans are recorded from the benchmark's own files, around the
//! calls into each layer; nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call (or loop of calls) into a layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (`None` for a tick's root).
    pub parent: Option<u32>,
    pub name: &'static str,
    pub tick: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log with a stack of open spans.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    tick: u32,
}

impl Recorder {
    pub fn new(capacity: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
            tick: 0,
        }
    }

    /// Sets the tick index stamped on spans opened from now on.
    pub fn set_tick(&mut self, tick: u32) {
        self.tick = tick;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            tick: self.tick,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        // Stamp last, so the bookkeeping above lands in the parent.
        self.spans[id as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = now;
    }

    /// Times `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "span left open");
        self.spans
    }
}

/// Self time of every span: its duration minus the part of it its child
/// spans cover. Indexed like `spans` (ids are positions).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per-tick self time by span name (summed when a tick has several spans
/// of one name), for ticks `0..ticks`.
pub fn stage_series(spans: &[Span], ticks: usize) -> BTreeMap<&'static str, Vec<u64>> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(own) {
        let series = out.entry(s.name).or_insert_with(|| vec![0; ticks]);
        if let Some(slot) = series.get_mut(s.tick as usize) {
            *slot += ns;
        }
    }
    out
}

/// One JSON line per span, tagged with the replay it came from.
pub fn to_jsonl(out: &mut String, replay: usize, engine: &str, spans: &[Span]) {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"replay\":{replay},\"engine\":\"{engine}\",\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"tick\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.tick, s.start_ns, s.end_ns
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, tick: u32, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            tick,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_on_a_synthetic_nested_trace() {
        // cycle[0,100] { engine[10,70] { ingest[10,30], maintain[30,65] }, route[70,90] }
        let spans = vec![
            span(0, None, "cycle", 0, 0, 100),
            span(1, Some(0), "engine", 0, 10, 70),
            span(2, Some(1), "ingest", 0, 10, 30),
            span(3, Some(1), "maintain", 0, 30, 65),
            span(4, Some(0), "route", 0, 70, 90),
            span(5, None, "cycle", 1, 100, 140),
            span(6, Some(5), "route", 1, 100, 130),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![20, 5, 20, 35, 20, 10, 30]);
        // Self times partition each root exactly.
        assert_eq!(own[..5].iter().sum::<u64>(), 100);
        let series = stage_series(&spans, 2);
        assert_eq!(series["route"], vec![20, 30]);
        assert_eq!(series["ingest"], vec![20, 0]);
        assert_eq!(series["cycle"], vec![20, 10]);
    }

    #[test]
    fn recorder_nests_and_serialises() {
        let mut rec = Recorder::new(4);
        rec.set_tick(7);
        rec.enter("cycle");
        let got = rec.span("ingest", || 42);
        assert_eq!(got, 42);
        rec.exit();
        let spans = rec.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].tick, 7);
        let mut text = String::new();
        to_jsonl(&mut text, 1, "sma", &spans);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let parsed = crate::json::Json::parse(lines[1]).unwrap();
        assert_eq!(parsed.get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(parsed.get("name"), Some(&crate::json::Json::str("ingest")));
    }
}
