//! The traced run: each workload re-executed as a decomposed pipeline of
//! public calls with a span around every stage,
//!
//! ```text
//! Request::TickAt encode → parse_request                      (wire in)
//! IngestState::ingest → QueryMaintenance::apply_events
//!   → QueryMaintenance::result ×Q → ResultDelta::diff ×Q      (engine)
//! DeltaRouter::subscribers → Push::Delta encode
//!   → SessionOut::try_push_shared → peek_coalesced/advance    (fan-out)
//! LineFramer → parse_server_line → apply_push                 (mirror)
//! ```
//!
//! which is what `MonitorServer`, `Service` and `ServiceClient` do
//! between them for one tick. Only this module knows those internals: a
//! refactor below the facade can break the trace, never the end-to-end
//! numbers. Per tick the pipeline's deltas must equal the facade's, and
//! at the end its mirrors must equal its results, or the trace fails.

use std::collections::BTreeMap;
use std::sync::Arc;

use tkm_common::{QueryId, Scored};
use tkm_core::{
    DeltaRouter, EngineKind, EngineStats, GridSpec, IngestState, Query, QueryMaintenance,
    ResultDelta, SmaMaintenance, TmaMaintenance,
};
use tkm_grid::CellMode;
use tkm_service::{
    apply_push, parse_request, parse_server_line, FramedLine, LineFramer, Push, Request,
    ServerLine, SessionOut, MAX_REQUEST_LINE,
};
use tkm_window::Window;

use crate::replay::{encode_push, fingerprint};
use crate::shape::{Inputs, Shape, Tick, DRAIN_CHUNK, PUSH_CAP};
use crate::trace::{Recorder, Span};

/// Sessions (lowest indices) whose drained bytes are framed, parsed and
/// applied to a mirror: all of a deep workload's one session, one per
/// query of a wide one.
const MIRRORS: usize = 64;
/// Queries put through a one-shot `snapshot()` at each sampling point.
const SNAPSHOT_QUERIES: usize = 64;
/// Ticks between `snapshot()` sampling points.
pub const SNAPSHOT_EVERY: usize = 50;

/// Work counts of the delivery half over the measured ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub encodes: u64,
    /// (delta, subscriber) pairs the router found, each one push.
    pub pushes: u64,
    /// Payload bytes × subscribers.
    pub push_bytes: u64,
    /// `peek_coalesced` calls that returned bytes, and those bytes.
    pub drain_calls: u64,
    pub drained_bytes: u64,
    /// Lines framed / pushes applied on the mirror sessions.
    pub lines: u64,
    pub applied: u64,
}

impl Counts {
    fn absorb(&mut self, other: Counts) {
        self.encodes += other.encodes;
        self.push_bytes += other.push_bytes;
        self.pushes += other.pushes;
        self.drain_calls += other.drain_calls;
        self.drained_bytes += other.drained_bytes;
        self.lines += other.lines;
        self.applied += other.applied;
    }
}

/// What the engine pass hands the delivery pass, per stream.
pub struct Handoff {
    /// Results at subscription time (after registration, before warm).
    baseline: Vec<Vec<Scored>>,
    warm_deltas: Vec<Vec<ResultDelta>>,
    tick_deltas: Vec<Vec<ResultDelta>>,
    /// Results after the last tick, which the mirrors must equal.
    finals: Vec<Vec<Scored>>,
}

/// What one traced engine pass recorded.
pub struct EngineTrace {
    pub spans: Vec<Span>,
    /// Engine counters over the measured ticks (ingest folded in).
    pub stats: EngineStats,
    /// Tuples expired by each measured tick (finds the expiry waves).
    pub expirations: Vec<u64>,
    /// Queries diffed and deltas that came out non-empty.
    pub diffed: u64,
    pub deltas: u64,
    pub fingerprint: Vec<u64>,
    pub finals: Vec<Vec<Scored>>,
    /// One per stream when asked for, else empty.
    pub handoff: Vec<Handoff>,
    /// Ingest or replay errors.
    pub failed: u64,
}

/// What one traced delivery pass recorded.
pub struct DeliveryTrace {
    pub spans: Vec<Span>,
    pub counts: Counts,
    /// Refused pushes, bad lines, inexact TICKAT round trips, mirror ≠
    /// result at the end of a stream.
    pub failed: u64,
}

fn shift_spans(spans: &mut [Span], ids: u32, ticks: u32) {
    for s in spans {
        s.id += ids;
        s.parent = s.parent.map(|p| p + ids);
        s.tick += ticks;
    }
}

struct Mirror {
    framer: LineFramer,
    /// Drained bytes not yet framed, and the length of each drained chunk
    /// (the framer is fed chunk by chunk, as a socket reader would be).
    wire: Vec<u8>,
    chunks: Vec<usize>,
    lines: Vec<String>,
    pushes: Vec<Push>,
    results: BTreeMap<QueryId, Vec<Scored>>,
}

/// The engine half: what `MonitorServer::tick_at` + delta tracking do.
struct EngineHalf<M> {
    shared: IngestState,
    maint: M,
    /// Last tick's result per query: the diff baseline.
    prev: Vec<Vec<Scored>>,
    next: Vec<Vec<Scored>>,
    snapshot_queries: Vec<Query>,
    failed: u64,
}

impl<M: QueryMaintenance> EngineHalf<M> {
    /// Builds the state the facade's set-up leaves behind: window
    /// prefilled, queries registered, current results as diff baseline.
    fn new(shape: &Shape, inputs: &Inputs) -> EngineHalf<M> {
        let mut shared =
            IngestState::new(shape.dims, shape.window(), GridSpec::default()).expect("config");
        let mut maint = M::new_for(&shared);
        for t in &inputs.prefill {
            shared.ingest(t.ts, &t.coords).expect("prefill ingest");
            maint.apply_events(&shared).expect("prefill replay");
        }
        for (i, q) in inputs.queries.iter().enumerate() {
            maint
                .register_query(&shared, QueryId(i as u64), q.query())
                .expect("register");
        }
        let prev: Vec<Vec<Scored>> = (0..shape.q as u64)
            .map(|i| maint.result(QueryId(i)).expect("registered"))
            .collect();
        EngineHalf {
            shared,
            maint,
            next: vec![Vec::new(); prev.len()],
            prev,
            snapshot_queries: inputs
                .queries
                .iter()
                .take(SNAPSHOT_QUERIES)
                .map(|q| q.query())
                .collect(),
            failed: 0,
        }
    }

    /// One tick: ingest → maintain → collect → diff; returns the deltas.
    fn cycle(&mut self, rec: &mut Recorder, t: &Tick) -> Vec<ResultDelta> {
        let EngineHalf {
            shared,
            maint,
            prev,
            next,
            failed,
            ..
        } = self;
        rec.enter("engine");
        let ingested = rec.span("ingest", || shared.ingest(t.ts, &t.coords));
        let replayed = rec.span("maintain", || maint.apply_events(shared));
        *failed += u64::from(ingested.is_err() || replayed.is_err());
        rec.span("collect", || {
            for (i, slot) in next.iter_mut().enumerate() {
                *slot = maint.result(QueryId(i as u64)).expect("registered");
            }
        });
        let deltas = rec.span("diff", || {
            let mut deltas = Vec::new();
            for (i, (old, new)) in prev.iter_mut().zip(next.iter_mut()).enumerate() {
                let delta = ResultDelta::diff(QueryId(i as u64), old, new);
                if !delta.is_empty() {
                    deltas.push(delta);
                }
                std::mem::swap(old, new);
            }
            deltas
        });
        rec.exit();
        deltas
    }

    /// One-shot `snapshot()` of the fixed query set (leaves no state and
    /// touches no counter).
    fn snapshot_sample(&mut self, rec: &mut Recorder) {
        rec.span("snapshot", || {
            for q in &self.snapshot_queries {
                std::hint::black_box(self.maint.snapshot(&self.shared, q).expect("snapshot"));
            }
        });
    }

    fn stats(&self) -> EngineStats {
        self.maint.stats().with_ingest(self.shared.stats())
    }
}

/// The delivery half: what the ingest client, the session reader, the
/// service's `fan_out`, the reactor and the subscriber's client do with
/// one tick's arrivals and deltas.
struct DeliveryHalf {
    router: DeltaRouter<u32>,
    sessions: Vec<SessionOut>,
    mirrors: Vec<Mirror>,
    scratch: Vec<u8>,
    counts: Counts,
    failed: u64,
}

impl DeliveryHalf {
    /// Subscribers in place, mirrors baselined with `baseline` (what
    /// `SUBSCRIBE` answers with: the results at subscription time).
    fn new(shape: &Shape, baseline: &[Vec<Scored>]) -> DeliveryHalf {
        let sessions: Vec<SessionOut> = (0..shape.sessions).map(|_| SessionOut::new()).collect();
        let mut router = DeltaRouter::new();
        let mut mirrors: Vec<Mirror> = (0..shape.sessions.min(MIRRORS))
            .map(|_| Mirror {
                framer: LineFramer::new(MAX_REQUEST_LINE),
                wire: Vec::new(),
                chunks: Vec::new(),
                lines: Vec::new(),
                pushes: Vec::new(),
                results: BTreeMap::new(),
            })
            .collect();
        for (q, result) in baseline.iter().enumerate() {
            for s in shape.subscribers_of(q) {
                router.subscribe(QueryId(q as u64), s as u32);
                if let Some(m) = mirrors.get_mut(s) {
                    m.results.insert(QueryId(q as u64), result.clone());
                }
            }
        }
        DeliveryHalf {
            router,
            sessions,
            mirrors,
            scratch: Vec::with_capacity(DRAIN_CHUNK),
            counts: Counts::default(),
            failed: 0,
        }
    }

    /// One tick's wire and fan-out work, given the deltas the engine half
    /// produced for it.
    fn cycle(&mut self, rec: &mut Recorder, t: &Tick, deltas: &[ResultDelta]) {
        let DeliveryHalf {
            router,
            sessions,
            mirrors,
            scratch,
            counts,
            failed,
        } = self;
        rec.enter("deliver");

        // Wire in: the ingest client formats the TICKAT line, the session
        // reader parses it (what it parses is what the engine was fed:
        // the shortest-round-trip float encoding is exact).
        let line = rec.span("tick_encode", || {
            Request::TickAt {
                at: t.ts,
                arrivals: t.coords.clone(),
            }
            .to_string()
        });
        let parsed = rec.span("tick_parse", || parse_request(&line));
        let exact = matches!(
            &parsed,
            Ok(Request::TickAt { at, arrivals }) if *at == t.ts && *arrivals == t.coords
        );
        *failed += u64::from(!exact);
        let now = t.ts.advance(1);

        // Fan-out: what the service's `fan_out` and the reactor do.
        let routed: Vec<(&ResultDelta, &[u32])> = rec.span("route", || {
            deltas
                .iter()
                .map(|d| (d, router.subscribers(d.query)))
                .filter(|(_, subs)| !subs.is_empty())
                .collect()
        });
        let payloads: Vec<Arc<[u8]>> = rec.span("encode", || {
            routed
                .iter()
                .map(|(d, _)| {
                    encode_push(&Push::Delta {
                        at: now,
                        delta: (*d).clone(),
                    })
                })
                .collect()
        });
        let refused = rec.span("enqueue", || {
            let mut refused = 0u64;
            for ((_, subs), payload) in routed.iter().zip(&payloads) {
                for s in *subs {
                    let accepted =
                        sessions[*s as usize].try_push_shared(Arc::clone(payload), PUSH_CAP);
                    refused += u64::from(!accepted);
                }
            }
            refused
        });
        *failed += refused;
        for ((_, subs), payload) in routed.iter().zip(&payloads) {
            counts.pushes += subs.len() as u64;
            counts.push_bytes += (subs.len() * payload.len()) as u64;
        }
        counts.encodes += payloads.len() as u64;
        let (calls, bytes) = rec.span("drain", || {
            let (mut calls, mut bytes) = (0u64, 0u64);
            for (i, out) in sessions.iter().enumerate() {
                loop {
                    let n = out.peek_coalesced(scratch, DRAIN_CHUNK);
                    if n == 0 {
                        break;
                    }
                    out.advance(n);
                    calls += 1;
                    bytes += n as u64;
                    // Where the reactor writes to the socket, a mirror
                    // session keeps the bytes for its client half.
                    if let Some(m) = mirrors.get_mut(i) {
                        m.wire.extend_from_slice(&scratch[..n]);
                        m.chunks.push(n);
                    }
                }
            }
            (calls, bytes)
        });
        counts.drain_calls += calls;
        counts.drained_bytes += bytes;

        // Mirror: what `ServiceClient` + `apply_push` do.
        let bad_lines = rec.span("frame", || {
            let mut bad = 0u64;
            for m in mirrors.iter_mut() {
                let mut fed = 0;
                for n in m.chunks.drain(..) {
                    m.framer.feed(&m.wire[fed..fed + n]);
                    fed += n;
                    while let Some(framed) = m.framer.next_line() {
                        match framed {
                            FramedLine::Line(l) => m.lines.push(l),
                            FramedLine::TooLong | FramedLine::NotUtf8 => bad += 1,
                        }
                    }
                }
                m.wire.clear();
            }
            bad
        });
        let bad_pushes = rec.span("parse", || {
            let mut bad = 0u64;
            for m in mirrors.iter_mut() {
                for l in m.lines.drain(..) {
                    counts.lines += 1;
                    match parse_server_line(&l) {
                        Ok(ServerLine::Push(p)) => m.pushes.push(p),
                        _ => bad += 1,
                    }
                }
            }
            bad
        });
        rec.span("apply", || {
            for m in mirrors.iter_mut() {
                for p in m.pushes.drain(..) {
                    apply_push(&mut m.results, &p);
                    counts.applied += 1;
                }
            }
        });
        rec.exit();
        *failed += bad_lines + bad_pushes;
    }

    /// Whether every mirror equals the engine's results for the queries
    /// it follows.
    fn mirrors_equal(&self, results: &[Vec<Scored>]) -> bool {
        self.mirrors.iter().all(|m| {
            m.results
                .iter()
                .all(|(q, got)| *got == results[q.0 as usize])
        })
    }
}

fn stats_since(now: EngineStats, then: EngineStats) -> EngineStats {
    EngineStats {
        ticks: now.ticks - then.ticks,
        arrivals: now.arrivals - then.arrivals,
        expirations: now.expirations - then.expirations,
        recompute_queries: now.recompute_queries - then.recompute_queries,
        recompute_groups: now.recompute_groups - then.recompute_groups,
        cells_processed: now.cells_processed - then.cells_processed,
        points_scanned: now.points_scanned - then.points_scanned,
        heap_pushes: now.heap_pushes - then.heap_pushes,
        cleanup_cells: now.cleanup_cells - then.cleanup_cells,
        result_updates: now.result_updates - then.result_updates,
        cell_probes: now.cell_probes - then.cell_probes,
        tuple_probes: now.tuple_probes - then.tuple_probes,
    }
}

/// The engine pass over one stream: exactly the loop the untraced facade
/// runs, with a span per stage. The delivery half is traced in a pass of
/// its own ([`traced_delivery`]): run interleaved, it evicts the engine's
/// working set between ticks (10 000 session queues on `fanout`) and the
/// engine spans read 15–70% above the facade they are compared with.
fn engine_pass<M: QueryMaintenance>(shape: &Shape, inputs: &Inputs) -> EngineTrace {
    let mut engine: EngineHalf<M> = EngineHalf::new(shape, inputs);
    let baseline = engine.prev.clone();
    let mut unrecorded = Recorder::new(inputs.warm.len() * 5);
    let warm_deltas: Vec<Vec<ResultDelta>> = inputs
        .warm
        .iter()
        .map(|t| engine.cycle(&mut unrecorded, t))
        .collect();
    let before = engine.stats();

    let mut rec = Recorder::new(inputs.ticks.len() * 6);
    let mut tick_deltas = Vec::with_capacity(inputs.ticks.len());
    let mut expirations = Vec::with_capacity(inputs.ticks.len());
    let mut expired = before.expirations;
    for (i, t) in inputs.ticks.iter().enumerate() {
        rec.set_tick(i as u32);
        tick_deltas.push(engine.cycle(&mut rec, t));
        let total = engine.shared.stats().expirations;
        expirations.push(total - expired);
        expired = total;
        if (i + 1) % SNAPSHOT_EVERY == 0 || i + 1 == inputs.ticks.len() {
            engine.snapshot_sample(&mut rec);
        }
    }
    EngineTrace {
        spans: rec.finish(),
        stats: stats_since(engine.stats(), before),
        expirations,
        diffed: (shape.q * inputs.ticks.len()) as u64,
        deltas: tick_deltas.iter().map(|d| d.len() as u64).sum(),
        fingerprint: tick_deltas.iter().map(|d| fingerprint(d)).collect(),
        finals: engine.prev.clone(),
        handoff: vec![Handoff {
            baseline,
            warm_deltas,
            tick_deltas,
            finals: engine.prev,
        }],
        failed: engine.failed,
    }
}

/// Runs one traced engine pass of `shape` with the given engine's
/// maintenance: every stream in turn, each on a fresh system. Spans of
/// stream `s` carry tick indices `s·ticks ..`. `keep_handoff` keeps every
/// tick's deltas for a later [`traced_delivery`] (tens of MB on `steady`).
pub fn traced_engine(
    shape: &Shape,
    streams: &[Inputs],
    engine: EngineKind,
    keep_handoff: bool,
) -> EngineTrace {
    let one = match engine {
        EngineKind::Sma => engine_pass::<SmaMaintenance>,
        EngineKind::Tma => engine_pass::<TmaMaintenance>,
        EngineKind::Tsl | EngineKind::Oracle => unreachable!("the benchmark runs SMA and TMA"),
    };
    let mut all = EngineTrace {
        spans: Vec::new(),
        stats: EngineStats::default(),
        expirations: Vec::new(),
        diffed: 0,
        deltas: 0,
        fingerprint: Vec::new(),
        finals: Vec::new(),
        handoff: Vec::new(),
        failed: 0,
    };
    for inputs in streams {
        let mut next = one(shape, inputs);
        shift_spans(
            &mut next.spans,
            all.spans.len() as u32,
            all.fingerprint.len() as u32,
        );
        all.spans.extend(next.spans);
        all.stats.absorb(next.stats);
        all.expirations.extend(next.expirations);
        all.diffed += next.diffed;
        all.deltas += next.deltas;
        all.fingerprint.extend(next.fingerprint);
        all.finals.extend(next.finals);
        if keep_handoff {
            all.handoff.extend(next.handoff);
        }
        all.failed += next.failed;
    }
    all
}

/// Runs one traced delivery pass: every stream's ticks and the deltas an
/// engine pass produced for them (SMA's or TMA's: they are identical),
/// through wire-in, fan-out and the mirrors.
pub fn traced_delivery(shape: &Shape, streams: &[Inputs], handoff: &[Handoff]) -> DeliveryTrace {
    assert_eq!(streams.len(), handoff.len(), "one handoff per stream");
    let mut all = DeliveryTrace {
        spans: Vec::new(),
        counts: Counts::default(),
        failed: 0,
    };
    let mut ticks_done = 0u32;
    for (inputs, from) in streams.iter().zip(handoff) {
        let mut delivery = DeliveryHalf::new(shape, &from.baseline);
        let mut unrecorded = Recorder::new(inputs.warm.len() * 11);
        for (t, deltas) in inputs.warm.iter().zip(&from.warm_deltas) {
            delivery.cycle(&mut unrecorded, t, deltas);
        }
        delivery.counts = Counts::default();
        let mut rec = Recorder::new(inputs.ticks.len() * 11);
        for (i, (t, deltas)) in inputs.ticks.iter().zip(&from.tick_deltas).enumerate() {
            rec.set_tick(i as u32);
            delivery.cycle(&mut rec, t, deltas);
        }
        let mut spans = rec.finish();
        shift_spans(&mut spans, all.spans.len() as u32, ticks_done);
        ticks_done += inputs.ticks.len() as u32;
        all.spans.extend(spans);
        all.counts.absorb(delivery.counts);
        all.failed += delivery.failed + u64::from(!delivery.mirrors_equal(&from.finals));
    }
    all
}

/// A bare `Window` and a bare `Grid` fed the workload's batches: the
/// floor under `IngestState::ingest`. Returns the nanoseconds each spent
/// over the measured ticks of all streams.
pub fn bare_replay(shape: &Shape, streams: &[Inputs]) -> (u64, u64) {
    streams
        .iter()
        .map(|inputs| bare_stream(shape, inputs))
        .fold((0, 0), |(w, g), (dw, dg)| (w + dw, g + dg))
}

fn bare_stream(shape: &Shape, inputs: &Inputs) -> (u64, u64) {
    let mut window = Window::new(shape.dims, shape.window()).expect("config");
    let mut grid = GridSpec::default()
        .build(shape.dims, CellMode::Fifo)
        .expect("config");
    let mut ids = Vec::new();
    let mut gone_ids = Vec::new();
    let mut gone_coords: Vec<f64> = Vec::new();
    let (mut window_ns, mut grid_ns) = (0u64, 0u64);
    let measured_from = inputs.prefill.len() + inputs.warm.len();
    for (i, t) in inputs
        .prefill
        .iter()
        .chain(&inputs.warm)
        .chain(&inputs.ticks)
        .enumerate()
    {
        ids.clear();
        gone_ids.clear();
        gone_coords.clear();
        let t0 = std::time::Instant::now();
        for c in t.coords.chunks_exact(shape.dims) {
            ids.push(window.insert(c, t.ts).expect("insert"));
        }
        window.drain_expired(t.ts, |id, c| {
            gone_ids.push(id);
            gone_coords.extend_from_slice(c);
        });
        let t1 = std::time::Instant::now();
        for (c, id) in t.coords.chunks_exact(shape.dims).zip(&ids) {
            grid.insert_point(c, *id);
        }
        for (c, id) in gone_coords.chunks_exact(shape.dims).zip(&gone_ids) {
            grid.remove_point(c, *id)
                .expect("window and grid in lockstep");
        }
        let t2 = std::time::Instant::now();
        if i >= measured_from {
            window_ns += (t1 - t0).as_nanos() as u64;
            grid_ns += (t2 - t1).as_nanos() as u64;
        }
    }
    (window_ns, grid_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::engine_replay;

    #[test]
    fn pipeline_reproduces_the_facade_tick_by_tick() {
        for name in ["storm", "fanout"] {
            let shape = Shape::by_name(name).unwrap().quick();
            let streams = Inputs::streams(&shape, 5);
            for engine in crate::shape::ENGINES {
                let facade = engine_replay(&shape, &streams, engine);
                let traced = traced_engine(&shape, &streams, engine, true);
                assert_eq!(traced.failed, 0, "{name}");
                assert_eq!(traced.fingerprint, facade.fingerprint, "{name}");
                assert_eq!(traced.finals, facade.finals, "{name}");
                let delivered = traced_delivery(&shape, &streams, &traced.handoff);
                assert_eq!(delivered.failed, 0, "{name}");
                assert_eq!(delivered.counts.applied, delivered.counts.lines);
                assert_eq!(delivered.counts.drained_bytes, delivered.counts.push_bytes);
                assert!(delivered.counts.pushes > 0, "{name}");
                assert_eq!(traced.stats.ticks, shape.replay_ticks() as u64);
                assert_eq!(
                    traced.spans.last().unwrap().tick + 1,
                    shape.replay_ticks() as u32
                );
            }
        }
    }
}
