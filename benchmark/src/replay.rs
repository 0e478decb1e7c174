//! End-to-end replays: one fresh system, one pass over the inputs, driven
//! only through the stable facade (`MonitorServer`, `Service`,
//! `ServiceClient`, `apply_push`, plus `DeltaRouter` / `SessionOut` for
//! `fanout`). Timers sit around facade calls only; everything that
//! checks or fingerprints an output runs after the clock stopped.
//!
//! Every loop is closed: one generator thread, one outstanding tick.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use tkm_common::{QueryId, Scored};
use tkm_core::{DeltaRouter, EngineKind, MonitorServer, ResultDelta};
use tkm_service::{apply_push, Push, Service, ServiceClient, ServiceConfig, SessionOut};

use crate::shape::{Facade, Inputs, Shape, Tick, DRAIN_CHUNK, PUSH_CAP};

/// What one replay measured and produced.
pub struct ReplayOut {
    /// Construct, prefill, register/subscribe and the warm ticks.
    pub setup_s: f64,
    /// Per measured tick: tick start → the new results are visible to the
    /// workload's consumer (deltas taken / mirror updated / last queue
    /// drained).
    pub tick_ns: Vec<u64>,
    /// Per measured tick: tick start → the ingest caller is released.
    /// Differs from `tick_ns` on `serve` only (`OK` precedes the mirror).
    pub ingest_ns: Vec<u64>,
    /// Per measured tick: a hash of the tick's result deltas. Replays of
    /// one run, of either engine, must agree on it.
    pub fingerprint: Vec<u64>,
    /// Result deltas, pushes and pushed bytes over the measured ticks.
    pub deltas: u64,
    pub pushes: u64,
    pub push_bytes: u64,
    /// Engine state size after the last tick (mean over streams).
    pub space_bytes: u64,
    /// Every query's result after the last tick.
    pub finals: Vec<Vec<Scored>>,
    /// Tick errors, refused or resynced pushes, mirror mismatches.
    pub failed: u64,
}

/// FNV-1a over the words that define a tick's deltas.
pub fn fingerprint(deltas: &[ResultDelta]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for d in deltas {
        eat(d.query.0);
        eat(d.added.len() as u64);
        for e in d.added.iter().chain(&d.removed) {
            eat(e.id.0);
            eat(e.score.get().to_bits());
        }
    }
    h
}

/// The wire bytes of one push line, terminator included, shareable
/// across subscriber queues.
pub fn encode_push(push: &Push) -> Arc<[u8]> {
    Arc::from(format!("{push}\n").into_bytes())
}

/// Runs one replay of `shape` behind its facade: every stream in turn,
/// each on a fresh system.
pub fn replay(shape: &Shape, streams: &[Inputs], engine: EngineKind) -> ReplayOut {
    let one = match shape.facade {
        Facade::Engine => engine_stream,
        Facade::Serve => serve_stream,
        Facade::Fanout => fanout_stream,
    };
    ReplayOut::concat(streams.iter().map(|inputs| one(shape, inputs, engine)))
}

/// `MonitorServer::tick_at` + `take_deltas` over every stream, whatever
/// the workload's own facade: the untraced baseline of a traced run.
pub fn engine_replay(shape: &Shape, streams: &[Inputs], engine: EngineKind) -> ReplayOut {
    ReplayOut::concat(
        streams
            .iter()
            .map(|inputs| engine_stream(shape, inputs, engine)),
    )
}

/// A prefilled `MonitorServer` with every query registered (ids `0..q`
/// in order). Warm ticks are left to the caller.
fn build_server(shape: &Shape, inputs: &Inputs, engine: EngineKind) -> MonitorServer {
    let mut server = MonitorServer::new(shape.server_config(engine)).expect("workload config");
    for t in &inputs.prefill {
        server.tick_at(t.ts, &t.coords).expect("prefill tick");
    }
    for (i, q) in inputs.queries.iter().enumerate() {
        let id = server.register(q.query()).expect("register");
        assert_eq!(id, QueryId(i as u64), "query ids are handed out in order");
    }
    server
}

fn finals_of(server: &MonitorServer, q: usize) -> Vec<Vec<Scored>> {
    (0..q as u64)
        .map(|i| server.result(QueryId(i)).expect("registered query"))
        .collect()
}

/// `steady` / `ingest` / `storm`: `MonitorServer::tick_at` + `take_deltas`.
pub fn engine_stream(shape: &Shape, inputs: &Inputs, engine: EngineKind) -> ReplayOut {
    let t0 = Instant::now();
    let mut server = build_server(shape, inputs, engine);
    for t in &inputs.warm {
        server.tick_at(t.ts, &t.coords).expect("warm tick");
        server.take_deltas();
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let mut out = ReplayOut::with_capacity(setup_s, inputs.ticks.len());
    for t in &inputs.ticks {
        let start = Instant::now();
        let res = server.tick_at(t.ts, &t.coords);
        let deltas = server.take_deltas();
        let ns = start.elapsed().as_nanos() as u64;
        out.tick_ns.push(ns);
        out.ingest_ns.push(ns);
        out.failed += u64::from(res.is_err());
        out.deltas += deltas.len() as u64;
        out.fingerprint.push(fingerprint(&deltas));
    }
    out.space_bytes = server.space_bytes() as u64;
    out.finals = finals_of(&server, shape.q);
    out
}

/// A running `Service` on loopback with the `serve` workload's two
/// connections: one ingest client, one mirror client subscribed to every
/// query. Two sockets, one generator thread.
struct ServeRig {
    service: Service,
    ingest: ServiceClient,
    mirror_conn: ServiceClient,
    mirror: BTreeMap<QueryId, Vec<Scored>>,
}

impl ServeRig {
    /// Binds, connects, prefills, registers and subscribes every query,
    /// and runs the warm ticks.
    fn start(shape: &Shape, inputs: &Inputs, engine: EngineKind) -> ServeRig {
        let service = Service::bind(
            "127.0.0.1:0",
            ServiceConfig::new(shape.server_config(engine)),
        )
        .expect("bind on loopback");
        let mut ingest = ServiceClient::connect(service.local_addr()).expect("connect ingest");
        let mut mirror_conn = ServiceClient::connect(service.local_addr()).expect("connect mirror");
        for t in &inputs.prefill {
            ingest.tick(&t.coords).expect("prefill tick");
        }
        let mut mirror = BTreeMap::new();
        for (i, q) in inputs.queries.iter().enumerate() {
            let id = mirror_conn
                .register_linear(q.k, &q.weights)
                .expect("register");
            assert_eq!(id, QueryId(i as u64), "query ids are handed out in order");
            mirror.insert(id, mirror_conn.subscribe(id).expect("subscribe"));
        }
        let mut rig = ServeRig {
            service,
            ingest,
            mirror_conn,
            mirror,
        };
        for t in &inputs.warm {
            rig.ingest.tick(&t.coords).expect("warm tick");
            rig.fence();
        }
        rig
    }

    /// `PING` on the mirror connection, then applies every push that
    /// arrived ahead of the `OK pong`. The service's fan-out barrier puts
    /// tick *t*'s pushes on the mirror's queue before the tick's `OK` is
    /// sent, and that single queue orders them before the pong, so after
    /// a fence the mirror reflects every tick acknowledged before it.
    /// Returns (pong ok, pushes applied, `RESYNC`s seen).
    fn fence(&mut self) -> (bool, u64, u64) {
        let pong = self.mirror_conn.ping();
        let (mut applied, mut resyncs) = (0u64, 0u64);
        while let Some(push) = self.mirror_conn.try_buffered_push() {
            resyncs += u64::from(matches!(push, Push::Resync { .. }));
            apply_push(&mut self.mirror, &push);
            applied += 1;
        }
        (pong.is_ok(), applied, resyncs)
    }

    /// One `STATS` counter.
    fn stat(&mut self, key: &str) -> u64 {
        let stats = self.ingest.stats().expect("STATS");
        stats
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("STATS carries {key}"))
    }

    /// Closes both connections and joins the service's threads.
    fn stop(self) {
        self.ingest.quit().expect("quit ingest");
        self.mirror_conn.quit().expect("quit mirror");
        self.service.shutdown();
    }
}

/// `serve`: per tick, `TICK` → `OK` on the ingest connection, then a
/// fence on the mirror connection (see [`ServeRig::fence`]).
fn serve_stream(shape: &Shape, inputs: &Inputs, engine: EngineKind) -> ReplayOut {
    let t0 = Instant::now();
    let mut rig = ServeRig::start(shape, inputs, engine);
    let setup_s = t0.elapsed().as_secs_f64();

    // The in-process reference the mirror must equal bit for bit.
    let mut reference = build_server(shape, inputs, engine);
    for t in &inputs.warm {
        reference.tick_at(t.ts, &t.coords).expect("warm tick");
        reference.take_deltas();
    }

    let mut out = ReplayOut::with_capacity(setup_s, inputs.ticks.len());
    for t in &inputs.ticks {
        let start = Instant::now();
        let ok = rig.ingest.tick(&t.coords);
        let ok_ns = start.elapsed().as_nanos() as u64;
        let (pong, applied, resyncs) = rig.fence();
        let ns = start.elapsed().as_nanos() as u64;
        out.ingest_ns.push(ok_ns);
        out.tick_ns.push(ns);

        reference.tick_at(t.ts, &t.coords).expect("reference tick");
        let deltas = reference.take_deltas();
        let exact = (0..shape.q as u64).all(|i| {
            let id = QueryId(i);
            rig.mirror.get(&id).map(Vec::as_slice) == reference.result(id).ok().as_deref()
        });
        let clean = ok.is_ok() && pong && resyncs == 0 && applied == deltas.len() as u64 && exact;
        out.failed += u64::from(!clean);
        out.deltas += deltas.len() as u64;
        out.pushes += applied;
        out.fingerprint.push(fingerprint(&deltas));
    }
    out.space_bytes = rig.stat("space_bytes");
    out.failed += rig.stat("resyncs") + rig.stat("shed") + rig.stat("tick_errors");
    out.finals = (0..shape.q as u64)
        .map(|i| rig.mirror.remove(&QueryId(i)).unwrap_or_default())
        .collect();
    rig.stop();
    out
}

/// What the service + reactor layer looks like from outside: sockets and
/// `STATS`, nothing else.
pub struct WireProbe {
    /// `TICK` sent → fence returned with every push applied, per tick.
    pub tick_to_mirror_ns: Vec<u64>,
    /// Round trip of a `TICK` that carries no tuple.
    pub empty_tick_ns: Vec<u64>,
    /// Round trip of a `PING`.
    pub ping_ns: Vec<u64>,
    pub encodes: u64,
    pub deltas: u64,
    pub resyncs: u64,
    pub shed: u64,
}

/// Runs the `serve` shape once (SMA) and then `rtts` empty ticks and
/// pings against the same service.
pub fn wire_probe(shape: &Shape, inputs: &Inputs, rtts: usize) -> WireProbe {
    let mut rig = ServeRig::start(shape, inputs, EngineKind::Sma);
    let mut probe = WireProbe {
        tick_to_mirror_ns: Vec::with_capacity(inputs.ticks.len()),
        empty_tick_ns: Vec::with_capacity(rtts),
        ping_ns: Vec::with_capacity(rtts),
        encodes: 0,
        deltas: 0,
        resyncs: 0,
        shed: 0,
    };
    for t in &inputs.ticks {
        let start = Instant::now();
        rig.ingest.tick(&t.coords).expect("probe tick");
        rig.fence();
        probe
            .tick_to_mirror_ns
            .push(start.elapsed().as_nanos() as u64);
    }
    probe.encodes = rig.stat("encodes");
    probe.deltas = rig.stat("deltas");
    for _ in 0..rtts {
        let start = Instant::now();
        rig.ingest.tick(&[]).expect("empty tick");
        probe.empty_tick_ns.push(start.elapsed().as_nanos() as u64);
        let start = Instant::now();
        rig.ingest.ping().expect("ping");
        probe.ping_ns.push(start.elapsed().as_nanos() as u64);
    }
    rig.fence();
    probe.resyncs = rig.stat("resyncs");
    probe.shed = rig.stat("shed");
    rig.stop();
    probe
}

/// `fanout`: no sockets. Per tick: engine cycle → `take_deltas` → encode
/// once per delta → `try_push_shared` into every subscriber's queue →
/// drain every queue the way the reactor does
/// (`peek_coalesced(64 KiB)` / `advance`).
fn fanout_stream(shape: &Shape, inputs: &Inputs, engine: EngineKind) -> ReplayOut {
    let t0 = Instant::now();
    let mut server = build_server(shape, inputs, engine);
    let sessions: Vec<SessionOut> = (0..shape.sessions).map(|_| SessionOut::new()).collect();
    let mut router: DeltaRouter<u32> = DeltaRouter::new();
    for q in 0..shape.q {
        for s in shape.subscribers_of(q) {
            router.subscribe(QueryId(q as u64), s as u32);
        }
    }
    let mut scratch = Vec::with_capacity(DRAIN_CHUNK);
    struct FanoutTick {
        ok: bool,
        pushes: u64,
        refused: u64,
        pushed_bytes: u64,
        drained_bytes: u64,
        deltas: Vec<ResultDelta>,
    }
    let mut cycle = |server: &mut MonitorServer, t: &Tick| {
        let ok = server.tick_at(t.ts, &t.coords).is_ok();
        let at = server.now();
        let deltas = server.take_deltas();
        let (mut pushes, mut refused, mut pushed_bytes) = (0u64, 0u64, 0u64);
        for delta in &deltas {
            let subs = router.subscribers(delta.query);
            if subs.is_empty() {
                continue;
            }
            // Encoded once per delta, as the service's `fan_out` does
            // (clone included), then shared by every subscriber's queue.
            let payload = encode_push(&Push::Delta {
                at,
                delta: delta.clone(),
            });
            for s in subs {
                let accepted =
                    sessions[*s as usize].try_push_shared(Arc::clone(&payload), PUSH_CAP);
                refused += u64::from(!accepted);
                pushes += 1;
                pushed_bytes += payload.len() as u64;
            }
        }
        let mut drained_bytes = 0u64;
        for out in &sessions {
            loop {
                let n = out.peek_coalesced(&mut scratch, DRAIN_CHUNK);
                if n == 0 {
                    break;
                }
                out.advance(n);
                drained_bytes += n as u64;
            }
        }
        FanoutTick {
            ok,
            pushes,
            refused,
            pushed_bytes,
            drained_bytes,
            deltas,
        }
    };
    for t in &inputs.warm {
        cycle(&mut server, t);
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let mut out = ReplayOut::with_capacity(setup_s, inputs.ticks.len());
    for t in &inputs.ticks {
        let start = Instant::now();
        let tick = cycle(&mut server, t);
        let ns = start.elapsed().as_nanos() as u64;
        out.tick_ns.push(ns);
        out.ingest_ns.push(ns);
        // Drained bytes = Σ payload × subscribers, nothing refused.
        let clean = tick.ok && tick.refused == 0 && tick.drained_bytes == tick.pushed_bytes;
        out.failed += u64::from(!clean);
        out.deltas += tick.deltas.len() as u64;
        out.pushes += tick.pushes;
        out.push_bytes += tick.pushed_bytes;
        out.fingerprint.push(fingerprint(&tick.deltas));
    }
    out.failed += sessions.iter().filter(|s| !s.is_drained()).count() as u64;
    out.space_bytes = server.space_bytes() as u64;
    out.finals = finals_of(&server, shape.q);
    out
}

impl ReplayOut {
    /// Joins the per-stream outputs of one replay: series and results are
    /// concatenated in stream order, times and counts summed, and the
    /// state size averaged.
    fn concat(streams: impl Iterator<Item = ReplayOut>) -> ReplayOut {
        let mut all = ReplayOut::with_capacity(0.0, 0);
        let mut n = 0;
        for one in streams {
            n += 1;
            all.setup_s += one.setup_s;
            all.tick_ns.extend(one.tick_ns);
            all.ingest_ns.extend(one.ingest_ns);
            all.fingerprint.extend(one.fingerprint);
            all.deltas += one.deltas;
            all.pushes += one.pushes;
            all.push_bytes += one.push_bytes;
            all.space_bytes += one.space_bytes;
            all.finals.extend(one.finals);
            all.failed += one.failed;
        }
        all.space_bytes /= n.max(1);
        all
    }

    fn with_capacity(setup_s: f64, ticks: usize) -> ReplayOut {
        ReplayOut {
            setup_s,
            tick_ns: Vec::with_capacity(ticks),
            ingest_ns: Vec::with_capacity(ticks),
            fingerprint: Vec::with_capacity(ticks),
            deltas: 0,
            pushes: 0,
            push_bytes: 0,
            space_bytes: 0,
            finals: Vec::new(),
            failed: 0,
        }
    }
}
