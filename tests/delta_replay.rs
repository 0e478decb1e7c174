//! Property-based test of the delta-stream semantics: a client that
//! mirrors a query's result from a registration-time snapshot and replays
//! every subsequent [`ResultDelta`] reconstructs `result()` **exactly** —
//! across arbitrary arrival churn, query registration/termination, both
//! grid engines, and interleaved drop-to-snapshot resyncs (a mirror that
//! misses a tick's deltas and re-baselines from a fresh snapshot stays
//! exact from then on). This is the contract the `tkm_service` wire
//! protocol (`DELTA` / `SNAPSHOT` / `RESYNC`) is built on. The stream
//! itself is part of the contract too: SMA and TMA emit the same deltas in
//! the same order on every tick.

use std::collections::BTreeMap;

use proptest::prelude::*;
use topk_monitor::service::{apply_push, parse_server_line, Push, ServerLine};
use topk_monitor::{
    EngineKind, MonitorServer, Query, QueryId, ResultDelta, ScoreFn, Scored, ServerConfig,
    WindowSpec,
};

/// One generated step of the churn sequence.
///
/// `action % 5`: 0–1 = stream only, 2 = register a fresh query,
/// 3 = unregister the oldest live query, 4 = simulate a dropped-delta
/// resync on the oldest live query (skip its deltas this tick and
/// re-baseline its mirror from a snapshot — the service's backpressure
/// path). [`run_wire_churn`] reinterprets the same steps as `action % 6`,
/// where 5 opens/closes a multi-tick reconnect gap.
type Step = (Vec<(u32, u32)>, u8, u8, i8, i8);

fn apply_tick_deltas(
    deltas: &[ResultDelta],
    mirrors: &mut BTreeMap<QueryId, Vec<Scored>>,
    skip: Option<QueryId>,
) {
    for delta in deltas {
        if Some(delta.query) == skip {
            continue;
        }
        if let Some(mirror) = mirrors.get_mut(&delta.query) {
            delta.apply(mirror);
        }
    }
}

/// Runs the churn sequence and returns every tick's delta batch. Under a
/// time window every other step (`k` even) ticks without arrivals, so the
/// window, and with it the bands, drain.
fn run_churn(engine: EngineKind, window: WindowSpec, steps: &[Step]) -> Vec<Vec<ResultDelta>> {
    let cfg = ServerConfig::sma(2, 0)
        .with_window(window)
        .with_engine(engine)
        .with_delta_tracking(true);
    let mut server = MonitorServer::new(cfg).expect("server");
    let mut mirrors: BTreeMap<QueryId, Vec<Scored>> = BTreeMap::new();
    let mut stream = Vec::with_capacity(steps.len());

    for (batch_spec, action, k, w1, w2) in steps {
        match action % 5 {
            2 => {
                let k = 1 + (*k as usize % 8);
                let weights = vec![*w1 as f64 / 4.0, *w2 as f64 / 4.0];
                let q = Query::top_k(ScoreFn::linear(weights).expect("weights"), k).expect("k");
                let id = server.register(q).expect("register");
                // The subscriber's baseline: the result at subscription
                // time (what SUBSCRIBE pushes as its first SNAPSHOT).
                mirrors.insert(id, server.result(id).expect("baseline"));
            }
            3 => {
                if let Some((&id, _)) = mirrors.iter().next() {
                    server.unregister(id).expect("unregister");
                    mirrors.remove(&id);
                }
            }
            _ => {}
        }

        let mut batch = Vec::with_capacity(batch_spec.len() * 2);
        for (a, b) in batch_spec {
            batch.push((a % 16) as f64 / 15.0);
            batch.push((b % 16) as f64 / 15.0);
        }
        if matches!(window, WindowSpec::Time(_)) && k % 2 == 0 {
            batch.clear();
        }
        server.tick(&batch).expect("tick");

        let deltas = server.take_deltas();
        assert!(
            deltas.windows(2).all(|w| w[0].query < w[1].query),
            "{engine:?}: deltas not in query order"
        );
        let dropped = if action % 5 == 4 {
            mirrors.keys().next().copied()
        } else {
            None
        };
        apply_tick_deltas(&deltas, &mut mirrors, dropped);
        if let Some(q) = dropped {
            // Drop-to-snapshot: the slow consumer lost this tick's deltas
            // and is re-baselined from the post-tick result.
            let snapshot = server.result(q).expect("resync snapshot");
            mirrors.insert(q, snapshot);
        }

        for (id, mirror) in &mirrors {
            let truth = server.result(*id).expect("result");
            assert_eq!(
                mirror, &truth,
                "{engine:?}: mirror of {id} diverged from result()"
            );
        }
        stream.push(deltas);
    }
    stream
}

/// Wire-level churn: every delta/snapshot travels through the actual line
/// encoding (`Push` → text → [`parse_server_line`] → [`apply_push`]), and
/// `action % 6 == 5` toggles a *reconnect gap* on the oldest live query —
/// its mirror misses every delta for one or more whole ticks (the client
/// is gone), then is re-baselined exactly the way a resumed
/// `ServiceClient` is: a synthetic `RESYNC` marker followed by a fresh
/// `SNAPSHOT`, both through the wire. Mirrors must equal `result()`
/// bit-exactly whenever they are online.
fn run_wire_churn(engine: EngineKind, capacity: usize, steps: &[Step]) {
    let cfg = ServerConfig::sma(2, capacity)
        .with_engine(engine)
        .with_delta_tracking(true);
    let mut server = MonitorServer::new(cfg).expect("server");
    let mut mirrors: BTreeMap<QueryId, Vec<Scored>> = BTreeMap::new();
    // The one query currently in a reconnect gap (its consumer is away).
    let mut offline: Option<QueryId> = None;

    let via_wire = |push: Push| -> Push {
        let line = push.to_string();
        match parse_server_line(&line).expect("wire round-trip") {
            ServerLine::Push(p) => p,
            ServerLine::Reply(r) => panic!("push parsed as reply: {r}"),
        }
    };
    let rebaseline =
        |server: &MonitorServer, mirrors: &mut BTreeMap<QueryId, Vec<Scored>>, q: QueryId| {
            apply_push(mirrors, &via_wire(Push::Resync { count: 1 }));
            let snapshot = Push::Snapshot {
                query: q,
                at: server.now(),
                entries: server.result(q).expect("resync snapshot"),
            };
            apply_push(mirrors, &via_wire(snapshot));
        };

    for (batch_spec, action, k, w1, w2) in steps {
        let mut reconnected = None;
        match action % 6 {
            2 => {
                let k = 1 + (*k as usize % 8);
                let weights = vec![*w1 as f64 / 4.0, *w2 as f64 / 4.0];
                let q = Query::top_k(ScoreFn::linear(weights).expect("weights"), k).expect("k");
                let id = server.register(q).expect("register");
                mirrors.insert(id, server.result(id).expect("baseline"));
            }
            3 => {
                if let Some((&id, _)) = mirrors.iter().next() {
                    server.unregister(id).expect("unregister");
                    mirrors.remove(&id);
                    if offline == Some(id) {
                        offline = None; // the vanished client's query died too
                    }
                }
            }
            5 => match offline.take() {
                // A gap was open: this step ends it (after the tick below,
                // like a real resume racing the live stream).
                Some(q) => reconnected = Some(q),
                None => offline = mirrors.keys().next().copied(),
            },
            _ => {}
        }

        let mut batch = Vec::with_capacity(batch_spec.len() * 2);
        for (a, b) in batch_spec {
            batch.push((a % 16) as f64 / 15.0);
            batch.push((b % 16) as f64 / 15.0);
        }
        server.tick(&batch).expect("tick");

        let now = server.now();
        for delta in server.take_deltas() {
            let q = delta.query;
            if Some(q) == offline || Some(q) == reconnected || !mirrors.contains_key(&q) {
                continue; // nobody is listening for this query right now
            }
            apply_push(&mut mirrors, &via_wire(Push::Delta { at: now, delta }));
        }
        if let Some(q) = reconnected {
            rebaseline(&server, &mut mirrors, q);
        }

        for (id, mirror) in &mirrors {
            if Some(*id) == offline {
                continue; // divergence is expected while the client is away
            }
            let truth = server.result(*id).expect("result");
            assert_eq!(
                mirror, &truth,
                "{engine:?}: wire mirror of {id} diverged from result()"
            );
        }
    }

    // A gap still open at the end must close exactly, however many ticks
    // it spanned.
    if let Some(q) = offline {
        rebaseline(&server, &mut mirrors, q);
        let truth = server.result(q).expect("result");
        assert_eq!(mirrors[&q], truth, "{engine:?}: final re-baseline diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SMA delta streams replay exactly under churn and resyncs.
    #[test]
    fn sma_delta_replay_reconstructs_results(
        capacity in 4usize..48,
        steps in prop::collection::vec(
            (prop::collection::vec((0u32..64, 0u32..64), 0..10),
             any::<u8>(), any::<u8>(), -8i8..8, -8i8..8),
            1..30,
        ),
    ) {
        run_churn(EngineKind::Sma, WindowSpec::Count(capacity), &steps);
    }

    /// TMA delta streams replay exactly under churn and resyncs.
    #[test]
    fn tma_delta_replay_reconstructs_results(
        capacity in 4usize..48,
        steps in prop::collection::vec(
            (prop::collection::vec((0u32..64, 0u32..64), 0..10),
             any::<u8>(), any::<u8>(), -8i8..8, -8i8..8),
            1..30,
        ),
    ) {
        run_churn(EngineKind::Tma, WindowSpec::Count(capacity), &steps);
    }

    /// The per-tick delta stream does not depend on the engine: under
    /// registration, termination (the next registration reuses the freed
    /// slot) and a time window that idle ticks drain, SMA and TMA report
    /// the same deltas in the same order, and each replays exactly.
    #[test]
    fn delta_stream_is_engine_invariant(
        capacity in 4usize..48,
        steps in prop::collection::vec(
            (prop::collection::vec((0u32..64, 0u32..64), 0..10),
             any::<u8>(), any::<u8>(), -8i8..8, -8i8..8),
            1..30,
        ),
    ) {
        let window = if capacity % 2 == 0 {
            WindowSpec::Count(capacity)
        } else {
            WindowSpec::Time(1 + capacity as u64 % 4)
        };
        let reference = run_churn(EngineKind::Sma, window, &steps);
        let stream = run_churn(EngineKind::Tma, window, &steps);
        prop_assert_eq!(&stream, &reference);
    }

    /// SMA streams stay exact through the wire encoding under churn with
    /// multi-tick reconnect gaps repaired by RESYNC/SNAPSHOT re-baselines.
    #[test]
    fn sma_wire_replay_survives_reconnect_gaps(
        capacity in 4usize..48,
        steps in prop::collection::vec(
            (prop::collection::vec((0u32..64, 0u32..64), 0..10),
             any::<u8>(), any::<u8>(), -8i8..8, -8i8..8),
            1..30,
        ),
    ) {
        run_wire_churn(EngineKind::Sma, capacity, &steps);
    }

    /// TMA streams stay exact through the wire encoding under churn with
    /// multi-tick reconnect gaps repaired by RESYNC/SNAPSHOT re-baselines.
    #[test]
    fn tma_wire_replay_survives_reconnect_gaps(
        capacity in 4usize..48,
        steps in prop::collection::vec(
            (prop::collection::vec((0u32..64, 0u32..64), 0..10),
             any::<u8>(), any::<u8>(), -8i8..8, -8i8..8),
            1..30,
        ),
    ) {
        run_wire_churn(EngineKind::Tma, capacity, &steps);
    }
}

/// Deterministic pin of the exact-tie edge: a delta that swaps one tuple
/// for an equal-scoring one must replay to the same list, not a superset.
#[test]
fn tie_swap_replays_exactly() {
    let cfg = ServerConfig::sma(1, 2).with_delta_tracking(true);
    let mut server = MonitorServer::new(cfg).expect("server");
    let q = server
        .register(Query::top_k(ScoreFn::linear(vec![1.0]).expect("w"), 1).expect("k"))
        .expect("register");
    let mut mirror = server.result(q).expect("baseline");
    // Two equal-score tuples; the window (capacity 2) then expires the
    // older while the newer keeps the same score: the top-1 changes id
    // at identical score.
    for batch in [&[0.5][..], &[0.5][..], &[0.5][..], &[0.5][..]] {
        server.tick(batch).expect("tick");
        for delta in server.take_deltas() {
            delta.apply(&mut mirror);
        }
        assert_eq!(mirror, server.result(q).expect("truth"));
    }
}
