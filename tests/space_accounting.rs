//! Holds `space_bytes` — the figure behind the paper's Figure 20 and
//! every `*_space_bytes` benchmark metric — to the heap really owned,
//! measured by the live-bytes tally of `tests/counting_alloc`.
//!
//! Every figure is counted one way (`tkm_common::HeapBytes`): a type
//! below a root reports the heap it owns and never its inline struct, and
//! a root — `Monitor`, `ThresholdMonitor`, `UpdateStreamTma`,
//! `TslMonitor`, `OracleMonitor`, `DeltaRouter` here — adds its own struct
//! once. Hash tables are priced by one formula, held here to the allocator
//! exactly, on a live Fx map and set from 2 to 1 024 entries; `std`
//! B-trees by another, whose callers state the fill their insertion order
//! gives.
//!
//! `MonitorServer` under SMA and TMA, a boxed `ThresholdMonitor` and a
//! boxed `UpdateStreamTma` must agree with the allocator within ±2 % on
//! five shapes — four count windows, one of them small enough that a
//! struct counted twice stands out, and a time window, whose arrival times
//! are `(timestamp, count)` runs — delta tracking off and on for the
//! server; TSL, whose tuples and queries sit in `std` B-trees that expose
//! no node count (the estimate states a fill), within ±5 %. The update
//! stream deletes the oldest tuples itself, so its window is a count
//! window on every shape. The B-tree roots are held within TSL's ±5 %
//! too: a boxed `OracleMonitor`, whose query map holds each query's state
//! in its nodes, and a `DeltaRouter` with a few subscribers a query. A server's `space_bytes` is engine state: it
//! leaves out the facade's batch buffer (`MonitorServer::deltas`, one
//! `ResultDelta` per query that changed last tick — 1.5 % of the SMA heap
//! on the `steady` shape, 14 % of TSL's at Q = 256 over N = 1 000). The
//! buffer `take_deltas` leaves behind has the capacity of the batch it
//! hands out, so the test knows its size and takes it off the measured
//! side.
//!
//! One `#[test]` only: the tally is process-wide, and a second test
//! running on another thread would be counted too.

mod counting_alloc;

use counting_alloc::live_bytes;
use topk_monitor::common::{FxHashMap, FxHashSet, HeapBytes};
use topk_monitor::engines::DeltaRouter;
use topk_monitor::{
    DataDist, EngineKind, FnFamily, GridSpec, MonitorServer, OracleMonitor, PointGen, Query,
    QueryGen, QueryId, QuerySlot, ResultDelta, ServerConfig, ThresholdMonitor, Timestamp, TupleId,
    UpdateOp, UpdateStreamTma, WindowSpec,
};

/// Ticks run after registration, each followed by `take_deltas`.
const WARM_TICKS: usize = 30;

/// `(dims, N, Q, k, timed)`.
type Shape = (usize, usize, usize, usize, bool);

/// The shapes measured; `N / 10` tuples arrive every tick. A timed
/// shape is a `TimeSized` window like the benchmark's `storm`: three ticks
/// share each timestamp and a tuple lives three timestamps, so 7–9 ticks'
/// worth of `N / 10` are resident and whole timestamps leave at once.
const SHAPES: [Shape; 5] = [
    (2, 10_000, 1_024, 10, false), // the benchmark's `steady` workload
    (4, 100_000, 16, 20, false),   // tuple storage dominates; four sorted lists under TSL
    (2, 1_000, 256, 3, false),     // query state dominates
    (2, 12_000, 256, 10, true),    // a time window: tuples and timestamp runs
    (2, 100, 2, 3, false),         // so small that a struct counted twice shows
];

/// Ticks that share one timestamp on a timed shape.
const TICKS_PER_TIMESTAMP: u64 = 3;

/// Most `space_bytes` may differ from the live heap, as a fraction of it.
fn tolerance(engine: EngineKind) -> f64 {
    match engine {
        EngineKind::Tsl => 0.05,
        _ => 0.02,
    }
}

/// The window of a shape: a count window, or a `TimeSized` one like the
/// benchmark's `storm`.
fn window((_, n, _, _, timed): Shape) -> WindowSpec {
    if timed {
        let duration = 3;
        WindowSpec::TimeSized {
            duration,
            capacity: n / 10 * (TICKS_PER_TIMESTAMP * (duration + 1)) as usize,
        }
    } else {
        WindowSpec::Count(n)
    }
}

/// The timestamp of the `tick`-th cycle on a shape.
fn now(tick: u64, (.., timed): Shape) -> Timestamp {
    Timestamp(if timed {
        tick / TICKS_PER_TIMESTAMP
    } else {
        tick
    })
}

/// A server with a full window, `q` registered queries and `WARM_TICKS`
/// reported cycles behind it, and the bytes of its batch buffer; the
/// generators that fed it are dropped.
fn warmed(shape: Shape, engine: EngineKind, tracked: bool) -> (MonitorServer, usize) {
    let (dims, n, q, k, _) = shape;
    let cfg = ServerConfig::sma(dims, n)
        .with_engine(engine)
        .with_delta_tracking(tracked)
        .with_window(window(shape));
    let mut server = MonitorServer::new(cfg).expect("server");
    let mut points = PointGen::new(dims, DataDist::Ind, 11).expect("dims");
    let mut tick = 0u64;
    let mut tick = |server: &mut MonitorServer, batch: &[f64]| {
        tick += 1;
        server.tick_at(now(tick - 1, shape), batch)
    };
    for _ in 0..10 {
        tick(&mut server, &points.batch(n / 10)).expect("fill tick");
    }
    let mut queries = QueryGen::new(dims, FnFamily::Linear, 5).expect("dims");
    for f in queries.workload(q) {
        server
            .register(Query::top_k(f, k).expect("k"))
            .expect("register");
    }
    let mut batch = Vec::new();
    for _ in 0..WARM_TICKS {
        tick(&mut server, &points.batch(n / 10)).expect("warm tick");
        batch = server.take_deltas();
    }
    let buffer = batch.capacity() * std::mem::size_of::<ResultDelta>();
    (server, buffer)
}

/// A boxed threshold monitor fed like [`warmed`]'s servers, its `q`
/// queries matching the tuples above 90 % of their best score.
fn warmed_threshold(shape: Shape) -> Box<ThresholdMonitor> {
    let (dims, n, q, ..) = shape;
    let mut m = Box::new(ThresholdMonitor::new(dims, window(shape), GridSpec::default()).unwrap());
    let mut points = PointGen::new(dims, DataDist::Ind, 11).expect("dims");
    for tick in 0..10 {
        m.tick(now(tick, shape), &points.batch(n / 10)).unwrap();
    }
    let mut queries = QueryGen::new(dims, FnFamily::Linear, 5).expect("dims");
    for (id, f) in queries.workload(q).into_iter().enumerate() {
        let tau = 0.9 * f.score(&vec![1.0; dims]);
        m.register_query(QueryId(id as u64), f, tau).unwrap();
    }
    for tick in 10..10 + WARM_TICKS as u64 {
        m.tick(now(tick, shape), &points.batch(n / 10)).unwrap();
    }
    m
}

/// A boxed update-stream TMA fed `N / 10` inserts a cycle, deleting the
/// oldest `N / 10` once `N` are live, with `q` top-k queries.
fn warmed_update_stream((dims, n, q, k, _): Shape) -> Box<UpdateStreamTma> {
    let mut m = Box::new(UpdateStreamTma::new(dims, GridSpec::default()).unwrap());
    let mut points = PointGen::new(dims, DataDist::Ind, 11).expect("dims");
    let mut cycle = |m: &mut UpdateStreamTma, tick: usize| {
        let inserts = (0..n / 10).map(|_| UpdateOp::Insert(points.point()));
        let oldest = (tick * n / 10).checked_sub(n);
        let deletes = oldest
            .into_iter()
            .flat_map(|first| first..first + n / 10)
            .map(|id| UpdateOp::Delete(TupleId(id as u64)));
        m.apply(&inserts.chain(deletes).collect::<Vec<_>>())
            .unwrap();
    };
    for tick in 0..10 {
        cycle(&mut m, tick);
    }
    let mut queries = QueryGen::new(dims, FnFamily::Linear, 5).expect("dims");
    for (id, f) in queries.workload(q).into_iter().enumerate() {
        let query = Query::top_k(f, k).expect("k");
        m.register_query(QueryId(id as u64), query).unwrap();
    }
    for tick in 10..10 + WARM_TICKS {
        cycle(&mut m, tick);
    }
    m
}

/// The oracle rescans its whole window for every query every tick: it is
/// warmed only on shapes with at most this many tuples × queries, which a
/// debug build runs in about a second.
const ORACLE_PAIRS: usize = 256_000;

/// A boxed oracle fed like [`warmed`]'s servers.
fn warmed_oracle(shape: Shape) -> Box<OracleMonitor> {
    let (dims, n, q, k, _) = shape;
    let mut m = Box::new(OracleMonitor::new(dims, window(shape)).unwrap());
    let mut points = PointGen::new(dims, DataDist::Ind, 11).expect("dims");
    for tick in 0..10 {
        m.tick(now(tick, shape), &points.batch(n / 10)).unwrap();
    }
    let mut queries = QueryGen::new(dims, FnFamily::Linear, 5).expect("dims");
    for (id, f) in queries.workload(q).into_iter().enumerate() {
        let query = Query::top_k(f, k).expect("k");
        m.register_query(QueryId(id as u64), query).unwrap();
    }
    for tick in 10..10 + WARM_TICKS as u64 {
        m.tick(now(tick, shape), &points.batch(n / 10)).unwrap();
    }
    m
}

/// A boxed router with `q` queries, subscribed in query order by four
/// sessions each; one session leaves every third query.
fn warmed_router((.., q, _, _): Shape) -> Box<DeltaRouter<u64>> {
    let mut r = Box::new(DeltaRouter::new());
    for id in 0..q as u64 {
        for session in 0..4 {
            r.subscribe(QueryId(id), session);
        }
    }
    for id in (0..q as u64).step_by(3) {
        r.unsubscribe(QueryId(id), &1);
    }
    r
}

/// Fails unless `said` is within `tolerance` of the `held` live bytes.
fn assert_close(said: usize, held: usize, tolerance: f64, what: &str) {
    let ratio = said as f64 / held as f64;
    assert!(
        (ratio - 1.0).abs() <= tolerance,
        "{what}: space_bytes {said} is {ratio:.3} of the {held} bytes the engine holds"
    );
}

#[test]
fn space_bytes_is_the_heap_the_server_owns() {
    // The one hash-table formula, exactly, at every size the table passes
    // through when grown one insert at a time.
    for n in [2u64, 4, 16, 64, 256, 1024] {
        let before = live_bytes();
        let mut map: FxHashMap<QueryId, QuerySlot> = FxHashMap::default();
        for i in 0..n {
            map.insert(QueryId(i), QuerySlot(i as u32));
        }
        assert_eq!(map.heap_bytes(), live_bytes() - before, "map of {n}");
        let before = live_bytes();
        let mut set: FxHashSet<TupleId> = FxHashSet::default();
        for i in 0..n {
            set.insert(TupleId(i));
        }
        assert_eq!(set.heap_bytes(), live_bytes() - before, "set of {n}");
    }
    for shape in SHAPES {
        for engine in [EngineKind::Sma, EngineKind::Tma, EngineKind::Tsl] {
            for tracked in [false, true] {
                let before = live_bytes();
                let (server, buffer) = warmed(shape, engine, tracked);
                let held = live_bytes() - before - buffer;
                let what = format!("{engine:?} (d, N, Q, k) = {shape:?} tracking={tracked}");
                assert_close(server.space_bytes(), held, tolerance(engine), &what);
            }
        }
        let before = live_bytes();
        let m = warmed_threshold(shape);
        let held = live_bytes() - before;
        assert_close(m.space_bytes(), held, 0.02, &format!("threshold {shape:?}"));
        drop(m);
        let before = live_bytes();
        let m = warmed_update_stream(shape);
        let held = live_bytes() - before;
        assert_close(
            m.space_bytes(),
            held,
            0.02,
            &format!("update stream {shape:?}"),
        );
        drop(m);
        let before = live_bytes();
        let r = warmed_router(shape);
        let held = live_bytes() - before;
        assert_close(r.space_bytes(), held, 0.05, &format!("router {shape:?}"));
        drop(r);
        let (dims, n, q, k, _) = shape;
        if n * q <= ORACLE_PAIRS {
            let before = live_bytes();
            let mut m = warmed_oracle(shape);
            let held = live_bytes() - before;
            assert_close(m.space_bytes(), held, 0.05, &format!("oracle {shape:?}"));
            // A result keeps its k entries, not the capacity of the window
            // it was selected from (≥ 16 B a resident tuple).
            let said = m.space_bytes();
            let f = QueryGen::new(dims, FnFamily::Linear, 7)
                .expect("dims")
                .workload(1)
                .remove(0);
            let query = Query::top_k(f, k).expect("k");
            m.register_query(QueryId(q as u64), query).unwrap();
            let grew = m.space_bytes() - said;
            assert!(
                grew < 1024,
                "oracle {shape:?}: one top-{k} query over {n} tuples added {grew} bytes"
            );
        }
    }
}
