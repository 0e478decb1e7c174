//! Holds `MonitorServer::space_bytes` — the figure behind the paper's
//! Figure 20 and every `*_space_bytes` benchmark metric — to the heap the
//! server really owns, measured by the live-bytes tally of
//! `tests/counting_alloc`.
//!
//! SMA and TMA must agree with the allocator within ±2 % on five shapes —
//! four count windows, one of them small enough that a struct counted
//! twice stands out, and a time window, whose arrival times are
//! `(timestamp, count)` runs — delta tracking off and on; TSL, whose tuples and queries sit in `std`
//! B-trees that expose no node count (the estimate states a fill), within
//! ±5 %. `space_bytes` is engine state: it leaves out the facade's batch
//! buffer (`MonitorServer::deltas`, one `ResultDelta` per query that
//! changed last tick — 1.5 % of the SMA heap on the `steady` shape, 14 %
//! of TSL's at Q = 256 over N = 1 000). The buffer `take_deltas` leaves
//! behind has the capacity of the batch it hands out, so the test knows
//! its size and takes it off the measured side.
//!
//! One `#[test]` only: the tally is process-wide, and a second test
//! running on another thread would be counted too.

mod counting_alloc;

use counting_alloc::live_bytes;
use topk_monitor::{
    DataDist, EngineKind, FnFamily, MonitorServer, PointGen, Query, QueryGen, ResultDelta,
    ServerConfig, Timestamp, WindowSpec,
};

/// Ticks run after registration, each followed by `take_deltas`.
const WARM_TICKS: usize = 30;

/// `(dims, N, Q, k, timed)`; `N / 10` tuples arrive every tick. A timed
/// shape is a `TimeSized` window like the benchmark's `storm`: three ticks
/// share each timestamp and a tuple lives three timestamps, so 7–9 ticks'
/// worth of `N / 10` are resident and whole timestamps leave at once.
const SHAPES: [(usize, usize, usize, usize, bool); 5] = [
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

/// A server with a full window, `q` registered queries and `WARM_TICKS`
/// reported cycles behind it, and the bytes of its batch buffer; the
/// generators that fed it are dropped.
fn warmed(
    (dims, n, q, k, timed): (usize, usize, usize, usize, bool),
    engine: EngineKind,
    tracked: bool,
) -> (MonitorServer, usize) {
    let mut cfg = ServerConfig::sma(dims, n)
        .with_engine(engine)
        .with_delta_tracking(tracked);
    if timed {
        let duration = 3;
        cfg = cfg.with_window(WindowSpec::TimeSized {
            duration,
            capacity: n / 10 * (TICKS_PER_TIMESTAMP * (duration + 1)) as usize,
        });
    }
    let mut server = MonitorServer::new(cfg).expect("server");
    let mut points = PointGen::new(dims, DataDist::Ind, 11).expect("dims");
    let mut tick = 0u64;
    let mut tick = |server: &mut MonitorServer, batch: &[f64]| {
        let now = if timed {
            tick / TICKS_PER_TIMESTAMP
        } else {
            tick
        };
        tick += 1;
        server.tick_at(Timestamp(now), batch)
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

#[test]
fn space_bytes_is_the_heap_the_server_owns() {
    for shape in SHAPES {
        for engine in [EngineKind::Sma, EngineKind::Tma, EngineKind::Tsl] {
            for tracked in [false, true] {
                let before = live_bytes();
                let (server, buffer) = warmed(shape, engine, tracked);
                let held = live_bytes() - before - buffer;
                let said = server.space_bytes();
                let ratio = said as f64 / held as f64;
                assert!(
                    (ratio - 1.0).abs() <= tolerance(engine),
                    "{engine:?} (d, N, Q, k) = {shape:?} tracking={tracked}: space_bytes {said} \
                     is {ratio:.3} of the {held} bytes the engine holds"
                );
            }
        }
    }
}
