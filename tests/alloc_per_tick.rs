//! What a processing cycle allocates, measured with the counting global
//! allocator of `tests/counting_alloc` over two streams: `uniform`, a
//! count window with 10 % turnover a tick, and `storm`, a time window
//! whose hot groups outscore everything while live and expire in one
//! tick (`Expiry::Age`, the `expire_before` sweep, a recompute wave).
//! Both fleets hold 1024 unconstrained queries; `storm`'s one constrained
//! query more.
//!
//! * A warm `IngestState::ingest` call allocates nothing: cells are chunk
//!   chains in one arena that stops growing once the window is full, the
//!   cell ring, the timeline's timestamp runs and the two event-cell
//!   buffers keep their capacity.
//! * Reporting a cycle's result changes costs one heap allocation per
//!   tick — the batch buffer `take_deltas` hands out — however many
//!   queries are registered and however many of them changed. Twin
//!   servers are fed one stream, one with delta tracking and one without,
//!   and their per-tick allocation counts compared.
//! * What is left of a tick's allocations is maintenance on the ticks that
//!   recompute (none on the others), and it is budgeted: at most 462 a
//!   tick under SMA and 327 under TMA on `uniform`. The traversal itself
//!   allocates nothing — heap, frontier, result list and band seed are
//!   recycled — so all but a handful of these are one source: a
//!   recomputed query listing itself in cells whose influence list
//!   (`tkm_grid::InfluenceTable`) is full, which spills the inline list
//!   to the heap (two allocations) or doubles a spilled one (one). An
//!   arena for the spills would take the budget to zero.
//!
//! Every function that promises not to allocate on this path, and the
//! counted scenario that executes it:
//!
//! | function | counted in |
//! |---|---|
//! | `IngestState::ingest` | ingest alone, both streams |
//! | `Timeline::{validate_tick, append, expired_prefix, drop_front}` | ingest alone, both streams (`storm`'s time window bumps, pushes and pops its `(timestamp, count)` runs) |
//! | `Grid::{locate_batch, push_at, remove_at}`, `PointArena::{push, remove}` | ingest alone, both streams |
//! | `Grid::{insert_point, remove_point, maxscore}`, `kernel::score_point` | bare grid replay (no engine calls them per tick) |
//! | `BandMaintenance::{apply_events, recompute, drain_changes}` | twin servers, both streams |
//! | `ListedEvents::group` (the grouping buffers: run table, runs, ids; the ids reserved for the cycle's whole event count) | twin servers, both streams: `apply_events` groups first |
//! | the arrival replay's kernel scan (`kernel::Dims::scan`, the body of `kernel::scan_block`), `CellPoints::tail` | twin servers: arrival replay (`storm`'s constrained query takes the filter branch) |
//! | `Skyband::{stage, merge, insert, expire}`, `tkm_core::skyband::sweep` | twin servers: arrival and expiry replay |
//! | `Skyband::expire_before` | twin servers on `storm`: a hot group's expiry exceeds the probe budget |
//! | `compute_topk`, `Skyband::rebuild`, `TopList::append_boundary_ties` | twin servers: the ticks that recompute |
//! | `influence::cleanup_from_frontier` | twin servers on `storm`: the constrained query's band never fills, so each of its recomputations is a resync |
//! | `ResultDelta::report` | twin servers: the tracked twin's `drain_changes` |
//!
//! One `#[test]` only: the counter is process-wide, and a second test
//! running on another thread would be counted too.

mod counting_alloc;

use counting_alloc::counted;
use topk_monitor::engines::{kernel, GridSpec, IngestState};
use topk_monitor::grid::CellMode;
use topk_monitor::{
    DataDist, EngineKind, FnFamily, MonitorServer, PointGen, Query, QueryGen, Rect, ScoreFn,
    ServerConfig, Timestamp, TupleId, WindowSpec,
};

const DIMS: usize = 2;
const Q: usize = 1024;
/// Arrivals per tick.
const R: usize = 100;
/// Ticks before the fleet registers: a query registered over an empty
/// window lists itself in every grid cell.
const PREFILL: usize = 10;

/// Most allocations a tick's maintenance may make, per engine, measured on
/// `uniform` (see the module docs for where they come from); `storm`
/// stays well inside them (154 / 122).
const MAINTENANCE_BUDGET: [(EngineKind, u64); 2] = [(EngineKind::Sma, 462), (EngineKind::Tma, 327)];

/// A seeded stream: its window and its `(timestamp, batch)` ticks, the
/// first `warm` of which run before anything is asserted.
struct Stream {
    name: &'static str,
    window: WindowSpec,
    warm: usize,
    ticks: Vec<(Timestamp, Vec<f64>)>,
    /// Whether the fleet holds a constrained query beside the `Q` plain
    /// ones (`uniform` keeps the fleet its budgets were measured at).
    constrained: bool,
    /// Tuples the whole stream expires.
    expirations: u64,
}

/// A count window of 1 000 tuples, a tenth replaced every tick.
fn uniform(points: &mut PointGen) -> Stream {
    Stream {
        name: "uniform",
        window: WindowSpec::Count(1_000),
        warm: 25,
        ticks: (0..37).map(|t| (Timestamp(t), points.batch(R))).collect(),
        constrained: false,
        expirations: 2_700,
    }
}

/// The benchmark's `storm` shape: a time window two timestamps long,
/// three consecutive ticks share a timestamp, and every other group is
/// drawn from `[0.5, 1)²`.
fn storm(points: &mut PointGen) -> Stream {
    Stream {
        name: "storm",
        window: WindowSpec::Time(2),
        warm: 30,
        ticks: (0..54)
            .map(|t| {
                let group = t / 3;
                let mut batch = points.batch(R);
                if group % 2 == 1 {
                    batch.iter_mut().for_each(|x| *x = 0.5 + *x / 2.0);
                }
                (Timestamp(group), batch)
            })
            .collect(),
        constrained: true,
        expirations: 4_800,
    }
}

/// A warmed-up server with `Q` top-3 queries (a top-3 result cannot move
/// by more than three tuples, so every delta list stays inline) and, on a
/// `constrained` stream, one more confined to a corner so small that its
/// band never fills: every recomputation of it resyncs and runs the
/// influence clean-up walk.
fn warmed(engine: EngineKind, tracked: bool, stream: &Stream) -> MonitorServer {
    let cfg = ServerConfig::sma(DIMS, 1)
        .with_window(stream.window)
        .with_engine(engine)
        .with_delta_tracking(tracked);
    let mut server = MonitorServer::new(cfg).expect("server");
    let (prefill, warm) = stream.ticks[..stream.warm].split_at(PREFILL);
    for (at, batch) in prefill {
        server.tick_at(*at, batch).expect("prefill tick");
    }
    let mut queries = QueryGen::new(DIMS, FnFamily::Linear, 5).expect("dims");
    for f in queries.workload(Q) {
        server
            .register(Query::top_k(f, 3).expect("k"))
            .expect("register");
    }
    if stream.constrained {
        let corner = Rect::new(vec![0.97, 0.97], vec![1.0, 1.0]).expect("rect");
        let f = ScoreFn::linear(vec![1.0, 2.0]).expect("weights");
        server
            .register(Query::constrained(f, 3, corner).expect("k"))
            .expect("register");
    }
    for (at, batch) in warm {
        server.tick_at(*at, batch).expect("warm tick");
        server.take_deltas();
    }
    server
}

/// Allocations of one `tick_at` + `take_deltas`, and the deltas it returned.
fn counted_tick(server: &mut MonitorServer, at: Timestamp, batch: &[f64]) -> (u64, usize) {
    let (calls, _, deltas) = counted(|| {
        server.tick_at(at, batch).expect("tick");
        server.take_deltas()
    });
    (calls, deltas.len())
}

/// Maintenance allocates on its own account on the ticks that recompute,
/// identically with reporting on or off; so the cost of reporting is the
/// difference between twins fed one stream. It must be the batch buffer
/// and nothing else, on ticks that change a handful of the results and on
/// ticks that change nearly all. Maintenance itself must stay inside its
/// budget on every tick and allocate nothing on some. The ingest stage,
/// fed the same batches on its own, must not allocate at all once warm.
#[test]
fn reporting_costs_one_allocation_per_tick_whatever_changed() {
    let mut points = PointGen::new(DIMS, DataDist::Ind, 11).expect("dims");
    let streams = [uniform(&mut points), storm(&mut points)];

    for stream in &streams {
        let mut ingest =
            IngestState::new(DIMS, stream.window, GridSpec::default()).expect("config");
        for (t, (at, batch)) in stream.ticks.iter().enumerate() {
            let (allocated, _, ()) = counted(|| {
                ingest.ingest(*at, batch).expect("ingest");
            });
            assert!(
                t < stream.warm || allocated == 0,
                "{}: warm ingest call {t} allocated {allocated} times",
                stream.name
            );
        }
        assert_eq!(ingest.stats().expirations, stream.expirations);
    }

    for stream in &streams {
        for (engine, budget) in MAINTENANCE_BUDGET {
            let mut tracked = warmed(engine, true, stream);
            let mut untracked = warmed(engine, false, stream);
            let (mut fewest, mut most) = (usize::MAX, 0);
            let mut idle_ticks = 0;
            for (at, batch) in &stream.ticks[stream.warm..] {
                let (with, changed) = counted_tick(&mut tracked, *at, batch);
                let (without, none) = counted_tick(&mut untracked, *at, batch);
                assert_eq!(none, 0, "reporting is off");
                assert!(
                    with <= without + 1,
                    "{} {engine:?}: {changed} changed results cost {} allocations",
                    stream.name,
                    with - without
                );
                assert!(
                    without <= budget,
                    "{} {engine:?}: maintenance allocated {without} times in one tick (budget \
                     {budget})",
                    stream.name
                );
                idle_ticks += u32::from(without == 0);
                fewest = fewest.min(changed);
                most = most.max(changed);
            }
            assert!(
                fewest < Q / 8 && most > Q / 2,
                "{} {engine:?}: the stream should mix quiet and busy ticks ({fewest}..{most})",
                stream.name
            );
            assert!(
                idle_ticks > 0,
                "{} {engine:?}: a tick that recomputes nothing allocates nothing",
                stream.name
            );
        }
    }

    // Bare grid replay: the per-tuple entry points no engine calls on its
    // tick path (the update-stream and threshold monitors do, and the
    // benchmark's `grid.ns_per_tuple` replay). Each pass inserts a batch
    // and removes the one `PREFILL` passes old.
    let stream = &streams[0];
    let mut grid = GridSpec::default()
        .build(DIMS, CellMode::Fifo)
        .expect("grid");
    let f = ScoreFn::linear(vec![1.0, 2.0]).expect("weights");
    let (mut next, mut oldest) = ((0..).map(TupleId), (0..).map(TupleId));
    for (t, (_, batch)) in stream.ticks.iter().enumerate() {
        let expired = t.checked_sub(PREFILL).map(|old| &stream.ticks[old].1[..]);
        let (allocated, _, ()) = counted(|| {
            for (coords, id) in batch.chunks_exact(DIMS).zip(&mut next) {
                let cell = grid.insert_point(coords, id);
                assert!(kernel::score_point(&f, coords) <= grid.maxscore(cell, &f));
            }
            for (coords, id) in expired.unwrap_or(&[]).chunks_exact(DIMS).zip(&mut oldest) {
                grid.remove_point(coords, id).expect("resident");
            }
        });
        assert!(
            t < stream.warm || allocated == 0,
            "bare grid pass {t} allocated {allocated} times"
        );
    }
}
