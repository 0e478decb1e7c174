//! Measures, with the counting global allocator of `tests/counting_alloc`,
//! what the lint can only approximate.
//!
//! * Reporting a cycle's result changes costs one heap allocation per
//!   tick — the batch buffer `take_deltas` hands out — however many
//!   queries are registered and however many of them changed. Twin
//!   servers are fed one stream, one with delta tracking and one without,
//!   and their per-tick allocation counts compared.
//! * A warm `IngestState::ingest` call allocates nothing: cells are chunk
//!   chains in one arena that stops growing once the window is full, the
//!   cell ring and the grouping buffers keep their capacity.
//!
//! * What is left of a tick's allocations is maintenance on the ticks that
//!   recompute (none on the others), and it is budgeted: at most 462 a
//!   tick under SMA and 327 under TMA at this shape. The traversal itself
//!   allocates nothing — heap, frontier, result list and band seed are
//!   recycled — so all but a handful of these are one source: a
//!   recomputed query listing itself in cells whose influence list
//!   (`tkm_grid::InfluenceTable`) is full, which spills the inline list
//!   to the heap (two allocations) or doubles a spilled one (one). An
//!   arena for the spills would take the budget to zero.
//!
//! One `#[test]` only: the counter is process-wide, and a second test
//! running on another thread would be counted too.

mod counting_alloc;

use counting_alloc::counted;
use topk_monitor::engines::{GridSpec, IngestState};
use topk_monitor::{
    DataDist, EngineKind, FnFamily, MonitorServer, PointGen, Query, QueryGen, ServerConfig,
    Timestamp, WindowSpec,
};

const DIMS: usize = 2;
const Q: usize = 1024;

/// Most allocations a tick's maintenance may make, per engine, measured at
/// this shape (see the module docs for where they come from).
const MAINTENANCE_BUDGET: [(EngineKind, u64); 2] = [(EngineKind::Sma, 462), (EngineKind::Tma, 327)];

/// A warmed-up server with `Q` top-3 queries (a top-3 result cannot move
/// by more than three tuples, so every delta list stays inline).
fn warmed(engine: EngineKind, tracked: bool, warm: &[Vec<f64>]) -> MonitorServer {
    let cfg = ServerConfig::sma(DIMS, 1_000)
        .with_engine(engine)
        .with_delta_tracking(tracked);
    let mut server = MonitorServer::new(cfg).expect("server");
    // Fill the window first: a query registered over an empty window
    // lists itself in every grid cell.
    let (prefill, warm) = warm.split_at(10);
    for batch in prefill {
        server.tick(batch).expect("prefill tick");
    }
    let mut queries = QueryGen::new(DIMS, FnFamily::Linear, 5).expect("dims");
    for f in queries.workload(Q) {
        server
            .register(Query::top_k(f, 3).expect("k"))
            .expect("register");
    }
    for batch in warm {
        server.tick(batch).expect("warm tick");
        server.take_deltas();
    }
    server
}

/// Allocations of one `tick` + `take_deltas`, and the deltas it returned.
fn counted_tick(server: &mut MonitorServer, batch: &[f64]) -> (u64, usize) {
    let (calls, _, deltas) = counted(|| {
        server.tick(batch).expect("tick");
        server.take_deltas()
    });
    (calls, deltas.len())
}

/// Maintenance allocates on its own account on the ticks that recompute,
/// identically with reporting on or off; so the cost of reporting is the
/// difference between twins fed one stream. It must be the batch buffer
/// and nothing else, on ticks that change a handful of the 1024 results
/// and on ticks that change nearly all. Maintenance itself must stay
/// inside its budget on every tick and allocate nothing on some. The
/// ingest stage, fed the same batches on its own, must not allocate at all
/// once warm.
#[test]
fn reporting_costs_one_allocation_per_tick_whatever_changed() {
    let mut points = PointGen::new(DIMS, DataDist::Ind, 11).expect("dims");
    let warm: Vec<Vec<f64>> = (0..25).map(|_| points.batch(100)).collect();
    let ticks: Vec<Vec<f64>> = (0..12).map(|_| points.batch(100)).collect();

    let mut ingest =
        IngestState::new(DIMS, WindowSpec::Count(1_000), GridSpec::default()).expect("config");
    for (t, batch) in warm.iter().chain(&ticks).enumerate() {
        let (allocated, _, ()) = counted(|| {
            ingest.ingest(Timestamp(t as u64), batch).expect("ingest");
        });
        assert!(
            t < warm.len() || allocated == 0,
            "warm ingest call {t} allocated {allocated} times"
        );
    }
    assert_eq!(ingest.stats().expirations, 2_700);

    for (engine, budget) in MAINTENANCE_BUDGET {
        let mut tracked = warmed(engine, true, &warm);
        let mut untracked = warmed(engine, false, &warm);
        let (mut fewest, mut most) = (usize::MAX, 0);
        let mut idle_ticks = 0;
        for batch in &ticks {
            let (with, changed) = counted_tick(&mut tracked, batch);
            let (without, none) = counted_tick(&mut untracked, batch);
            assert_eq!(none, 0, "reporting is off");
            assert!(
                with <= without + 1,
                "{engine:?}: {changed} changed results cost {} allocations",
                with - without
            );
            assert!(
                without <= budget,
                "{engine:?}: maintenance allocated {without} times in one tick (budget {budget})"
            );
            idle_ticks += u32::from(without == 0);
            fewest = fewest.min(changed);
            most = most.max(changed);
        }
        assert!(
            fewest < Q / 8 && most > Q / 2,
            "{engine:?}: the stream should mix quiet and busy ticks ({fewest}..{most})"
        );
        assert!(
            idle_ticks > 0,
            "{engine:?}: a tick that recomputes nothing allocates nothing"
        );
    }
}
