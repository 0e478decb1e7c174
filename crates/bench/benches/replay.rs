//! Criterion microbenchmark of the maintenance hot path: per-tick event
//! replay (ingest an arrival burst, replay it against every registered
//! query, absorb the matching expiries) at Q ∈ {16, 256, 4096} queries.
//!
//! This measures exactly the loop the dense-registry / flat-influence /
//! cell-grouped-replay design targets; the `steady`, `ingest` and `storm`
//! workloads of `benchmark/` measure it end to end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tkm_common::{QueryId, Timestamp};
use tkm_core::{GridSpec, Query, SmaMonitor, TmaMonitor};
use tkm_datagen::{FnFamily, QueryGen, StreamSim};
use tkm_window::WindowSpec;

const DIMS: usize = 2;
const WINDOW: usize = 20_000;
const RATE: usize = 1_000;
const K: usize = 10;
const GRID_CELLS: usize = 4_096;
const QUERY_COUNTS: [usize; 3] = [16, 256, 4096];

/// Builds a warmed monitor with `q` registered queries plus the stream
/// that continues where the warm-up stopped.
fn prepared<M>(
    q: usize,
    build: impl Fn() -> M,
    mut register: impl FnMut(&mut M, QueryId, Query),
    mut tick: impl FnMut(&mut M, Timestamp, &[f64]),
) -> (M, StreamSim) {
    let mut monitor = build();
    let mut stream =
        StreamSim::new(DIMS, tkm_datagen::DataDist::Ind, RATE, 20060627).expect("dims");
    let mut remaining = WINDOW;
    while remaining > 0 {
        let chunk = remaining.min(50_000);
        let (ts, batch) = stream.warmup_batch(chunk);
        tick(&mut monitor, ts, batch);
        remaining -= chunk;
    }
    let workload = QueryGen::new(DIMS, FnFamily::Linear, 0x9e37_79b9)
        .expect("dims")
        .workload(q);
    for (i, f) in workload.into_iter().enumerate() {
        register(
            &mut monitor,
            QueryId(i as u64),
            Query::top_k(f, K).expect("k"),
        );
    }
    (monitor, stream)
}

fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("replay");
    group.sample_size(20);
    for q in QUERY_COUNTS {
        let (mut tma, mut stream) = prepared(
            q,
            || {
                TmaMonitor::new(
                    DIMS,
                    WindowSpec::Count(WINDOW),
                    GridSpec::CellBudget(GRID_CELLS),
                )
                .expect("config")
            },
            |m, id, query| m.register_query(id, query).expect("register"),
            |m, ts, b| m.tick(ts, b).expect("tick"),
        );
        group.bench_with_input(BenchmarkId::new("tma_burst", q), &q, |b, _| {
            b.iter(|| {
                let (ts, batch) = stream.next_batch();
                tma.tick(ts, batch).expect("tick");
            })
        });

        let (mut sma, mut stream) = prepared(
            q,
            || {
                SmaMonitor::new(
                    DIMS,
                    WindowSpec::Count(WINDOW),
                    GridSpec::CellBudget(GRID_CELLS),
                )
                .expect("config")
            },
            |m, id, query| m.register_query(id, query).expect("register"),
            |m, ts, b| m.tick(ts, b).expect("tick"),
        );
        group.bench_with_input(BenchmarkId::new("sma_burst", q), &q, |b, _| {
            b.iter(|| {
                let (ts, batch) = stream.next_batch();
                sma.tick(ts, batch).expect("tick");
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);
