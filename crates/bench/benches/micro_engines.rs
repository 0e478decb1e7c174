//! Criterion micro-benchmarks of a full processing cycle per engine at a
//! common steady-state setting (the per-tick costs the paper's figures
//! integrate over 100 cycles).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use tkm_common::QueryId;
use tkm_core::{ContinuousTopK, GridSpec, KmaxPolicy, Query, SmaMonitor, TmaMonitor, TslMonitor};
use tkm_datagen::{DataDist, FnFamily, QueryGen, StreamSim};
use tkm_window::WindowSpec;

const DIMS: usize = 4;
const N: usize = 50_000;
const R: usize = 500;
const Q: usize = 50;
const K: usize = 20;

/// Warm an engine through closures so the three monitors (with different
/// types) share the setup protocol.
fn setup<E>(
    mut build: impl FnMut() -> E,
    mut tick: impl FnMut(&mut E, tkm_common::Timestamp, &[f64]),
    mut register: impl FnMut(&mut E, QueryId, Query),
) -> (E, StreamSim) {
    let mut stream = StreamSim::new(DIMS, DataDist::Ind, R, 77).expect("dims");
    let mut engine = build();
    let mut remaining = N;
    while remaining > 0 {
        let chunk = remaining.min(50_000);
        let (ts, batch) = stream.warmup_batch(chunk);
        tick(&mut engine, ts, batch);
        remaining -= chunk;
    }
    let workload = QueryGen::new(DIMS, FnFamily::Linear, 13)
        .expect("dims")
        .workload(Q);
    for (i, f) in workload.into_iter().enumerate() {
        register(
            &mut engine,
            QueryId(i as u64),
            Query::top_k(f, K).expect("k"),
        );
    }
    (engine, stream)
}

fn bench_ticks(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_tick");
    group.sample_size(30);

    group.bench_function("tma", |b| {
        let (mut engine, mut stream) = setup(
            || TmaMonitor::new(DIMS, WindowSpec::Count(N), GridSpec::default()).expect("config"),
            |e, ts, batch| e.tick(ts, batch).expect("tick"),
            |e, id, q| e.register_query(id, q).expect("register"),
        );
        b.iter(|| {
            let (ts, batch) = stream.next_batch();
            engine.tick(ts, batch).expect("tick");
            black_box(engine.stats().ticks)
        })
    });

    group.bench_function("sma", |b| {
        let (mut engine, mut stream) = setup(
            || SmaMonitor::new(DIMS, WindowSpec::Count(N), GridSpec::default()).expect("config"),
            |e, ts, batch| e.tick(ts, batch).expect("tick"),
            |e, id, q| e.register_query(id, q).expect("register"),
        );
        b.iter(|| {
            let (ts, batch) = stream.next_batch();
            engine.tick(ts, batch).expect("tick");
            black_box(engine.stats().ticks)
        })
    });

    group.bench_function("tsl", |b| {
        let (mut engine, mut stream) = setup(
            || TslMonitor::new(DIMS, WindowSpec::Count(N), KmaxPolicy::Tuned).expect("config"),
            |e, ts, batch| e.tick(ts, batch).expect("tick"),
            |e, id, q| e.register_query(id, q).expect("register"),
        );
        b.iter(|| {
            let (ts, batch) = stream.next_batch();
            engine.tick(ts, batch).expect("tick");
            black_box(engine.stats().ticks)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_ticks);
criterion_main!(benches);
