//! Criterion micro-benchmarks for the core data structures: the skyband,
//! the change report, the grid, the window ring, the whole-batch ingest
//! stage and the query table's grouping of its events.

use std::cell::RefCell;
use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use tkm_common::{QueryId, QuerySlot, ScoreFn, Scored, Timestamp, TupleId};
use tkm_core::influence::ListedEvents;
use tkm_core::skyband::{MergeScratch, Skyband};
use tkm_core::ResultDelta;
use tkm_core::{GridSpec, IngestState};
use tkm_grid::{CellId, CellMode, Grid, InfluenceTable};
use tkm_window::{Window, WindowSpec};

fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 11) as f64 / (1u64 << 53) as f64).clamp(0.0, 1.0)
}

fn bench_skyband(c: &mut Criterion) {
    let mut group = c.benchmark_group("skyband");
    group.sample_size(20);
    for k in [10usize, 100] {
        group.bench_function(format!("insert_expire_k{k}"), |b| {
            b.iter_batched(
                || {
                    let mut sky = Skyband::new(k).expect("k > 0");
                    let mut state = 7u64;
                    for i in 0..k as u64 {
                        sky.insert(Scored::new(lcg(&mut state), TupleId(i)));
                    }
                    (sky, state, k as u64)
                },
                |(mut sky, mut state, mut next)| {
                    for _ in 0..1000 {
                        sky.insert(Scored::new(lcg(&mut state), TupleId(next)));
                        next += 1;
                        // The window's cutoff passes the oldest band member.
                        if let Some(e) = sky.scored().iter().map(|s| s.id).min() {
                            sky.expire_before(TupleId(e.0 + 1));
                        }
                    }
                    sky.len()
                },
                BatchSize::SmallInput,
            )
        });
    }
    // One cycle's arrivals staged and folded in by a single merge: a band
    // at depth 20 takes a batch of that many newest arrivals, then expires
    // its oldest entries back to size. Batches beyond the band's spare
    // capacity also pay the merge-on-full path.
    for batch in [1usize, 4, 16, 64] {
        group.bench_function(format!("merge_{batch}"), |b| {
            b.iter_batched(
                || {
                    let depth = 20;
                    let mut sky = Skyband::new(depth).expect("k > 0");
                    let mut state = 7u64;
                    for i in 0..depth as u64 {
                        sky.insert(Scored::new(lcg(&mut state), TupleId(i)));
                    }
                    (sky, MergeScratch::default(), state, depth)
                },
                |(mut sky, mut scratch, mut state, depth)| {
                    let mut next = depth as u64;
                    for _ in 0..100 {
                        for _ in 0..batch {
                            sky.stage(Scored::new(lcg(&mut state), TupleId(next)), &mut scratch);
                            next += 1;
                        }
                        sky.merge(&mut scratch);
                        while sky.len() > depth {
                            let oldest = sky.scored().iter().map(|s| s.id).min();
                            sky.expire_before(TupleId(oldest.expect("non-empty band").0 + 1));
                        }
                    }
                    sky.len()
                },
                BatchSize::SmallInput,
            )
        });
    }
    // The expiry sweep of a wave tick, which visits every band: 1024
    // bands at depth 10, each the skyband of its own 60 arrivals, lose
    // the arrivals older than the cutoff (the oldest tenth). The setup
    // rebuilds the bands from their entries; one sample sweeps all 1024.
    let seeds: Vec<Vec<Scored>> = (0..1024u64)
        .map(|q| {
            let mut sky = Skyband::new(10).expect("k > 0");
            let mut state = q + 1;
            for i in 0..60 {
                sky.insert(Scored::new(lcg(&mut state), TupleId(i)));
            }
            sky.scored().to_vec()
        })
        .collect();
    let pool = RefCell::new(Vec::new());
    group.bench_function("expire_before_k10", |b| {
        b.iter_batched(
            || {
                let mut bands: Vec<Skyband> = pool.take();
                bands.resize_with(seeds.len(), || Skyband::new(10).expect("k > 0"));
                for (sky, seed) in bands.iter_mut().zip(&seeds) {
                    sky.rebuild(seed);
                }
                bands
            },
            |mut bands| {
                let mut swept = 0;
                for sky in &mut bands {
                    swept += usize::from(sky.expire_before(TupleId(6)).is_some());
                }
                pool.replace(bands);
                swept
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// A cycle's change report over 1024 top-10 results: most lost one to
/// three entries to newcomers, an eighth are unchanged. The setup resets
/// every reported baseline; one sample reports all 1024.
fn bench_result(c: &mut Criterion) {
    let mut group = c.benchmark_group("result");
    group.sample_size(20);
    let mut state = 17u64;
    let mut next = 0u64;
    let mut fresh = |state: &mut u64| {
        next += 1;
        Scored::new(lcg(state), TupleId(next))
    };
    let pairs: Vec<(Vec<Scored>, Vec<Scored>)> = (0..1024)
        .map(|q| {
            let mut old: Vec<Scored> = (0..10).map(|_| fresh(&mut state)).collect();
            old.sort_by(|a, b| b.cmp(a));
            let mut new = old.clone();
            let moved = match q % 8 {
                0 => 0,
                r => 1 + r % 3,
            };
            for _ in 0..moved {
                let gone = (lcg(&mut state) * new.len() as f64) as usize % new.len();
                new.remove(gone);
                new.push(fresh(&mut state));
            }
            new.sort_by(|a, b| b.cmp(a));
            (old, new)
        })
        .collect();
    let pool = RefCell::new((Vec::<Vec<Scored>>::new(), Vec::<ResultDelta>::new()));
    group.bench_function("report_k10", |b| {
        b.iter_batched(
            || {
                let (mut reported, mut out) = pool.take();
                reported.resize_with(pairs.len(), || Vec::with_capacity(10));
                for (baseline, (old, _)) in reported.iter_mut().zip(&pairs) {
                    baseline.clear();
                    baseline.extend_from_slice(old);
                }
                out.clear();
                out.reserve(pairs.len());
                (reported, out)
            },
            |(mut reported, mut out)| {
                for (q, (baseline, (_, new))) in reported.iter_mut().zip(&pairs).enumerate() {
                    ResultDelta::report(QueryId(q as u64), baseline, new, &mut out);
                }
                let changed = out.len();
                pool.replace((reported, out));
                changed
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid");
    group.sample_size(20);
    let f = ScoreFn::linear(vec![0.3, 0.9, 0.5, 0.7]).expect("4-d");
    let grid = Grid::with_cell_budget(4, 20_736, CellMode::Fifo).expect("budget");
    group.bench_function("locate_4d", |b| {
        let mut state = 3u64;
        b.iter(|| {
            let p = [
                lcg(&mut state),
                lcg(&mut state),
                lcg(&mut state),
                lcg(&mut state),
            ];
            black_box(grid.locate(&p))
        })
    });
    // The ingest stage's locate pass: 10k packed d = 4 points at once.
    let mut state = 5u64;
    let points: Vec<f64> = (0..10_000 * 4).map(|_| lcg(&mut state)).collect();
    let mut cells = Vec::with_capacity(10_000);
    group.bench_function("locate_batch_d4", |b| {
        b.iter(|| {
            cells.clear();
            grid.locate_batch(black_box(&points), &mut cells);
            black_box(cells.len())
        })
    });
    group.bench_function("maxscore_4d", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % grid.num_cells() as u32;
            black_box(grid.maxscore(tkm_grid::CellId(i), &f))
        })
    });
    group.bench_function("insert_1k_points", |b| {
        b.iter_batched(
            || Grid::with_cell_budget(4, 20_736, CellMode::Fifo).expect("budget"),
            |mut g| {
                let mut state = 11u64;
                for i in 0..1000u64 {
                    let p = [
                        lcg(&mut state),
                        lcg(&mut state),
                        lcg(&mut state),
                        lcg(&mut state),
                    ];
                    g.insert_point(&p, TupleId(i));
                }
                g.num_cells()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("window");
    group.sample_size(20);
    group.bench_function("count_push_evict_steady", |b| {
        let mut w = Window::new(4, WindowSpec::Count(10_000)).expect("config");
        let mut state = 5u64;
        let mut ts = 0u64;
        for _ in 0..10_000 {
            let p = [
                lcg(&mut state),
                lcg(&mut state),
                lcg(&mut state),
                lcg(&mut state),
            ];
            w.insert(&p, Timestamp(0)).expect("insert");
        }
        b.iter(|| {
            ts += 1;
            let p = [
                lcg(&mut state),
                lcg(&mut state),
                lcg(&mut state),
                lcg(&mut state),
            ];
            w.insert(&p, Timestamp(ts)).expect("insert");
            let mut evicted = 0;
            w.drain_expired(Timestamp(ts), |_, _| evicted += 1);
            black_box(evicted)
        })
    });
    group.finish();
}

/// One steady-state cycle of the shared ingest stage: r = 1k arrivals
/// into, and 1k expiries out of, a full d = 4, N = 100k count window over
/// the default grid (working set beyond L2, so cell accesses miss).
fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest");
    group.sample_size(20);
    let (dims, n, r) = (4usize, 100_000usize, 1_000usize);
    let mut state = 13u64;
    let mut batch =
        |tuples: usize| -> Vec<f64> { (0..tuples * dims).map(|_| lcg(&mut state)).collect() };
    let mut s = IngestState::new(dims, WindowSpec::Count(n), GridSpec::default()).expect("config");
    s.ingest(Timestamp(0), &batch(n)).expect("prefill");
    let batches: Vec<Vec<f64>> = (0..64).map(|_| batch(r)).collect();
    let mut tick = 0usize;
    group.bench_function("batch_1k_d4_n100k", |b| {
        b.iter(|| {
            tick += 1;
            s.ingest(
                Timestamp(tick as u64),
                black_box(&batches[tick % batches.len()]),
            )
            .expect("ingest");
            black_box(s.stats().expirations)
        })
    });
    // The query table's group-by of one r = 10k cycle of that stage: the
    // cells of 10k arrivals and 10k expiries against an influence table
    // listing one cell in 333, about 0.3 % of them (as on `ingest`).
    let mut cycle =
        IngestState::new(dims, WindowSpec::Count(n), GridSpec::default()).expect("config");
    cycle.ingest(Timestamp(0), &batch(n)).expect("prefill");
    cycle.ingest(Timestamp(1), &batch(10_000)).expect("cycle");
    let cells = cycle.grid().num_cells();
    let mut influence = InfluenceTable::new(cells);
    for cell in (0..cells as u32).step_by(333) {
        influence.insert(CellId(cell), QuerySlot(0));
    }
    let mut events = ListedEvents::default();
    group.bench_function("group_events", |b| {
        b.iter(|| {
            events.group(black_box(&influence), &cycle);
            black_box(events.arrival_runs().count())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_skyband,
    bench_result,
    bench_grid,
    bench_window,
    bench_ingest
);
criterion_main!(benches);
