//! Criterion micro-benchmarks for the two initial-computation paths: the
//! paper's top-k computation module (grid traversal) and the TA baseline
//! (sorted lists), over identical window contents — and the module as the
//! maintenance stage calls it when a band falls back
//! (`compute_topk/solo_k10_n10k_default_grid`).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tkm_common::{QuerySlot, ScoreFn, Timestamp};
use tkm_core::influence::cleanup_from_frontier;
use tkm_core::tsl::{ta_search, SortedLists};
use tkm_core::{compute_topk, ComputeScratch, GridSpec, InfluenceUpdate, TopList};
use tkm_datagen::{DataDist, FnFamily, PointGen, QueryGen};
use tkm_grid::{CellMode, Grid, InfluenceTable};
use tkm_window::{Window, WindowSpec};

const N: usize = 50_000;
const DIMS: usize = 4;

struct Fixture {
    grid: Grid,
    lists: SortedLists,
    window: Window,
    f: ScoreFn,
}

fn fixture(dist: DataDist) -> Fixture {
    let mut gen = PointGen::new(DIMS, dist, 99).expect("dims");
    let mut grid = Grid::with_cell_budget(DIMS, 20_736, CellMode::Fifo).expect("budget");
    let mut lists = SortedLists::new(DIMS).expect("dims");
    let mut window = Window::new(DIMS, WindowSpec::Count(N)).expect("config");
    let mut buf = [0.0f64; tkm_common::MAX_DIMS];
    for _ in 0..N {
        gen.fill(&mut buf);
        let coords = &buf[..DIMS];
        let id = window.insert(coords, Timestamp(0)).expect("insert");
        grid.insert_point(coords, id);
        lists.insert(id, coords);
    }
    let f = ScoreFn::linear(vec![0.8, 0.3, 0.6, 0.9]).expect("dims");
    Fixture {
        grid,
        lists,
        window,
        f,
    }
}

fn bench_compute_module(c: &mut Criterion) {
    let mut group = c.benchmark_group("topk_computation");
    group.sample_size(30);
    for dist in [DataDist::Ind, DataDist::Ant] {
        let fx = fixture(dist);
        let mut scratch = ComputeScratch::new(fx.grid.num_cells());
        let mut influence = InfluenceTable::new(fx.grid.num_cells());
        for k in [1usize, 20, 100] {
            group.bench_with_input(
                BenchmarkId::new(format!("grid_{}", dist.label()), k),
                &k,
                |b, &k| {
                    b.iter(|| {
                        let out = compute_topk(
                            &fx.grid,
                            &mut scratch,
                            Some(InfluenceUpdate::fresh(&mut influence, QuerySlot(0))),
                            &fx.f,
                            k,
                            None,
                            false,
                            None,
                        );
                        // Unregister again so every iteration starts clean.
                        cleanup_from_frontier(
                            &fx.grid,
                            &mut influence,
                            &mut scratch,
                            QuerySlot(0),
                            &fx.f,
                            None,
                        );
                        black_box(out.top.len())
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("ta_{}", dist.label()), k),
                &k,
                |b, &k| {
                    b.iter(|| {
                        let (res, _) = ta_search(&fx.lists, &fx.window, &fx.f, k);
                        black_box(res.len())
                    })
                },
            );
        }
    }
    group.finish();
}

/// One fallback recomputation as `BandMaintenance::recompute` issues it on
/// the benchmark's `steady` shape: d = 2, N = 10 k, the default cell
/// budget, k = 10 with tie tracking, a linear query from `QueryGen` whose
/// influence region is already listed (its previous bound is fed back, so
/// the traversal skips the list inserts) and a recycled result list. The
/// queries take turns, so one iteration is one query's traversal with
/// another query's cells in cache.
fn bench_solo_recompute(c: &mut Criterion) {
    const DIMS: usize = 2;
    const N: usize = 10_000;
    const K: usize = 10;
    let mut points = PointGen::new(DIMS, DataDist::Ind, 99).expect("dims");
    let mut grid = GridSpec::default()
        .build(DIMS, CellMode::Fifo)
        .expect("budget");
    let mut buf = [0.0f64; tkm_common::MAX_DIMS];
    for i in 0..N {
        points.fill(&mut buf);
        grid.insert_point(&buf[..DIMS], tkm_common::TupleId(i as u64));
    }
    let mut scratch = ComputeScratch::new(grid.num_cells());
    let mut influence = InfluenceTable::new(grid.num_cells());
    let fns = QueryGen::new(DIMS, FnFamily::Linear, 5)
        .expect("dims")
        .workload(64);
    let mut recompute = |i: usize, listed_above: f64, reuse: TopList| {
        compute_topk(
            &grid,
            &mut scratch,
            Some(InfluenceUpdate {
                table: &mut influence,
                slot: QuerySlot(i as u32),
                listed_above,
            }),
            &fns[i],
            K,
            None,
            true,
            Some(reuse),
        )
    };
    // The registration-time computations: list every region, keep the
    // bounds the recomputations feed back.
    let mut top = TopList::default();
    let mut bounds = Vec::with_capacity(fns.len());
    for i in 0..fns.len() {
        let out = recompute(i, f64::INFINITY, top);
        bounds.push(out.region_bound);
        top = out.top;
    }

    let mut group = c.benchmark_group("compute_topk");
    let mut next = 0;
    group.bench_function("solo_k10_n10k_default_grid", |b| {
        b.iter(|| {
            let out = recompute(next, bounds[next], std::mem::take(&mut top));
            next = (next + 1) % fns.len();
            top = out.top;
            black_box(out.stats.cells_processed)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_compute_module, bench_solo_recompute);
criterion_main!(benches);
