//! Criterion microbench for the coordinate-inline cells: scanning every
//! cell's points through the dim-specialized kernels (contiguous SoA
//! reads, chunk by chunk) versus the pre-inline layout's access pattern
//! (resolve each tuple id through the window ring, then score).
//!
//! The second variant is exactly what the traversal inner loop used to do
//! before the cells carried their own coordinates; keeping both here makes
//! the layout's win (and any future regression) visible in one number.
//! The sparse rows (50k points over 12⁴ cells, ~2 a cell) are the
//! cache-resident regime; the `dense` row (d = 4, 48 points a cell, the
//! paper's default stream on its default grid) is where a cell spans
//! several chunks and the read side pays its link hops.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tkm_common::{ScoreFn, Timestamp};
use tkm_core::kernel;
use tkm_datagen::{DataDist, PointGen};
use tkm_grid::{CellMode, Grid};
use tkm_window::{Window, WindowSpec};

const N: usize = 50_000;

struct Fixture {
    grid: Grid,
    window: Window,
    f: ScoreFn,
    dims: usize,
}

fn fixture(dims: usize, points: usize, cells: usize) -> Fixture {
    let mut gen = PointGen::new(dims, DataDist::Ind, 7).expect("dims");
    let mut grid = Grid::with_cell_budget(dims, cells, CellMode::Fifo).expect("budget");
    let mut window = Window::new(dims, WindowSpec::Count(points)).expect("config");
    let mut buf = [0.0f64; tkm_common::MAX_DIMS];
    for _ in 0..points {
        gen.fill(&mut buf);
        let coords = &buf[..dims];
        let id = window.insert(coords, Timestamp(0)).expect("insert");
        grid.insert_point(coords, id);
    }
    let f = ScoreFn::linear(vec![0.8; dims]).expect("dims");
    Fixture {
        grid,
        window,
        f,
        dims,
    }
}

fn bench_cell_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("cell_scan");
    group.sample_size(30);
    // 256 cells × 48 points: the per-cell population of d = 4, N = 1M on
    // 12⁴ cells, at a size that stays in cache.
    let shapes = [
        ("2", 2usize, N, 20_736usize),
        ("4", 4, N, 20_736),
        ("4-dense", 4, 48 * 256, 256),
        // d = 6 runs the per-point reference rather than a fixed kernel.
        ("6", 6, N, 20_736),
    ];
    for (label, dims, points, cells) in shapes {
        let fx = fixture(dims, points, cells);
        // Contiguous: stream (ids, coords) straight out of the cells'
        // chunks through the scoring kernel — the post-inline traversal
        // loop.
        group.bench_with_input(BenchmarkId::new("contiguous", label), &fx, |b, fx| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for (_, points) in fx.grid.cells() {
                    for (ids, coords) in points.chunks() {
                        kernel::scan_block(&fx.f, fx.dims, ids, coords, None, |_, score| {
                            acc += score
                        });
                    }
                }
                black_box(acc)
            })
        });
        // Lookup-per-tuple: the pre-inline pattern — ids in the cell, one
        // window-ring resolution per scanned point.
        group.bench_with_input(BenchmarkId::new("lookup_per_tuple", label), &fx, |b, fx| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for (_, points) in fx.grid.cells() {
                    for (id, _) in points.iter() {
                        let coords = fx.window.coords(id).expect("valid tuple");
                        acc += fx.f.score(coords);
                    }
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cell_scan);
criterion_main!(benches);
