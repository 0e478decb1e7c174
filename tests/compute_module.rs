//! Direct property tests of the top-k computation module: exactness,
//! minimal-cell processing and frontier structure on arbitrary inputs.

use proptest::prelude::*;
use topk_monitor::engines::compute::{compute_topk, InfluenceUpdate};
use topk_monitor::grid::{CellMode, Grid, InfluenceTable};
use topk_monitor::{ComputeScratch, QuerySlot, Rect, ScoreFn, Scored, TupleId};

struct Fixture {
    grid: Grid,
    scratch: ComputeScratch,
    influence: InfluenceTable,
}

/// No window backs this harness: the computation module reads every
/// coordinate from the grid's cell blocks (ids are assigned directly,
/// matching the dense arrival numbering a window would produce).
fn fixture(points: &[(f64, f64)], per_dim: usize) -> Fixture {
    let mut grid = Grid::new(2, per_dim, CellMode::Fifo).expect("grid");
    for (i, (x, y)) in points.iter().enumerate() {
        grid.insert_point(&[*x, *y], TupleId(i as u64));
    }
    let scratch = ComputeScratch::new(grid.num_cells());
    let influence = InfluenceTable::new(grid.num_cells());
    Fixture {
        grid,
        scratch,
        influence,
    }
}

fn naive(points: &[(f64, f64)], f: &ScoreFn, k: usize, r: Option<&Rect>) -> Vec<Scored> {
    let mut all: Vec<Scored> = points
        .iter()
        .enumerate()
        .filter(|(_, (x, y))| r.is_none_or(|r| r.contains(&[*x, *y])))
        .map(|(i, (x, y))| Scored::new(f.score(&[*x, *y]), TupleId(i as u64)))
        .collect();
    all.sort_by(|a, b| b.cmp(a));
    all.truncate(k);
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Exactness + structural guarantees on random lattice points (ties
    /// abound), random grid resolution and random monotone direction.
    #[test]
    fn compute_is_exact_and_minimal(
        raw in prop::collection::vec((0u32..24, 0u32..24), 1..80),
        per_dim in 1usize..12,
        k in 1usize..10,
        w1 in -2.0f64..2.0,
        w2 in -2.0f64..2.0,
    ) {
        let points: Vec<(f64, f64)> =
            raw.iter().map(|(a, b)| (*a as f64 / 23.0, *b as f64 / 23.0)).collect();
        let f = ScoreFn::linear(vec![w1, w2]).expect("dims");
        let mut fx = fixture(&points, per_dim);
        let out = compute_topk(
            &fx.grid,
            &mut fx.scratch,
            Some(InfluenceUpdate::fresh(&mut fx.influence, QuerySlot(0))),
            &f,
            k,
            None,
            true,
            None,
        );
        // 1. Exact result.
        prop_assert_eq!(out.top.as_slice(), &naive(&points, &f, k, None)[..]);

        let mut ties = Vec::new();
        out.top.append_boundary_ties(&mut ties);
        if let Some(kth) = out.top.kth() {
            let threshold = kth.score.get();
            // 2. Coverage: every cell that could hold a qualifying tuple is
            //    registered in the influence list.
            for (cid, _) in fx.grid.cells() {
                if fx.grid.maxscore(cid, &f) >= threshold {
                    prop_assert!(
                        fx.influence.contains(cid, QuerySlot(0)),
                        "uncovered influential cell {cid:?}"
                    );
                }
            }
            // 3. Frontier cells are strictly below the threshold.
            for cell in &fx.scratch.frontier {
                prop_assert!(fx.grid.maxscore(*cell, &f) < threshold);
            }
            // 4. Boundary ties all tie the k-th score exactly and are not in
            //    the result.
            for tie in &ties {
                prop_assert_eq!(tie.score, kth.score);
                prop_assert!(!out.top.contains(tie.id));
            }
            // 5. Together, top + ties are exactly the tuples scoring ≥ kth.
            let mut got: Vec<TupleId> = out
                .top
                .as_slice()
                .iter()
                .chain(&ties)
                .map(|s| s.id)
                .collect();
            got.sort_unstable();
            let mut want: Vec<TupleId> = points
                .iter()
                .enumerate()
                .filter(|(_, (x, y))| f.score(&[*x, *y]) >= threshold)
                .map(|(i, _)| TupleId(i as u64))
                .collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        } else {
            // Deficient search floods everything and leaves no frontier.
            prop_assert!(fx.scratch.frontier.is_empty());
        }
    }

    /// Constrained searches with clipped bounds remain exact.
    #[test]
    fn constrained_compute_is_exact(
        raw in prop::collection::vec((0u32..20, 0u32..20), 1..60),
        per_dim in 1usize..10,
        k in 1usize..6,
        w1 in -1.5f64..1.5,
        w2 in -1.5f64..1.5,
        lo1 in 0.0f64..0.7,
        lo2 in 0.0f64..0.7,
        ext in 0.1f64..0.6,
    ) {
        let points: Vec<(f64, f64)> =
            raw.iter().map(|(a, b)| (*a as f64 / 19.0, *b as f64 / 19.0)).collect();
        let f = ScoreFn::linear(vec![w1, w2]).expect("dims");
        let rect = Rect::new(
            vec![lo1, lo2],
            vec![(lo1 + ext).min(1.0), (lo2 + ext).min(1.0)],
        ).expect("rect");
        let mut fx = fixture(&points, per_dim);
        let out = compute_topk(
            &fx.grid,
            &mut fx.scratch,
            Some(InfluenceUpdate::fresh(&mut fx.influence, QuerySlot(0))),
            &f,
            k,
            Some(&rect),
            false,
            None,
        );
        prop_assert_eq!(out.top.as_slice(), &naive(&points, &f, k, Some(&rect))[..]);
    }

    /// Snapshot mode (`qid = None`) produces the same result and leaves the
    /// grid untouched.
    #[test]
    fn snapshot_mode_is_pure(
        raw in prop::collection::vec((0u32..16, 0u32..16), 1..40),
        k in 1usize..5,
        w1 in -1.0f64..1.0,
        w2 in -1.0f64..1.0,
    ) {
        let points: Vec<(f64, f64)> =
            raw.iter().map(|(a, b)| (*a as f64 / 15.0, *b as f64 / 15.0)).collect();
        let f = ScoreFn::linear(vec![w1, w2]).expect("dims");
        let mut fx = fixture(&points, 6);
        let out = compute_topk(
            &fx.grid,
            &mut fx.scratch,
            None,
            &f,
            k,
            None,
            false,
            None,
        );
        prop_assert_eq!(out.top.as_slice(), &naive(&points, &f, k, None)[..]);
        prop_assert_eq!(
            fx.influence.total_entries(),
            0,
            "snapshot registered influence entries"
        );
    }
}

/// Non-proptest regression: the skyband seeded from compute (top + ties)
/// equals the k-skyband of all tuples scoring at least the threshold.
#[test]
fn skyband_seed_equivalence() {
    use topk_monitor::Skyband;
    let points: Vec<(f64, f64)> = (0..40)
        .map(|i| {
            let a = (i * 7) % 10;
            let b = (i * 3) % 10;
            (a as f64 / 9.0, b as f64 / 9.0)
        })
        .collect();
    let f = ScoreFn::linear(vec![1.0, 1.0]).expect("dims");
    let k = 5;
    let mut fx = fixture(&points, 5);
    let out = compute_topk(
        &fx.grid,
        &mut fx.scratch,
        Some(InfluenceUpdate::fresh(&mut fx.influence, QuerySlot(0))),
        &f,
        k,
        None,
        true,
        None,
    );
    let threshold = out.top.kth().expect("enough points").score;

    // Seeded rebuild (what SMA does).
    let mut seed: Vec<Scored> = out.top.as_slice().to_vec();
    out.top.append_boundary_ties(&mut seed);
    let mut seeded = Skyband::new(k).expect("k");
    seeded.rebuild(&seed);

    // Incremental construction over the full stream, then filtered to the
    // above-threshold population.
    let mut incremental = Skyband::new(k).expect("k");
    for (i, (x, y)) in points.iter().enumerate() {
        incremental.insert(Scored::new(f.score(&[*x, *y]), TupleId(i as u64)));
    }
    let want: Vec<Scored> = incremental
        .scored()
        .iter()
        .copied()
        .filter(|s| s.score >= threshold)
        .collect();
    let got: Vec<Scored> = seeded.scored().to_vec();
    assert_eq!(got, want);
}

/// Hot cells that straddle chunks: the cell a traversal starts in holds
/// exactly C−1, C, C+1 or 2C+1 points, behind a partly consumed head chunk
/// (`shift` older points were pushed and popped first, so the live points
/// start at every offset). The traversal must report the brute-force
/// result — the scan sees the cell as several slices.
#[test]
fn traversals_are_exact_when_hot_cells_straddle_chunks() {
    use topk_monitor::grid::CHUNK_POINTS as C;

    let fns = [
        ScoreFn::linear(vec![1.0, 1.0]).expect("dims"),
        ScoreFn::linear(vec![0.2, 1.9]).expect("dims"),
        ScoreFn::product(vec![0.1, 0.4]).expect("dims"),
    ];
    for size in [C - 1, C, C + 1, 2 * C + 1] {
        for shift in [0, 1, C - 1, C + 3] {
            let mut grid = Grid::new(2, 3, CellMode::Fifo).expect("grid");
            // All in the top-right cell of the 3×3 grid.
            let hot = |i: usize| {
                [
                    0.7 + (i * 37 % 29) as f64 / 100.0,
                    0.7 + (i * 11 % 23) as f64 / 80.0,
                ]
            };
            for i in 0..shift {
                grid.insert_point(&hot(i), TupleId(i as u64));
            }
            for i in 0..shift {
                grid.remove_point(&hot(i), TupleId(i as u64))
                    .expect("front");
            }
            let mut points = Vec::new();
            for i in shift..shift + size {
                points.push((TupleId(i as u64), hot(i)));
            }
            // A few colder points so deep queries leave the hot cell.
            for i in 0..12 {
                let id = TupleId((shift + size + i) as u64);
                points.push((id, [(i * 5 % 13) as f64 / 20.0, (i * 3 % 7) as f64 / 10.0]));
            }
            for (id, coords) in &points {
                grid.insert_point(coords, *id);
            }
            let brute = |f: &ScoreFn, k: usize| {
                let mut all: Vec<Scored> = points
                    .iter()
                    .map(|(id, c)| Scored::new(f.score(c), *id))
                    .collect();
                all.sort_by(|a, b| b.cmp(a));
                all.truncate(k);
                all
            };

            let mut scratch = ComputeScratch::new(grid.num_cells());
            for k in [1, size, size + 5] {
                for f in &fns {
                    let out = compute_topk(&grid, &mut scratch, None, f, k, None, false, None);
                    assert_eq!(out.top.as_slice(), &brute(f, k)[..], "{size}+{shift} k={k}");
                }
            }
        }
    }
}
