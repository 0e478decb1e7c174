//! Threshold monitoring (§7) against a brute-force reference, with delta
//! exactness.

mod common;

use common::BatchGen;
use proptest::prelude::*;
use topk_monitor::engines::GridSpec;
use topk_monitor::grid::Grid;
use topk_monitor::{DataDist, QueryId, ScoreFn, ThresholdMonitor, Timestamp, TupleId, WindowSpec};

fn brute(grid: &Grid, f: &ScoreFn, tau: f64) -> Vec<TupleId> {
    let mut out: Vec<TupleId> = grid
        .cells()
        .flat_map(|(_, points)| points.iter())
        .filter(|(_, c)| f.score(c) > tau)
        .map(|(id, _)| id)
        .collect();
    out.sort_unstable();
    out
}

#[test]
fn matching_set_tracks_brute_force() {
    let dims = 3;
    let mut m =
        ThresholdMonitor::new(dims, WindowSpec::Count(200), GridSpec::PerDim(5)).expect("config");
    let fns = [
        (ScoreFn::linear(vec![1.0, 1.0, 1.0]).unwrap(), 2.2),
        (ScoreFn::linear(vec![1.0, -1.0, 0.5]).unwrap(), 1.1),
        (ScoreFn::product(vec![0.0, 0.0, 0.0]).unwrap(), 0.5),
    ];
    for (i, (f, tau)) in fns.iter().enumerate() {
        m.register_query(QueryId(i as u64), f.clone(), *tau)
            .expect("register");
    }
    let mut stream = BatchGen::new(dims, DataDist::Ind, 55);
    for t in 0..50u64 {
        m.tick(Timestamp(t), &stream.batch(20)).expect("tick");
        for (i, (f, tau)) in fns.iter().enumerate() {
            let mut got: Vec<TupleId> = m
                .matching(QueryId(i as u64))
                .expect("matching")
                .iter()
                .copied()
                .collect();
            got.sort_unstable();
            assert_eq!(got, brute(m.grid(), f, *tau), "query {i} at tick {t}");
        }
    }
}

/// Added/removed deltas reconstruct the matching set exactly.
#[test]
fn deltas_reconstruct_the_set() {
    let dims = 2;
    let mut m =
        ThresholdMonitor::new(dims, WindowSpec::Count(60), GridSpec::PerDim(6)).expect("config");
    let f = ScoreFn::linear(vec![2.0, 1.0]).unwrap();
    m.register_query(QueryId(0), f.clone(), 1.8)
        .expect("register");
    let mut reconstructed = std::collections::BTreeSet::new();
    let mut stream = BatchGen::new(dims, DataDist::Ind, 8);
    for t in 0..60u64 {
        m.tick(Timestamp(t), &stream.batch(9)).expect("tick");
        for add in m.added(QueryId(0)).expect("added") {
            assert!(reconstructed.insert(add.id), "duplicate add {}", add.id);
        }
        for rem in m.removed(QueryId(0)).expect("removed") {
            assert!(reconstructed.remove(rem), "removal of absent {rem}");
        }
        let mut got: Vec<TupleId> = m
            .matching(QueryId(0))
            .expect("matching")
            .iter()
            .copied()
            .collect();
        got.sort_unstable();
        let want: Vec<TupleId> = reconstructed.iter().copied().collect();
        assert_eq!(got, want, "delta stream diverged at tick {t}");
    }
}

/// Time-window threshold queries expire matches by age.
#[test]
fn time_window_thresholds() {
    let dims = 2;
    let mut m =
        ThresholdMonitor::new(dims, WindowSpec::Time(4), GridSpec::PerDim(5)).expect("config");
    let f = ScoreFn::quadratic(vec![1.0, 1.0]).unwrap();
    m.register_query(QueryId(1), f.clone(), 1.2)
        .expect("register");
    let mut stream = BatchGen::new(dims, DataDist::Ant, 19);
    for t in 0..40u64 {
        let n = 4 + (t % 6) as usize;
        m.tick(Timestamp(t), &stream.batch(n)).expect("tick");
        let mut got: Vec<TupleId> = m
            .matching(QueryId(1))
            .expect("matching")
            .iter()
            .copied()
            .collect();
        got.sort_unstable();
        assert_eq!(got, brute(m.grid(), &f, 1.2), "tick {t}");
    }
}

/// A burst larger than a count window: the tuples that arrive and expire
/// within the cycle never matched at a cycle boundary, so they appear in
/// neither delta (they used to be reported in both), the deltas still
/// reconstruct the set, and the set is the brute-force one.
#[test]
fn same_cycle_transients_are_in_neither_delta() {
    let dims = 2;
    let mut m =
        ThresholdMonitor::new(dims, WindowSpec::Count(10), GridSpec::PerDim(4)).expect("config");
    // Matches everything, so every transient would show.
    let f = ScoreFn::linear(vec![1.0, 1.0]).unwrap();
    m.register_query(QueryId(0), f.clone(), -1.0)
        .expect("register");
    let mut reconstructed = std::collections::BTreeSet::new();
    let mut stream = BatchGen::new(dims, DataDist::Ind, 3);
    for (t, burst) in [6usize, 25, 4, 40, 10, 11].into_iter().enumerate() {
        m.tick(Timestamp(t as u64), &stream.batch(burst))
            .expect("tick");
        let added = m.added(QueryId(0)).expect("added");
        let removed = m.removed(QueryId(0)).expect("removed");
        for add in added {
            assert!(!removed.contains(&add.id), "{} in both deltas", add.id);
            assert!(reconstructed.insert(add.id), "duplicate add {}", add.id);
        }
        assert_eq!(added.len(), burst.min(10), "survivors of burst {burst}");
        for rem in removed {
            assert!(reconstructed.remove(rem), "removal of absent {rem}");
        }
        let mut got: Vec<TupleId> = m
            .matching(QueryId(0))
            .expect("matching")
            .iter()
            .copied()
            .collect();
        got.sort_unstable();
        assert_eq!(got, brute(m.grid(), &f, -1.0), "tick {t}");
        assert_eq!(got, reconstructed.iter().copied().collect::<Vec<_>>());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_thresholds_match(
        tau in 0.0f64..2.0,
        w1 in -1.5f64..1.5,
        w2 in -1.5f64..1.5,
        seed in 0u64..500,
        capacity in 10usize..80,
    ) {
        let dims = 2;
        let mut m = ThresholdMonitor::new(
            dims,
            WindowSpec::Count(capacity),
            GridSpec::PerDim(4),
        ).expect("config");
        let f = ScoreFn::linear(vec![w1, w2]).expect("dims");
        m.register_query(QueryId(0), f.clone(), tau).expect("register");
        let mut stream = BatchGen::new(dims, DataDist::Ind, seed);
        for t in 0..15u64 {
            m.tick(Timestamp(t), &stream.batch(8)).expect("tick");
            let mut got: Vec<TupleId> =
                m.matching(QueryId(0)).expect("matching").iter().copied().collect();
            got.sort_unstable();
            prop_assert_eq!(got, brute(m.grid(), &f, tau));
        }
    }
}
