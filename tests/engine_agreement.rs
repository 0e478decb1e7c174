//! The central integration property: TMA, SMA, TSL and the brute-force
//! oracle report **identical** top-k results on every processing cycle of
//! every stream. (The paper's algorithms are exact; any divergence is a
//! bug.)

mod common;

use common::{build_all, register_all, tick_and_compare, BatchGen};
use topk_monitor::engines::{build_engine, EngineKind, GridSpec};
use topk_monitor::{DataDist, KmaxPolicy, Query, QueryId, ScoreFn, Timestamp, WindowSpec};

fn linear_queries(dims: usize, seed: u64, n: usize, k: usize) -> Vec<Query> {
    let mut gen = topk_monitor::QueryGen::new(dims, topk_monitor::FnFamily::Linear, seed)
        .expect("valid dims");
    gen.workload(n)
        .into_iter()
        .map(|f| Query::top_k(f, k).expect("k > 0"))
        .collect()
}

/// Count-based window, uniform data, several linear queries.
#[test]
fn count_window_ind_linear() {
    let dims = 3;
    let mut engines = build_all(dims, WindowSpec::Count(300), GridSpec::PerDim(6));
    let mut queries = Vec::new();
    for (i, q) in linear_queries(dims, 11, 4, 5).into_iter().enumerate() {
        let id = QueryId(i as u64);
        let held = register_all(&mut engines, id, &q);
        queries.push((id, held));
    }
    let mut stream = BatchGen::new(dims, DataDist::Ind, 42);
    for tick in 0..60u64 {
        let batch = stream.batch(25);
        tick_and_compare(&mut engines, Timestamp(tick), &batch, &queries);
    }
}

/// Anti-correlated data stresses the traversal (deep influence regions).
#[test]
fn count_window_ant_linear() {
    let dims = 4;
    let mut engines = build_all(dims, WindowSpec::Count(400), GridSpec::CellBudget(1296));
    let mut queries = Vec::new();
    for (i, q) in linear_queries(dims, 5, 3, 10).into_iter().enumerate() {
        let id = QueryId(i as u64);
        let held = register_all(&mut engines, id, &q);
        queries.push((id, held));
    }
    let mut stream = BatchGen::new(dims, DataDist::Ant, 7);
    for tick in 0..50u64 {
        let batch = stream.batch(30);
        tick_and_compare(&mut engines, Timestamp(tick), &batch, &queries);
    }
}

/// Time-based window with a variable arrival rate.
#[test]
fn time_window_variable_rate() {
    let dims = 2;
    let mut engines = build_all(dims, WindowSpec::Time(7), GridSpec::PerDim(8));
    let q = Query::top_k(ScoreFn::linear(vec![0.9, 1.3]).expect("dims"), 4).expect("k");
    let held = register_all(&mut engines, QueryId(0), &q);
    let queries = vec![(QueryId(0), held)];
    let mut stream = BatchGen::new(dims, DataDist::Ind, 3);
    for tick in 0..80u64 {
        let n = match tick % 5 {
            0 => 40,
            1 => 3,
            _ => 12,
        };
        let batch = stream.batch(n);
        tick_and_compare(&mut engines, Timestamp(tick), &batch, &queries);
    }
}

/// Mixed per-dimension monotonicity: f = 2·x1 − x2 (Figure 7a style).
#[test]
fn mixed_monotonicity_functions() {
    let dims = 2;
    let mut engines = build_all(dims, WindowSpec::Count(200), GridSpec::PerDim(7));
    let fns = [
        ScoreFn::linear(vec![2.0, -1.0]).expect("dims"),
        ScoreFn::linear(vec![-0.5, -1.5]).expect("dims"),
        ScoreFn::linear(vec![-1.0, 2.0]).expect("dims"),
    ];
    let mut queries = Vec::new();
    for (i, f) in fns.into_iter().enumerate() {
        let q = Query::top_k(f, 3).expect("k");
        let id = QueryId(i as u64);
        let held = register_all(&mut engines, id, &q);
        queries.push((id, held));
    }
    let mut stream = BatchGen::new(dims, DataDist::Ind, 23);
    for tick in 0..50u64 {
        let batch = stream.batch(15);
        tick_and_compare(&mut engines, Timestamp(tick), &batch, &queries);
    }
}

/// Non-linear families (product and quadratic, Figure 21).
#[test]
fn nonlinear_functions() {
    let dims = 3;
    let mut engines = build_all(dims, WindowSpec::Count(250), GridSpec::PerDim(5));
    let fns = [
        ScoreFn::product(vec![0.1, 0.5, 0.9]).expect("dims"),
        ScoreFn::quadratic(vec![1.0, 0.2, 0.7]).expect("dims"),
        ScoreFn::quadratic(vec![0.5, -0.8, 0.3]).expect("dims"),
    ];
    let mut queries = Vec::new();
    for (i, f) in fns.into_iter().enumerate() {
        let q = Query::top_k(f, 6).expect("k");
        let id = QueryId(i as u64);
        let held = register_all(&mut engines, id, &q);
        queries.push((id, held));
    }
    let mut stream = BatchGen::new(dims, DataDist::Ant, 77);
    for tick in 0..40u64 {
        let batch = stream.batch(20);
        tick_and_compare(&mut engines, Timestamp(tick), &batch, &queries);
    }
}

/// Coarse-lattice coordinates force massive score ties; the comparator
/// (score desc, older first) must keep all engines in lockstep.
#[test]
fn tie_heavy_streams() {
    let dims = 2;
    let mut engines = build_all(dims, WindowSpec::Count(120), GridSpec::PerDim(4));
    let fns = [
        ScoreFn::linear(vec![1.0, 1.0]).expect("dims"),
        ScoreFn::linear(vec![1.0, 0.0]).expect("dims"),
    ];
    let mut queries = Vec::new();
    for (i, f) in fns.into_iter().enumerate() {
        let q = Query::top_k(f, 5).expect("k");
        let id = QueryId(i as u64);
        let held = register_all(&mut engines, id, &q);
        queries.push((id, held));
    }
    let mut stream = BatchGen::new(dims, DataDist::Ind, 13);
    for tick in 0..70u64 {
        let batch = stream.coarse_batch(12, 4); // coordinates ∈ {0, ¼, ½, ¾, 1}
        tick_and_compare(&mut engines, Timestamp(tick), &batch, &queries);
    }
}

/// Extreme ks: k = 1 and k larger than the window.
#[test]
fn extreme_k_values() {
    let dims = 2;
    let mut engines = build_all(dims, WindowSpec::Count(50), GridSpec::PerDim(5));
    let q1 = Query::top_k(ScoreFn::linear(vec![1.0, 2.0]).expect("dims"), 1).expect("k");
    let q2 = Query::top_k(ScoreFn::linear(vec![2.0, 1.0]).expect("dims"), 80).expect("k");
    let mut queries = Vec::new();
    for (i, q) in [q1, q2].into_iter().enumerate() {
        let id = QueryId(i as u64);
        let held = register_all(&mut engines, id, &q);
        queries.push((id, held));
    }
    let mut stream = BatchGen::new(dims, DataDist::Ind, 31);
    for tick in 0..40u64 {
        let batch = stream.batch(10);
        tick_and_compare(&mut engines, Timestamp(tick), &batch, &queries);
    }
}

/// Queries registered mid-stream (over a warm window) and removed later.
#[test]
fn query_churn_mid_stream() {
    let dims = 2;
    let mut engines = build_all(dims, WindowSpec::Count(150), GridSpec::PerDim(6));
    let mut stream = BatchGen::new(dims, DataDist::Ind, 17);

    // Warm everything with no queries registered.
    for tick in 0..10u64 {
        let batch = stream.batch(20);
        for e in engines.iter_mut() {
            e.tick(Timestamp(tick), &batch).expect("tick");
        }
    }

    let q = Query::top_k(ScoreFn::linear(vec![0.4, 1.6]).expect("dims"), 7).expect("k");
    let held = register_all(&mut engines, QueryId(9), &q);
    let queries = vec![(QueryId(9), held)];
    for tick in 10..30u64 {
        let batch = stream.batch(20);
        tick_and_compare(&mut engines, Timestamp(tick), &batch, &queries);
    }

    // Remove everywhere; further ticks must not fail.
    for e in engines.iter_mut() {
        e.remove_query(QueryId(9)).expect("remove");
        assert!(e.result(QueryId(9)).is_err());
    }
    for tick in 30..35u64 {
        let batch = stream.batch(20);
        for e in engines.iter_mut() {
            e.tick(Timestamp(tick), &batch).expect("tick");
        }
    }

    // Re-registering the same id must work (fresh book-keeping).
    let held = register_all(&mut engines, QueryId(9), &q);
    let queries = vec![(QueryId(9), held)];
    for tick in 35..45u64 {
        let batch = stream.batch(20);
        tick_and_compare(&mut engines, Timestamp(tick), &batch, &queries);
    }
}

/// An empty tick (no arrivals) still expires tuples in time windows and
/// keeps all engines aligned.
#[test]
fn empty_ticks() {
    let dims = 2;
    let mut engines = build_all(dims, WindowSpec::Time(3), GridSpec::PerDim(4));
    let q = Query::top_k(ScoreFn::linear(vec![1.0, 1.0]).expect("dims"), 3).expect("k");
    let held = register_all(&mut engines, QueryId(0), &q);
    let queries = vec![(QueryId(0), held)];
    let mut stream = BatchGen::new(dims, DataDist::Ind, 1);
    for tick in 0..20u64 {
        let batch = if tick % 3 == 0 {
            stream.batch(8)
        } else {
            Vec::new() // silence: only expirations happen
        };
        tick_and_compare(&mut engines, Timestamp(tick), &batch, &queries);
    }
}

/// A band that drains below `k` while it holds the whole window must drop
/// its stale admission threshold: the twelve tuples of t=0 set it near
/// 0.8, they all leave the `Time(2)` window during the silent ticks, and
/// the two low scorers arriving at t=4 are then the entire window — and
/// the result. (Both engines used to report nothing.)
#[test]
fn drained_band_readmits_below_stale_threshold() {
    let window = WindowSpec::Time(2);
    let mut engines: Vec<_> = [EngineKind::Tma, EngineKind::Sma, EngineKind::Oracle]
        .into_iter()
        .map(|kind| {
            build_engine(kind, 1, window, GridSpec::PerDim(8), KmaxPolicy::Tuned)
                .expect("engine builds")
        })
        .collect();
    let first: Vec<f64> = (0..12).map(|i| 0.60 + 0.03 * f64::from(i)).collect();
    let silence = Vec::new();
    let q = Query::top_k(ScoreFn::linear(vec![1.0]).expect("dims"), 3).expect("k");
    for e in engines.iter_mut() {
        e.tick(Timestamp(0), &first).expect("tick succeeds");
    }
    let held = register_all(&mut engines, QueryId(0), &q);
    let queries = vec![(QueryId(0), held)];
    for t in 1..=3 {
        tick_and_compare(&mut engines, Timestamp(t), &silence, &queries);
    }
    tick_and_compare(&mut engines, Timestamp(4), &[0.1, 0.2], &queries);
    let last = engines[0].result(QueryId(0)).expect("result");
    assert_eq!(last.len(), 2, "the whole window is the result");
}

/// The paper's largest dimensionality (d = 6) with the 12⁴-cell budget
/// rule (5 cells per axis): exercises the deep per-cell neighbour fan-out
/// and the budgeted grid sizing.
#[test]
fn six_dimensional_agreement() {
    let dims = 6;
    let mut engines = build_all(dims, WindowSpec::Count(300), GridSpec::CellBudget(20_736));
    let mut queries = Vec::new();
    for (i, q) in linear_queries(dims, 2, 2, 10).into_iter().enumerate() {
        let id = QueryId(i as u64);
        let held = register_all(&mut engines, id, &q);
        queries.push((id, held));
    }
    let mut stream = BatchGen::new(dims, DataDist::Ant, 66);
    for tick in 0..25u64 {
        let batch = stream.batch(30);
        tick_and_compare(&mut engines, Timestamp(tick), &batch, &queries);
    }
}

/// The default grid over a count window: 2 000 tuples at d = 2 resolve to
/// 10² cells of about k = 20 tuples each, so results sit inside one or two
/// dense cells, and a k of 50 spans several.
#[test]
fn default_grid_at_window_occupancy() {
    let dims = 2;
    let mut engines = build_all(dims, WindowSpec::Count(2_000), GridSpec::default());
    let mut queries = Vec::new();
    for (i, k) in [1, 10, 20, 50].into_iter().enumerate() {
        let q = linear_queries(dims, 8 + i as u64, 1, k).remove(0);
        let id = QueryId(i as u64);
        let held = register_all(&mut engines, id, &q);
        queries.push((id, held));
    }
    let mut stream = BatchGen::new(dims, DataDist::Ind, 29);
    for tick in 0..40u64 {
        let batch = stream.batch(200);
        tick_and_compare(&mut engines, Timestamp(tick), &batch, &queries);
    }
}

/// Correlated data (the easy case): skybands stay minimal and all engines
/// agree.
#[test]
fn correlated_data_agreement() {
    let dims = 3;
    let mut engines = build_all(dims, WindowSpec::Count(200), GridSpec::PerDim(6));
    let q = Query::top_k(ScoreFn::linear(vec![1.0, 0.7, 1.3]).expect("dims"), 8).expect("k");
    let held = register_all(&mut engines, QueryId(0), &q);
    let queries = vec![(QueryId(0), held)];
    let mut stream = BatchGen::new(dims, DataDist::Cor, 44);
    for tick in 0..40u64 {
        let batch = stream.batch(15);
        tick_and_compare(&mut engines, Timestamp(tick), &batch, &queries);
    }
}
