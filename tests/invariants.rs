//! Structural invariants the engines must uphold across long streams —
//! failure injection for the book-keeping layers rather than result
//! comparison.

mod common;

use common::BatchGen;
use topk_monitor::engines::{GridSpec, SmaMonitor, TmaMonitor};
use topk_monitor::{DataDist, Query, QueryId, ScoreFn, Timestamp, WindowSpec};

/// TMA influence-list invariant: after any tick, every cell whose maxscore
/// reaches a query's current threshold must list the query (otherwise an
/// arrival could be missed), and the result members' cells must all list
/// it (otherwise an expiry could be missed).
#[test]
fn tma_influence_lists_cover_influence_region() {
    let dims = 2;
    let mut m = TmaMonitor::new(dims, WindowSpec::Count(120), GridSpec::PerDim(8)).expect("config");
    let f = ScoreFn::linear(vec![1.0, 2.0]).expect("dims");
    let q = Query::top_k(f.clone(), 5).expect("k");
    m.register_query(QueryId(0), q).expect("register");
    let mut stream = BatchGen::new(dims, DataDist::Ind, 64);
    for t in 0..60u64 {
        m.tick(Timestamp(t), &stream.batch(15)).expect("tick");
        let top = m.result(QueryId(0)).expect("result");
        if top.len() < 5 {
            continue;
        }
        let threshold = top.last().expect("k = 5").score.get();
        let maint = m.maintenance();
        let slot = maint.query_slot(QueryId(0)).expect("live query");
        for (cid, _) in m.grid().cells() {
            if m.grid().maxscore(cid, &f) >= threshold {
                assert!(
                    maint.influence().contains(cid, slot),
                    "cell {cid:?} (maxscore ≥ threshold {threshold}) not listed at tick {t}"
                );
            }
        }
    }
}

/// SMA skyband invariants across a long stream: strict descending order,
/// dominance counters below k, top prefix = true top-k, and bounded size.
#[test]
fn sma_skyband_invariants_over_time() {
    let dims = 3;
    let k = 8;
    let mut m = SmaMonitor::new(dims, WindowSpec::Count(200), GridSpec::PerDim(5)).expect("config");
    let f = ScoreFn::linear(vec![0.5, 1.5, 1.0]).expect("dims");
    m.register_query(QueryId(0), Query::top_k(f.clone(), k).expect("k"))
        .expect("register");
    let mut stream = BatchGen::new(dims, DataDist::Ant, 12);
    for t in 0..80u64 {
        m.tick(Timestamp(t), &stream.batch(20)).expect("tick");
        // Brute-force top-k from the tuples the grid stores.
        let mut want: Vec<topk_monitor::Scored> = m
            .grid()
            .cells()
            .flat_map(|(_, points)| points.iter())
            .map(|(id, c)| topk_monitor::Scored::new(f.score(c), id))
            .collect();
        want.sort_by(|a, b| b.cmp(a));
        want.truncate(k);
        assert_eq!(m.result(QueryId(0)).expect("result"), want, "tick {t}");
        // Dominance pruning keeps the band near k·ln(M/k) where M is the
        // above-threshold population — far below the window size. Without
        // pruning it would approach the window size itself. (The paper's
        // Table 2 setting — a 1M window — keeps it at ≈ k; tiny windows
        // are noisier.)
        let len = m.band_len(QueryId(0)).expect("len");
        assert!(
            len <= 10 * k,
            "skyband ballooned to {len} at tick {t} (pruning broken)"
        );
    }
}

/// Grid point lists and the window must stay in lockstep: every windowed
/// tuple is in exactly the cell covering its coordinates.
#[test]
fn grid_window_lockstep() {
    let dims = 2;
    let mut m = TmaMonitor::new(dims, WindowSpec::Count(80), GridSpec::PerDim(6)).expect("config");
    let q = Query::top_k(ScoreFn::linear(vec![1.0, 1.0]).expect("dims"), 3).expect("k");
    m.register_query(QueryId(0), q).expect("register");
    let mut stream = BatchGen::new(dims, DataDist::Ind, 2);
    for t in 0..40u64 {
        m.tick(Timestamp(t), &stream.batch(11)).expect("tick");
        let mut grid_total = 0usize;
        for (cid, points) in m.grid().cells() {
            for (id, cell_coords) in points.iter() {
                grid_total += 1;
                let coords = m.coords(id).expect("grid tuple must be valid");
                assert_eq!(
                    cell_coords, coords,
                    "coords({id}) does not resolve to its cell's copy"
                );
                assert_eq!(m.grid().locate(coords), cid, "tuple {id} in wrong cell");
            }
        }
        assert_eq!(grid_total, m.timeline().len(), "index/window size mismatch");
    }
}

/// After removing every query, no influence entries may remain anywhere,
/// for both engines, including constrained queries.
#[test]
fn no_influence_leaks_after_removal() {
    let dims = 2;
    let rect = topk_monitor::Rect::new(vec![0.2, 0.4], vec![0.8, 0.9]).expect("rect");
    let fns = [
        Query::top_k(ScoreFn::linear(vec![1.0, 0.5]).expect("d"), 4).expect("k"),
        Query::top_k(ScoreFn::linear(vec![-1.0, 1.0]).expect("d"), 2).expect("k"),
        Query::constrained(ScoreFn::linear(vec![0.3, 0.9]).expect("d"), 3, rect).expect("k"),
    ];
    let mut tma =
        TmaMonitor::new(dims, WindowSpec::Count(100), GridSpec::PerDim(7)).expect("config");
    let mut sma =
        SmaMonitor::new(dims, WindowSpec::Count(100), GridSpec::PerDim(7)).expect("config");
    let mut stream = BatchGen::new(dims, DataDist::Ind, 9);
    // Interleave: register, stream, remove, stream, verify.
    for (i, q) in fns.iter().enumerate() {
        tma.register_query(QueryId(i as u64), q.clone())
            .expect("tma");
        sma.register_query(QueryId(i as u64), q.clone())
            .expect("sma");
    }
    for t in 0..25u64 {
        let b = stream.batch(12);
        tma.tick(Timestamp(t), &b).expect("tick");
        sma.tick(Timestamp(t), &b).expect("tick");
    }
    for i in 0..fns.len() {
        tma.remove_query(QueryId(i as u64)).expect("remove");
        sma.remove_query(QueryId(i as u64)).expect("remove");
    }
    let leaks = |label: &str, total: usize| {
        assert_eq!(total, 0, "{label} leaked {total} influence entries");
    };
    leaks("TMA", tma.maintenance().influence().total_entries());
    leaks("SMA", sma.maintenance().influence().total_entries());
}

/// Engine statistics are self-consistent after a run.
#[test]
fn stats_are_consistent() {
    let dims = 2;
    let mut m = SmaMonitor::new(dims, WindowSpec::Count(50), GridSpec::PerDim(5)).expect("config");
    let q = Query::top_k(ScoreFn::linear(vec![1.0, 1.0]).expect("d"), 3).expect("k");
    m.register_query(QueryId(0), q).expect("register");
    let mut stream = BatchGen::new(dims, DataDist::Ind, 41);
    for t in 0..30u64 {
        m.tick(Timestamp(t), &stream.batch(10)).expect("tick");
    }
    let s = m.stats();
    assert_eq!(s.ticks, 30);
    assert_eq!(s.arrivals, 300);
    assert_eq!(s.expirations, 300 - 50, "window keeps exactly 50");
    assert!(s.recomputations() >= 1, "the initial computation counts");
    assert!(m.space_bytes() > 0);
}
