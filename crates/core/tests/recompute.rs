//! Differential suite for the recomputation path.
//!
//! The engines under test serve results from a per-query band (skyband
//! refill) and fall back to the paper's computation module, one traversal
//! per query, when a band drains or outgrows its cap. The fallback must be
//! invisible in the results: both engines have to report exactly the
//! brute-force oracle's answer on every tick of every stream — under query
//! churn, heavy score ties, count and time windows, and synchronized expiry
//! storms that drain the bands of most of the fleet in one tick.

use tkm_common::{QueryId, Rect, ScoreFn, Scored, Timestamp};
use tkm_core::{ContinuousTopK, GridSpec, OracleMonitor, Query, SmaMonitor, TmaMonitor};
use tkm_window::WindowSpec;

const DIMS: usize = 2;
const GRID: GridSpec = GridSpec::PerDim(6);

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// `n` arrivals snapped to a `(lattice+1)`-point-per-axis lattice, so
/// score ties (including ties at the k-th position) are common.
fn lattice_stream(state: &mut u64, n: usize, lattice: u64) -> Vec<f64> {
    let mut out = Vec::with_capacity(n * DIMS);
    for _ in 0..n * DIMS {
        out.push((lcg(state) % (lattice + 1)) as f64 / lattice as f64);
    }
    out
}

/// Arrivals of tick `t` under the recompute-storm pattern: a large wave
/// every `period` ticks, a trickle in between, and a silent tick before
/// each wave. Under a short time window the wave expires en masse a few
/// ticks later, draining every query's band in the same cycle.
fn storm_tick_size(t: u64, period: u64, wave: usize, trickle: usize) -> usize {
    match t % period {
        0 => wave,
        p if p == period - 1 => 0,
        _ => trickle,
    }
}

fn query_set() -> Vec<(QueryId, Query)> {
    let constraint = Rect::new(vec![0.2, 0.2], vec![0.8, 0.8]).unwrap();
    vec![
        (
            QueryId(0),
            Query::top_k(ScoreFn::linear(vec![1.0, 2.0]).unwrap(), 3).unwrap(),
        ),
        (
            QueryId(1),
            Query::top_k(ScoreFn::linear(vec![2.0, 1.0]).unwrap(), 1).unwrap(),
        ),
        (
            QueryId(2),
            Query::top_k(ScoreFn::linear(vec![0.5, 0.5]).unwrap(), 5).unwrap(),
        ),
        // Product scoring: increasing per axis like the linear queries, but
        // another scoring kernel.
        (
            QueryId(3),
            Query::top_k(ScoreFn::product(vec![0.1, 0.1]).unwrap(), 2).unwrap(),
        ),
        // Decreasing on axis 1: traverses from another corner.
        (
            QueryId(4),
            Query::top_k(ScoreFn::linear(vec![1.0, -1.0]).unwrap(), 3).unwrap(),
        ),
        // Constrained: the traversal is clipped to the rectangle's cells.
        (
            QueryId(5),
            Query::constrained(ScoreFn::linear(vec![1.0, 1.0]).unwrap(), 2, constraint).unwrap(),
        ),
    ]
}

struct Fleet {
    engines: Vec<(&'static str, Box<dyn ContinuousTopK>)>,
    oracle: OracleMonitor,
}

impl Fleet {
    /// The oracle plus TMA and SMA.
    fn new(window: WindowSpec) -> Fleet {
        let engines: Vec<(&'static str, Box<dyn ContinuousTopK>)> = vec![
            (
                "tma",
                Box::new(TmaMonitor::new(DIMS, window, GRID).unwrap()),
            ),
            (
                "sma",
                Box::new(SmaMonitor::new(DIMS, window, GRID).unwrap()),
            ),
        ];
        Fleet {
            engines,
            oracle: OracleMonitor::new(DIMS, window).unwrap(),
        }
    }

    fn register(&mut self, id: QueryId, q: &Query) {
        self.oracle.register_query(id, q.clone()).unwrap();
        for (name, e) in &mut self.engines {
            e.register_query(id, q.clone())
                .unwrap_or_else(|err| panic!("{name}: register {id}: {err}"));
        }
    }

    fn remove(&mut self, id: QueryId) {
        self.oracle.remove_query(id).unwrap();
        for (_, e) in &mut self.engines {
            e.remove_query(id).unwrap();
        }
    }

    fn tick(&mut self, now: Timestamp, arrivals: &[f64]) {
        self.oracle.tick(now, arrivals).unwrap();
        for (name, e) in &mut self.engines {
            e.tick(now, arrivals)
                .unwrap_or_else(|err| panic!("{name}: tick {now:?}: {err}"));
        }
    }

    fn assert_all_match(&self, live: &[QueryId], tick: u64) {
        for &id in live {
            let want: &[Scored] = self.oracle.result(id).unwrap();
            for (name, e) in &self.engines {
                let got = e.result(id).unwrap();
                assert_eq!(
                    &got[..],
                    want,
                    "{name}: query {id} diverged from oracle at tick {tick}"
                );
            }
        }
    }
}

/// Runs one churn scenario: all engines over the same stream, with two
/// queries terminated a third of the way in and two registered midway,
/// results checked against the oracle every tick.
fn run_differential(window: WindowSpec, seed: u64, ticks: u64, lattice: u64, storm: bool) {
    let mut fleet = Fleet::new(window);
    let mut live: Vec<QueryId> = Vec::new();
    for (id, q) in query_set() {
        fleet.register(id, &q);
        live.push(id);
    }
    let mut state = seed | 1;
    for t in 0..ticks {
        if t == ticks / 3 {
            for id in [QueryId(1), QueryId(3)] {
                fleet.remove(id);
                live.retain(|x| *x != id);
            }
        }
        if t == ticks / 2 {
            let extra = [
                (
                    QueryId(6),
                    Query::top_k(ScoreFn::linear(vec![3.0, 1.0]).unwrap(), 4).unwrap(),
                ),
                (
                    QueryId(7),
                    Query::top_k(ScoreFn::quadratic(vec![1.0, 0.5]).unwrap(), 3).unwrap(),
                ),
            ];
            for (id, q) in extra {
                fleet.register(id, &q);
                live.push(id);
            }
        }
        let n = if storm {
            storm_tick_size(t, 5, 30, 3)
        } else {
            2 + (lcg(&mut state) % 7) as usize
        };
        let arrivals = lattice_stream(&mut state, n, lattice);
        fleet.tick(Timestamp(t), &arrivals);
        fleet.assert_all_match(&live, t);
    }
}

// ---- Deterministic scenarios (the regression seeds of this suite; the
// proptest below explores around them) ----

#[test]
fn churn_count_window_matches_oracle() {
    run_differential(WindowSpec::Count(40), 0x5eed_0001, 36, 9, false);
}

#[test]
fn churn_small_count_window_with_ties() {
    // Window of 12 under k up to 5: results brush against the whole
    // window; lattice 4 forces constant score ties.
    run_differential(WindowSpec::Count(12), 0x5eed_0002, 36, 4, false);
}

#[test]
fn churn_time_window_matches_oracle() {
    run_differential(WindowSpec::Time(3), 0x5eed_0003, 36, 9, false);
}

#[test]
fn storm_time_window_matches_oracle() {
    // Synchronized expiry waves: every query's refill band drains in the
    // same tick, so the whole fleet recomputes back to back under ties.
    run_differential(WindowSpec::Time(2), 0x5eed_0004, 40, 4, true);
}

#[test]
fn storm_count_window_matches_oracle() {
    run_differential(WindowSpec::Count(35), 0x5eed_0005, 40, 9, true);
}

// ---- Storm proof: the scenario must actually force mass recomputation ----

/// The eight queries of the storm scenarios: one traversal corner, eight
/// directions, k ∈ {2, 3, 4}.
fn storm_queries() -> Vec<(QueryId, Query)> {
    (0..8u64)
        .map(|i| {
            let w = vec![0.5 + 0.25 * i as f64, 1.5 - 0.125 * i as f64];
            let q = Query::top_k(ScoreFn::linear(w).unwrap(), 2 + (i as usize % 3)).unwrap();
            (QueryId(i), q)
        })
        .collect()
}

/// Drives expiry waves into a monitor whose queries were registered over a
/// populated window and checks that some single tick recomputes at least
/// half the fleet (correctness alone would also be satisfied by a stream
/// that never drains a band), that every tick stays oracle-exact, and that
/// every recomputed query cost exactly one traversal.
fn storm_recomputes_half_the_fleet<M: tkm_core::QueryMaintenance>() {
    let window = WindowSpec::Time(2);
    let mut m = tkm_core::Monitor::<M>::new(DIMS, window, GRID).unwrap();
    let mut oracle = OracleMonitor::new(DIMS, window).unwrap();
    let qs = storm_queries();
    // Populate the window before registering: a band started over an empty
    // window keeps its −∞ admission threshold and absorbs any storm (exact
    // but never deficient). A populated window sets the threshold to the
    // real depth-th score, so the waves below can drain the band.
    let mut state = 0x1234_5678u64;
    let warmup = lattice_stream(&mut state, 40, 9);
    m.tick(Timestamp(0), &warmup).unwrap();
    oracle.tick(Timestamp(0), &warmup).unwrap();
    for (id, q) in &qs {
        m.register_query(*id, q.clone()).unwrap();
        oracle.register_query(*id, q.clone()).unwrap();
    }

    let mut worst_tick = 0;
    for t in 1..30u64 {
        let before = m.stats().recompute_queries;
        let n = storm_tick_size(t, 5, 40, 2);
        let arrivals = lattice_stream(&mut state, n, 9);
        m.tick(Timestamp(t), &arrivals).unwrap();
        oracle.tick(Timestamp(t), &arrivals).unwrap();
        for (id, _) in &qs {
            assert_eq!(
                m.result(*id).unwrap(),
                oracle.result(*id).unwrap(),
                "{}: query {id} diverged at tick {t}",
                M::LABEL
            );
        }
        worst_tick = worst_tick.max(m.stats().recompute_queries - before);
    }
    assert!(
        worst_tick as usize >= qs.len() / 2,
        "{}: no tick recomputed half the fleet (most: {worst_tick} of {})",
        M::LABEL,
        qs.len()
    );
    let s = m.stats();
    assert_eq!(
        s.recompute_groups,
        s.recompute_queries,
        "{}: one traversal per recomputed query",
        M::LABEL
    );
}

#[test]
fn storm_recomputes_half_the_fleet_in_one_tick() {
    storm_recomputes_half_the_fleet::<tkm_core::TmaMaintenance>();
    storm_recomputes_half_the_fleet::<tkm_core::SmaMaintenance>();
}

// ---- Policy pin: the two engines must stay two different policies ----

/// The storm stream of `storm_recomputes_half_the_fleet`, with the
/// queries registered over an empty (`warm = false`) or a populated
/// window; returns `[recompute_queries, recompute_groups, cells_processed,
/// cell_probes, tuple_probes]`.
fn storm_counters<M: tkm_core::QueryMaintenance>(warm: bool) -> [u64; 5] {
    let mut m = tkm_core::Monitor::<M>::new(DIMS, WindowSpec::Time(2), GRID).unwrap();
    let mut state = 0x1234_5678u64;
    if warm {
        m.tick(Timestamp(0), &lattice_stream(&mut state, 40, 9))
            .unwrap();
    }
    for (id, q) in storm_queries() {
        m.register_query(id, q).unwrap();
    }
    for t in u64::from(warm)..30 {
        let n = storm_tick_size(t, 5, 40, 2);
        m.tick(Timestamp(t), &lattice_stream(&mut state, n, 9))
            .unwrap();
    }
    let s = m.stats();
    [
        s.recompute_queries,
        s.recompute_groups,
        s.cells_processed,
        s.cell_probes,
        s.tuple_probes,
    ]
}

/// Work counters recorded from the twin `TmaMaintenance` / `SmaMaintenance`
/// implementations this stage replaced. A cold registration starts every
/// band at threshold −∞: TMA must take its cap-tightening path (16
/// recomputations), SMA must never (the 8 registrations only) — so the
/// rows differ wherever the policies do, and a merged stage that confuses
/// them fails here. Columns 0, 3 and 4 (which queries recompute, what the
/// replay probes) are the decisions and predate the single recomputation
/// path; columns 1 and 2 are its execution: one traversal per query, each
/// walking its own influence region.
#[test]
fn policies_do_the_work_of_the_engines_they_replaced() {
    use tkm_core::{SmaMaintenance, TmaMaintenance};
    assert_eq!(
        storm_counters::<TmaMaintenance>(false),
        [16, 16, 461, 1710, 2518]
    );
    assert_eq!(
        storm_counters::<SmaMaintenance>(false),
        [8, 8, 288, 1720, 2528]
    );
    assert_eq!(
        storm_counters::<TmaMaintenance>(true),
        [20, 20, 466, 1516, 2180]
    );
    // A band that drains below `k` while holding the whole window takes one
    // last underfilling traversal that resets its threshold to −∞ (the
    // drained-band rule in `needs_recompute`); without it this row reads
    // 37 recomputations, one every time the window outgrows the stale
    // threshold.
    assert_eq!(
        storm_counters::<SmaMaintenance>(true),
        [32, 32, 848, 1490, 2147]
    );
}

// ---- Refill-specific behaviour ----

/// An expiry storm drains the band below `k`, the engine falls back to a
/// from-scratch computation, and the result stays oracle-exact throughout.
#[test]
fn expiry_storm_forces_refill_fallback() {
    let window = WindowSpec::Time(2);
    let mut m = TmaMonitor::new(DIMS, window, GRID).unwrap();
    let mut oracle = OracleMonitor::new(DIMS, window).unwrap();
    let q = Query::top_k(ScoreFn::linear(vec![1.0, 1.0]).unwrap(), 4).unwrap();
    m.register_query(QueryId(0), q.clone()).unwrap();
    oracle.register_query(QueryId(0), q).unwrap();
    let after_registration = m.stats().recompute_queries;

    let mut state = 0x0badu64;
    // Tick 0: a wave fills the band well beyond k (and, past the band-size
    // cap of ~2·k_max, triggers the threshold-tightening traversal — the
    // k_max=7 skyband of 300 distinct-scoring tuples holds ~30 entries).
    let wave = lattice_stream(&mut state, 300, 9999);
    m.tick(Timestamp(0), &wave).unwrap();
    oracle.tick(Timestamp(0), &wave).unwrap();
    assert!(m.band_len(QueryId(0)).unwrap() >= 4);
    assert_eq!(
        m.result(QueryId(0)).unwrap(),
        oracle.result(QueryId(0)).unwrap()
    );
    let after_wave = m.stats().recompute_queries;
    assert!(
        after_wave > after_registration,
        "the registration-time −∞ threshold must be tightened once the band outgrows its cap"
    );

    // Ticks 1-2: a trickle (mostly below the tightened threshold); at
    // tick 2 the wave leaves the Time(2) window en masse and the band
    // collapses below k → fallback recomputation.
    for t in 1..=2u64 {
        let arrivals = lattice_stream(&mut state, 2, 9);
        m.tick(Timestamp(t), &arrivals).unwrap();
        oracle.tick(Timestamp(t), &arrivals).unwrap();
        assert_eq!(
            m.result(QueryId(0)).unwrap(),
            oracle.result(QueryId(0)).unwrap()
        );
    }
    assert!(
        m.stats().recompute_queries > after_wave,
        "the wave expiry must have forced a from-scratch computation"
    );
}

/// Steady state: the refill band absorbs result expiries that the paper's
/// bare TMA would recompute for. The recompute count stays near the
/// registration baseline while results track the oracle.
#[test]
fn refill_absorbs_steady_state_expiries() {
    let mut m = TmaMonitor::new(DIMS, WindowSpec::Count(60), GRID).unwrap();
    let mut oracle = OracleMonitor::new(DIMS, WindowSpec::Count(60)).unwrap();
    let q = Query::top_k(ScoreFn::linear(vec![1.0, 2.0]).unwrap(), 5).unwrap();
    m.register_query(QueryId(0), q.clone()).unwrap();
    oracle.register_query(QueryId(0), q).unwrap();

    let mut state = 0xfeedu64;
    for t in 0..80u64 {
        let arrivals = lattice_stream(&mut state, 8, 99);
        m.tick(Timestamp(t), &arrivals).unwrap();
        oracle.tick(Timestamp(t), &arrivals).unwrap();
        assert_eq!(
            m.result(QueryId(0)).unwrap(),
            oracle.result(QueryId(0)).unwrap()
        );
    }
    let s = m.stats();
    assert!(
        s.recompute_queries <= 10,
        "refill should make recomputation rare: {} recomputes in 80 ticks",
        s.recompute_queries
    );
}

/// The larger `k_max` band is charged to `space_bytes`: a k=50 query
/// (band of ~70) must account at least its band entries beyond what the
/// same monitor spends on a k=1 query (band of 4).
#[test]
fn kmax_band_space_is_pinned() {
    let build = |k: usize| {
        let mut m = TmaMonitor::new(DIMS, WindowSpec::Count(300), GridSpec::PerDim(6)).unwrap();
        let mut state = 0x77u64;
        for t in 0..6u64 {
            let arrivals = lattice_stream(&mut state, 50, 999);
            m.tick(Timestamp(t), &arrivals).unwrap();
        }
        m.register_query(
            QueryId(0),
            Query::top_k(ScoreFn::linear(vec![1.0, 1.0]).unwrap(), k).unwrap(),
        )
        .unwrap();
        (m.band_len(QueryId(0)).unwrap(), m.space_bytes())
    };
    let (len_small, space_small) = build(1);
    let (len_large, space_large) = build(50);
    assert!(len_small >= 1 && len_small <= tkm_core::skyband::tuned_kmax(1) + 2);
    assert!(len_large >= 50, "window of 300 must fill a k=50 band");
    // Each band entry costs at least a Scored (16 bytes) plus its
    // dominance counter (4 bytes).
    let entry = std::mem::size_of::<Scored>() + std::mem::size_of::<u32>();
    assert!(
        space_large >= space_small + (len_large - len_small) * entry,
        "k_max band not accounted: k=1 → {space_small} bytes, k=50 → {space_large} bytes"
    );
}

// ---- Property exploration around the deterministic scenarios ----

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// TMA and SMA at S ∈ {1, 3} ≡ oracle, under churn, ties, storms,
        /// and random windows. Seeds committed in
        /// `proptest-regressions/recompute.txt` replay first.
        #[test]
        fn all_configurations_match_oracle(
            seed in any::<u64>(),
            wsel in 0usize..4,
            lsel in 0usize..3,
            storm in any::<bool>(),
        ) {
            let window = match wsel {
                0 => WindowSpec::Count(12),
                1 => WindowSpec::Count(40),
                2 => WindowSpec::Time(2),
                _ => WindowSpec::Time(4),
            };
            let lattice = [4u64, 9, 99][lsel];
            run_differential(window, seed, 24, lattice, storm);
        }
    }
}
