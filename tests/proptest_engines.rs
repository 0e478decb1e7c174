//! Property-based end-to-end test: for *arbitrary* streams, window sizes,
//! ks and monotone linear functions (any weight signs), TMA, SMA and TSL
//! report exactly the oracle's results on every cycle — and TMA and SMA
//! keep doing so under query churn, slot recycling, capacity-hinted time
//! windows and heavy score ties.

mod common;

use common::{build_all, build_kinds, register_all, tick_and_compare};
use proptest::prelude::*;
use topk_monitor::engines::{ContinuousTopK, EngineKind, GridSpec};
use topk_monitor::{Query, QueryId, ScoreFn, Timestamp, WindowSpec};

/// TMA, SMA and the oracle (last) in lockstep through registration,
/// removal and ticks.
struct Fleet {
    engines: Vec<Box<dyn ContinuousTopK>>,
    live: Vec<(QueryId, Vec<bool>)>,
    next_query: u64,
}

impl Fleet {
    fn new(dims: usize, window: WindowSpec, grid: GridSpec) -> Fleet {
        let kinds = [EngineKind::Tma, EngineKind::Sma, EngineKind::Oracle];
        Fleet {
            engines: build_kinds(&kinds, dims, window, grid),
            live: Vec::new(),
            next_query: 0,
        }
    }

    fn register(&mut self, q: &Query) {
        let id = QueryId(self.next_query);
        self.next_query += 1;
        let held = register_all(&mut self.engines, id, q);
        assert!(held.iter().all(|h| *h), "every engine takes {id}");
        self.live.push((id, held));
    }

    fn remove_oldest(&mut self) {
        let (id, _) = self.live.remove(0);
        for e in &mut self.engines {
            e.remove_query(id).expect("remove");
        }
    }

    fn tick_and_compare(&mut self, now: Timestamp, batch: &[f64]) {
        tick_and_compare(&mut self.engines, now, batch, &self.live);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary 2-d streams with coarse coordinates (tie pressure),
    /// arbitrary window capacity, k and weights, on grids from a single
    /// cell to 8 an axis.
    #[test]
    fn engines_agree_on_arbitrary_streams(
        capacity in 5usize..60,
        k in 1usize..12,
        per_dim in 1usize..9,
        w1 in -2.0f64..2.0,
        w2 in -2.0f64..2.0,
        levels in 2usize..12,
        ticks in prop::collection::vec(prop::collection::vec((0u32..100, 0u32..100), 0..12), 1..25),
    ) {
        let dims = 2;
        let mut engines = build_all(dims, WindowSpec::Count(capacity), GridSpec::PerDim(per_dim));
        let q = Query::top_k(ScoreFn::linear(vec![w1, w2]).expect("dims"), k).expect("k");
        let held = register_all(&mut engines, QueryId(0), &q);
        let queries = vec![(QueryId(0), held)];
        for (t, batch_spec) in ticks.iter().enumerate() {
            let mut batch = Vec::with_capacity(batch_spec.len() * dims);
            for (a, b) in batch_spec {
                batch.push((*a as f64 % levels as f64) / (levels - 1).max(1) as f64);
                batch.push((*b as f64 % levels as f64) / (levels - 1).max(1) as f64);
            }
            tick_and_compare(&mut engines, Timestamp(t as u64), &batch, &queries);
        }
    }

    /// Time windows with arbitrary durations and burst patterns.
    #[test]
    fn engines_agree_on_time_windows(
        duration in 1u64..10,
        k in 1usize..8,
        bursts in prop::collection::vec(0usize..15, 1..30),
        w1 in 0.1f64..2.0,
        w2 in -2.0f64..2.0,
    ) {
        let dims = 2;
        let mut engines = build_all(dims, WindowSpec::Time(duration), GridSpec::PerDim(5));
        let q = Query::top_k(ScoreFn::linear(vec![w1, w2]).expect("dims"), k).expect("k");
        let held = register_all(&mut engines, QueryId(0), &q);
        let queries = vec![(QueryId(0), held)];
        let mut state = 0x5eed_u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64).clamp(0.0, 1.0)
        };
        for (t, n) in bursts.iter().enumerate() {
            let mut batch = Vec::with_capacity(n * dims);
            for _ in 0..*n {
                batch.push(rnd());
                batch.push(rnd());
            }
            tick_and_compare(&mut engines, Timestamp(t as u64), &batch, &queries);
        }
    }

    /// Product/quadratic functions keep the agreement too.
    #[test]
    fn engines_agree_on_nonlinear(
        k in 1usize..6,
        a1 in 0.0f64..1.0,
        a2 in 0.0f64..1.0,
        quad in any::<bool>(),
        points in prop::collection::vec((0u32..50, 0u32..50), 1..80),
    ) {
        let dims = 2;
        let mut engines = build_all(dims, WindowSpec::Count(25), GridSpec::PerDim(6));
        let f = if quad {
            ScoreFn::quadratic(vec![a1, a2]).expect("dims")
        } else {
            ScoreFn::product(vec![a1, a2]).expect("dims")
        };
        let q = Query::top_k(f, k).expect("k");
        let held = register_all(&mut engines, QueryId(0), &q);
        let queries = vec![(QueryId(0), held)];
        for (t, chunk) in points.chunks(5).enumerate() {
            let mut batch = Vec::with_capacity(chunk.len() * dims);
            for (a, b) in chunk {
                batch.push(*a as f64 / 49.0);
                batch.push(*b as f64 / 49.0);
            }
            tick_and_compare(&mut engines, Timestamp(t as u64), &batch, &queries);
        }
    }

    /// Count windows with query churn: queries register and terminate
    /// mid-stream while coarse lattice coordinates force score ties.
    #[test]
    fn shared_monitors_match_oracle_under_churn(
        capacity in 5usize..40,
        per_dim in 2usize..8,
        k in 1usize..8,
        levels in 2usize..10,
        weights in prop::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 2..6),
        ticks in prop::collection::vec(
            (prop::collection::vec((0u32..100, 0u32..100), 0..10), 0u8..5),
            1..18,
        ),
    ) {
        let dims = 2;
        let mut fleet = Fleet::new(dims, WindowSpec::Count(capacity), GridSpec::PerDim(per_dim));
        let query = |i: usize| {
            let (w1, w2) = weights[i % weights.len()];
            Query::top_k(ScoreFn::linear(vec![w1, w2]).expect("dims"), k).expect("k")
        };
        fleet.register(&query(0));
        for (t, (batch_spec, churn)) in ticks.iter().enumerate() {
            // Churn before the cycle: 3 = register another query,
            // 4 = terminate the oldest (keeping at least one live).
            match churn {
                3 => fleet.register(&query(fleet.next_query as usize)),
                4 if fleet.live.len() > 1 => fleet.remove_oldest(),
                _ => {}
            }
            let mut batch = Vec::with_capacity(batch_spec.len() * dims);
            for (a, b) in batch_spec {
                batch.push((*a as f64 % levels as f64) / (levels - 1).max(1) as f64);
                batch.push((*b as f64 % levels as f64) / (levels - 1).max(1) as f64);
            }
            fleet.tick_and_compare(Timestamp(t as u64), &batch);
        }
    }

    /// Capacity-hinted time windows with bursty arrival rates (the window
    /// population fluctuates, including whole-window expiry).
    #[test]
    fn shared_monitors_match_oracle_on_time_windows(
        duration in 1u64..8,
        k in 1usize..6,
        w1 in -2.0f64..2.0,
        w2 in 0.1f64..2.0,
        bursts in prop::collection::vec(0usize..12, 1..25),
    ) {
        let dims = 2;
        let mut fleet = Fleet::new(
            dims,
            WindowSpec::TimeSized { duration, capacity: 128 },
            GridSpec::PerDim(5),
        );
        fleet.register(
            &Query::top_k(ScoreFn::linear(vec![w1, w2]).expect("dims"), k).expect("k"),
        );
        let mut state = 0xcafe_u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64).clamp(0.0, 1.0)
        };
        for (t, n) in bursts.iter().enumerate() {
            let mut batch = Vec::with_capacity(n * dims);
            for _ in 0..*n {
                batch.push(rnd());
                batch.push(rnd());
            }
            fleet.tick_and_compare(Timestamp(t as u64), &batch);
        }
    }

    /// Heavy query churn: every tick may terminate queries *and* register
    /// new ones, so the engines' dense registries recycle slots
    /// constantly. A recycled slot inherits the freed index that dead
    /// influence-list entries carried — if termination ever left a stale
    /// entry behind, the new query would receive another query's events
    /// (or a swept-too-late cell would panic the registry). Divergent
    /// weight vectors per generation make any aliasing show up as a wrong
    /// result immediately.
    #[test]
    fn dense_slot_recycling_never_aliases(
        capacity in 8usize..48,
        per_dim in 2usize..8,
        k in 1usize..6,
        churn_ops in prop::collection::vec(
            // Per tick: (how many to remove 0..=2, how many to add 0..=2,
            // arrival batch spec).
            (0u8..3, 0u8..3, prop::collection::vec((0u32..64, 0u32..64), 0..8)),
            4..20,
        ),
    ) {
        let dims = 2;
        let mut fleet = Fleet::new(dims, WindowSpec::Count(capacity), GridSpec::PerDim(per_dim));
        // Weights vary with the registration counter, so a query that
        // reuses a dead query's slot ranks tuples differently than its
        // predecessor did.
        let query = |gen: u64| {
            let w1 = ((gen * 7 + 1) % 9) as f64 - 4.0;
            let w2 = ((gen * 5 + 3) % 9) as f64 - 4.0;
            Query::top_k(
                ScoreFn::linear(vec![w1, w2.max(0.5)]).expect("dims"),
                k,
            )
            .expect("k")
        };
        fleet.register(&query(0));
        fleet.register(&query(1));
        for (t, (removals, additions, batch_spec)) in churn_ops.iter().enumerate() {
            for _ in 0..*removals {
                if fleet.live.len() > 1 {
                    fleet.remove_oldest();
                }
            }
            for _ in 0..*additions {
                let gen = fleet.next_query;
                fleet.register(&query(gen));
            }
            let mut batch = Vec::with_capacity(batch_spec.len() * dims);
            for (a, b) in batch_spec {
                batch.push(*a as f64 / 63.0);
                batch.push(*b as f64 / 63.0);
            }
            fleet.tick_and_compare(Timestamp(t as u64), &batch);
        }
    }

    /// Extreme tie pressure: every coordinate drawn from a 2-3 level
    /// lattice, so most tuples tie most others; ordering must still match
    /// the oracle exactly (older tuple wins equal scores).
    #[test]
    fn shared_monitors_match_oracle_under_ties(
        levels in 2usize..4,
        k in 1usize..6,
        capacity in 4usize..20,
        points in prop::collection::vec((0u32..12, 0u32..12), 1..60),
    ) {
        let dims = 2;
        let mut fleet = Fleet::new(dims, WindowSpec::Count(capacity), GridSpec::PerDim(4));
        fleet.register(
            &Query::top_k(ScoreFn::linear(vec![1.0, 1.0]).expect("dims"), k).expect("k"),
        );
        // A second query with opposed weights doubles the tie surfaces.
        fleet.register(
            &Query::top_k(ScoreFn::linear(vec![1.0, -1.0]).expect("dims"), k).expect("k"),
        );
        for (t, chunk) in points.chunks(4).enumerate() {
            let mut batch = Vec::with_capacity(chunk.len() * dims);
            for (a, b) in chunk {
                batch.push((*a as usize % levels) as f64 / (levels - 1) as f64);
                batch.push((*b as usize % levels) as f64 / (levels - 1) as f64);
            }
            fleet.tick_and_compare(Timestamp(t as u64), &batch);
        }
    }
}
