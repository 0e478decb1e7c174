//! Differential suite for the shared-ingest sharded monitors: for
//! arbitrary streams, [`TmaMonitor`] and [`SmaMonitor`] at
//! S ∈ {1, 3} must report exactly the brute-force oracle's results on
//! every cycle — under query churn (register/remove mid-stream),
//! time-based windows, and duplicate-score ties.

use proptest::prelude::*;
use topk_monitor::engines::GridSpec;
use topk_monitor::{
    OracleMonitor, Query, QueryId, ScoreFn, SmaMonitor, Timestamp, TmaMonitor, WindowSpec,
};

/// One harness instance: the four sharded monitors plus the oracle, kept
/// in lockstep through registration, removal and ticks.
struct Fleet {
    tma: Vec<TmaMonitor>,
    sma: Vec<SmaMonitor>,
    oracle: OracleMonitor,
    live: Vec<QueryId>,
    next_query: u64,
}

const SHARD_COUNTS: [usize; 2] = [1, 3];

impl Fleet {
    fn new(dims: usize, window: WindowSpec, grid: GridSpec) -> Fleet {
        Fleet {
            tma: SHARD_COUNTS
                .iter()
                .map(|s| TmaMonitor::with_shards(dims, window, grid, *s).expect("config"))
                .collect(),
            sma: SHARD_COUNTS
                .iter()
                .map(|s| SmaMonitor::with_shards(dims, window, grid, *s).expect("config"))
                .collect(),
            oracle: OracleMonitor::new(dims, window).expect("config"),
            live: Vec::new(),
            next_query: 0,
        }
    }

    fn register(&mut self, q: &Query) {
        let id = QueryId(self.next_query);
        self.next_query += 1;
        for m in &mut self.tma {
            m.register_query(id, q.clone()).expect("register");
        }
        for m in &mut self.sma {
            m.register_query(id, q.clone()).expect("register");
        }
        self.oracle.register_query(id, q.clone()).expect("register");
        self.live.push(id);
    }

    fn remove_oldest(&mut self) {
        if self.live.is_empty() {
            return;
        }
        let id = self.live.remove(0);
        for m in &mut self.tma {
            m.remove_query(id).expect("remove");
        }
        for m in &mut self.sma {
            m.remove_query(id).expect("remove");
        }
        self.oracle.remove_query(id).expect("remove");
    }

    fn tick_and_compare(&mut self, now: Timestamp, batch: &[f64]) -> Result<(), TestCaseError> {
        for m in &mut self.tma {
            m.tick(now, batch).expect("tick");
        }
        for m in &mut self.sma {
            m.tick(now, batch).expect("tick");
        }
        self.oracle.tick(now, batch).expect("tick");
        for id in &self.live {
            let want = self.oracle.result(*id).expect("oracle result");
            for (m, s) in self.tma.iter().zip(SHARD_COUNTS) {
                prop_assert_eq!(
                    &m.result(*id).expect("result"),
                    &want,
                    "TMA S={} diverged on {} at {}",
                    s,
                    id,
                    now
                );
            }
            for (m, s) in self.sma.iter().zip(SHARD_COUNTS) {
                prop_assert_eq!(
                    &m.result(*id).expect("result"),
                    &want,
                    "SMA S={} diverged on {} at {}",
                    s,
                    id,
                    now
                );
            }
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

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
            fleet.tick_and_compare(Timestamp(t as u64), &batch)?;
        }
    }

    /// Time windows with bursty arrival rates (the window population
    /// fluctuates, including whole-window expiry).
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
            fleet.tick_and_compare(Timestamp(t as u64), &batch)?;
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
            fleet.tick_and_compare(Timestamp(t as u64), &batch)?;
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
            fleet.tick_and_compare(Timestamp(t as u64), &batch)?;
        }
    }
}
