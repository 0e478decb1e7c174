//! Property-based end-to-end test: for *arbitrary* streams, window sizes,
//! ks and monotone linear functions (any weight signs), TMA, SMA and TSL
//! report exactly the oracle's results on every cycle.

mod common;

use common::{build_all, register_all, tick_and_compare};
use proptest::prelude::*;
use topk_monitor::engines::GridSpec;
use topk_monitor::{Query, QueryId, ScoreFn, Timestamp, WindowSpec};

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
}
