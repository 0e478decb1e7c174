//! The oracle: what every query's result must be after the last tick.
//!
//! `OracleMonitor` is fed the same stream with no query registered (its
//! per-tick rescan is `O(N·Q)` and would dwarf the run), and the final
//! results are computed by one brute-force pass over its window with the
//! scoring call the oracle itself uses. A handful of queries are also
//! put through `OracleMonitor::snapshot`, so that pass is tied to the
//! repo's reference, not only to itself.

use tkm_common::Scored;
use tkm_core::{kernel, OracleMonitor, Query};

use crate::shape::{Inputs, Shape};

/// Brute-force top-k of every query over `window`, best first.
fn brute_force(oracle: &OracleMonitor, queries: &[Query]) -> Vec<Vec<Scored>> {
    let mut tops: Vec<Vec<Scored>> = queries
        .iter()
        .map(|q| Vec::with_capacity(q.k + 1))
        .collect();
    for (id, coords) in oracle.window().iter() {
        for (q, top) in queries.iter().zip(&mut tops) {
            let cand = Scored::new(kernel::score_point(&q.f, coords), id);
            if top.len() == q.k && cand < top[q.k - 1] {
                continue;
            }
            let pos = top.partition_point(|e| *e > cand);
            top.insert(pos, cand);
            top.truncate(q.k);
        }
    }
    tops
}

/// Every query's result after every stream, in stream order.
pub fn oracle_finals(shape: &Shape, streams: &[Inputs]) -> Vec<Vec<Scored>> {
    streams
        .iter()
        .flat_map(|inputs| oracle_stream(shape, inputs))
        .collect()
}

/// Every query's result after the whole stream (prefill, warm, measured).
fn oracle_stream(shape: &Shape, inputs: &Inputs) -> Vec<Vec<Scored>> {
    let mut oracle = OracleMonitor::new(shape.dims, shape.window()).expect("workload config");
    for t in inputs
        .prefill
        .iter()
        .chain(&inputs.warm)
        .chain(&inputs.ticks)
    {
        oracle.tick(t.ts, &t.coords).expect("oracle tick");
    }
    let queries: Vec<Query> = inputs.queries.iter().map(|q| q.query()).collect();
    let finals = brute_force(&oracle, &queries);
    let step = (queries.len() / 4).max(1);
    for (q, got) in queries.iter().zip(&finals).step_by(step) {
        let want = oracle.snapshot(q).expect("oracle snapshot");
        assert_eq!(*got, want, "brute-force pass disagrees with OracleMonitor");
    }
    finals
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkm_core::EngineKind;

    #[test]
    fn engines_match_the_oracle_on_a_small_stream() {
        let shape = Shape::by_name("storm").unwrap().quick();
        let streams = Inputs::streams(&shape, 11);
        let want = oracle_finals(&shape, &streams);
        assert_eq!(want.len(), shape.streams * shape.q);
        assert!(want.iter().all(|r| r.len() == shape.k));
        for engine in [EngineKind::Sma, EngineKind::Tma] {
            let got = crate::replay::engine_replay(&shape, &streams, engine);
            assert_eq!(got.failed, 0);
            assert_eq!(got.finals, want);
        }
    }
}
