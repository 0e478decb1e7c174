//! Shared helpers for the integration tests.
//!
//! Each test binary compiles this module independently, so helpers used
//! by one suite look dead to another.
#![allow(dead_code)]

use topk_monitor::engines::{build_engine, ContinuousTopK, EngineKind, GridSpec};
use topk_monitor::{
    DataDist, KmaxPolicy, PointGen, Query, QueryId, ResultDelta, Timestamp, WindowSpec,
};

/// The engines under test (oracle last, as the reference).
pub const KINDS: [EngineKind; 4] = [
    EngineKind::Tma,
    EngineKind::Sma,
    EngineKind::Tsl,
    EngineKind::Oracle,
];

/// Builds one engine of each kind with a common configuration, change
/// reporting on.
pub fn build_all(dims: usize, window: WindowSpec, grid: GridSpec) -> Vec<Box<dyn ContinuousTopK>> {
    KINDS
        .iter()
        .map(|k| {
            let mut e =
                build_engine(*k, dims, window, grid, KmaxPolicy::Tuned, 1).expect("engine builds");
            e.track_changes();
            e
        })
        .collect()
}

/// Registers the same queries everywhere. Skips engines that reject a
/// query (e.g. TSL with constraints) and returns which engines hold it.
pub fn register_all(
    engines: &mut [Box<dyn ContinuousTopK>],
    id: QueryId,
    query: &Query,
) -> Vec<bool> {
    engines
        .iter_mut()
        .map(|e| e.register_query(id, query.clone()).is_ok())
        .collect()
}

/// Ticks every engine with the same batch and asserts identical results
/// for every registered query, and identical reported changes: the
/// marked-slot sweep of the grid engines and the compare-everything of
/// TSL and the oracle must emit the same deltas in the same order.
pub fn tick_and_compare(
    engines: &mut [Box<dyn ContinuousTopK>],
    now: Timestamp,
    arrivals: &[f64],
    queries: &[(QueryId, Vec<bool>)],
) {
    for e in engines.iter_mut() {
        e.tick(now, arrivals).expect("tick succeeds");
    }
    let oracle_idx = engines.len() - 1;
    let mut changes: Vec<Vec<ResultDelta>> = engines
        .iter_mut()
        .map(|e| {
            let mut out = Vec::new();
            e.drain_changes(&mut out);
            out
        })
        .collect();
    let reference = changes.pop().expect("oracle last");
    for (i, got) in changes.iter().enumerate() {
        // An engine that rejected a query cannot report it.
        let holds = |d: &&ResultDelta| queries.iter().any(|(q, held)| *q == d.query && held[i]);
        let expected: Vec<&ResultDelta> = reference.iter().filter(holds).collect();
        assert_eq!(
            got.iter().collect::<Vec<_>>(),
            expected,
            "{} reported different changes than the oracle at {now}",
            engines[i].name()
        );
    }
    for (qid, held) in queries {
        assert!(held[oracle_idx], "oracle must hold every query");
        let reference = engines[oracle_idx].result(*qid).expect("oracle result");
        for (i, e) in engines.iter().enumerate().take(oracle_idx) {
            if !held[i] {
                continue;
            }
            let got = e.result(*qid).expect("engine result");
            assert_eq!(
                got,
                reference,
                "{} diverged from oracle on {qid} at {now}",
                e.name()
            );
        }
    }
}

/// A deterministic arrival batch generator.
pub struct BatchGen {
    gen: PointGen,
}

impl BatchGen {
    pub fn new(dims: usize, dist: DataDist, seed: u64) -> BatchGen {
        BatchGen {
            gen: PointGen::new(dims, dist, seed).expect("valid dims"),
        }
    }

    pub fn batch(&mut self, n: usize) -> Vec<f64> {
        self.gen.batch(n)
    }

    /// Batch with coordinates snapped to a coarse lattice — forces score
    /// ties through every tie-break path.
    pub fn coarse_batch(&mut self, n: usize, levels: usize) -> Vec<f64> {
        let mut b = self.gen.batch(n);
        for x in &mut b {
            *x = (*x * levels as f64).round() / levels as f64;
        }
        b
    }
}
