//! Shared helpers for the integration tests.
//!
//! Each test binary compiles this module independently, so helpers used
//! by one suite look dead to another.
#![allow(dead_code)]

use std::collections::BTreeMap;

use topk_monitor::engines::{build_engine, ContinuousTopK, EngineKind, GridSpec};
use topk_monitor::{
    DataDist, KmaxPolicy, PointGen, Query, QueryId, ResultDelta, Scored, Timestamp, TkmError,
    TupleId, UpdateOp, UpdateStreamTma, WindowSpec,
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
    build_kinds(&KINDS, dims, window, grid)
}

/// Builds one engine per listed kind (the oracle last, for
/// [`tick_and_compare`]), change reporting on.
pub fn build_kinds(
    kinds: &[EngineKind],
    dims: usize,
    window: WindowSpec,
    grid: GridSpec,
) -> Vec<Box<dyn ContinuousTopK>> {
    kinds
        .iter()
        .map(|k| {
            let mut e =
                build_engine(*k, dims, window, grid, KmaxPolicy::Tuned).expect("engine builds");
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

/// An update-stream monitor next to the tests' own `id → coords` record of
/// the live tuples. The monitor keeps no second store to read back, so
/// its results *and* the grid's cells are held to this model.
pub struct TrackedStream {
    pub m: UpdateStreamTma,
    pub live: BTreeMap<TupleId, Vec<f64>>,
}

impl TrackedStream {
    pub fn new(dims: usize, grid: GridSpec) -> TrackedStream {
        TrackedStream {
            m: UpdateStreamTma::new(dims, grid).expect("config"),
            live: BTreeMap::new(),
        }
    }

    pub fn insert(&mut self, coords: &[f64]) -> TupleId {
        let id = self.m.insert(coords).expect("insert");
        assert!(self.live.insert(id, coords.to_vec()).is_none(), "{id:?}");
        id
    }

    pub fn delete(&mut self, id: TupleId) {
        self.m.delete(id).expect("delete");
        self.live.remove(&id).expect("the model holds every victim");
    }

    /// Applies `ops` as one cycle to monitor and model alike.
    pub fn apply(&mut self, ops: &[UpdateOp]) -> Vec<TupleId> {
        let ids = self.m.apply(ops).expect("apply");
        let mut assigned = ids.iter();
        for op in ops {
            match op {
                UpdateOp::Insert(coords) => {
                    let id = *assigned.next().expect("one id per insert");
                    assert!(self.live.insert(id, coords.clone()).is_none(), "{id:?}");
                }
                UpdateOp::Delete(id) => {
                    self.live.remove(id).expect("the model holds every victim");
                }
            }
        }
        ids
    }

    /// The top-k of `q` by scoring every live tuple of the model.
    pub fn brute(&self, q: &Query) -> Vec<Scored> {
        let mut all: Vec<Scored> = self
            .live
            .iter()
            .filter(|(_, c)| q.constraint.as_ref().is_none_or(|r| r.contains(c)))
            .map(|(id, c)| Scored::new(q.f.score(c), *id))
            .collect();
        all.sort_by(|a, b| b.cmp(a));
        all.truncate(q.k);
        all
    }

    /// Every live tuple is in exactly its covering cell with its
    /// coordinates aligned, nothing else is indexed, and deleting a dead
    /// id is `UnknownTuple`.
    pub fn assert_grid_holds(&mut self) {
        let grid = self.m.grid();
        for (id, coords) in &self.live {
            let cell = grid.locate(coords);
            assert_eq!(grid.cell_of(*id), Some(cell), "{id:?}");
            let stored = grid.points(cell).iter();
            let copies = stored.filter(|(pid, pc)| pid == id && pc == coords);
            assert_eq!(copies.count(), 1, "tuple {id:?} in its cell");
        }
        let indexed: usize = grid.cells().map(|(_, points)| points.len()).sum();
        assert_eq!(indexed, self.live.len(), "grid indexes a dead tuple");
        let next = self.live.keys().next_back().map_or(0, |id| id.0 + 1);
        let dead = (0..=next)
            .map(TupleId)
            .filter(|id| !self.live.contains_key(id));
        for id in dead {
            assert_eq!(self.m.delete(id), Err(TkmError::UnknownTuple(id)));
        }
    }
}
