//! The replicated sharding baseline of the `scaleout` experiment.
//!
//! [`ParallelMonitor`] shards queries over `S` *full engine replicas*, each
//! re-ingesting every arrival into its own window and grid, so memory and
//! ingest work grow `S`-fold. It exists only to be measured against
//! [`tkm_core::Monitor`]'s shared-ingest sharding (one window + grid, `S`
//! maintenance shards), which is why it lives here and not in the library.

use std::collections::BTreeMap;

use tkm_common::{QueryId, Result, Scored, Timestamp, TkmError};
use tkm_core::{ContinuousTopK, Query};

/// Estimated per-entry overhead of the `assignment` bookkeeping (BTreeMap
/// node amortisation).
const MAP_ENTRY_OVERHEAD: usize = 16;

/// A pool of engine replicas with queries sharded across them (replicated
/// windows and grids — the memory-hungry baseline).
pub struct ParallelMonitor<E> {
    shards: Vec<E>,
    /// Which shard serves each query.
    assignment: BTreeMap<QueryId, usize>,
    /// Queries per shard (for balanced placement).
    load: Vec<usize>,
}

impl<E: ContinuousTopK> ParallelMonitor<E> {
    /// Builds a pool from pre-constructed engine replicas (all must share
    /// the same dimensionality and window configuration).
    pub fn new(shards: Vec<E>) -> Result<ParallelMonitor<E>> {
        let Some(first) = shards.first() else {
            return Err(TkmError::InvalidParameter(
                "ParallelMonitor: at least one shard required".into(),
            ));
        };
        let dims = first.dims();
        if shards.iter().any(|s| s.dims() != dims) {
            return Err(TkmError::InvalidParameter(
                "ParallelMonitor: shards disagree on dimensionality".into(),
            ));
        }
        let load = vec![0; shards.len()];
        Ok(ParallelMonitor {
            shards,
            assignment: BTreeMap::new(),
            load,
        })
    }

    /// Builds a pool of `n` replicas from a constructor closure.
    pub fn with_replicas(
        n: usize,
        mut build: impl FnMut() -> Result<E>,
    ) -> Result<ParallelMonitor<E>> {
        let shards: Result<Vec<E>> = (0..n).map(|_| build()).collect();
        ParallelMonitor::new(shards?)
    }

    /// Registers a query on the least-loaded shard.
    pub fn register_query(&mut self, id: QueryId, query: Query) -> Result<()> {
        if self.assignment.contains_key(&id) {
            return Err(TkmError::DuplicateQuery(id));
        }
        let shard = (0..self.load.len())
            .min_by_key(|&i| self.load[i])
            .unwrap_or(0);
        self.shards[shard].register_query(id, query)?;
        self.assignment.insert(id, shard);
        self.load[shard] += 1;
        Ok(())
    }

    /// The current top-k result of a query, best first.
    pub fn result(&self, id: QueryId) -> Result<Vec<Scored>> {
        let shard = *self.assignment.get(&id).ok_or(TkmError::UnknownQuery(id))?;
        self.shards[shard].result(id)
    }

    /// Executes one processing cycle on every shard in parallel. All
    /// shards consume the same arrival batch, so their windows stay
    /// identical; only their query sets differ.
    pub fn tick(&mut self, now: Timestamp, arrivals: &[f64]) -> Result<()> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .map(|shard| scope.spawn(move || shard.tick(now, arrivals)))
                .collect();
            // Join every replica before reporting the first failure.
            let joined: Vec<Result<()>> = handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(TkmError::Internal("replica thread panicked".into()))
                    })
                })
                .collect();
            joined.into_iter().collect()
        })
    }

    /// Deep size estimate: all shards (memory is replicated; this is the
    /// price of this design) plus the assignment bookkeeping.
    pub fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.shards.iter().map(|s| s.space_bytes()).sum::<usize>()
            + self.assignment.len()
                * (std::mem::size_of::<QueryId>()
                    + std::mem::size_of::<usize>()
                    + MAP_ENTRY_OVERHEAD)
            + std::mem::size_of_val(self.load.as_slice())
    }

    /// Queries per shard, for observability.
    pub fn shard_loads(&self) -> &[usize] {
        &self.load
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkm_common::ScoreFn;
    use tkm_core::{GridSpec, SmaMonitor};
    use tkm_datagen::{DataDist, PointGen};
    use tkm_window::WindowSpec;

    fn build_sma() -> Result<SmaMonitor> {
        SmaMonitor::new(2, WindowSpec::Count(50), GridSpec::PerDim(5))
    }

    fn linear(w: Vec<f64>, k: usize) -> Query {
        Query::top_k(ScoreFn::linear(w).unwrap(), k).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(ParallelMonitor::<SmaMonitor>::new(vec![]).is_err());
        let mixed = vec![
            SmaMonitor::new(2, WindowSpec::Count(10), GridSpec::PerDim(4)).unwrap(),
            SmaMonitor::new(3, WindowSpec::Count(10), GridSpec::PerDim(4)).unwrap(),
        ];
        assert!(ParallelMonitor::new(mixed).is_err());
    }

    #[test]
    fn replicated_matches_unsharded_engine() {
        let mut sharded = ParallelMonitor::with_replicas(3, build_sma).unwrap();
        let mut single = build_sma().unwrap();
        for i in 0..7u64 {
            let q = linear(vec![1.0 + i as f64 * 0.3, 2.0 - i as f64 * 0.2], 3);
            sharded.register_query(QueryId(i), q.clone()).unwrap();
            single.register_query(QueryId(i), q).unwrap();
        }
        // Balanced placement: 7 queries over 3 shards → loads 3/2/2.
        let mut loads = sharded.shard_loads().to_vec();
        loads.sort_unstable();
        assert_eq!(loads, vec![2, 2, 3]);

        let mut stream = PointGen::new(2, DataDist::Ind, 1).unwrap();
        for tick in 0..30u64 {
            let batch = stream.batch(8);
            sharded.tick(Timestamp(tick), &batch).unwrap();
            single.tick(Timestamp(tick), &batch).unwrap();
            for i in 0..7u64 {
                assert_eq!(
                    sharded.result(QueryId(i)).unwrap(),
                    single.result(QueryId(i)).unwrap(),
                    "query {i} diverged at tick {tick}"
                );
            }
        }
    }

    /// The bookkeeping maps count toward space.
    #[test]
    fn space_bytes_includes_assignment_bookkeeping() {
        let mut m = ParallelMonitor::with_replicas(2, || {
            SmaMonitor::new(1, WindowSpec::Count(10), GridSpec::PerDim(4))
        })
        .unwrap();
        let empty = m.space_bytes();
        for i in 0..512u64 {
            m.register_query(QueryId(i), linear(vec![1.0], 1)).unwrap();
        }
        let loaded = m.space_bytes();
        // Per-query state + per-entry assignment overhead must both show.
        assert!(
            loaded >= empty + 512 * (std::mem::size_of::<QueryId>() + std::mem::size_of::<usize>()),
            "space_bytes ignores the assignment map: {empty} -> {loaded}"
        );
    }
}
