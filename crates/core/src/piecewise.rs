//! Piecewise-monotone (non-monotone) preference functions — the paper's
//! stated future work (§9):
//!
//! > "An interesting direction for future work concerns processing queries
//! > with non-monotone preference functions. […] a function with finite and
//! > analytically computable local maxima could be evaluated with a proper
//! > partitioning of the space into sub-domains where it is monotone."
//!
//! This module implements exactly that partitioning strategy: a
//! [`PiecewiseQuery`] supplies a finite set of *(region, monotone piece)*
//! pairs that tile the monitored space; each piece runs as an ordinary
//! constrained top-k sub-query (§7) on an inner engine, and the reported
//! result is the best-k merge across pieces (deduplicated — pieces of a
//! true partition agree on shared boundaries).
//!
//! The canonical example is nearest-neighbour monitoring: the preference
//! `f(x) = −Σ (xᵢ − cᵢ)²` peaks at an interior point `c`, but is monotone
//! per-dimension inside each of the `2^d` orthants around `c`.
//! [`PiecewiseQuery::nearest_neighbor`] builds that partition
//! automatically, turning either TMA or SMA into an exact continuous k-NN
//! monitor over the sliding window.
//!
//! Correctness relies on the computation module using **clipped** cell
//! bounds (`Grid::clip_cell`) for constrained traversals: a piece's
//! declared monotonicity holds only inside its region, so upper bounds
//! must be evaluated on `cell ∩ region`.

use std::sync::Arc;

use crate::engine::ContinuousTopK;
use crate::query::Query;
use tkm_common::{
    same_dims, FxHashMap, HeapBytes, Monotonicity, QueryId, Rect, Result, ScoreFn, Scored,
    ScoringFunction, Timestamp, TkmError, MAX_DIMS,
};

/// A non-monotone preference function given as a partition of the
/// workspace into regions with per-region monotone pieces.
#[derive(Clone, Debug)]
pub struct PiecewiseQuery {
    pieces: Vec<(Rect, ScoreFn)>,
    k: usize,
}

impl PiecewiseQuery {
    /// Builds a piecewise query from explicit *(region, piece)* pairs.
    ///
    /// Requirements (the caller's responsibility, as the paper assumes the
    /// partition is supplied analytically): the regions jointly cover the
    /// monitored sub-space, every piece is monotone *inside its region*,
    /// and overlapping boundaries agree on the score.
    pub fn new(pieces: Vec<(Rect, ScoreFn)>, k: usize) -> Result<PiecewiseQuery> {
        if pieces.is_empty() {
            return Err(TkmError::InvalidParameter(
                "PiecewiseQuery: at least one piece required".into(),
            ));
        }
        if k == 0 {
            return Err(TkmError::InvalidParameter(
                "PiecewiseQuery: k must be positive".into(),
            ));
        }
        let dims = pieces[0].1.dims();
        for (rect, f) in &pieces {
            same_dims(dims, f.dims())?;
            same_dims(dims, rect.dims())?;
        }
        Ok(PiecewiseQuery { pieces, k })
    }

    /// Continuous k-nearest-neighbour query: rank tuples by
    /// `f(x) = −Σ (xᵢ − cᵢ)²` (closest to `center` first), partitioned
    /// into the `2^d` orthants around `center` where `f` is monotone.
    ///
    /// ```
    /// use tkm_common::{QueryId, Timestamp};
    /// use tkm_core::piecewise::{PiecewiseMonitor, PiecewiseQuery};
    /// use tkm_core::{GridSpec, SmaMonitor};
    /// use tkm_window::WindowSpec;
    ///
    /// let engine = SmaMonitor::new(2, WindowSpec::Count(100), GridSpec::default()).unwrap();
    /// let mut knn = PiecewiseMonitor::new(engine);
    /// knn.register_query(
    ///     QueryId(0),
    ///     &PiecewiseQuery::nearest_neighbor(&[0.5, 0.5], 2).unwrap(),
    /// )
    /// .unwrap();
    /// knn.tick(Timestamp(0), &[0.1, 0.1, 0.45, 0.55, 0.9, 0.2]).unwrap();
    /// let nearest = knn.result(QueryId(0)).unwrap();
    /// assert_eq!(nearest[0].id.0, 1, "(0.45, 0.55) is closest to the centre");
    /// ```
    pub fn nearest_neighbor(center: &[f64], k: usize) -> Result<PiecewiseQuery> {
        let dims = center.len();
        if dims == 0 || dims > MAX_DIMS {
            return Err(TkmError::InvalidParameter(format!(
                "nearest_neighbor: dimensionality {dims} outside [1, {MAX_DIMS}]"
            )));
        }
        if let Some(bad) = center.iter().find(|c| !(0.0..=1.0).contains(*c)) {
            return Err(TkmError::InvalidParameter(format!(
                "nearest_neighbor: center coordinate {bad} outside the unit workspace"
            )));
        }
        let mut pieces = Vec::with_capacity(1 << dims);
        for orthant in 0u32..(1 << dims) {
            let mut lo = vec![0.0; dims];
            let mut hi = vec![1.0; dims];
            let mut mono = Vec::with_capacity(dims);
            for dim in 0..dims {
                if orthant & (1 << dim) != 0 {
                    // Above the centre: score falls as xᵢ grows.
                    lo[dim] = center[dim];
                    mono.push(Monotonicity::Decreasing);
                } else {
                    hi[dim] = center[dim];
                    mono.push(Monotonicity::Increasing);
                }
            }
            let f = ScoreFn::custom(Arc::new(NegSquaredDistance {
                center: center.to_vec().into_boxed_slice(),
                mono: mono.into_boxed_slice(),
            }))?;
            pieces.push((Rect::new(lo, hi)?, f));
        }
        PiecewiseQuery::new(pieces, k)
    }

    /// Result size `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The pieces.
    #[inline]
    pub fn pieces(&self) -> &[(Rect, ScoreFn)] {
        &self.pieces
    }

    /// Dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.pieces[0].1.dims()
    }
}

/// `f(x) = −Σ (xᵢ − cᵢ)²` with a per-orthant monotonicity declaration.
#[derive(Debug)]
struct NegSquaredDistance {
    center: Box<[f64]>,
    mono: Box<[Monotonicity]>,
}

impl ScoringFunction for NegSquaredDistance {
    fn dims(&self) -> usize {
        self.center.len()
    }

    fn score(&self, coords: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (x, c) in coords.iter().zip(&self.center) {
            let d = x - c;
            acc -= d * d;
        }
        acc
    }

    fn monotonicity(&self, dim: usize) -> Monotonicity {
        self.mono[dim]
    }
}

struct Registered {
    k: usize,
    sub_ids: Vec<QueryId>,
}

/// Adapter that runs piecewise-monotone queries on a monotone top-k engine
/// by fanning each query out into constrained sub-queries. The engine must
/// accept constrained queries: TMA, SMA and the oracle do, while
/// [`crate::TslMonitor`] refuses them, so every registration on it fails
/// with [`TkmError::Unsupported`] (rolled back, leaving nothing behind).
pub struct PiecewiseMonitor<E: ContinuousTopK> {
    engine: E,
    queries: FxHashMap<QueryId, Registered>,
    next_internal: u64,
}

impl<E: ContinuousTopK> PiecewiseMonitor<E> {
    /// Wraps an engine. The wrapper owns the engine and its query-id space;
    /// register queries only through the wrapper.
    pub fn new(engine: E) -> PiecewiseMonitor<E> {
        PiecewiseMonitor {
            engine,
            queries: FxHashMap::default(),
            next_internal: 0,
        }
    }

    /// The wrapped engine (read access).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Registers a piecewise query under a caller-chosen external id.
    pub fn register_query(&mut self, id: QueryId, q: &PiecewiseQuery) -> Result<()> {
        if self.queries.contains_key(&id) {
            return Err(TkmError::DuplicateQuery(id));
        }
        same_dims(self.engine.dims(), q.dims())?;
        let mut sub_ids = Vec::with_capacity(q.pieces.len());
        for (rect, f) in &q.pieces {
            let sub = QueryId(self.next_internal);
            self.next_internal += 1;
            let sub_query = Query::constrained(f.clone(), q.k, rect.clone())?;
            if let Err(e) = self.engine.register_query(sub, sub_query) {
                // Roll back the pieces registered so far.
                for done in &sub_ids {
                    let _ = self.engine.remove_query(*done);
                }
                return Err(e);
            }
            sub_ids.push(sub);
        }
        self.queries.insert(id, Registered { k: q.k, sub_ids });
        Ok(())
    }

    /// Terminates a piecewise query (all its sub-queries).
    pub fn remove_query(&mut self, id: QueryId) -> Result<()> {
        let reg = self.queries.remove(&id).ok_or(TkmError::UnknownQuery(id))?;
        for sub in reg.sub_ids {
            self.engine.remove_query(sub)?;
        }
        Ok(())
    }

    /// Executes one processing cycle on the wrapped engine.
    pub fn tick(&mut self, now: Timestamp, arrivals: &[f64]) -> Result<()> {
        self.engine.tick(now, arrivals)
    }

    /// The current top-k of a piecewise query: the best-k merge of its
    /// pieces, deduplicated by tuple id (shared region boundaries report
    /// the same tuple from several pieces with the same score).
    pub fn result(&self, id: QueryId) -> Result<Vec<Scored>> {
        let reg = self.queries.get(&id).ok_or(TkmError::UnknownQuery(id))?;
        let mut merged: Vec<Scored> = Vec::with_capacity(reg.sub_ids.len() * reg.k);
        for sub in &reg.sub_ids {
            merged.extend(self.engine.result(*sub)?);
        }
        merged.sort_by(|a, b| b.cmp(a));
        merged.dedup_by_key(|s| s.id);
        merged.truncate(reg.k);
        Ok(merged)
    }

    /// Deep size estimate in bytes: the wrapped engine's figure plus the
    /// heap of the query fan-out table.
    pub fn space_bytes(&self) -> usize {
        self.engine.space_bytes()
            + self.queries.heap_bytes()
            + self
                .queries
                .values()
                .map(|r| r.sub_ids.heap_bytes())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::GridSpec;
    use crate::monitor::{SmaMonitor, TmaMonitor};
    use crate::testutil::lcg_stream;
    use crate::tsl::{KmaxPolicy, TslMonitor};
    use tkm_common::TupleId;
    use tkm_window::WindowSpec;

    fn brute_knn(grid: &tkm_grid::Grid, center: &[f64], k: usize) -> Vec<Scored> {
        let mut all: Vec<Scored> = grid
            .cells()
            .flat_map(|(_, points)| points.iter())
            .map(|(id, c)| {
                let d2: f64 = c.iter().zip(center).map(|(x, c)| (x - c) * (x - c)).sum();
                Scored::new(-d2, id)
            })
            .collect();
        all.sort_by(|a, b| b.cmp(a));
        all.truncate(k);
        all
    }

    #[test]
    fn validation() {
        assert!(PiecewiseQuery::new(vec![], 3).is_err());
        assert!(PiecewiseQuery::nearest_neighbor(&[0.5, 0.5], 0).is_err());
        assert!(PiecewiseQuery::nearest_neighbor(&[1.5, 0.5], 3).is_err());
        assert!(PiecewiseQuery::nearest_neighbor(&[], 3).is_err());
        let q = PiecewiseQuery::nearest_neighbor(&[0.3, 0.7], 3).unwrap();
        assert_eq!(q.pieces().len(), 4, "2^d orthants");
        assert_eq!(q.dims(), 2);
    }

    #[test]
    fn knn_on_sma_matches_brute_force() {
        let engine =
            SmaMonitor::new(2, WindowSpec::Count(60), GridSpec::PerDim(7)).expect("config");
        let mut m = PiecewiseMonitor::new(engine);
        let q = PiecewiseQuery::nearest_neighbor(&[0.4, 0.6], 5).unwrap();
        m.register_query(QueryId(0), &q).unwrap();
        for tick in 0..50u64 {
            m.tick(Timestamp(tick), &lcg_stream(tick + 1, 9, 2))
                .unwrap();
            assert_eq!(
                m.result(QueryId(0)).unwrap(),
                brute_knn(m.engine().grid(), &[0.4, 0.6], 5),
                "tick {tick}"
            );
        }
    }

    #[test]
    fn knn_on_tma_matches_brute_force() {
        let engine =
            TmaMonitor::new(3, WindowSpec::Count(80), GridSpec::PerDim(4)).expect("config");
        let mut m = PiecewiseMonitor::new(engine);
        let center = [0.5, 0.25, 0.75];
        let q = PiecewiseQuery::nearest_neighbor(&center, 4).unwrap();
        m.register_query(QueryId(0), &q).unwrap();
        for tick in 0..40u64 {
            m.tick(Timestamp(tick), &lcg_stream(tick + 5, 12, 3))
                .unwrap();
            assert_eq!(
                m.result(QueryId(0)).unwrap(),
                brute_knn(m.engine().grid(), &center, 4),
                "tick {tick}"
            );
        }
    }

    #[test]
    fn center_on_boundary_still_exact() {
        // Degenerate orthants (center on the workspace edge).
        let engine =
            SmaMonitor::new(2, WindowSpec::Count(30), GridSpec::PerDim(5)).expect("config");
        let mut m = PiecewiseMonitor::new(engine);
        let q = PiecewiseQuery::nearest_neighbor(&[0.0, 1.0], 3).unwrap();
        m.register_query(QueryId(0), &q).unwrap();
        for tick in 0..25u64 {
            m.tick(Timestamp(tick), &lcg_stream(tick + 9, 6, 2))
                .unwrap();
            assert_eq!(
                m.result(QueryId(0)).unwrap(),
                brute_knn(m.engine().grid(), &[0.0, 1.0], 3)
            );
        }
    }

    #[test]
    fn tuple_on_piece_boundary_not_duplicated() {
        let engine =
            SmaMonitor::new(2, WindowSpec::Count(10), GridSpec::PerDim(4)).expect("config");
        let mut m = PiecewiseMonitor::new(engine);
        let q = PiecewiseQuery::nearest_neighbor(&[0.5, 0.5], 4).unwrap();
        m.register_query(QueryId(0), &q).unwrap();
        // A tuple exactly at the centre lies in all four orthants.
        m.tick(Timestamp(0), &[0.5, 0.5, 0.2, 0.2, 0.9, 0.1])
            .unwrap();
        let res = m.result(QueryId(0)).unwrap();
        assert_eq!(res.len(), 3);
        assert_eq!(res[0].id, TupleId(0), "the centre tuple is nearest");
        assert_eq!(res[0].score.get(), 0.0);
        let ids: std::collections::HashSet<_> = res.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), 3, "no duplicates in the merge");
    }

    #[test]
    fn lifecycle_and_errors() {
        let engine =
            SmaMonitor::new(2, WindowSpec::Count(10), GridSpec::PerDim(4)).expect("config");
        let mut m = PiecewiseMonitor::new(engine);
        let q = PiecewiseQuery::nearest_neighbor(&[0.5, 0.5], 2).unwrap();
        m.register_query(QueryId(1), &q).unwrap();
        assert!(matches!(
            m.register_query(QueryId(1), &q),
            Err(TkmError::DuplicateQuery(_))
        ));
        // Dimensionality mismatch rolls back cleanly.
        let q3 = PiecewiseQuery::nearest_neighbor(&[0.5, 0.5, 0.5], 2).unwrap();
        assert!(m.register_query(QueryId(2), &q3).is_err());
        m.remove_query(QueryId(1)).unwrap();
        assert!(m.remove_query(QueryId(1)).is_err());
        assert!(m.result(QueryId(1)).is_err());
        // A 3-d region under a 2-d function names the 3.
        let f = ScoreFn::linear(vec![1.0, 1.0]).unwrap();
        let cube = Rect::new(vec![0.0; 3], vec![1.0; 3]).unwrap();
        assert_eq!(
            PiecewiseQuery::new(vec![(cube, f)], 2).unwrap_err(),
            TkmError::DimensionMismatch {
                expected: 2,
                got: 3
            }
        );
        // TSL takes no constrained query, so no piecewise one either.
        let tsl = TslMonitor::new(2, WindowSpec::Count(10), KmaxPolicy::Tuned).unwrap();
        let mut m = PiecewiseMonitor::new(tsl);
        assert!(matches!(
            m.register_query(QueryId(1), &q),
            Err(TkmError::Unsupported(_))
        ));
        assert!(m.result(QueryId(1)).is_err());
    }
}
