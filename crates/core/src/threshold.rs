//! Threshold monitoring (paper §7): report every valid tuple whose score
//! exceeds a user-specified threshold.
//!
//! The framework applies with two simplifications relative to top-k: the
//! influence region is *static* (all cells with `maxscore > τ`), so the
//! book-keeping is built once with a plain list walk (no heap — visiting
//! order is irrelevant) and never recomputed; and maintenance merely
//! reports arrivals/expiries of qualifying tuples. The stream side is the
//! shared one: an [`IngestState`] stores the tuples and each cycle's
//! cell-grouped arrival and expiry runs are replayed against the static
//! influence lists.

use crate::ingest::{GridSpec, IngestState};
use crate::kernel;
use crate::maintenance::live_suffix;
use crate::registry::QueryRegistry;
use tkm_common::{FxHashSet, QueryId, Result, ScoreFn, Scored, Timestamp, TkmError, TupleId};
use tkm_grid::{Grid, InfluenceTable, VisitStamps};
use tkm_window::{Timeline, WindowSpec};

#[derive(Debug)]
struct ThresholdQuery {
    f: ScoreFn,
    threshold: f64,
    /// Currently matching tuples.
    matching: FxHashSet<TupleId>,
    /// Tuples that started matching in the last tick.
    added: Vec<Scored>,
    /// Tuples that stopped matching (expired) in the last tick.
    removed: Vec<TupleId>,
}

impl ThresholdQuery {
    /// Streams a block of a cell's coordinate-inline points through the
    /// scoring kernel (no window resolution per tuple); those above the
    /// threshold start matching.
    fn admit(&mut self, dims: usize, ids: &[TupleId], coords: &[f64]) {
        let (threshold, matching, added) = (self.threshold, &mut self.matching, &mut self.added);
        kernel::scan_block(&self.f, dims, ids, coords, None, |id, score| {
            if score > threshold {
                matching.insert(id);
                added.push(Scored::new(score, id));
            }
        });
    }
}

/// Continuous threshold-query monitor.
#[derive(Debug)]
pub struct ThresholdMonitor {
    ingest: IngestState,
    influence: InfluenceTable,
    stamps: VisitStamps,
    queries: QueryRegistry<ThresholdQuery>,
}

impl ThresholdMonitor {
    /// Creates a monitor over `dims`-dimensional tuples.
    pub fn new(dims: usize, window: WindowSpec, grid: GridSpec) -> Result<ThresholdMonitor> {
        let ingest = IngestState::new(dims, window, grid)?;
        let cells = ingest.grid().num_cells();
        Ok(ThresholdMonitor {
            ingest,
            influence: InfluenceTable::new(cells),
            stamps: VisitStamps::new(cells),
            queries: QueryRegistry::new(),
        })
    }

    /// Dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.ingest.dims()
    }

    /// The window's resident id range, arrival times and expiry rule.
    #[inline]
    pub fn timeline(&self) -> &Timeline {
        self.ingest.timeline()
    }

    /// Coordinates of a resident tuple, read from its grid cell (`None`
    /// for an id that has expired or was never issued).
    #[inline]
    pub fn coords(&self, id: TupleId) -> Option<&[f64]> {
        self.ingest.coords(id)
    }

    /// The grid that stores the window's tuples (read access).
    #[inline]
    pub fn grid(&self) -> &Grid {
        self.ingest.grid()
    }

    /// Registers a threshold query: monitor all tuples with
    /// `score > threshold`. The initial matching set is computed by walking
    /// the cells with `maxscore > threshold` from the preferred corner.
    pub fn register_query(&mut self, id: QueryId, f: ScoreFn, threshold: f64) -> Result<()> {
        if f.dims() != self.dims() {
            return Err(TkmError::DimensionMismatch {
                expected: self.dims(),
                got: f.dims(),
            });
        }
        if !threshold.is_finite() {
            return Err(TkmError::InvalidParameter(
                "register_query: threshold must be finite".into(),
            ));
        }
        let slot = self.queries.insert(
            id,
            ThresholdQuery {
                f,
                threshold,
                matching: FxHashSet::default(),
                added: Vec::new(),
                removed: Vec::new(),
            },
        )?;
        let Self {
            ingest,
            influence,
            stamps,
            queries,
        } = self;
        let grid = ingest.grid();
        let (_, st) = queries.slot_mut(slot);
        // List walk from the best corner over cells with maxscore > τ
        // (paper: "the search can be performed with a list instead of a
        // heap, since the visiting order is not important").
        stamps.begin();
        let start = grid.best_corner(&st.f);
        stamps.mark(start);
        let mut list = vec![start];
        while let Some(cell) = list.pop() {
            if grid.maxscore(cell, &st.f) <= st.threshold {
                continue;
            }
            for (ids, coords) in grid.points(cell).chunks() {
                st.admit(grid.dims(), ids, coords);
            }
            influence.insert(cell, slot);
            for dim in 0..grid.dims() {
                if let Some(n) = grid.step_worse(cell, dim, &st.f) {
                    if stamps.mark(n) {
                        list.push(n);
                    }
                }
            }
        }
        st.added.sort_by(|a, b| b.cmp(a));
        Ok(())
    }

    /// Terminates a query, clearing its influence-list entries.
    pub fn remove_query(&mut self, id: QueryId) -> Result<()> {
        let (slot, st) = self.queries.remove(id)?;
        // The influence region is static: sweep it with the same walk used
        // to build it.
        let grid = self.ingest.grid();
        self.stamps.begin();
        let start = grid.best_corner(&st.f);
        self.stamps.mark(start);
        let mut list = vec![start];
        while let Some(cell) = list.pop() {
            if !self.influence.remove(cell, slot) {
                continue;
            }
            for dim in 0..grid.dims() {
                if let Some(n) = grid.step_worse(cell, dim, &st.f) {
                    if self.stamps.mark(n) {
                        list.push(n);
                    }
                }
            }
        }
        Ok(())
    }

    /// Executes one processing cycle; afterwards, per-query deltas are
    /// available via [`ThresholdMonitor::added`] / [`ThresholdMonitor::removed`].
    /// A rejected batch (see [`IngestState::ingest`]) changes nothing. A
    /// tuple that arrives and expires within the cycle (a burst larger than
    /// a count window) never matched at a cycle boundary and is reported in
    /// neither delta.
    pub fn tick(&mut self, now: Timestamp, arrivals: &[f64]) -> Result<()> {
        let Self {
            ingest,
            influence,
            queries,
            ..
        } = self;
        ingest.ingest(now, arrivals)?;
        for q in queries.states_mut() {
            q.added.clear();
            q.removed.clear();
        }
        let dims = ingest.dims();
        for (cell, ids) in ingest.arrival_runs() {
            let slots = influence.as_slice(cell);
            if slots.is_empty() {
                continue;
            }
            let Some(ids) = live_suffix(ingest.timeline(), ids) else {
                continue;
            };
            for (ids, coords) in ingest.arrival_run_points(cell, ids.len()).chunks() {
                for &slot in slots {
                    queries.slot_mut(slot).1.admit(dims, ids, coords);
                }
            }
        }
        for (cell, ids) in ingest.expiry_runs() {
            for &slot in influence.as_slice(cell) {
                let (_, st) = queries.slot_mut(slot);
                for id in ids {
                    if st.matching.remove(id) {
                        st.removed.push(*id);
                    }
                }
            }
        }
        // The runs are grouped by cell; the deltas are reported in arrival
        // order.
        for q in queries.states_mut() {
            q.added.sort_unstable_by_key(|s| s.id);
            q.removed.sort_unstable();
        }
        Ok(())
    }

    /// Tuples that started matching `id`'s predicate in the last tick, in
    /// arrival order.
    pub fn added(&self, id: QueryId) -> Result<&[Scored]> {
        self.queries
            .get(id)
            .map(|q| q.added.as_slice())
            .ok_or(TkmError::UnknownQuery(id))
    }

    /// Tuples that stopped matching (expired) in the last tick, in arrival
    /// order.
    pub fn removed(&self, id: QueryId) -> Result<&[TupleId]> {
        self.queries
            .get(id)
            .map(|q| q.removed.as_slice())
            .ok_or(TkmError::UnknownQuery(id))
    }

    /// The full current matching set (unordered).
    pub fn matching(&self, id: QueryId) -> Result<&FxHashSet<TupleId>> {
        self.queries
            .get(id)
            .map(|q| &q.matching)
            .ok_or(TkmError::UnknownQuery(id))
    }

    /// Deep size estimate in bytes.
    pub fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.ingest.space_bytes()
            + self.influence.space_bytes()
            + self.stamps.space_bytes()
            + self.queries.space_bytes()
            + self
                .queries
                .iter()
                .map(|(_, q)| {
                    std::mem::size_of::<ThresholdQuery>()
                        + q.matching.capacity() * (std::mem::size_of::<TupleId>() + 8)
                        + q.added.capacity() * std::mem::size_of::<Scored>()
                        + q.removed.capacity() * std::mem::size_of::<TupleId>()
                })
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::lcg_stream;

    fn brute_matching(grid: &Grid, f: &ScoreFn, tau: f64) -> Vec<TupleId> {
        let mut out: Vec<TupleId> = grid
            .cells()
            .flat_map(|(_, points)| points.iter())
            .filter(|(_, c)| f.score(c) > tau)
            .map(|(id, _)| id)
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn matches_brute_force_over_stream() {
        let mut m = ThresholdMonitor::new(2, WindowSpec::Count(40), GridSpec::PerDim(6)).unwrap();
        let f = ScoreFn::linear(vec![1.0, 1.0]).unwrap();
        // Pre-populate, then register (exercises the initial walk).
        m.tick(Timestamp(0), &lcg_stream(1, 20, 2)).unwrap();
        m.register_query(QueryId(0), f.clone(), 1.4).unwrap();
        assert_eq!(
            m.added(QueryId(0)).unwrap().len(),
            m.matching(QueryId(0)).unwrap().len(),
            "initial matches are reported as added"
        );
        for tick in 1..30u64 {
            m.tick(Timestamp(tick), &lcg_stream(tick, 8, 2)).unwrap();
            let mut got: Vec<TupleId> = m.matching(QueryId(0)).unwrap().iter().copied().collect();
            got.sort_unstable();
            assert_eq!(got, brute_matching(m.grid(), &f, 1.4));
        }
    }

    #[test]
    fn deltas_are_exact() {
        let mut m = ThresholdMonitor::new(1, WindowSpec::Count(2), GridSpec::PerDim(4)).unwrap();
        let f = ScoreFn::linear(vec![1.0]).unwrap();
        m.register_query(QueryId(1), f, 0.5).unwrap();
        m.tick(Timestamp(0), &[0.9, 0.2]).unwrap();
        assert_eq!(m.added(QueryId(1)).unwrap().len(), 1);
        assert!(m.removed(QueryId(1)).unwrap().is_empty());
        // 0.9 (id 0) expires when two more arrive.
        m.tick(Timestamp(1), &[0.7, 0.1]).unwrap();
        assert_eq!(m.added(QueryId(1)).unwrap().len(), 1, "0.7 matched");
        assert_eq!(m.removed(QueryId(1)).unwrap(), &[TupleId(0)]);
    }

    #[test]
    fn removal_clears_influence() {
        let mut m = ThresholdMonitor::new(2, WindowSpec::Count(10), GridSpec::PerDim(5)).unwrap();
        let f = ScoreFn::linear(vec![1.0, -1.0]).unwrap();
        m.register_query(QueryId(2), f, 0.3).unwrap();
        m.remove_query(QueryId(2)).unwrap();
        assert!(m.remove_query(QueryId(2)).is_err());
        assert_eq!(m.influence.total_entries(), 0);
        m.tick(Timestamp(0), &lcg_stream(5, 4, 2)).unwrap();
    }

    #[test]
    fn validation() {
        let mut m = ThresholdMonitor::new(2, WindowSpec::Count(4), GridSpec::PerDim(4)).unwrap();
        let f1 = ScoreFn::linear(vec![1.0]).unwrap();
        assert!(m.register_query(QueryId(0), f1, 0.5).is_err());
        let f2 = ScoreFn::linear(vec![1.0, 1.0]).unwrap();
        assert!(m.register_query(QueryId(0), f2, f64::NAN).is_err());
    }
}
