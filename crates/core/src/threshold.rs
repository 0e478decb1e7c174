//! Threshold monitoring (paper §7): report every valid tuple whose score
//! exceeds a user-specified threshold.
//!
//! The framework applies with two simplifications relative to top-k: the
//! influence region is *static* (all cells with `maxscore > τ`), so the
//! book-keeping is built once with a plain list walk (no heap — visiting
//! order is irrelevant) and never recomputed; and maintenance merely
//! reports arrivals/expiries of qualifying tuples.

use crate::ingest::GridSpec;
use crate::kernel;
use crate::registry::QueryRegistry;
use tkm_common::{FxHashSet, QueryId, Result, ScoreFn, Scored, Timestamp, TkmError, TupleId};
use tkm_grid::{CellMode, Grid, InfluenceTable, VisitStamps};
use tkm_window::{Window, WindowSpec};

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

/// Continuous threshold-query monitor.
#[derive(Debug)]
pub struct ThresholdMonitor {
    window: Window,
    grid: Grid,
    influence: InfluenceTable,
    stamps: VisitStamps,
    queries: QueryRegistry<ThresholdQuery>,
}

impl ThresholdMonitor {
    /// Creates a monitor over `dims`-dimensional tuples.
    pub fn new(dims: usize, window: WindowSpec, grid: GridSpec) -> Result<ThresholdMonitor> {
        let grid = grid.build(dims, CellMode::Fifo)?;
        let stamps = VisitStamps::new(grid.num_cells());
        let influence = InfluenceTable::new(grid.num_cells());
        Ok(ThresholdMonitor {
            window: Window::new(dims, window)?,
            grid,
            influence,
            stamps,
            queries: QueryRegistry::new(),
        })
    }

    /// Dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.window.dims()
    }

    /// The underlying window (read access).
    #[inline]
    pub fn window(&self) -> &Window {
        &self.window
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
            grid,
            influence,
            stamps,
            queries,
            ..
        } = self;
        let (_, st) = queries.slot_mut(slot);
        // List walk from the best corner over cells with maxscore > τ
        // (paper: "the search can be performed with a list instead of a
        // heap, since the visiting order is not important").
        stamps.begin();
        let start = grid.best_corner(&st.f);
        stamps.mark(start);
        let mut list = vec![start];
        let ThresholdQuery {
            f,
            threshold,
            matching,
            added,
            ..
        } = st;
        while let Some(cell) = list.pop() {
            if grid.maxscore(cell, f) <= *threshold {
                continue;
            }
            // Stream the cell's coordinate-inline chunks through the
            // scoring kernel; no window resolution per tuple.
            for (ids, coords) in grid.points(cell).chunks() {
                kernel::scan_block(f, grid.dims(), ids, coords, None, |tid, score| {
                    if score > *threshold {
                        matching.insert(tid);
                        added.push(Scored::new(score, tid));
                    }
                });
            }
            influence.insert(cell, slot);
            for dim in 0..grid.dims() {
                if let Some(n) = grid.step_worse(cell, dim, f) {
                    if stamps.mark(n) {
                        list.push(n);
                    }
                }
            }
        }
        added.sort_by(|a, b| b.cmp(a));
        Ok(())
    }

    /// Terminates a query, clearing its influence-list entries.
    pub fn remove_query(&mut self, id: QueryId) -> Result<()> {
        let (slot, st) = self.queries.remove(id)?;
        // The influence region is static: sweep it with the same walk used
        // to build it.
        self.stamps.begin();
        let start = self.grid.best_corner(&st.f);
        self.stamps.mark(start);
        let mut list = vec![start];
        while let Some(cell) = list.pop() {
            if !self.influence.remove(cell, slot) {
                continue;
            }
            for dim in 0..self.grid.dims() {
                if let Some(n) = self.grid.step_worse(cell, dim, &st.f) {
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
    pub fn tick(&mut self, now: Timestamp, arrivals: &[f64]) -> Result<()> {
        let dims = self.dims();
        self.window.validate_tick(now, arrivals)?;
        for q in self.queries.states_mut() {
            q.added.clear();
            q.removed.clear();
        }

        {
            let Self {
                window,
                grid,
                influence,
                queries,
                ..
            } = self;
            for coords in arrivals.chunks_exact(dims) {
                let id = window.insert(coords, now)?;
                let cell = grid.insert_point(coords, id);
                for &slot in influence.as_slice(cell) {
                    let (_, st) = queries.slot_mut(slot);
                    let score = kernel::score_point(&st.f, coords);
                    if score > st.threshold {
                        st.matching.insert(id);
                        st.added.push(Scored::new(score, id));
                    }
                }
            }

            window.drain_expired(now, |id, coords| {
                let cell = grid
                    .remove_point(coords, id)
                    // lint: allow(panic, reason=window/grid lockstep is the ingest invariant; desync is unrecoverable)
                    .expect("window and grid are updated in lockstep");
                for &slot in influence.as_slice(cell) {
                    let (_, st) = queries.slot_mut(slot);
                    if st.matching.remove(&id) {
                        st.removed.push(id);
                    }
                }
            });
        }
        Ok(())
    }

    /// Tuples that started matching `id`'s predicate in the last tick.
    pub fn added(&self, id: QueryId) -> Result<&[Scored]> {
        self.queries
            .get(id)
            .map(|q| q.added.as_slice())
            .ok_or(TkmError::UnknownQuery(id))
    }

    /// Tuples that stopped matching (expired) in the last tick.
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
            + self.window.space_bytes()
            + self.grid.space_bytes()
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

    fn brute_matching(window: &Window, f: &ScoreFn, tau: f64) -> Vec<TupleId> {
        let mut out: Vec<TupleId> = window
            .iter()
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
            assert_eq!(got, brute_matching(m.window(), &f, 1.4));
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
