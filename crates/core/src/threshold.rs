//! Threshold monitoring (paper §7): report every valid tuple whose score
//! exceeds a user-specified threshold.
//!
//! The framework applies with two simplifications relative to top-k: the
//! influence region is *static* (all cells with `maxscore > τ`), so the
//! book-keeping is built once with a plain list walk (no heap — visiting
//! order is irrelevant) and never recomputed; and maintenance merely
//! reports arrivals/expiries of qualifying tuples. Both sides are the
//! shared ones: an [`IngestState`] stores the tuples, the queries live in
//! the query table every grid stage uses (`crate::influence`), whose
//! best-corner walk lists a query's static region, and each cycle the
//! table groups the arrivals in listed cells by cell
//! ([`crate::influence::ListedEvents`]) and they are replayed against
//! those lists. Expiry needs no lists: each query keeps its matches in
//! arrival (id) order, and windows are FIFO, so the matches that expired
//! are the prefix below the window's oldest id.

use std::collections::VecDeque;

use crate::influence::{QueryTable, TableEntry};
use crate::ingest::{GridSpec, IngestState};
use crate::kernel;
use crate::maintenance::live_suffix;
use tkm_common::{HeapBytes, QueryId, Rect, Result, ScoreFn, Scored, Timestamp, TkmError, TupleId};
use tkm_grid::{Grid, StoredIds};
use tkm_window::{Timeline, WindowSpec};

#[derive(Debug)]
pub(crate) struct ThresholdQuery {
    f: ScoreFn,
    threshold: f64,
    /// Currently matching tuples, in id order: a cycle pops the expired
    /// prefix and appends its admissions, all newer than any match.
    matching: VecDeque<TupleId>,
    /// Tuples that started matching in the last tick.
    added: Vec<Scored>,
    /// Tuples that stopped matching (expired) in the last tick.
    removed: Vec<TupleId>,
}

impl ThresholdQuery {
    /// Streams a block of a cell's coordinate-inline points through the
    /// scoring kernel (no window resolution per tuple); those above the
    /// threshold are admitted into `added`.
    fn admit(&mut self, dims: usize, ids: StoredIds<'_>, coords: &[f64]) {
        let (threshold, added) = (self.threshold, &mut self.added);
        kernel::scan_block(&self.f, dims, ids, coords, None, |id, score| {
            if score > threshold {
                added.push(Scored::new(score, id));
            }
        });
    }

    /// Puts the admissions, collected cell by cell, into arrival order and
    /// appends them to the matches.
    fn commit(&mut self) {
        self.added.sort_unstable_by_key(|s| s.id);
        self.matching.extend(self.added.iter().map(|s| s.id));
    }
}

impl HeapBytes for ThresholdQuery {
    fn heap_bytes(&self) -> usize {
        self.f.heap_bytes()
            + self.matching.heap_bytes()
            + self.added.heap_bytes()
            + self.removed.heap_bytes()
    }
}

impl TableEntry for ThresholdQuery {
    fn region(&self) -> (&ScoreFn, Option<&Rect>) {
        (&self.f, None)
    }
}

/// Continuous threshold-query monitor.
#[derive(Debug)]
pub struct ThresholdMonitor {
    ingest: IngestState,
    /// The queries and their static influence lists (the traversal heap
    /// stays empty: the visiting order is irrelevant here).
    table: QueryTable<ThresholdQuery>,
}

impl ThresholdMonitor {
    /// Creates a monitor over `dims`-dimensional tuples.
    pub fn new(dims: usize, window: WindowSpec, grid: GridSpec) -> Result<ThresholdMonitor> {
        let ingest = IngestState::new(dims, window, grid)?;
        let table = QueryTable::new(ingest.grid().num_cells());
        Ok(ThresholdMonitor { ingest, table })
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

    #[cfg(test)]
    pub(crate) fn table(&self) -> &QueryTable<ThresholdQuery> {
        &self.table
    }

    /// Registers a threshold query: monitor all tuples with
    /// `score > threshold`. The initial matching set is computed by walking
    /// the cells with `maxscore > threshold` from the preferred corner; it
    /// is reported as the first [`ThresholdMonitor::added`] delta.
    pub fn register_query(&mut self, id: QueryId, f: ScoreFn, threshold: f64) -> Result<()> {
        if !threshold.is_finite() {
            return Err(TkmError::InvalidParameter(
                "register_query: threshold must be finite".into(),
            ));
        }
        let grid = self.ingest.grid();
        let state = ThresholdQuery {
            f,
            threshold,
            matching: VecDeque::new(),
            added: Vec::new(),
            removed: Vec::new(),
        };
        let slot = self.table.insert(grid, id, state)?;
        // Paper: "the search can be performed with a list instead of a
        // heap, since the visiting order is not important".
        self.table.walk(grid, slot, |influence, st, cell| {
            if grid.maxscore(cell, &st.f) <= st.threshold {
                return false;
            }
            for (ids, coords) in grid.points(cell).chunks() {
                st.admit(grid.dims(), ids, coords);
            }
            influence.insert(cell, slot);
            true
        });
        self.table.slot_mut(slot).1.commit();
        Ok(())
    }

    /// Terminates a query, clearing its influence-list entries.
    pub fn remove_query(&mut self, id: QueryId) -> Result<()> {
        self.table.remove(self.ingest.grid(), id)?;
        Ok(())
    }

    /// Executes one processing cycle; afterwards, per-query deltas are
    /// available via [`ThresholdMonitor::added`] / [`ThresholdMonitor::removed`].
    /// A rejected batch (see [`IngestState::ingest`]) changes nothing. A
    /// tuple that arrives and expires within the cycle (a burst larger than
    /// a count window) never matched at a cycle boundary and is reported in
    /// neither delta.
    pub fn tick(&mut self, now: Timestamp, arrivals: &[f64]) -> Result<()> {
        let Self { ingest, table } = self;
        ingest.ingest(now, arrivals)?;
        let cutoff = ingest.timeline().oldest().unwrap_or(TupleId(u64::MAX));
        let (influence, queries, events) = table.group_events(ingest);
        for q in queries.states_mut() {
            q.added.clear();
            q.removed.clear();
            let expired = q.matching.partition_point(|&id| id < cutoff);
            q.removed.extend(q.matching.drain(..expired));
        }
        let dims = ingest.dims();
        for (cell, ids) in events.arrival_runs() {
            let slots = influence.as_slice(cell);
            let Some(ids) = live_suffix(ingest.timeline(), ids) else {
                continue;
            };
            for (ids, coords) in ingest.arrival_run_points(cell, ids.len()).chunks() {
                for &slot in slots {
                    queries.slot_mut(slot).1.admit(dims, ids, coords);
                }
            }
        }
        for q in queries.states_mut() {
            q.commit();
        }
        Ok(())
    }

    /// Tuples that started matching `id`'s predicate in the last tick, in
    /// arrival order.
    pub fn added(&self, id: QueryId) -> Result<&[Scored]> {
        Ok(&self.table.get(id)?.added)
    }

    /// Tuples that stopped matching (expired) in the last tick, in arrival
    /// order.
    pub fn removed(&self, id: QueryId) -> Result<&[TupleId]> {
        Ok(&self.table.get(id)?.removed)
    }

    /// The full current matching set, in arrival (id) order.
    pub fn matching(&self, id: QueryId) -> Result<&VecDeque<TupleId>> {
        Ok(&self.table.get(id)?.matching)
    }

    /// Deep size estimate in bytes: the monitor is a root, so its struct
    /// plus the heap its members own.
    pub fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.ingest.heap_bytes() + self.table.heap_bytes()
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
        // A registration's delta is in arrival order too, not best first.
        m.tick(Timestamp(2), &[0.3, 0.8]).unwrap();
        m.register_query(QueryId(2), ScoreFn::linear(vec![1.0]).unwrap(), 0.2)
            .unwrap();
        let added: Vec<TupleId> = m.added(QueryId(2)).unwrap().iter().map(|s| s.id).collect();
        assert_eq!(added, [TupleId(4), TupleId(5)]);
        // Query 1 lists cells 2 and 3 only (`maxscore > 0.5`); with query
        // 2 gone, no query lists cells 0 and 1. A tuple arriving there,
        // and one expiring from there, is in neither delta; the next
        // expiry from a listed cell and arrival into one still are.
        m.remove_query(QueryId(2)).unwrap();
        m.tick(Timestamp(3), &[0.1]).unwrap();
        assert!(m.added(QueryId(1)).unwrap().is_empty());
        assert!(
            m.removed(QueryId(1)).unwrap().is_empty(),
            "0.3 never matched"
        );
        m.tick(Timestamp(4), &[0.2]).unwrap();
        assert!(m.added(QueryId(1)).unwrap().is_empty());
        assert_eq!(m.removed(QueryId(1)).unwrap(), &[TupleId(5)]);
        m.tick(Timestamp(5), &[0.6]).unwrap();
        let added: Vec<TupleId> = m.added(QueryId(1)).unwrap().iter().map(|s| s.id).collect();
        assert_eq!(added, [TupleId(8)]);
        assert!(m.removed(QueryId(1)).unwrap().is_empty());
        let matching: Vec<TupleId> = m.matching(QueryId(1)).unwrap().iter().copied().collect();
        assert_eq!(matching, [TupleId(8)]);
    }

    /// Beyond its own struct, the monitor reports exactly the heap its
    /// members own: no inline member is counted a second time.
    #[test]
    fn space_bytes_counts_inline_members_once() {
        let mut m = ThresholdMonitor::new(2, WindowSpec::Count(40), GridSpec::PerDim(6)).unwrap();
        let f = ScoreFn::linear(vec![1.0, 1.0]).unwrap();
        m.register_query(QueryId(0), f, 1.2).unwrap();
        for tick in 0..10u64 {
            m.tick(Timestamp(tick), &lcg_stream(tick, 8, 2)).unwrap();
        }
        let heap = m.ingest.heap_bytes() + m.table.heap_bytes();
        assert_eq!(
            m.space_bytes() - std::mem::size_of::<ThresholdMonitor>(),
            heap
        );
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
