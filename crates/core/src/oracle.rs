//! Brute-force reference engine.
//!
//! Recomputes every query's result by scanning the whole window each tick —
//! `O(N·Q)` per cycle and therefore useless in production, but it is the
//! ground truth against which TMA, SMA and TSL are validated in the
//! integration tests (all four must report identical results on every tick
//! of every stream).

use std::collections::BTreeMap;

use crate::kernel;
use crate::query::Query;
use crate::result::ResultDelta;
use tkm_common::heap::{btree_bytes, ASCENDING_FILL};
use tkm_common::{same_dims, HeapBytes, QueryId, Result, Scored, Timestamp, TkmError};
use tkm_window::{Window, WindowSpec};

#[derive(Debug)]
struct OracleQuery {
    query: Query,
    result: Vec<Scored>,
    /// The result as last reported (unused until `track_changes`).
    reported: Vec<Scored>,
}

impl HeapBytes for OracleQuery {
    fn heap_bytes(&self) -> usize {
        self.query.heap_bytes() + self.result.heap_bytes() + self.reported.heap_bytes()
    }
}

/// Ground-truth continuous top-k monitor (full rescan per tick).
#[derive(Debug)]
pub struct OracleMonitor {
    window: Window,
    queries: BTreeMap<QueryId, OracleQuery>,
    tracking: bool,
}

impl OracleMonitor {
    /// Creates a monitor over `dims`-dimensional tuples.
    pub fn new(dims: usize, window: WindowSpec) -> Result<OracleMonitor> {
        Ok(OracleMonitor {
            window: Window::new(dims, window)?,
            queries: BTreeMap::new(),
            tracking: false,
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

    /// Scores every window tuple the query admits, sorts them best first
    /// and keeps the top k, at k entries of capacity: a result must not
    /// hold on to the buffer the whole window was sorted in.
    fn scan(window: &Window, query: &Query) -> Vec<Scored> {
        let mut all: Vec<Scored> = window
            .iter()
            .filter(|(_, c)| query.constraint.as_ref().is_none_or(|r| r.contains(c)))
            .map(|(id, c)| Scored::new(kernel::score_point(&query.f, c), id))
            .collect();
        all.sort_by(|a, b| b.cmp(a));
        all.truncate(query.k);
        all.shrink_to_fit();
        all
    }

    /// Registers a query and computes its initial result.
    pub fn register_query(&mut self, id: QueryId, query: Query) -> Result<()> {
        same_dims(self.dims(), query.dims())?;
        if self.queries.contains_key(&id) {
            return Err(TkmError::DuplicateQuery(id));
        }
        let result = Self::scan(&self.window, &query);
        let reported = if self.tracking {
            result.clone()
        } else {
            Vec::new()
        };
        self.queries.insert(
            id,
            OracleQuery {
                query,
                result,
                reported,
            },
        );
        Ok(())
    }

    /// Removes a query.
    pub fn remove_query(&mut self, id: QueryId) -> Result<()> {
        self.queries
            .remove(&id)
            .map(|_| ())
            .ok_or(TkmError::UnknownQuery(id))
    }

    /// The current top-k result, best first.
    pub fn result(&self, id: QueryId) -> Result<&[Scored]> {
        self.queries
            .get(&id)
            .map(|q| q.result.as_slice())
            .ok_or(TkmError::UnknownQuery(id))
    }

    /// Starts change reporting: the current results become the baseline.
    pub fn track_changes(&mut self) {
        self.tracking = true;
        for q in self.queries.values_mut() {
            q.reported.clone_from(&q.result);
        }
    }

    /// Appends the change of every query whose result differs from what
    /// was last reported, in ascending `QueryId` order. A full rescan has
    /// no affected list, so every query is compared every time.
    pub fn drain_changes(&mut self, out: &mut Vec<ResultDelta>) {
        if !self.tracking {
            return;
        }
        for (id, q) in &mut self.queries {
            ResultDelta::report(*id, &mut q.reported, &q.result, out);
        }
    }

    /// One-shot (snapshot) top-k over the current window contents.
    pub fn snapshot(&self, query: &Query) -> Result<Vec<Scored>> {
        same_dims(self.dims(), query.dims())?;
        Ok(Self::scan(&self.window, query))
    }

    /// Executes one processing cycle.
    pub fn tick(&mut self, now: Timestamp, arrivals: &[f64]) -> Result<()> {
        self.window.validate_tick(now, arrivals)?;
        for coords in arrivals.chunks_exact(self.dims()) {
            self.window.insert(coords, now)?;
        }
        self.window.drain_expired(now, |_, _| {});
        for q in self.queries.values_mut() {
            q.result = Self::scan(&self.window, &q.query);
        }
        Ok(())
    }

    /// Deep size estimate in bytes: the struct, the window, the query
    /// map's nodes (each query's state lives inline in one; ids arrive in
    /// ascending order) and the heap every query owns.
    pub fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.window.heap_bytes()
            + btree_bytes::<QueryId, OracleQuery>(self.queries.len(), ASCENDING_FILL)
            + self
                .queries
                .values()
                .map(OracleQuery::heap_bytes)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkm_common::ScoreFn;

    #[test]
    fn basic_monitoring() {
        let mut m = OracleMonitor::new(2, WindowSpec::Count(3)).unwrap();
        let q = Query::top_k(ScoreFn::linear(vec![1.0, 1.0]).unwrap(), 2).unwrap();
        m.register_query(QueryId(0), q).unwrap();
        m.tick(Timestamp(0), &[0.1, 0.1, 0.9, 0.9, 0.5, 0.5])
            .unwrap();
        let r = m.result(QueryId(0)).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].score.get(), 1.8);
        // Window capacity 3: pushing two more evicts the first two.
        m.tick(Timestamp(1), &[0.2, 0.2, 0.3, 0.3]).unwrap();
        let r = m.result(QueryId(0)).unwrap();
        assert_eq!(r[0].score.get(), 1.0, "0.5+0.5 survived, 0.9+0.9 expired");
    }

    #[test]
    fn query_lifecycle() {
        let mut m = OracleMonitor::new(1, WindowSpec::Count(2)).unwrap();
        let q = Query::top_k(ScoreFn::linear(vec![1.0]).unwrap(), 1).unwrap();
        m.register_query(QueryId(1), q).unwrap();
        assert!(m.result(QueryId(1)).unwrap().is_empty());
        m.remove_query(QueryId(1)).unwrap();
        assert!(m.result(QueryId(1)).is_err());
    }
}
