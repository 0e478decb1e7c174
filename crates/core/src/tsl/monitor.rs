//! The complete TSL monitoring engine (paper Figure 3).
//!
//! Combines the valid-tuple window, the `d` per-dimension sorted lists, one
//! [`TopView`] per query, TA-based (re)computation and a `kmax` selection
//! policy into a continuous top-k monitor behind the same
//! [`ContinuousTopK`] interface as TMA/SMA.

use std::collections::BTreeMap;

use crate::engine::ContinuousTopK;
use crate::query::Query;
use crate::result::ResultDelta;
use crate::skyband::tuned_kmax;
use crate::tsl::lists::SortedLists;
use crate::tsl::ta::ta_search;
use crate::tsl::view::TopView;
use tkm_common::heap::{btree_bytes, ASCENDING_FILL};
use tkm_common::{same_dims, HeapBytes, QueryId, Result, ScoreFn, Scored, Timestamp, TkmError};
use tkm_window::{Window, WindowSpec};

/// How `kmax` is chosen for a query with result size `k` (paper §8: the
/// authors fine-tune static values and report that this beats the dynamic
/// adjustment of the original Yi et al. paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KmaxPolicy {
    /// The paper's fine-tuned table: k ∈ {1, 5, 10, 20, 50, 100} →
    /// kmax ∈ {4, 10, 20, 30, 70, 120}; other `k` interpolate as
    /// `k + max(3, k/2)`.
    Tuned,
    /// The same `kmax` for every query (clamped to ≥ k).
    Fixed(usize),
    /// Yi-et-al-style dynamic adjustment: grow `kmax` while refills come
    /// frequently, shrink it when they are rare.
    Dynamic,
}

impl KmaxPolicy {
    /// Initial `kmax` for a query with result size `k`.
    fn initial_kmax(self, k: usize) -> usize {
        match self {
            KmaxPolicy::Tuned | KmaxPolicy::Dynamic => tuned_kmax(k),
            KmaxPolicy::Fixed(m) => m.max(k),
        }
    }
}

/// Cumulative counters of a [`TslMonitor`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TslStats {
    /// Processing cycles executed.
    pub ticks: u64,
    /// TA invocations (initial computations + refills).
    pub ta_calls: u64,
    /// View refills triggered by `k′ < k`.
    pub refills: u64,
    /// Sorted-list entries consumed by TA.
    pub sorted_accesses: u64,
    /// Random accesses performed by TA.
    pub random_accesses: u64,
    /// Arrival-score evaluations (`r · Q` per cycle).
    pub score_evaluations: u64,
    /// Arrivals that entered some view.
    pub view_insertions: u64,
}

#[derive(Debug)]
struct QState {
    f: ScoreFn,
    view: TopView,
    last_refill_tick: u64,
    /// The result as last reported (unused until `track_changes`).
    reported: Vec<Scored>,
}

impl HeapBytes for QState {
    fn heap_bytes(&self) -> usize {
        self.f.heap_bytes() + self.view.heap_bytes() + self.reported.heap_bytes()
    }
}

/// Continuous top-k monitor using the Threshold Sorted List approach.
#[derive(Debug)]
pub struct TslMonitor {
    window: Window,
    lists: SortedLists,
    queries: BTreeMap<QueryId, QState>,
    policy: KmaxPolicy,
    stats: TslStats,
    tick_count: u64,
    tracking: bool,
}

impl TslMonitor {
    /// Creates a monitor over `dims`-dimensional tuples.
    pub fn new(dims: usize, spec: WindowSpec, policy: KmaxPolicy) -> Result<TslMonitor> {
        Ok(TslMonitor {
            window: Window::new(dims, spec)?,
            lists: SortedLists::new(dims)?,
            queries: BTreeMap::new(),
            policy,
            stats: TslStats::default(),
            tick_count: 0,
            tracking: false,
        })
    }

    /// The underlying window (read access).
    #[cfg(test)]
    pub(crate) fn window(&self) -> &Window {
        &self.window
    }

    /// Mean view size across queries.
    pub fn avg_view_len(&self) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        self.queries.values().map(|q| q.view.len()).sum::<usize>() as f64
            / self.queries.len() as f64
    }

    /// Cumulative counters.
    #[inline]
    pub fn stats(&self) -> TslStats {
        self.stats
    }

    /// Rejects what TSL cannot answer: a constrained query (the sorted
    /// lists index the whole workspace) or one of another dimensionality.
    fn check_query(&self, query: &Query) -> Result<()> {
        if query.constraint.is_some() {
            return Err(TkmError::Unsupported(
                "TSL (the baseline) handles plain top-k queries only".into(),
            ));
        }
        same_dims(self.dims(), query.dims())?;
        Ok(())
    }
}

impl ContinuousTopK for TslMonitor {
    fn name(&self) -> &'static str {
        "TSL"
    }

    fn dims(&self) -> usize {
        self.window.dims()
    }

    /// The initial result is computed immediately with TA over the current
    /// window contents.
    fn register_query(&mut self, id: QueryId, query: Query) -> Result<()> {
        self.check_query(&query)?;
        let Query { f, k, .. } = query;
        if k == 0 {
            return Err(TkmError::InvalidParameter(
                "register_query: k must be positive".into(),
            ));
        }
        if self.queries.contains_key(&id) {
            return Err(TkmError::DuplicateQuery(id));
        }
        let kmax = self.policy.initial_kmax(k);
        let mut view = TopView::new(k, kmax)?;
        let (initial, ta) = ta_search(&self.lists, &self.window, &f, kmax);
        self.stats.ta_calls += 1;
        self.stats.sorted_accesses += ta.sorted_accesses;
        self.stats.random_accesses += ta.random_accesses;
        view.refill(&initial);
        let reported = if self.tracking {
            view.result().to_vec()
        } else {
            Vec::new()
        };
        self.queries.insert(
            id,
            QState {
                f,
                view,
                last_refill_tick: self.tick_count,
                reported,
            },
        );
        Ok(())
    }

    fn remove_query(&mut self, id: QueryId) -> Result<()> {
        self.queries
            .remove(&id)
            .map(|_| ())
            .ok_or(TkmError::UnknownQuery(id))
    }

    fn tick(&mut self, now: Timestamp, arrivals: &[f64]) -> Result<()> {
        let dims = self.dims();
        self.window.validate_tick(now, arrivals)?;
        self.tick_count += 1;
        self.stats.ticks += 1;

        // Pins: index each arrival and probe every view (the r·Q cost).
        for coords in arrivals.chunks_exact(dims) {
            let id = self.window.insert(coords, now)?;
            self.lists.insert(id, coords);
            for q in self.queries.values_mut() {
                self.stats.score_evaluations += 1;
                let cand = Scored::new(q.f.score(coords), id);
                if q.view.on_arrival(cand) {
                    self.stats.view_insertions += 1;
                }
            }
        }

        // Pdel: unindex expiries and shrink affected views.
        let Self {
            window,
            lists,
            queries,
            ..
        } = self;
        window.drain_expired(now, |id, coords| {
            lists.remove(id, coords);
            for q in queries.values_mut() {
                q.view.on_expiry(id);
            }
        });

        // Refill views that dropped below k entries.
        let tick = self.tick_count;
        for q in self.queries.values_mut() {
            if !q.view.needs_refill() {
                continue;
            }
            if self.policy == KmaxPolicy::Dynamic {
                let gap = tick - q.last_refill_tick;
                let kmax = q.view.kmax();
                if gap < 5 {
                    q.view
                        .set_kmax((kmax + kmax / 2 + 1).min(10 * q.view.k() + 20));
                } else if gap > 50 {
                    q.view.set_kmax((kmax * 3 / 4).max(q.view.k() + 1));
                }
            }
            let (fresh, ta) = ta_search(&self.lists, &self.window, &q.f, q.view.kmax());
            self.stats.ta_calls += 1;
            self.stats.refills += 1;
            self.stats.sorted_accesses += ta.sorted_accesses;
            self.stats.random_accesses += ta.random_accesses;
            q.view.refill(&fresh);
            q.last_refill_tick = tick;
        }
        Ok(())
    }

    fn result(&self, id: QueryId) -> Result<Vec<Scored>> {
        self.queries
            .get(&id)
            .map(|q| q.view.result().to_vec())
            .ok_or(TkmError::UnknownQuery(id))
    }

    fn track_changes(&mut self) {
        self.tracking = true;
        for q in self.queries.values_mut() {
            q.reported.clear();
            q.reported.extend_from_slice(q.view.result());
        }
    }

    /// No affected list: every query is compared every cycle.
    fn drain_changes(&mut self, out: &mut Vec<ResultDelta>) {
        if !self.tracking {
            return;
        }
        for (id, q) in &mut self.queries {
            ResultDelta::report(*id, &mut q.reported, q.view.result(), out);
        }
    }

    /// A fresh TA run; no view is materialised.
    fn snapshot(&mut self, query: &Query) -> Result<Vec<Scored>> {
        self.check_query(query)?;
        let (res, _) = ta_search(&self.lists, &self.window, &query.f, query.k);
        Ok(res)
    }

    /// The struct, window, d sorted lists, the query map's nodes (each
    /// query's state lives inline in one; ids arrive in ascending order)
    /// and what every query keeps on the heap.
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.window.heap_bytes()
            + self.lists.heap_bytes()
            + btree_bytes::<QueryId, QState>(self.queries.len(), ASCENDING_FILL)
            + self.queries.values().map(QState::heap_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plain query built without `Query::top_k`'s own checks, so the
    /// monitor's are the ones exercised.
    fn plain(f: ScoreFn, k: usize) -> Query {
        Query {
            f,
            k,
            constraint: None,
        }
    }

    fn brute_topk(window: &Window, f: &ScoreFn, k: usize) -> Vec<Scored> {
        let mut all: Vec<Scored> = window
            .iter()
            .map(|(id, c)| Scored::new(f.score(c), id))
            .collect();
        all.sort_by(|a, b| b.cmp(a));
        all.truncate(k);
        all
    }

    /// Deterministic pseudo-random coordinate stream (no rand dependency in
    /// unit tests; integration tests use tkm-datagen).
    fn lcg_stream(seed: u64, n: usize, dims: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(1);
        let mut out = Vec::with_capacity(n * dims);
        for _ in 0..n * dims {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            out.push(((state >> 11) as f64 / (1u64 << 53) as f64).clamp(0.0, 1.0));
        }
        out
    }

    #[test]
    fn registration_validation() {
        let mut m = TslMonitor::new(2, WindowSpec::Count(10), KmaxPolicy::Tuned).unwrap();
        let f = ScoreFn::linear(vec![1.0, 1.0]).unwrap();
        assert!(m
            .register_query(QueryId(0), plain(ScoreFn::linear(vec![1.0]).unwrap(), 2))
            .is_err());
        assert!(m.register_query(QueryId(0), plain(f.clone(), 0)).is_err());
        m.register_query(QueryId(0), plain(f.clone(), 2)).unwrap();
        assert!(matches!(
            m.register_query(QueryId(0), plain(f, 2)),
            Err(TkmError::DuplicateQuery(_))
        ));
        assert!(m.remove_query(QueryId(1)).is_err());
        m.remove_query(QueryId(0)).unwrap();
    }

    #[test]
    fn tracks_brute_force_over_stream() {
        let mut m = TslMonitor::new(2, WindowSpec::Count(60), KmaxPolicy::Tuned).unwrap();
        let f1 = ScoreFn::linear(vec![1.0, 2.0]).unwrap();
        let f2 = ScoreFn::linear(vec![1.0, -1.0]).unwrap();
        m.register_query(QueryId(1), plain(f1.clone(), 3)).unwrap();
        m.register_query(QueryId(2), plain(f2.clone(), 5)).unwrap();
        for tick in 0..40u64 {
            let arrivals = lcg_stream(tick + 1, 10, 2);
            m.tick(Timestamp(tick), &arrivals).unwrap();
            assert_eq!(
                m.result(QueryId(1)).unwrap(),
                &brute_topk(m.window(), &f1, 3)[..]
            );
            assert_eq!(
                m.result(QueryId(2)).unwrap(),
                &brute_topk(m.window(), &f2, 5)[..]
            );
        }
        assert!(m.stats().ticks == 40);
        assert!(m.stats().score_evaluations == 40 * 10 * 2);
    }

    #[test]
    fn time_window_variant() {
        let mut m = TslMonitor::new(2, WindowSpec::Time(4), KmaxPolicy::Fixed(8)).unwrap();
        let f = ScoreFn::product(vec![0.2, 0.2]).unwrap();
        m.register_query(QueryId(7), plain(f.clone(), 2)).unwrap();
        for tick in 0..20u64 {
            let arrivals = lcg_stream(tick + 99, 6, 2);
            m.tick(Timestamp(tick), &arrivals).unwrap();
            assert_eq!(
                m.result(QueryId(7)).unwrap(),
                &brute_topk(m.window(), &f, 2)[..]
            );
        }
    }

    #[test]
    fn dynamic_policy_still_exact() {
        let mut m = TslMonitor::new(2, WindowSpec::Count(30), KmaxPolicy::Dynamic).unwrap();
        let f = ScoreFn::quadratic(vec![1.0, 0.5]).unwrap();
        m.register_query(QueryId(3), plain(f.clone(), 4)).unwrap();
        for tick in 0..60u64 {
            let arrivals = lcg_stream(tick + 7, 5, 2);
            m.tick(Timestamp(tick), &arrivals).unwrap();
            assert_eq!(
                m.result(QueryId(3)).unwrap(),
                &brute_topk(m.window(), &f, 4)[..]
            );
        }
        assert!(m.stats().refills > 0, "dynamic policy exercised refills");
    }

    #[test]
    fn rejects_out_of_workspace_coordinates() {
        let mut m = TslMonitor::new(2, WindowSpec::Count(10), KmaxPolicy::Tuned).unwrap();
        assert!(m.tick(Timestamp(0), &[0.5, 1.5]).is_err());
        assert!(m.tick(Timestamp(0), &[0.5]).is_err(), "ragged buffer");
    }

    #[test]
    fn window_smaller_than_k() {
        let mut m = TslMonitor::new(1, WindowSpec::Count(100), KmaxPolicy::Tuned).unwrap();
        let f = ScoreFn::linear(vec![1.0]).unwrap();
        m.register_query(QueryId(0), plain(f, 5)).unwrap();
        m.tick(Timestamp(0), &[0.3, 0.9]).unwrap();
        let res = m.result(QueryId(0)).unwrap();
        assert_eq!(res.len(), 2, "reports what exists");
        assert_eq!(res[0].score.get(), 0.9);
    }
}
