//! The monitor: one ingest + maintenance sandwich for every grid engine.
//!
//! Per processing cycle (paper Figures 9 and 11) the arrival set is handled
//! before the expiry set:
//!
//! 1. **Pins** — each arrival is placed into its grid cell; for every query
//!    registered in the cell's influence list whose admission threshold the
//!    new score reaches, the tuple enters the query's band. Thresholds rise
//!    lazily: influence lists are *not* shrunk.
//! 2. **Pdel** — each expiring tuple leaves its cell. Windows are FIFO, so
//!    the expired tuples are exactly those older than the window's oldest:
//!    every band drops its entries below that cutoff, and a query whose
//!    band lost one is marked *affected*.
//! 3. Affected queries that can no longer serve an exact top-k are
//!    recomputed with the top-k computation module, followed by the
//!    frontier clean-up walk that removes the query from cells it no
//!    longer influences.
//!
//! [`Monitor`] splits that loop in two. [`IngestState`] (one window
//! timeline + one grid) applies the arrival and expiry sets exactly once
//! per tick and records the arrivals' cells; one [`QueryMaintenance`]
//! stage, owning every query, then replays the arrivals and the window's
//! new cutoff through an immutable `&IngestState` view.
//!
//! [`TmaMonitor`] and [`SmaMonitor`] are the same sandwich over the two
//! policies of [`crate::maintenance::BandMaintenance`]; both report
//! exactly the results of the brute-force oracle (the differential suites
//! `tests/proptest_engines.rs` and `recompute` pin that under query churn,
//! time windows and score ties).

use crate::ingest::{GridSpec, IngestState};
use crate::maintenance::{
    BandMaintenance, BandPolicy, QueryMaintenance, SmaMaintenance, TmaMaintenance,
};
use crate::query::Query;
use crate::result::ResultDelta;
use crate::stats::EngineStats;
use tkm_common::{HeapBytes, QueryId, Result, Scored, Timestamp, TupleId};
use tkm_grid::Grid;
use tkm_window::{Timeline, WindowSpec};

/// Continuous top-k monitor: one window and grid under one
/// query-maintenance stage (see the module docs).
#[derive(Debug)]
pub struct Monitor<M> {
    shared: IngestState,
    maint: M,
}

/// The engine labelled `TMA`: an SMA-style band at `tuned_kmax(k)` depth,
/// not the paper's TMA of Figure 9 (see [`crate::maintenance`]).
pub type TmaMonitor = Monitor<TmaMaintenance>;
/// The paper's SMA (§5).
pub type SmaMonitor = Monitor<SmaMaintenance>;

impl<M: QueryMaintenance> Monitor<M> {
    /// Creates a monitor over `dims`-dimensional tuples.
    pub fn new(dims: usize, window: WindowSpec, grid: GridSpec) -> Result<Monitor<M>> {
        let shared = IngestState::new(dims, window, grid)?;
        let maint = M::new_for(&shared);
        Ok(Monitor { shared, maint })
    }

    /// Engine label: the maintenance stage's.
    pub fn name(&self) -> &'static str {
        M::LABEL
    }

    /// Dimensionality of the monitored stream.
    #[inline]
    pub fn dims(&self) -> usize {
        self.shared.dims()
    }

    /// The window's resident id range, arrival times and expiry rule.
    #[inline]
    pub fn timeline(&self) -> &Timeline {
        self.shared.timeline()
    }

    /// Coordinates of a resident tuple, read from its grid cell (`None`
    /// for an id that has expired or was never issued).
    #[inline]
    pub fn coords(&self, id: TupleId) -> Option<&[f64]> {
        self.shared.coords(id)
    }

    /// The underlying grid (read access, for diagnostics).
    #[inline]
    pub fn grid(&self) -> &Grid {
        self.shared.grid()
    }

    /// The maintenance stage (read access, for diagnostics).
    #[inline]
    pub fn maintenance(&self) -> &M {
        &self.maint
    }

    /// Registers a query and computes its initial result.
    pub fn register_query(&mut self, id: QueryId, query: Query) -> Result<()> {
        self.maint.register_query(&self.shared, id, query)
    }

    /// Terminates a query, clearing its influence-list entries.
    pub fn remove_query(&mut self, id: QueryId) -> Result<()> {
        self.maint.remove_query(&self.shared, id)
    }

    /// The current top-k result of a query, best first.
    pub fn result(&self, id: QueryId) -> Result<Vec<Scored>> {
        self.maint.result(id)
    }

    /// Executes one processing cycle: the arrival/expiry sets are applied
    /// to the window and grid exactly once (`arrivals` is a flat
    /// coordinate buffer, one tuple per `dims` chunk), then the
    /// maintenance stage replays the recorded events against its queries.
    pub fn tick(&mut self, now: Timestamp, arrivals: &[f64]) -> Result<()> {
        self.shared.ingest(now, arrivals)?;
        self.maint.apply_events(&self.shared)
    }

    /// Starts change reporting: the current results become the baseline
    /// [`Monitor::drain_changes`] reports against.
    pub fn track_changes(&mut self) {
        self.maint.track_changes();
    }

    /// Appends, in ascending `QueryId` order, the change of every query
    /// whose result moved since it was last reported. The maintenance
    /// stage marked those queries as it touched them, so the cost follows
    /// the results that changed, not the queries registered; nothing is
    /// appended before [`Monitor::track_changes`].
    pub fn drain_changes(&mut self, out: &mut Vec<ResultDelta>) {
        let start = out.len();
        self.maint.drain_changes(out);
        // The stage reports in slot order, which is id order until a slot
        // is recycled.
        let fresh = &mut out[start..];
        if !fresh.is_sorted_by_key(|d| d.query) {
            fresh.sort_unstable_by_key(|d| d.query);
        }
    }

    /// One-shot (snapshot) top-k over the current window contents, without
    /// registering anything: the computation module runs but leaves no
    /// influence-list entries behind.
    pub fn snapshot(&mut self, query: &Query) -> Result<Vec<Scored>> {
        self.maint.snapshot(&self.shared, query)
    }

    /// Cumulative counters: the ingest stage's plus the maintenance
    /// stage's.
    pub fn stats(&self) -> EngineStats {
        let mut total = EngineStats::default().with_ingest(self.shared.stats());
        total.absorb(self.maint.stats());
        total
    }

    /// Deep size estimate in bytes: the tuple storage (timeline + grid)
    /// and the per-query state (`O(d + 3·depth)` per query as analysed in
    /// §6). The monitor is a root: both stages live inline in it and
    /// report only the heap they own, so its struct is added here, once.
    pub fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.shared.heap_bytes() + self.maint.heap_bytes()
    }
}

impl<P: BandPolicy> Monitor<BandMaintenance<P>> {
    /// Current band size of a query (between `k` and a little over the
    /// policy's depth).
    pub fn band_len(&self, id: QueryId) -> Result<usize> {
        self.maint.band_len(id)
    }

    /// Mean band size across queries (Table 2 reports it for SMA).
    pub fn avg_band_len(&self) -> f64 {
        self.maint.avg_band_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintenance::{SmaPolicy, TmaPolicy};
    use crate::testutil::{brute, lcg_stream};
    use tkm_common::{Rect, ScoreFn, TkmError};

    type Mon<P> = Monitor<BandMaintenance<P>>;

    /// Runs each listed generic test body once per policy, as
    /// `tests::tma::<name>` and `tests::sma::<name>`.
    macro_rules! for_both_policies {
        ($($name:ident),* $(,)?) => {
            mod tma {
                $(#[test] fn $name() { super::$name::<super::TmaPolicy>() })*
            }
            mod sma {
                $(#[test] fn $name() { super::$name::<super::SmaPolicy>() })*
            }
        };
    }

    for_both_policies! {
        registration_and_removal,
        tracks_brute_force_over_stream,
        constrained_query_tracks_brute_force,
        time_window_tracks_brute_force,
        band_stays_small,
        window_smaller_than_k_no_thrash,
        rejects_bad_input,
        query_removal_clears_influence,
        burst_overrunning_window_stays_exact,
        reports_changes_of_touched_queries_only,
        recycled_slot_starts_from_its_own_baseline,
    }

    fn linear(w: &[f64], k: usize) -> Query {
        Query::top_k(ScoreFn::linear(w.to_vec()).unwrap(), k).unwrap()
    }

    /// Drives `queries` over `ticks` cycles of `rate(tick)` arrivals and
    /// checks every result against brute force after every cycle.
    fn track<P: BandPolicy>(
        m: &mut Mon<P>,
        queries: &[Query],
        ticks: u64,
        seed: u64,
        rate: impl Fn(u64) -> usize,
    ) {
        for (i, q) in queries.iter().enumerate() {
            m.register_query(QueryId(i as u64), q.clone()).unwrap();
        }
        for tick in 0..ticks {
            let arrivals = lcg_stream(tick + seed, rate(tick), m.dims());
            m.tick(Timestamp(tick), &arrivals).unwrap();
            for (i, q) in queries.iter().enumerate() {
                assert_eq!(
                    m.result(QueryId(i as u64)).unwrap(),
                    brute(m.grid(), q),
                    "{}: query {i} diverged at tick {tick}",
                    m.name()
                );
            }
        }
    }

    fn registration_and_removal<P: BandPolicy>() {
        let mut m = Mon::<P>::new(2, WindowSpec::Count(10), GridSpec::PerDim(4)).unwrap();
        assert!(
            m.register_query(QueryId(0), linear(&[1.0], 1)).is_err(),
            "dims mismatch"
        );
        let q = linear(&[1.0, 1.0], 2);
        m.register_query(QueryId(0), q.clone()).unwrap();
        assert!(matches!(
            m.register_query(QueryId(0), q),
            Err(TkmError::DuplicateQuery(_))
        ));
        assert!(m.remove_query(QueryId(9)).is_err());
        m.remove_query(QueryId(0)).unwrap();
        assert!(m.remove_query(QueryId(0)).is_err());
        assert!(m.result(QueryId(0)).is_err());
        assert_eq!(m.maintenance().influence().total_entries(), 0);
    }

    fn tracks_brute_force_over_stream<P: BandPolicy>() {
        let queries = [
            linear(&[1.0, 2.0], 3),
            linear(&[1.0, -1.0], 5),
            Query::top_k(ScoreFn::quadratic(vec![1.0, 0.3]).unwrap(), 6).unwrap(),
        ];
        let mut m = Mon::<P>::new(2, WindowSpec::Count(50), GridSpec::PerDim(8)).unwrap();
        track(&mut m, &queries, 60, 1, |_| 8);
        assert_eq!(m.name(), P::LABEL);
        let s = m.stats();
        // Stream-side counters come from the ingest stage alone.
        assert_eq!((s.ticks, s.arrivals), (60, 480));
        assert!(
            s.recompute_queries >= 3,
            "registrations run the computation module"
        );
        assert!(s.cells_processed > 0);
        // The headline claims. SMA rarely/never recomputes in steady
        // state (for uniform data, little beyond the three initial
        // computations); TMA's refill band absorbs result expiries, so
        // its recomputations stay far below the once-per-affected-tick
        // rate of the paper's bare TMA.
        let max = if P::cap(1) == usize::MAX { 6 } else { 20 };
        assert!(
            s.recomputations() <= max,
            "{} recomputed {} times — band maintenance is broken",
            m.name(),
            s.recomputations()
        );
    }

    fn constrained_query_tracks_brute_force<P: BandPolicy>() {
        for (lo, hi, w, k, seed) in [
            ([0.2, 0.2], [0.7, 0.7], [1.0, 1.0], 3, 77),
            ([0.3, 0.1], [0.9, 0.6], [2.0, 1.0], 4, 31),
        ] {
            let mut m = Mon::<P>::new(2, WindowSpec::Count(40), GridSpec::PerDim(6)).unwrap();
            let r = Rect::new(lo.to_vec(), hi.to_vec()).unwrap();
            let q = Query::constrained(ScoreFn::linear(w.to_vec()).unwrap(), k, r).unwrap();
            track(&mut m, &[q], 40, seed, |_| 6);
        }
    }

    fn time_window_tracks_brute_force<P: BandPolicy>() {
        let mut m = Mon::<P>::new(3, WindowSpec::Time(5), GridSpec::PerDim(5)).unwrap();
        let q = Query::top_k(ScoreFn::product(vec![0.1, 0.1, 0.1]).unwrap(), 4).unwrap();
        // Variable arrival rates.
        track(&mut m, &[q], 30, 13, |tick| 3 + (tick % 4) as usize);
        let mut m = Mon::<P>::new(2, WindowSpec::Time(6), GridSpec::PerDim(6)).unwrap();
        let q = linear(&[1.0, 0.5], 3);
        track(&mut m, &[q], 30, 7, |tick| 2 + (tick % 5) as usize);
    }

    fn band_stays_small<P: BandPolicy>() {
        let mut m = Mon::<P>::new(2, WindowSpec::Count(100), GridSpec::PerDim(8)).unwrap();
        m.register_query(QueryId(0), linear(&[0.7, 0.9], 10))
            .unwrap();
        for tick in 0..50u64 {
            m.tick(Timestamp(tick), &lcg_stream(tick, 10, 2)).unwrap();
        }
        let len = m.band_len(QueryId(0)).unwrap();
        assert!(len >= 10);
        assert!(len <= 40, "band grew to {len}; dominance pruning is broken");
        assert_eq!(m.avg_band_len(), len as f64);
    }

    fn window_smaller_than_k_no_thrash<P: BandPolicy>() {
        let mut m = Mon::<P>::new(1, WindowSpec::Count(100), GridSpec::PerDim(4)).unwrap();
        track(&mut m, &[linear(&[1.0], 50)], 10, 0, |_| 3);
        // One initial computation; deficiency with an exhausted window must
        // not recompute every tick.
        assert_eq!(m.stats().recomputations(), 1);
    }

    fn rejects_bad_input<P: BandPolicy>() {
        let mut m = Mon::<P>::new(2, WindowSpec::Count(4), GridSpec::PerDim(4)).unwrap();
        assert!(m.tick(Timestamp(0), &[0.5]).is_err());
        assert!(m.tick(Timestamp(0), &[0.5, 1.2]).is_err());
        assert!(m.result(QueryId(0)).is_err());
    }

    fn query_removal_clears_influence<P: BandPolicy>() {
        let mut m = Mon::<P>::new(2, WindowSpec::Count(10), GridSpec::PerDim(5)).unwrap();
        m.tick(Timestamp(0), &lcg_stream(3, 5, 2)).unwrap();
        m.register_query(QueryId(1), linear(&[1.0, 1.0], 2))
            .unwrap();
        assert!(m.maintenance().influence().total_entries() > 0);
        m.remove_query(QueryId(1)).unwrap();
        assert_eq!(m.maintenance().influence().total_entries(), 0);
        // Subsequent ticks must not touch the removed query.
        m.tick(Timestamp(1), &lcg_stream(4, 5, 2)).unwrap();
    }

    /// Burst larger than the count window: same-cycle transients must not
    /// corrupt results (they are skipped in Pins, see maintenance docs).
    fn burst_overrunning_window_stays_exact<P: BandPolicy>() {
        let mut m = Mon::<P>::new(2, WindowSpec::Count(4), GridSpec::PerDim(4)).unwrap();
        // 7 then 9 arrivals into a 4-window: the first 3 (then 5) expire
        // within their own cycle.
        let q = linear(&[1.0, 1.0], 2);
        track(&mut m, &[q], 2, 99, |tick| 7 + 2 * tick as usize);
        assert_eq!(m.timeline().len(), 4);
    }

    /// Replaying the drained deltas onto registration-time mirrors must
    /// reconstruct `result()`; the stream is id-ordered; nothing is
    /// reported before `track_changes`, and calling it mid-stream discards
    /// what was pending.
    fn reports_changes_of_touched_queries_only<P: BandPolicy>() {
        let mut m = Mon::<P>::new(2, WindowSpec::Count(40), GridSpec::PerDim(5)).unwrap();
        let mut out = Vec::new();
        m.register_query(QueryId(0), linear(&[1.0, 0.2], 3))
            .unwrap();
        m.tick(Timestamp(0), &lcg_stream(5, 12, 2)).unwrap();
        m.drain_changes(&mut out);
        assert!(out.is_empty(), "not tracking yet");

        // Mid-stream: the current results are the baseline, so the tick
        // above is never reported.
        m.track_changes();
        let mut mirrors = vec![m.result(QueryId(0)).unwrap()];
        for i in 1..9u64 {
            let q = linear(
                &[1.0 + i as f64 * 0.3, 2.0 - i as f64 * 0.2],
                1 + i as usize % 4,
            );
            m.register_query(QueryId(i), q).unwrap();
            mirrors.push(m.result(QueryId(i)).unwrap());
        }
        m.drain_changes(&mut out);
        assert!(out.is_empty(), "registration results are the baseline");

        let mut moved = 0;
        for tick in 1..=40u64 {
            m.tick(Timestamp(tick), &lcg_stream(tick + 7, 6, 2))
                .unwrap();
            if tick % 3 == 0 {
                continue; // changes of several cycles fold into one delta
            }
            m.drain_changes(&mut out);
            assert!(out.windows(2).all(|w| w[0].query < w[1].query));
            for d in &out {
                assert!(!d.is_empty());
                d.apply(&mut mirrors[d.query.0 as usize]);
            }
            for (i, mirror) in mirrors.iter().enumerate() {
                assert_eq!(mirror, &m.result(QueryId(i as u64)).unwrap());
            }
            moved += out.len();
            out.clear();
        }
        m.drain_changes(&mut out);
        assert!(out.is_empty(), "drained");
        assert!(moved > 20, "the stream moved results");
    }

    /// A query removed while its slot is marked, and another registered
    /// into the recycled slot before the marks are drained: the newcomer
    /// is reported relative to its own registration result, the dead query
    /// not at all.
    fn recycled_slot_starts_from_its_own_baseline<P: BandPolicy>() {
        let mut m = Mon::<P>::new(2, WindowSpec::Count(20), GridSpec::PerDim(4)).unwrap();
        m.track_changes();
        m.register_query(QueryId(0), linear(&[1.0, 1.0], 2))
            .unwrap();
        m.register_query(QueryId(1), linear(&[0.3, 1.0], 2))
            .unwrap();
        m.tick(Timestamp(0), &lcg_stream(1, 8, 2)).unwrap();
        // Both slots are marked now; free slot 0 and refill it.
        m.remove_query(QueryId(0)).unwrap();
        m.register_query(QueryId(2), linear(&[1.0, 0.1], 4))
            .unwrap();
        assert_eq!(
            m.maintenance().query_slot(QueryId(2)),
            Some(tkm_common::QuerySlot(0)),
            "slot reused"
        );
        let mut mirror = m.result(QueryId(2)).unwrap();
        let mut out = Vec::new();
        m.drain_changes(&mut out);
        assert_eq!(out.len(), 1, "only the surviving query changed: {out:?}");
        assert_eq!(out[0].query, QueryId(1));

        out.clear();
        m.tick(Timestamp(1), &lcg_stream(2, 8, 2)).unwrap();
        // A marked slot left dead is skipped, not resolved.
        m.remove_query(QueryId(1)).unwrap();
        m.drain_changes(&mut out);
        assert!(out.iter().all(|d| d.query == QueryId(2)));
        for d in &out {
            d.apply(&mut mirror);
        }
        assert_eq!(mirror, m.result(QueryId(2)).unwrap());

        // Slot 1 is refilled by a smaller id than slot 0's: the stream is
        // ordered by query, not by slot.
        m.register_query(QueryId(1), linear(&[0.5, 0.5], 3))
            .unwrap();
        out.clear();
        m.tick(Timestamp(2), &lcg_stream(3, 8, 2)).unwrap();
        m.drain_changes(&mut out);
        let ids: Vec<u64> = out.iter().map(|d| d.query.0).collect();
        assert_eq!(ids, [1, 2]);
    }
}
