//! The per-query maintenance stage, decoupled from tuple ingest.
//!
//! A [`QueryMaintenance`] value owns everything that is *per-query*: the
//! queries themselves and their result book-keeping, and — in the
//! `QueryTable` every grid stage keeps its queries in — the influence
//! lists covering them and the traversal scratch. It never mutates the
//! timeline or grid — every cycle it *replays* the event lists recorded by
//! [`IngestState::ingest`] against an immutable `&IngestState` view, so
//! [`crate::Monitor`] is exactly one ingest stage plus one maintenance
//! stage, and [`crate::ThresholdMonitor`] plugs into the same ingest.
//!
//! # One stage, two policies
//!
//! The paper's §5 reduces top-k monitoring to k-skyband maintenance. The
//! engine labelled `TMA` here is not the paper's TMA (Figure 9, which keeps
//! the top k and recomputes when one of them expires): it is an SMA-style
//! band at [`tuned_kmax`] depth, §8's refill idea, so it and SMA (Figure
//! 11) are the *same* algorithm at two band depths.
//! [`BandMaintenance`] is that algorithm: each query keeps a
//! [`Skyband`] of the tuples scoring at least its *admission threshold*
//! (the depth-th score at the last from-scratch computation, −∞ while the
//! window could not fill the band), and the band's k-prefix is the result.
//! A compile-time [`BandPolicy`] carries the only things that differ:
//!
//! | policy | band depth | tightening cap (band size) | label |
//! |--------|------------|----------------------------|-------|
//! | [`TmaPolicy`] | [`tuned_kmax`]`(k)` | `2·depth + 8` | `TMA` |
//! | [`SmaPolicy`] | `k` | never | `SMA` |
//!
//! Exactness is a one-liner: the threshold is static between
//! recomputations and every band entry scores ≥ it, so the band is the
//! depth-skyband of *all* window tuples at or above the threshold, and
//! while it holds ≥ k entries its k-prefix is the exact top-k. A query
//! falls back to the computation module when
//! `len < k && (len < window.len() || threshold > −∞)` (the band drained
//! and the window could supply more — or holds nothing more, but a finite
//! threshold would keep rejecting what arrives next) or `len > cap` (a
//! band started over a sparse window admits generously; one traversal
//! resets it to ~depth entries and raises the threshold — and, the
//! threshold having been −∞, also sweeps the flood-sized influence
//! region).
//!
//! The fallback is the paper's computation module, one query per
//! traversal ([`crate::compute::compute_topk`], Figure 6): each affected
//! query that needs it is recomputed inline, walks only its own influence
//! region, and reseeds its band from the traversal's result. A
//! synchronized expiry wave that forces hundreds of queries to recompute
//! costs hundreds of short traversals; a shared traversal serving a whole
//! group at once was tried and measured slower per query on every workload
//! shape (O(members × union of their regions), see CHANGES.md).
//!
//! The replay loop is built for throughput:
//!
//! * per-query state lives in the table's dense registry and the
//!   influence lists carry 4-byte [`QuerySlot`]s, so resolving an
//!   influence entry is a `Vec` index instead of a `BTreeMap` probe;
//! * events are replayed **grouped by cell**, and only in listed cells:
//!   the query table groups the cycle's raw event cells
//!   ([`IngestState::arrival_cells`]) and drops every event whose cell
//!   no query lists ([`crate::influence::ListedEvents`]); a run's points
//!   are the newest points of its cell's chain
//!   ([`IngestState::arrival_run_points`], resolved once per run): each
//!   listed cell's influence list is walked once per tick and the run's
//!   packed chunks stream through the dim-specialized [`crate::kernel`]
//!   scan for every listed query with that query's state hot in cache
//!   (the loop order is cell → chunk → query → tuple) — replay scoring
//!   never resolves a tuple by id and never copies a coordinate;
//! * the scoring kernel is resolved once per cycle: the arrival pass runs
//!   at the dimensionality `kernel::dispatch_dims` matches once per
//!   [`QueryMaintenance::apply_events`], and each (run slice, listed
//!   query) pair matches only its function's family and runs that
//!   family's fixed-dimension scan inlined, so the staging flags stay in
//!   registers (d > 4 and custom functions run the per-point reference,
//!   constrained queries the constrained scan);
//! * the arrival replay is two passes, *score-and-stage* then *merge*: an
//!   arrival at or above its query's threshold is only appended to the
//!   band's staged tail ([`Skyband::stage`], inside capacity the band
//!   already owns), and when the runs are exhausted each band with staged
//!   arrivals folds them in with **one** sweep ([`Skyband::merge`]) — one
//!   dominance-counting pass per band per cycle instead of one per
//!   arrival, which is what a hot-group or post-expiry-wave tick, where a
//!   query absorbs tens of arrivals, used to pay for. A band merges early
//!   only when its spare capacity runs out, so staging allocates nothing
//!   and no structure remembers a flood tick's high-water mark;
//! * the traversal heap, the frontier and one recycled result list live
//!   with the stage, so a recomputation allocates nothing of its own;
//! * the policy is a type parameter, monomorphised per engine: no runtime
//!   branch on TMA-vs-SMA enters the loop.
//!
//! Two deliberate differences from the interleaved originals. An arrival
//! that expires within its own cycle (count window overrun by a burst) is
//! skipped instead of being offered and then removed: such a tuple is
//! evicted only after every older tuple (windows are FIFO), so skipping it
//! never hides a result candidate, and the recompute-on-expiry path
//! restores exactness for whatever the burst displaced. And a cycle's
//! arrivals reach a band as one batch, not one by one (Figure 11 lines
//! 4–11 update the skyband per tuple): the merge counts, for every entry,
//! the newer entries ranking above it — exactly the dominance relation of
//! §3.1, so the band it leaves is the one per-tuple insertion in arrival
//! order would, and an arrival that already has `depth` newer same-cycle
//! arrivals above it is never stored at all (`result_updates` counts the
//! arrivals a band *kept*). The differential suites pin the merge to the
//! per-arrival reference ([`Skyband::insert`]) and the results to the oracle
//! (`tests/soa_cells.rs` and friends) either way.

use std::marker::PhantomData;

use crate::influence::{ListedEvents, QueryTable, Recomputed, TableEntry};
use crate::ingest::IngestState;
use crate::kernel::{self, Dims, DimsVisitor};
use crate::query::Query;
use crate::registry::QueryRegistry;
use crate::result::{ResultDelta, TopList};
use crate::skyband::{tuned_kmax, MergeScratch, Skyband};
use crate::stats::EngineStats;
use tkm_common::{HeapBytes, QueryId, QuerySlot, Rect, Result, ScoreFn, Scored, TupleId};
use tkm_grid::{InfluenceTable, StoredIds};
use tkm_window::Timeline;

/// The per-query monitoring state of one monitor.
///
/// Implementations must be [`Send`] so the monitor built on them can move
/// onto a serving thread (`tkm_service`'s `Service::bind` does); the
/// ingest state they read is only borrowed immutably. A stage lives inline
/// in its [`crate::Monitor`], so its [`HeapBytes`] counts the heap it owns
/// and not its struct: the monitor, the root, adds that once.
pub trait QueryMaintenance: HeapBytes + Send {
    /// Label reported by a monitor built on this stage.
    const LABEL: &'static str;

    /// Creates an empty maintenance stage sized for `shared`'s grid.
    fn new_for(shared: &IngestState) -> Self
    where
        Self: Sized;

    /// Registers a query and computes its initial result against the
    /// current window.
    fn register_query(&mut self, shared: &IngestState, id: QueryId, query: Query) -> Result<()>;

    /// Terminates a query, clearing its influence-list entries.
    fn remove_query(&mut self, shared: &IngestState, id: QueryId) -> Result<()>;

    /// Replays the shared state's last recorded cycle (arrival events, then
    /// expiry events, then recomputation of affected queries) against this
    /// stage's queries.
    fn apply_events(&mut self, shared: &IngestState) -> Result<()>;

    /// The current top-k result of a query, best first.
    fn result(&self, id: QueryId) -> Result<Vec<Scored>>;

    /// Starts change reporting ("report changes to the client", Figures 9
    /// and 11): every query's current result becomes its reported
    /// baseline, a query registered from now on is baselined at its
    /// registration result, and each cycle marks the queries it touched.
    /// Calling it again re-baselines and discards the pending marks.
    fn track_changes(&mut self);

    /// Appends one [`ResultDelta`] per marked query whose result differs
    /// from its baseline, refreshing the baseline, and clears the marks.
    /// Appends nothing before [`QueryMaintenance::track_changes`]. The
    /// order within the appended run is the stage's own;
    /// [`crate::Monitor`] puts it into `QueryId` order.
    fn drain_changes(&mut self, out: &mut Vec<ResultDelta>);

    /// One-shot top-k over the current window, leaving no state behind.
    fn snapshot(&mut self, shared: &IngestState, query: &Query) -> Result<Vec<Scored>>;

    /// Cumulative maintenance-side counters (stream-side counters live in
    /// [`IngestState::stats`]).
    fn stats(&self) -> EngineStats;
}

/// What distinguishes the paper's two maintenance modules once both keep a
/// band (see the module docs for the table). `Send` because
/// [`BandMaintenance`] carries its policy and must be [`QueryMaintenance`].
pub trait BandPolicy: Send {
    /// Engine label.
    const LABEL: &'static str;
    /// Dominance parameter of the band kept for a top-`k` query.
    fn depth(k: usize) -> usize;
    /// Band size above which a healthy band is recomputed anyway to
    /// tighten its admission threshold.
    fn cap(depth: usize) -> usize;
}

/// The engine labelled `TMA`: an SMA-style band at [`tuned_kmax`] depth,
/// not the paper's TMA of Figure 9 (which recomputes whenever a result
/// tuple expires). The deeper band absorbs result expiries without
/// touching the grid, and a band past `2·depth + 8` entries is tightened.
#[derive(Debug)]
pub struct TmaPolicy;

impl BandPolicy for TmaPolicy {
    const LABEL: &'static str = "TMA";
    fn depth(k: usize) -> usize {
        tuned_kmax(k)
    }
    fn cap(depth: usize) -> usize {
        2 * depth + 8
    }
}

/// SMA (paper Figure 11): the k-skyband itself, recomputed only on
/// deficiency.
#[derive(Debug)]
pub struct SmaPolicy;

impl BandPolicy for SmaPolicy {
    const LABEL: &'static str = "SMA";
    fn depth(k: usize) -> usize {
        k
    }
    fn cap(_depth: usize) -> usize {
        usize::MAX
    }
}

/// TMA maintenance: [`BandMaintenance`] under [`TmaPolicy`].
pub type TmaMaintenance = BandMaintenance<TmaPolicy>;
/// SMA maintenance: [`BandMaintenance`] under [`SmaPolicy`].
pub type SmaMaintenance = BandMaintenance<SmaPolicy>;

/// The still-live suffix of an arrival run, skipping same-cycle transients
/// (already expired: cannot be in the final window, so they never have to
/// enter any result book-keeping).
///
/// Tuple ids are dense arrival sequence numbers and windows expire
/// strictly in id order, so the live window is the contiguous id range
/// `[oldest, newest]`; within a run the ids ascend, which makes the live
/// subset a suffix that can be sliced off without copying and without
/// resolving a single tuple. Returns `None`
/// when nothing of the run survived (or the window is empty). The matching
/// coordinates come from [`IngestState::arrival_run_points`] — the newest
/// points of the cell's own chain.
pub(crate) fn live_suffix<'a>(timeline: &Timeline, ids: &'a [TupleId]) -> Option<&'a [TupleId]> {
    let oldest = timeline.oldest()?;
    let start = ids.partition_point(|&id| id < oldest);
    if start == ids.len() {
        return None;
    }
    Some(&ids[start..])
}

#[derive(Debug)]
pub(crate) struct BandQuery {
    query: Query,
    /// The depth-skyband of the window tuples scoring ≥ `admit`; its
    /// `query.k`-prefix is the current result.
    band: Skyband,
    /// Admission threshold: the depth-th score at the last from-scratch
    /// computation (−∞ while the window cannot fill the band). Static
    /// between recomputations — that is what makes the exactness argument
    /// a one-liner (module docs).
    admit: f64,
    /// The result as last reported through `drain_changes`: `query.k`
    /// entries of capacity taken at registration while change tracking is
    /// on, no buffer otherwise.
    reported: Vec<Scored>,
    /// Whether the slot is already on this cycle's `affected` list.
    affected: bool,
    /// Whether a merge forced by a full band already stored one of this
    /// cycle's arrivals, so the slot stays listed even if the end-of-runs
    /// merge stores nothing more.
    stored_early: bool,
    /// Monotone floor of [`ComputeOutcome::region_bound`] over the
    /// computations since the last *resync* (a traversal that underfilled
    /// the band): cells with traversal keys strictly above this already
    /// carry the slot. Recomputations only lower it — a tightening
    /// traversal keeps the old superset listing instead of shrinking the
    /// region, so alternating thresholds stop churning the influence
    /// lists (see [`reseed`]).
    ///
    /// [`ComputeOutcome::region_bound`]: crate::compute::ComputeOutcome
    region_bound: f64,
}

impl HeapBytes for BandQuery {
    fn heap_bytes(&self) -> usize {
        self.query.heap_bytes() + self.band.heap_bytes() + self.reported.heap_bytes()
    }
}

impl TableEntry for BandQuery {
    fn region(&self) -> (&ScoreFn, Option<&Rect>) {
        self.query.region()
    }
}

/// A traversal refills the band, ties at the depth-th score included.
impl Recomputed for BandQuery {
    const TRACK_TIES: bool = true;
    fn depth(&self) -> usize {
        self.band.k()
    }
    fn listed_above(&self) -> f64 {
        self.region_bound
    }
}

impl BandQuery {
    /// Scores one slice of an arrival run for this query and stages every
    /// arrival at or above the admission threshold in its band. Returns
    /// whether any arrival was staged and how many arrivals a merge forced
    /// by a full band stored.
    #[inline(always)]
    fn stage_arrivals<D: Dims>(
        &mut self,
        dims: D,
        ids: StoredIds<'_>,
        coords: &[f64],
        scratch: &mut MergeScratch,
    ) -> (bool, usize) {
        let admit = self.admit;
        let band = &mut self.band;
        let mut staged = false;
        let mut stored = 0;
        dims.scan(
            &self.query.f,
            ids,
            coords,
            self.query.constraint.as_ref(),
            |id, score| {
                if score >= admit {
                    staged = true;
                    stored += band.stage(Scored::new(score, id), scratch);
                }
            },
        );
        (staged, stored)
    }
}

/// The score-and-stage pass of a cycle's arrival replay (module docs),
/// run at the cycle's dimensionality: cell → chunk → query → tuple. The
/// run's packed coordinates (the newest points of the cell's own chain,
/// still warm from ingest) stream through the query's scoring kernel once
/// per listed query; no window resolution per tuple. Each slice of the
/// run is resolved once and handed to every listed query before the next
/// one (a run is nearly always one slice; a query still sees its run in
/// arrival order). Arrivals scoring at/above the admission threshold are
/// only *staged* in their query's band, which merges early just when its
/// spare capacity runs out. Every run's cell is listed: the table kept
/// only those.
struct StageArrivals<'a> {
    shared: &'a IngestState,
    influence: &'a InfluenceTable,
    queries: &'a mut QueryRegistry<BandQuery>,
    events: &'a ListedEvents,
    stats: &'a mut EngineStats,
    affected: &'a mut Vec<QuerySlot>,
    scratch: &'a mut MergeScratch,
}

impl DimsVisitor for StageArrivals<'_> {
    type Out = ();

    fn visit<D: Dims>(self, dims: D) {
        let StageArrivals {
            shared,
            influence,
            queries,
            events,
            stats,
            affected,
            scratch,
        } = self;
        for (cell, ids) in events.arrival_runs() {
            let slots = influence.as_slice(cell);
            let Some(ids) = live_suffix(shared.timeline(), ids) else {
                continue;
            };
            stats.cell_probes += slots.len() as u64;
            stats.tuple_probes += (slots.len() * ids.len()) as u64;
            for (ids, coords) in shared.arrival_run_points(cell, ids.len()).chunks() {
                for &slot in slots {
                    let (_, st) = queries.slot_mut(slot);
                    let (staged, stored) = st.stage_arrivals(dims, ids, coords, scratch);
                    if stored > 0 {
                        stats.result_updates += stored as u64;
                        st.stored_early = true;
                    }
                    if staged && !st.affected {
                        st.affected = true;
                        affected.push(slot);
                    }
                }
            }
        }
    }
}

/// Where `slot`'s mark lives in the `dirty` bitmap: word index, bit mask.
#[inline]
fn mark_of(slot: QuerySlot) -> (usize, u64) {
    (slot.index() / 64, 1 << (slot.index() % 64))
}

/// Makes `st`'s current result its reported baseline (taking the `k`
/// entries of capacity the in-place refreshes need) and gives its slot a
/// word in the `dirty` bitmap.
fn baseline(dirty: &mut Vec<u64>, slot: QuerySlot, st: &mut BandQuery) {
    st.reported.clear();
    st.reported.reserve_exact(st.query.k);
    st.reported.extend_from_slice(st.band.prefix(st.query.k));
    let (word, _) = mark_of(slot);
    if dirty.len() <= word {
        dirty.resize(word + 1, 0);
    }
}

/// Reseeds `st`'s band from a fresh computation and feeds the traversal's
/// bound back. Returns whether this was a *resync*: the previous traversal
/// underfilled the band (registration, or a window drained below the band
/// depth), so the fresh bound is assigned and the caller must sweep the
/// stale listing. Otherwise the region bound is a monotone floor: a
/// tightening recomputation keeps the old, larger listing (a superset
/// region is sound — arrivals in the extra cells fail the admission test,
/// expirations miss the band — it only costs replay probes), so a
/// threshold flip-flop between recomputations stops churning the
/// influence lists.
fn reseed(st: &mut BandQuery, seed: &mut Vec<Scored>, top: &TopList, region_bound: f64) -> bool {
    // Seed the band with the top-depth plus the candidates tying the
    // depth-th score: a tie-loser outlives the tied band member and can
    // enter a future result, so dropping it would lose exactness.
    seed.clear();
    seed.extend_from_slice(top.as_slice());
    top.append_boundary_ties(seed);
    st.band.rebuild(seed);
    let resync = st.admit == f64::NEG_INFINITY;
    st.admit = top.threshold();
    st.region_bound = if resync {
        region_bound
    } else {
        st.region_bound.min(region_bound)
    };
    resync
}

/// The one maintenance stage behind TMA and SMA (module docs): exact top-k
/// prefixes served from a per-query band, from-scratch recomputation only
/// when a band drains below `k` or outgrows its policy's cap.
#[derive(Debug)]
pub struct BandMaintenance<P> {
    table: QueryTable<BandQuery>,
    stats: EngineStats,
    /// Reused per-tick scratch: slots whose band stored or lost a tuple
    /// this cycle (deduplicated via the per-query `affected` flag). During
    /// the arrival pass it lists every slot with staged arrivals; the
    /// merge pass unlists those whose merges stored nothing.
    affected: Vec<QuerySlot>,
    /// Output buffers of the band merges, shared by every query.
    merge_scratch: MergeScratch,
    /// Whether `track_changes` was called.
    tracking: bool,
    /// While tracking: one bit per slot, set when a cycle lists the slot
    /// as `affected` (the only way a band, hence a result, changes) and
    /// cleared when `drain_changes` reports it or the query is removed —
    /// so a recycled slot never inherits its predecessor's mark, and the
    /// sweep visits slots in slot order without sorting anything.
    dirty: Vec<u64>,
    /// Band seed of the recomputation in progress: the traversal's top
    /// list followed by its boundary ties.
    seed: Vec<Scored>,
    /// The result list every recomputation fills, recycled from the last
    /// one (hollow until the first).
    rec: TopList,
    policy: PhantomData<P>,
}

impl<P: BandPolicy> BandMaintenance<P> {
    /// The dense slot of a live query — the index its influence-list
    /// entries carry (diagnostics).
    pub fn query_slot(&self, id: QueryId) -> Option<QuerySlot> {
        self.table.queries().slot_of(id)
    }

    /// This stage's influence lists (read access, for diagnostics).
    pub fn influence(&self) -> &InfluenceTable {
        self.table.influence()
    }

    #[cfg(test)]
    pub(crate) fn table(&self) -> &QueryTable<BandQuery> {
        &self.table
    }

    /// Current band size of a query (Table 2 reports SMA's average).
    pub fn band_len(&self, id: QueryId) -> Result<usize> {
        Ok(self.table.get(id)?.band.len())
    }

    /// Mean band size across queries (Table 2 reports it for SMA).
    pub fn avg_band_len(&self) -> f64 {
        let queries = self.table.queries();
        if queries.is_empty() {
            return 0.0;
        }
        let total: usize = queries.iter().map(|(_, q)| q.band.len()).sum();
        total as f64 / queries.len() as f64
    }

    /// Runs the computation module for `slot` at band depth and reseeds
    /// its band, sweeping the stale listing after a resync.
    fn recompute(
        table: &mut QueryTable<BandQuery>,
        shared: &IngestState,
        stats: &mut EngineStats,
        seed: &mut Vec<Scored>,
        rec: &mut TopList,
        slot: QuerySlot,
    ) {
        let (st, out) = table.recompute(shared.grid(), slot, std::mem::take(rec), stats);
        if reseed(st, seed, &out.top, out.region_bound) {
            stats.cleanup_cells += table.sweep_frontier(shared.grid(), slot);
        }
        *rec = out.top;
    }

    /// Whether `st` must fall back to a from-scratch computation: either
    /// the band can no longer serve an exact k-prefix while the window
    /// could supply more candidates, or the band outgrew the policy's cap
    /// and wants its threshold tightened. A band below `k` that holds the
    /// *whole* window is exact by construction only while its threshold
    /// admits everything: with a finite threshold left over from a fuller
    /// window it takes one last (underfilling) traversal, which resets
    /// the threshold to −∞ and lists every cell — after that, recomputing
    /// every tick would be wasted work and is skipped.
    fn needs_recompute(st: &BandQuery, shared: &IngestState) -> bool {
        let len = st.band.len();
        (len < st.query.k && (len < shared.timeline().len() || st.admit > f64::NEG_INFINITY))
            || len > P::cap(st.band.k())
    }
}

impl<P: BandPolicy> QueryMaintenance for BandMaintenance<P> {
    const LABEL: &'static str = P::LABEL;

    fn new_for(shared: &IngestState) -> Self {
        BandMaintenance {
            table: QueryTable::new(shared.grid().num_cells()),
            stats: EngineStats::default(),
            affected: Vec::new(),
            merge_scratch: MergeScratch::default(),
            tracking: false,
            dirty: Vec::new(),
            seed: Vec::new(),
            rec: TopList::default(),
            policy: PhantomData,
        }
    }

    fn register_query(&mut self, shared: &IngestState, id: QueryId, query: Query) -> Result<()> {
        let band = Skyband::new(P::depth(query.k))?;
        let slot = self.table.insert(
            shared.grid(),
            id,
            BandQuery {
                query,
                band,
                admit: f64::NEG_INFINITY,
                reported: Vec::new(),
                affected: false,
                stored_early: false,
                region_bound: f64::INFINITY,
            },
        )?;
        let Self {
            table,
            stats,
            seed,
            rec,
            ..
        } = self;
        Self::recompute(table, shared, stats, seed, rec, slot);
        if self.tracking {
            baseline(&mut self.dirty, slot, self.table.slot_mut(slot).1);
        }
        Ok(())
    }

    fn remove_query(&mut self, shared: &IngestState, id: QueryId) -> Result<()> {
        let (slot, swept) = self.table.remove(shared.grid(), id)?;
        self.stats.cleanup_cells += swept;
        let (word, bit) = mark_of(slot);
        if let Some(marks) = self.dirty.get_mut(word) {
            *marks &= !bit;
        }
        Ok(())
    }

    fn apply_events(&mut self, shared: &IngestState) -> Result<()> {
        let Self {
            table,
            stats,
            affected,
            merge_scratch,
            tracking,
            dirty,
            seed,
            rec,
            policy: _,
        } = self;
        affected.clear();
        let (influence, queries, events) = table.group_events(shared);

        // ---- Pins (Figure 9 lines 3-7, Figure 11 lines 4-11), inverted:
        // score-and-stage, at the cycle's dimensionality (`StageArrivals`).
        kernel::dispatch_dims(
            shared.dims(),
            StageArrivals {
                shared,
                influence,
                queries: &mut *queries,
                events,
                stats: &mut *stats,
                affected: &mut *affected,
                scratch: &mut *merge_scratch,
            },
        );

        // Merge: the arrival runs are exhausted, so every band with staged
        // arrivals folds them in with one sweep — its whole cycle's worth
        // of dominance counting — and only the slots whose merges stored
        // an arrival stay on the `affected` list.
        affected.retain(|&slot| {
            let (_, st) = queries.slot_mut(slot);
            let stored = st.band.merge(merge_scratch);
            stats.result_updates += stored as u64;
            st.affected = stored > 0 || st.stored_early;
            st.stored_early = false;
            st.affected
        });

        // ---- Pdel (Figure 9 lines 8-11, Figure 11 lines 12-16), same
        // inversion; no coordinates needed. An expiry inside the band is
        // absorbed: the next band entry slides into the k-prefix with no
        // grid work at all.
        //
        // A synchronized expiry wave turns the per-tuple replay quadratic:
        // the wave's tuples are the very top scorers, so every one of them
        // lands in cells that every query covers, and each (cell, covering
        // query, tuple) triple costs a linear band probe. Once the probe
        // count exceeds the fleet size, one sweep per band against the
        // oldest live id is strictly cheaper — windows expire in id order,
        // so "older than the oldest live tuple" identifies the expired
        // band entries exactly.
        let mut probes = 0usize;
        for (cell, tuples) in events.expiry_runs() {
            probes += influence.as_slice(cell).len() * tuples.len();
        }
        if probes > 2 * queries.len() {
            let cutoff = shared.timeline().oldest().unwrap_or(TupleId(u64::MAX));
            for (slot, _, st) in queries.slots_mut() {
                stats.tuple_probes += 1;
                if st.band.expire_before(cutoff).is_some() && !st.affected {
                    st.affected = true;
                    affected.push(slot);
                }
            }
        } else {
            for (cell, tuples) in events.expiry_runs() {
                for &slot in influence.as_slice(cell) {
                    stats.cell_probes += 1;
                    let (_, st) = queries.slot_mut(slot);
                    for &id in tuples {
                        stats.tuple_probes += 1;
                        if st.band.expire(id).is_some() && !st.affected {
                            st.affected = true;
                            affected.push(slot);
                        }
                    }
                }
            }
        }

        // ---- Fallback recomputation (Figure 9 lines 12-21, Figure 11
        // lines 17-22) — only for the affected queries `needs_recompute`
        // selects, one traversal each.
        for &slot in affected.iter() {
            let (_, st) = table.slot_mut(slot);
            st.affected = false;
            if *tracking {
                let (word, bit) = mark_of(slot);
                dirty[word] |= bit;
            }
            if Self::needs_recompute(st, shared) {
                Self::recompute(table, shared, stats, seed, rec, slot);
            }
        }
        Ok(())
    }

    fn result(&self, id: QueryId) -> Result<Vec<Scored>> {
        let q = self.table.get(id)?;
        Ok(q.band.prefix(q.query.k).to_vec())
    }

    fn track_changes(&mut self) {
        self.tracking = true;
        self.dirty.clear();
        for (slot, _, st) in self.table.split().1.slots_mut() {
            baseline(&mut self.dirty, slot, st);
        }
    }

    fn drain_changes(&mut self, out: &mut Vec<ResultDelta>) {
        for (w, word) in self.dirty.iter_mut().enumerate() {
            let mut marks = std::mem::take(word);
            while marks != 0 {
                let slot = QuerySlot(w as u32 * 64 + marks.trailing_zeros());
                marks &= marks - 1;
                let (id, st) = self.table.slot_mut(slot);
                ResultDelta::report(id, &mut st.reported, st.band.prefix(st.query.k), out);
            }
        }
    }

    fn snapshot(&mut self, shared: &IngestState, query: &Query) -> Result<Vec<Scored>> {
        self.table.snapshot(shared.grid(), query)
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }
}

impl<P> HeapBytes for BandMaintenance<P> {
    fn heap_bytes(&self) -> usize {
        self.table.heap_bytes()
            + self.affected.heap_bytes()
            + self.merge_scratch.heap_bytes()
            + self.dirty.heap_bytes()
            + self.seed.heap_bytes()
            + self.rec.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::GridSpec;
    use crate::testutil::lcg_stream;
    use proptest::prelude::*;
    use tkm_common::{ScoreFn, Timestamp};
    use tkm_window::WindowSpec;

    /// The stage reports exactly the heap its members own, every live
    /// query's band and reported copy included, and no inline struct.
    #[test]
    fn space_bytes_counts_inline_members_once() {
        let mut shared = IngestState::new(2, WindowSpec::Count(200), GridSpec::PerDim(6)).unwrap();
        let mut m = SmaMaintenance::new_for(&shared);
        m.track_changes();
        for q in 0..5u64 {
            let f = ScoreFn::linear(vec![1.0, q as f64 / 4.0]).unwrap();
            let query = Query::top_k(f, 3).unwrap();
            m.register_query(&shared, QueryId(q), query).unwrap();
        }
        for tick in 0..12u64 {
            shared
                .ingest(Timestamp(tick), &lcg_stream(tick, 40, 2))
                .unwrap();
            m.apply_events(&shared).unwrap();
        }
        let queries = m.table.queries();
        let bands: usize = queries
            .iter()
            .map(|(_, q)| q.band.heap_bytes() + q.reported.heap_bytes())
            .sum();
        assert!(bands > 0 && queries.heap_bytes() > bands);
        let members = m.table.heap_bytes()
            + m.affected.heap_bytes()
            + m.merge_scratch.heap_bytes()
            + m.dirty.heap_bytes()
            + m.seed.heap_bytes()
            + m.rec.heap_bytes();
        assert_eq!(m.heap_bytes(), members);
    }

    /// A linear, a product and a quadratic query at d = 2, 3, 4 (the
    /// fixed-dimension kernels), a constrained one, and a d = 5 one (the
    /// reference).
    fn replay_queries() -> Vec<Query> {
        let linear = |w: &[f64]| ScoreFn::linear(w).unwrap();
        vec![
            Query::top_k(linear(&[0.6, -0.4]), 2).unwrap(),
            Query::top_k(ScoreFn::product(vec![0.1, 0.2, 0.3]).unwrap(), 2).unwrap(),
            Query::top_k(ScoreFn::quadratic(vec![0.5, -0.2, 0.9, 0.1]).unwrap(), 3).unwrap(),
            Query::constrained(
                linear(&[1.0, 1.0]),
                2,
                Rect::new(vec![0.2, 0.1], vec![0.8, 0.7]).unwrap(),
            )
            .unwrap(),
            Query::top_k(linear(&[0.3, -0.1, 0.7, 0.2, -0.5]), 1).unwrap(),
        ]
    }

    /// One query's replay state with an empty band and threshold `admit`.
    fn band_query(query: Query, admit: f64) -> BandQuery {
        let band = Skyband::new(query.k).unwrap();
        BandQuery {
            query,
            band,
            admit,
            reported: Vec::new(),
            affected: false,
            stored_early: false,
            region_bound: f64::INFINITY,
        }
    }

    /// Runs the arrival replay's per-pair step at the dimensionality
    /// `dispatch_dims` resolves, as `apply_events` does.
    struct Replay<'a> {
        st: &'a mut BandQuery,
        ids: StoredIds<'a>,
        coords: &'a [f64],
        scratch: &'a mut MergeScratch,
    }

    impl DimsVisitor for Replay<'_> {
        type Out = (bool, usize);
        fn visit<D: Dims>(self, dims: D) -> (bool, usize) {
            self.st
                .stage_arrivals(dims, self.ids, self.coords, self.scratch)
        }
    }

    proptest! {
        /// The arrival replay, with its kernel resolved once per cycle,
        /// stages exactly the arrivals a per-pair `kernel::scan_block`
        /// would: the same staged tail in the same order, the same merges
        /// forced by a full band (bands start empty, so a block of more
        /// than `k + k/2 + 1` admitted points forces one), the same
        /// returned flags, and the same band after the cycle's merge; and
        /// that scan scores exactly the points inside the constraint, as
        /// `ScoreFn::score` does. Thresholds are −∞ or a block point's own
        /// score, so the admission test meets equality.
        #[test]
        fn arrival_replay_stages_what_scan_block_would(
            raw in prop::collection::vec(0.0f64..1.0, 0..60),
            threshold_at in 0usize..16,
        ) {
            for query in replay_queries() {
                let dims = query.dims();
                let n = raw.len() / dims;
                let coords = &raw[..n * dims];
                let stored_ids: Vec<u32> = (0..n as u32).map(|i| 100 + 2 * i).collect();
                let ids = StoredIds::new(&stored_ids, 100 + 2 * n as u64);
                let admit = match threshold_at.checked_rem(n) {
                    Some(i) if threshold_at < 12 => query.f.score(&coords[i * dims..][..dims]),
                    _ => f64::NEG_INFINITY,
                };

                let mut st = band_query(query.clone(), admit);
                let mut scratch = MergeScratch::default();
                let got = kernel::dispatch_dims(
                    dims,
                    Replay { st: &mut st, ids, coords, scratch: &mut scratch },
                );

                let mut reference = band_query(query.clone(), admit);
                let mut ref_scratch = MergeScratch::default();
                let band = &mut reference.band;
                let (mut staged, mut stored) = (false, 0);
                let mut emitted = Vec::new();
                kernel::scan_block(
                    &query.f,
                    dims,
                    ids,
                    coords,
                    query.constraint.as_ref(),
                    |id, score| {
                        emitted.push((id, score.to_bits()));
                        if score >= admit {
                            staged = true;
                            stored += band.stage(Scored::new(score, id), &mut ref_scratch);
                        }
                    },
                );
                // The per-pair scan itself scores every point inside the
                // constraint as `ScoreFn::score` does.
                let want: Vec<(TupleId, u64)> = (0..n)
                    .map(|i| &coords[i * dims..][..dims])
                    .enumerate()
                    .filter(|(_, p)| query.constraint.as_ref().is_none_or(|r| r.contains(p)))
                    .map(|(i, p)| (TupleId(100 + 2 * i as u64), query.f.score(p).to_bits()))
                    .collect();
                prop_assert_eq!(&emitted, &want, "dims {}", dims);

                prop_assert_eq!(got, (staged, stored), "dims {}", dims);
                let bits = |v: &[Scored]| -> Vec<(u64, TupleId)> {
                    v.iter().map(|e| (e.score.get().to_bits(), e.id)).collect()
                };
                prop_assert_eq!(bits(st.band.staged()), bits(reference.band.staged()));
                prop_assert_eq!(bits(st.band.scored()), bits(reference.band.scored()));
                st.band.merge(&mut scratch);
                reference.band.merge(&mut ref_scratch);
                prop_assert_eq!(bits(st.band.scored()), bits(reference.band.scored()));
            }
        }
    }
}
