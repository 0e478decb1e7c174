//! The query half of a grid stage: queries, influence lists (paper §4.3)
//! and the walks over them.
//!
//! Every stage that keeps queries on a grid — the band maintenance behind
//! TMA and SMA, the threshold monitor and the update stream (§7: "the same
//! framework with simplifications") — holds them in one `QueryTable`: a
//! [`QueryRegistry`] of per-query state, the [`InfluenceTable`] whose
//! lists carry its slots, and the [`ComputeScratch`] its traversals and
//! walks run in. Only the table touches the three at a query's edges:
//! registration, recomputation and removal, which sweeps every influence
//! entry of a slot in the call that frees it, so a recycled slot never
//! inherits a dead query's entries. What differs between the stages stays
//! with each, and its replay loop reads lists and states through
//! `QueryTable::split`.
//!
//! The table also decides which of a cycle's events are worth replaying.
//! The ingest stage keeps the cell of every arrival and every expiry as
//! it found them; `QueryTable::group_events` groups by cell only those
//! whose cell's influence list is non-empty ([`ListedEvents`]), so a
//! tuple in a cell no query lists costs its insert and delete and nothing
//! more — the paper's processing cycle (Figures 9 and 11) probes the
//! cell's list and stops there.
//!
//! Influence lists are maintained lazily: result improvements shrink a
//! query's influence region without touching the lists, so stale entries
//! accumulate in cells between the old and the new region boundary. After
//! a from-scratch computation the stale band is swept with a list-based
//! walk seeded with the cells left in the computation heap (the *frontier*
//! — en-heaped but not processed, i.e. just below the new region): it
//! removes the query from a cell and expands to the cell's worse
//! neighbours only where the query was actually registered. Because
//! influence regions are staircase-shaped (closed toward the preferred
//! corner), this reaches every stale cell and stops immediately at the old
//! boundary. The same walk seeded with the best-corner cell clears all
//! entries of a terminating query, and lists a threshold query's region.
//!
//! The walks only read the grid, so a maintenance stage sweeps its table
//! through the ingest stage's `&IngestState`, and they run inside the
//! table's scratch: [`cleanup_from_frontier`] consumes
//! [`ComputeScratch::frontier`], left behind by the preceding
//! [`compute_topk`] call, in place, so a steady-state recompute-and-sweep
//! cycle performs no allocation.

use crate::compute::{compute_topk, directions, ComputeOutcome, ComputeScratch, InfluenceUpdate};
use crate::ingest::IngestState;
use crate::query::Query;
use crate::registry::QueryRegistry;
use crate::result::TopList;
use crate::stats::EngineStats;
use tkm_common::{
    same_dims, HeapBytes, Monotonicity, QueryId, QuerySlot, Rect, Result, ScoreFn, Scored,
    TkmError, TupleId, MAX_DIMS,
};
use tkm_grid::{CellId, CellRange, Grid, InfluenceTable};

/// A query's state as a [`QueryTable`] walks it.
pub(crate) trait TableEntry {
    /// The scoring function, and the constraint its region is clipped to.
    fn region(&self) -> (&ScoreFn, Option<&Rect>);
}

impl TableEntry for Query {
    fn region(&self) -> (&ScoreFn, Option<&Rect>) {
        (&self.f, self.constraint.as_ref())
    }
}

/// An entry [`QueryTable::recompute`] computes from scratch (a top-k kind).
pub(crate) trait Recomputed: TableEntry {
    /// Whether a computation keeps the candidates tying its last score.
    const TRACK_TIES: bool;
    /// How many tuples a computation keeps.
    fn depth(&self) -> usize;
    /// [`InfluenceUpdate::listed_above`] of its next computation.
    fn listed_above(&self) -> f64;
}

/// One grid stage's queries, their influence lists and the scratch their
/// traversals run in (module docs).
#[derive(Debug)]
pub(crate) struct QueryTable<T> {
    queries: QueryRegistry<T>,
    influence: InfluenceTable,
    scratch: ComputeScratch,
    /// The last grouped cycle's events in listed cells.
    events: ListedEvents,
}

impl<T: TableEntry> QueryTable<T> {
    /// An empty table for a grid of `num_cells` cells.
    pub(crate) fn new(num_cells: usize) -> QueryTable<T> {
        QueryTable {
            queries: QueryRegistry::new(),
            influence: InfluenceTable::new(num_cells),
            scratch: ComputeScratch::new(num_cells),
            events: ListedEvents::default(),
        }
    }

    /// Registers `id` and returns its slot; refuses a function of another
    /// dimensionality than `grid`'s, and a live `id`.
    pub(crate) fn insert(&mut self, grid: &Grid, id: QueryId, state: T) -> Result<QuerySlot> {
        same_dims(grid.dims(), state.region().0.dims())?;
        self.queries.insert(id, state)
    }

    /// The state of a live query.
    pub(crate) fn get(&self, id: QueryId) -> Result<&T> {
        self.queries.get(id).ok_or(TkmError::UnknownQuery(id))
    }

    /// Terminates `id`: sweeps every influence entry of its slot, then
    /// frees the slot. Returns the slot and the cells the sweep visited.
    pub(crate) fn remove(&mut self, grid: &Grid, id: QueryId) -> Result<(QuerySlot, u64)> {
        let slot = self.queries.slot_of(id).ok_or(TkmError::UnknownQuery(id))?;
        let swept = self.walk(grid, slot, |influence, _, cell| {
            influence.remove(cell, slot)
        });
        self.queries.remove(id)?;
        Ok((slot, swept))
    }

    /// Walks from `slot`'s best-corner cell, handing each cell to `expand`
    /// with the lists and the query's state, and stepping on to the cell's
    /// unvisited worse neighbours where `expand` returns `true` (influence
    /// regions are closed toward the best corner). Returns the cells
    /// visited.
    pub(crate) fn walk(
        &mut self,
        grid: &Grid,
        slot: QuerySlot,
        mut expand: impl FnMut(&mut InfluenceTable, &mut T, CellId) -> bool,
    ) -> u64 {
        let (_, st) = self.queries.slot_mut(slot);
        let (f, constraint) = st.region();
        let range = grid.cell_range(constraint);
        let start = Some(grid.best_corner(&range, f));
        let dirs = directions(f);
        let influence = &mut self.influence;
        drain(grid, &mut self.scratch, start, &dirs, &range, |cell| {
            expand(influence, st, cell)
        })
    }

    /// Sweeps `slot`'s stale entries from the frontier its last
    /// [`QueryTable::recompute`] left ([`cleanup_from_frontier`]).
    /// Returns the cells visited.
    pub(crate) fn sweep_frontier(&mut self, grid: &Grid, slot: QuerySlot) -> u64 {
        let (f, constraint) = self.queries.slot_mut(slot).1.region();
        let (influence, scratch) = (&mut self.influence, &mut self.scratch);
        cleanup_from_frontier(grid, influence, scratch, slot, f, constraint)
    }

    /// A one-shot top-k of `query` over `grid`, leaving no state behind.
    pub(crate) fn snapshot(&mut self, grid: &Grid, query: &Query) -> Result<Vec<Scored>> {
        same_dims(grid.dims(), query.dims())?;
        let (f, r) = query.region();
        let out = compute_topk(grid, &mut self.scratch, None, f, query.k, r, false, None);
        Ok(out.top.as_slice().to_vec())
    }

    /// Hot path: a live slot's id and mutable state (one `Vec` index).
    pub(crate) fn slot_mut(&mut self, slot: QuerySlot) -> (QueryId, &mut T) {
        self.queries.slot_mut(slot)
    }

    /// The lists and the states side by side, for a replay loop.
    pub(crate) fn split(&mut self) -> (&InfluenceTable, &mut QueryRegistry<T>) {
        (&self.influence, &mut self.queries)
    }

    /// Groups `shared`'s last cycle by cell, keeping the events in listed
    /// cells only ([`ListedEvents::group`]), and hands the runs to a replay
    /// loop beside the lists and the states. The lists must not change
    /// until the loop has replayed the expiries: a recomputation may list
    /// a query in a cell whose events were dropped.
    pub(crate) fn group_events(
        &mut self,
        shared: &IngestState,
    ) -> (&InfluenceTable, &mut QueryRegistry<T>, &ListedEvents) {
        self.events.group(&self.influence, shared);
        (&self.influence, &mut self.queries, &self.events)
    }

    /// The live queries.
    pub(crate) fn queries(&self) -> &QueryRegistry<T> {
        &self.queries
    }

    /// The influence lists.
    pub(crate) fn influence(&self) -> &InfluenceTable {
        &self.influence
    }
}

impl<T: Recomputed> QueryTable<T> {
    /// Computes `slot`'s top [`Recomputed::depth`] from scratch into
    /// `reuse`'s buffers, listing the slot in every processed cell not
    /// known to carry it, and counts the traversal in `stats`. The frontier
    /// stays for [`QueryTable::sweep_frontier`]; what to keep of the
    /// outcome is the caller's.
    pub(crate) fn recompute(
        &mut self,
        grid: &Grid,
        slot: QuerySlot,
        reuse: TopList,
        stats: &mut EngineStats,
    ) -> (&mut T, ComputeOutcome) {
        let (_, st) = self.queries.slot_mut(slot);
        let (f, constraint) = st.region();
        let out = compute_topk(
            grid,
            &mut self.scratch,
            Some(InfluenceUpdate {
                table: &mut self.influence,
                slot,
                listed_above: st.listed_above(),
            }),
            f,
            st.depth(),
            constraint,
            T::TRACK_TIES,
            Some(reuse),
        );
        stats.recompute_queries += 1;
        stats.recompute_groups += 1;
        stats.cells_processed += out.stats.cells_processed;
        stats.points_scanned += out.stats.points_scanned;
        stats.heap_pushes += out.stats.heap_pushes;
        (st, out)
    }
}

/// The registry with every live state, the lists, the scratch and the
/// grouped events.
impl<T: HeapBytes> HeapBytes for QueryTable<T> {
    fn heap_bytes(&self) -> usize {
        self.queries.heap_bytes()
            + self.influence.heap_bytes()
            + self.scratch.heap_bytes()
            + self.events.heap_bytes()
    }
}

/// One cycle's arrivals and expiries in the cells an influence list
/// names, grouped by cell for the replay loops.
///
/// A cell's influence list is identical for every event landing in that
/// cell, so the per-event work of a tick factors into per-*run* work: the
/// replay loop probes each cell's list once and streams the run's tuples
/// through it. An event in a cell whose list is empty can change no
/// result, so it is dropped here rather than grouped and skipped later.
/// The group-by is two O(E) passes — no sort — that test each event's
/// cell against the influence table's listed bit
/// ([`InfluenceTable::is_listed`]) before they read anything per cell:
/// the first gives each listed cell a run in a per-cell run table and
/// counts its events, the second scatters the events of listed cells,
/// stably. The run table is written for listed cells only and cleared
/// through the run list before the grouping returns, so it needs no
/// epoch and an unlisted event touches nothing but its bit.
/// Runs come out in first-touched order with FIFO (arrival) order within
/// each run; the replay loops never depend on the order *across* cells.
///
/// Arrival runs carry no coordinate copy of their own: a cycle's live
/// arrivals in cell `c` are exactly the **newest** points of `c`'s chain
/// (arrivals append at the tail, expiry only consumes the front), so the
/// replay loop scans them straight out of the grid — see
/// [`IngestState::arrival_run_points`].
///
/// All buffers keep their capacity across cycles. The id buffers reserve
/// for the cycle's whole event count, so a cycle with more listed events
/// than any before does not grow them once an event count that large has
/// been seen; the run lists grow with the distinct listed cells.
#[derive(Debug, Default)]
pub struct ListedEvents {
    scratch: GroupScratch,
    arrivals: CellRuns,
    expiries: CellRuns,
}

/// One kind of a cycle's kept events, grouped by cell.
#[derive(Debug, Default)]
struct CellRuns {
    /// `(cell, start, len)` runs indexing into `ids`, first-touched order.
    runs: Vec<(CellId, u32, u32)>,
    /// Tuple ids, concatenated run by run.
    ids: Vec<TupleId>,
}

impl CellRuns {
    fn iter(&self) -> impl Iterator<Item = (CellId, &[TupleId])> {
        self.runs.iter().map(move |&(cell, start, len)| {
            (cell, &self.ids[start as usize..(start + len) as usize])
        })
    }
}

/// What one grouping needs only while it runs, shared by both kinds.
#[derive(Debug, Default)]
struct GroupScratch {
    /// Per-cell run index + 1, 0 for no run; sized at the first grouping.
    /// Only listed cells are written, and [`GroupScratch::group`] zeroes
    /// them again through its run list before it returns, so the table
    /// is all zeros between groupings.
    cell_run: Vec<u32>,
    /// Pass 2's per-run scatter cursors.
    cursors: Vec<u32>,
}

impl GroupScratch {
    /// Groups one kind of event into `out`: `cells[i]` is the cell of
    /// tuple `first + i` (a cycle's arrivals and its expiries are both
    /// dense id ranges, so an event is just its cell).
    fn group(
        &mut self,
        influence: &InfluenceTable,
        first: TupleId,
        cells: &[CellId],
        out: &mut CellRuns,
    ) {
        out.runs.clear();
        out.ids.clear();
        if cells.is_empty() {
            return;
        }
        if self.cell_run.len() < influence.num_cells() {
            self.cell_run.resize(influence.num_cells(), 0);
        }
        // Pass 1: one run per distinct listed cell (first-touched order),
        // counting its events. An unlisted cell costs one bit test.
        for &cell in cells {
            if !influence.is_listed(cell) {
                continue;
            }
            let run = &mut self.cell_run[cell.0 as usize];
            if *run == 0 {
                out.runs.push((cell, 0, 1));
                *run = out.runs.len() as u32;
            } else {
                out.runs[*run as usize - 1].2 += 1;
            }
        }
        out.ids.reserve(cells.len());
        if out.runs.is_empty() {
            return;
        }
        // Prefix sums fix each run's start offset.
        let mut start = 0u32;
        for r in &mut out.runs {
            r.1 = start;
            start += r.2;
        }
        // Pass 2: stable scatter of the events in listed cells — event
        // order is preserved within runs.
        self.cursors.clear();
        self.cursors.resize(out.runs.len(), 0);
        out.ids.resize(start as usize, TupleId(0));
        for (id, &cell) in (first.0..).zip(cells) {
            if !influence.is_listed(cell) {
                continue;
            }
            let run = self.cell_run[cell.0 as usize] as usize - 1;
            let at = out.runs[run].1 + self.cursors[run];
            self.cursors[run] += 1;
            out.ids[at as usize] = TupleId(id);
        }
        for &(cell, _, _) in &out.runs {
            self.cell_run[cell.0 as usize] = 0;
        }
    }
}

impl ListedEvents {
    /// Regroups `shared`'s last cycle ([`IngestState::arrival_cells`],
    /// [`IngestState::expiry_cells`]), keeping the events whose cell's
    /// list in `influence` is non-empty.
    pub fn group(&mut self, influence: &InfluenceTable, shared: &IngestState) {
        let (first, cells) = shared.arrival_cells();
        self.scratch
            .group(influence, first, cells, &mut self.arrivals);
        let (oldest, cells) = shared.expiry_cells();
        self.scratch
            .group(influence, oldest, cells, &mut self.expiries);
    }

    /// The last grouped cycle's arrivals in listed cells: one `(cell,
    /// tuples)` run per distinct cell (first-touched order), tuples in
    /// arrival order within each run; the run's points come from
    /// [`IngestState::arrival_run_points`].
    pub fn arrival_runs(&self) -> impl Iterator<Item = (CellId, &[TupleId])> {
        self.arrivals.iter()
    }

    /// The last grouped cycle's expiries in listed cells (one run per
    /// distinct cell, FIFO order within each run).
    pub fn expiry_runs(&self) -> impl Iterator<Item = (CellId, &[TupleId])> {
        self.expiries.iter()
    }
}

/// The run table, the scatter cursors and both kinds' runs.
impl HeapBytes for ListedEvents {
    fn heap_bytes(&self) -> usize {
        let runs = |r: &CellRuns| r.runs.heap_bytes() + r.ids.heap_bytes();
        self.scratch.cell_run.heap_bytes()
            + self.scratch.cursors.heap_bytes()
            + runs(&self.arrivals)
            + runs(&self.expiries)
    }
}

/// Sweeps stale influence-list entries of `slot` downward from the
/// frontier recorded in `scratch` by the preceding computation.
///
/// `scratch.stamps` must still be in the epoch of that computation (its
/// marks prevent the walk from re-entering the freshly processed region);
/// `scratch.frontier` is drained by the walk. Returns the number of cells
/// visited.
pub fn cleanup_from_frontier(
    grid: &Grid,
    influence: &mut InfluenceTable,
    scratch: &mut ComputeScratch,
    slot: QuerySlot,
    f: &ScoreFn,
    constraint: Option<&Rect>,
) -> u64 {
    let range = grid.cell_range(constraint);
    // A cell the query never influenced has nothing stale below it either
    // (influence regions are upward-closed).
    drain(grid, scratch, None, &directions(f), &range, |cell| {
        influence.remove(cell, slot)
    })
}

/// Pops the scratch's frontier (restarted at `seed` in a new stamp epoch,
/// if given) until it is empty, pushing the unvisited worse neighbours
/// within `range` of every cell `expand` accepts. Returns the cells popped.
fn drain(
    grid: &Grid,
    scratch: &mut ComputeScratch,
    seed: Option<CellId>,
    dirs: &[Monotonicity; MAX_DIMS],
    range: &CellRange,
    mut expand: impl FnMut(CellId) -> bool,
) -> u64 {
    let (stamps, frontier) = (&mut scratch.stamps, &mut scratch.frontier);
    if let Some(start) = seed {
        stamps.begin();
        stamps.mark(start);
        frontier.clear();
        frontier.push(start);
    }
    let mut visited = 0;
    while let Some(cell) = frontier.pop() {
        visited += 1;
        if !expand(cell) {
            continue;
        }
        for (dim, &dir) in dirs.iter().enumerate().take(grid.dims()) {
            if let Some(n) = grid.step_worse(cell, dim, dir, range) {
                if stamps.mark(n) {
                    frontier.push(n);
                }
            }
        }
    }
    visited
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{GridSpec, IngestState};
    use crate::maintenance::{QueryMaintenance, SmaMaintenance};
    use crate::testutil::lcg_stream;
    use crate::threshold::ThresholdMonitor;
    use crate::update_stream::UpdateStreamTma;
    use tkm_common::{Timestamp, TupleId};
    use tkm_grid::influence::INLINE_CAP;
    use tkm_grid::{CellMode, CHUNK_POINTS};
    use tkm_window::WindowSpec;

    fn listed_cells(grid: &Grid, influence: &InfluenceTable, slot: QuerySlot) -> Vec<u32> {
        (0..grid.num_cells() as u32)
            .filter(|i| influence.contains(CellId(*i), slot))
            .collect()
    }

    /// A grid holding `points`, with ids in order.
    fn grid_of(per_dim: usize, points: &[[f64; 2]]) -> Grid {
        let mut grid = Grid::new(2, per_dim, CellMode::Fifo).unwrap();
        for (i, p) in points.iter().enumerate() {
            grid.insert_point(p, TupleId(i as u64));
        }
        grid
    }

    /// Registers `query` under `id` and lists it over its top-`k` region.
    fn register(table: &mut QueryTable<Query>, grid: &Grid, id: u64, query: Query) -> QuerySlot {
        let k = query.k;
        let slot = table.insert(grid, QueryId(id), query).unwrap();
        let (f, constraint) = table.queries.slot_mut(slot).1.region();
        compute_topk(
            grid,
            &mut table.scratch,
            Some(InfluenceUpdate::fresh(&mut table.influence, slot)),
            f,
            k,
            constraint,
            false,
            None,
        );
        slot
    }

    /// After a recomputation with a *higher* threshold, the frontier walk
    /// must remove exactly the stale band: cells of the old region that are
    /// not in the new one.
    #[test]
    fn frontier_walk_removes_stale_band() {
        let f = ScoreFn::linear(vec![1.0, 2.0]).unwrap();
        // Weak initial point → large influence region.
        let mut grid = grid_of(7, &[[0.3, 0.3]]);
        let mut table = QueryTable::new(grid.num_cells());
        let slot = register(&mut table, &grid, 9, Query::top_k(f.clone(), 1).unwrap());
        let old_region = listed_cells(&grid, &table.influence, slot);
        assert!(old_region.len() > 20, "weak top-1 floods most of the grid");

        // A strong point arrives → much smaller region after recompute.
        grid.insert_point(&[0.9, 0.9], TupleId(1));
        let out = compute_topk(
            &grid,
            &mut table.scratch,
            Some(InfluenceUpdate::fresh(&mut table.influence, slot)),
            &f,
            1,
            None,
            false,
            None,
        );
        table.sweep_frontier(&grid, slot);

        // Remaining entries = exactly the cells with maxscore ≥ new
        // threshold (the new influence region).
        let threshold = out.top.threshold();
        let want: Vec<u32> = (0..grid.num_cells() as u32)
            .filter(|i| grid.maxscore(CellId(*i), &f) >= threshold)
            .collect();
        assert_eq!(listed_cells(&grid, &table.influence, slot), want);
    }

    #[test]
    fn removal_walk_clears_everything() {
        let f = ScoreFn::linear(vec![1.0, -0.5]).unwrap();
        let grid = grid_of(6, &[[0.2, 0.9], [0.7, 0.4], [0.5, 0.5]]);
        let mut table = QueryTable::new(grid.num_cells());
        let slot = register(&mut table, &grid, 4, Query::top_k(f, 2).unwrap());
        assert!(!listed_cells(&grid, &table.influence, slot).is_empty());
        table.remove(&grid, QueryId(4)).unwrap();
        assert_eq!(table.influence.total_entries(), 0);
        assert_eq!(
            table.remove(&grid, QueryId(4)),
            Err(TkmError::UnknownQuery(QueryId(4)))
        );
    }

    #[test]
    fn removal_walk_respects_other_queries() {
        let f = ScoreFn::linear(vec![1.0, 1.0]).unwrap();
        let grid = grid_of(5, &[[0.4, 0.4]]);
        let mut table = QueryTable::new(grid.num_cells());
        let q = Query::top_k(f, 1).unwrap();
        let one = register(&mut table, &grid, 1, q.clone());
        let two = register(&mut table, &grid, 2, q);
        table.remove(&grid, QueryId(1)).unwrap();
        assert!(listed_cells(&grid, &table.influence, one).is_empty());
        assert!(!listed_cells(&grid, &table.influence, two).is_empty());
    }

    #[test]
    fn constrained_removal_walk() {
        let f = ScoreFn::linear(vec![1.0, 1.0]).unwrap();
        let r = Rect::new(vec![0.2, 0.2], vec![0.6, 0.6]).unwrap();
        let grid = grid_of(5, &[]);
        let mut table = QueryTable::new(grid.num_cells());
        let slot = register(&mut table, &grid, 1, Query::constrained(f, 1, r).unwrap());
        assert!(!listed_cells(&grid, &table.influence, slot).is_empty());
        table.remove(&grid, QueryId(1)).unwrap();
        assert_eq!(table.influence.total_entries(), 0);
    }

    /// Query `i` of the recycling tests: increasing, mixed and decreasing
    /// axes, so the walks start from three different corners.
    fn weights(i: u64) -> ScoreFn {
        let w = [[1.0, 0.2], [0.3, -1.0], [-0.4, -1.0]][i as usize];
        ScoreFn::linear(w.to_vec()).unwrap()
    }

    /// On stages built by `build`: registers queries 0 and 1, removes 0
    /// (twice: the second is refused), registers 2 into 0's freed slot and
    /// requires its entries to be exactly those it gets alone in a fresh
    /// stage; removing 1 and 2 must leave no entry. Returns the emptied
    /// stage.
    fn recycled_slot_lists_like_fresh<S, T: TableEntry>(
        build: impl Fn() -> S,
        register: impl Fn(&mut S, QueryId, ScoreFn) -> Result<()>,
        remove: impl Fn(&mut S, QueryId) -> Result<()>,
        table: impl Fn(&S) -> &QueryTable<T>,
        grid: impl Fn(&S) -> &Grid,
    ) -> S {
        let listed = |s: &S, id: u64| {
            let slot = table(s).queries.slot_of(QueryId(id)).unwrap();
            listed_cells(grid(s), &table(s).influence, slot)
        };
        let mut fresh = build();
        register(&mut fresh, QueryId(2), weights(2)).unwrap();
        let want = listed(&fresh, 2);
        assert!(!want.is_empty());

        let mut s = build();
        register(&mut s, QueryId(0), weights(0)).unwrap();
        register(&mut s, QueryId(1), weights(1)).unwrap();
        let freed = table(&s).queries.slot_of(QueryId(0));
        remove(&mut s, QueryId(0)).unwrap();
        assert_eq!(
            remove(&mut s, QueryId(0)),
            Err(TkmError::UnknownQuery(QueryId(0)))
        );
        register(&mut s, QueryId(2), weights(2)).unwrap();
        assert_eq!(table(&s).queries.slot_of(QueryId(2)), freed, "recycled");
        assert_eq!(listed(&s, 2), want);
        remove(&mut s, QueryId(1)).unwrap();
        remove(&mut s, QueryId(2)).unwrap();
        assert_eq!(table(&s).influence.total_entries(), 0);
        s
    }

    #[test]
    fn band_slot_recycles_clean() {
        let build = || {
            let mut shared =
                IngestState::new(2, WindowSpec::Count(60), GridSpec::PerDim(6)).unwrap();
            shared.ingest(Timestamp(0), &lcg_stream(3, 40, 2)).unwrap();
            let m = SmaMaintenance::new_for(&shared);
            (shared, m)
        };
        recycled_slot_lists_like_fresh(
            build,
            |(shared, m), id, f| m.register_query(shared, id, Query::top_k(f, 3)?),
            |(shared, m), id| m.remove_query(shared, id),
            |(_, m)| m.table(),
            |(shared, _)| shared.grid(),
        );
    }

    #[test]
    fn threshold_slot_recycles_clean() {
        let build = || {
            let mut m =
                ThresholdMonitor::new(2, WindowSpec::Count(60), GridSpec::PerDim(6)).unwrap();
            m.tick(Timestamp(0), &lcg_stream(3, 40, 2)).unwrap();
            m
        };
        let mut m = recycled_slot_lists_like_fresh(
            build,
            |m, id, f| {
                let tau = f.score(&[0.5, 0.5]);
                m.register_query(id, f, tau)
            },
            ThresholdMonitor::remove_query,
            ThresholdMonitor::table,
            ThresholdMonitor::grid,
        );
        m.tick(Timestamp(1), &lcg_stream(5, 4, 2)).unwrap();
    }

    #[test]
    fn update_stream_slot_recycles_clean() {
        let build = || {
            let mut m = UpdateStreamTma::new(2, GridSpec::PerDim(6)).unwrap();
            for p in lcg_stream(3, 40, 2).chunks(2) {
                m.insert(p).unwrap();
            }
            m
        };
        recycled_slot_lists_like_fresh(
            build,
            |m, id, f| m.register_query(id, Query::top_k(f, 3)?),
            UpdateStreamTma::remove_query,
            UpdateStreamTma::table,
            UpdateStreamTma::grid,
        );
    }

    /// Runs as `(cell, ids)` pairs, in the order they come out.
    fn collected<'a>(
        runs: impl Iterator<Item = (CellId, &'a [TupleId])>,
    ) -> Vec<(CellId, Vec<TupleId>)> {
        runs.map(|(cell, ids)| (cell, ids.to_vec())).collect()
    }

    /// The table keeps exactly the runs a grouping of every event has in
    /// its listed cells, run for run and id for id: over bursts larger
    /// than the window (same-cycle transients in both kinds), runs long
    /// enough to straddle chunks, a listing that changes between cycles,
    /// so a cell listed in one cycle is unlisted in the next, and a cell
    /// whose list spilled and was emptied again, keeping its buffer.
    #[test]
    fn listed_runs_are_all_runs_restricted_to_listed_cells() {
        let mut shared = IngestState::new(2, WindowSpec::Count(30), GridSpec::PerDim(2)).unwrap();
        let cells = shared.grid().num_cells() as u32;
        let mut every = InfluenceTable::new(cells as usize);
        for cell in 0..cells {
            every.insert(CellId(cell), QuerySlot(0));
        }
        let (mut all, mut kept) = (ListedEvents::default(), ListedEvents::default());
        let (mut straddled, mut transients, mut dropped) = (false, false, false);
        let mut emptied_dropped = false;
        for (cycle, count) in [100, 100, 7, 60, 0, 45, 3, 80].into_iter().enumerate() {
            // Cell `cycle % 4`, and cell 3 on even cycles only; cell
            // `(cycle + 2) % 4` is neither, and its list spills and empties.
            let mut listed = InfluenceTable::new(cells as usize);
            listed.insert(CellId(cycle as u32 % cells), QuerySlot(1));
            if cycle % 2 == 0 {
                listed.insert(CellId(3), QuerySlot(2));
            }
            let emptied = CellId((cycle as u32 + 2) % cells);
            let spill = (0..=INLINE_CAP as u32).map(QuerySlot);
            for q in spill.clone() {
                listed.insert(emptied, q);
            }
            for q in spill {
                listed.remove(emptied, q);
            }
            assert!(listed.heap_bytes() > InfluenceTable::new(cells as usize).heap_bytes());
            let batch = lcg_stream(cycle as u64, count, 2);
            shared.ingest(Timestamp(cycle as u64), &batch).unwrap();
            all.group(&every, &shared);
            kept.group(&listed, &shared);
            let restricted = |runs: Vec<(CellId, Vec<TupleId>)>| -> Vec<_> {
                runs.into_iter()
                    .filter(|(cell, _)| !listed.as_slice(*cell).is_empty())
                    .collect()
            };
            let context = format!("cycle {cycle}");
            let want = restricted(collected(all.arrival_runs()));
            assert_eq!(collected(kept.arrival_runs()), want, "{context}: arrivals");
            straddled |= want.iter().any(|(_, ids)| ids.len() > CHUNK_POINTS);
            let want = restricted(collected(all.expiry_runs()));
            assert_eq!(collected(kept.expiry_runs()), want, "{context}: expiries");
            let first = shared.arrival_cells().0;
            transients |= want
                .iter()
                .any(|(_, ids)| ids.iter().any(|id| *id >= first));
            dropped |= all.arrival_runs().count() > kept.arrival_runs().count();
            let in_emptied = |runs: &ListedEvents| {
                (runs.arrival_runs().chain(runs.expiry_runs())).any(|(cell, _)| cell == emptied)
            };
            emptied_dropped |= in_emptied(&all) && !in_emptied(&kept);
        }
        assert!(straddled && transients && dropped && emptied_dropped);
    }
}
