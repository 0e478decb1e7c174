//! The shared ingest stage: one window timeline + one grid, populated
//! exactly once per processing cycle.
//!
//! The paper's server couples tuple storage and query maintenance in one
//! loop. For scale-out we split them: [`IngestState`] owns everything that
//! is *per-stream* (the window's timeline, the grid's point lists, the
//! expiry bookkeeping), while the per-query state (influence regions,
//! top-lists, skybands) lives in [`crate::maintenance::QueryMaintenance`]
//! implementations that can be partitioned across shards. Each tick,
//! [`IngestState::ingest`] applies the arrival set and the expiry set to
//! timeline and grid *once* and records both grouped by cell; maintenance
//! shards then replay the events against their own queries through
//! immutable `&IngestState` views. Tuple storage therefore stays O(1) in
//! the shard count, instead of the S-fold replication a replica-per-shard
//! design pays.
//!
//! The stage runs as a fixed sequence of tight passes over the whole
//! batch — extend the timeline, locate, scatter into cells, remember the
//! cells, pop the expired prefix from the cells it was remembered in, drop
//! it from the timeline, group by cell — rather than one loop that walks
//! each tuple through the whole chain. A pass that only computes (locate)
//! and a pass that only touches cells (scatter, removal) keep many
//! independent cache misses in flight; a fused loop, whose iterations are
//! each ~60 dependent operations long, fits only a few iterations in the
//! reorder window and fetches the cold cell lines almost one at a time.
//!
//! Every tuple is stored **once** (§4.1's single FIFO list): its
//! coordinates go into its grid cell and nowhere else. The list itself is
//! a ring of covering cell ids, oldest first, beside a coordinate-free
//! [`Timeline`] that knows the resident id range and when its tuples
//! arrived — 4 bytes per tuple, plus one `(timestamp, count)` run per
//! distinct arrival time on a time window. A tuple is located once, on
//! arrival; the expiry pass pops the expired prefix's cells off the ring's
//! front, and [`IngestState::coords`] finds any resident tuple through
//! its ring entry and a scan of that cell.

use std::collections::VecDeque;

use tkm_common::{Result, Timestamp, TupleId};
use tkm_grid::{CellId, CellMode, CellPoints, Grid};
use tkm_window::{Timeline, WindowSpec};

/// How the grid is dimensioned.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GridSpec {
    /// Sized for the window it will hold (the default), resolved by
    /// [`IngestState::new`]: `m = round((N / 20)^(1/d))` cells per axis,
    /// clamped to `[1, round(12⁴^(1/d))]`, where `N` is a
    /// [`WindowSpec::Count`]'s size or a [`WindowSpec::TimeSized`]'s
    /// capacity. 20 is Table 1's k: §6's `T_comp = C·log C + |C|·log k`,
    /// with `C = ⌈k/x⌉` cells of `x` tuples, is least at `x = k`. The cap
    /// keeps every grid within the paper's tuned
    /// [`GridSpec::DEFAULT_BUDGET`], so Table 1's stream (d = 4, N = 1M)
    /// keeps its 12⁴ cells. With no size to fit (a [`WindowSpec::Time`]
    /// window, or [`GridSpec::build`] called directly) it is that budget.
    #[default]
    FitWindow,
    /// Approximately this many cells in total (`m = round(budget^(1/d))`
    /// per axis) — the paper's sizing rule, tuned at 12⁴ for Table 1.
    CellBudget(usize),
    /// Exactly this many cells per axis.
    PerDim(usize),
}

impl GridSpec {
    /// The paper's grid budget of 12⁴ ≈ 20.7k cells (Figure 14, Table 1).
    pub const DEFAULT_BUDGET: usize = 20_736;

    /// Tuples a [`GridSpec::FitWindow`] cell aims at: Table 1's k.
    const TUPLES_PER_CELL: f64 = 20.0;

    /// Resolves [`GridSpec::FitWindow`] over a sized window to its cells
    /// per axis; every other spec, and a time window without a size, is
    /// returned as is.
    pub(crate) fn for_window(self, dims: usize, window: WindowSpec) -> GridSpec {
        let n = match (self, window) {
            (GridSpec::FitWindow, WindowSpec::Count(n))
            | (GridSpec::FitWindow, WindowSpec::TimeSized { capacity: n, .. }) => n,
            _ => return self,
        };
        let root = |x: f64| x.powf(1.0 / dims as f64).round() as usize;
        let cap = root(Self::DEFAULT_BUDGET as f64);
        let fitted = root(n as f64 / Self::TUPLES_PER_CELL);
        GridSpec::PerDim(fitted.min(cap).max(1))
    }

    /// Builds the grid. [`GridSpec::FitWindow`] has no window to fit here
    /// and builds the paper's 12⁴ budget; [`IngestState::new`] resolves it
    /// first.
    pub fn build(self, dims: usize, mode: CellMode) -> Result<Grid> {
        match self {
            GridSpec::FitWindow => Grid::with_cell_budget(dims, Self::DEFAULT_BUDGET, mode),
            GridSpec::CellBudget(b) => Grid::with_cell_budget(dims, b, mode),
            GridSpec::PerDim(m) => Grid::new(dims, m, mode),
        }
    }
}

/// Counters of the ingest stage (the stream-side half of
/// [`crate::stats::EngineStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Processing cycles executed.
    pub ticks: u64,
    /// Tuples inserted.
    pub arrivals: u64,
    /// Tuples expired.
    pub expirations: u64,
}

/// One cycle's events of one kind (arrivals or expiries), re-grouped by
/// grid cell for the maintenance replay loop.
///
/// A cell's influence list is identical for every event landing in that
/// cell, so the per-event work of a tick factors into per-*run* work: the
/// replay loop probes each cell's list once and streams the run's tuples
/// through it. The group-by is two O(E) passes (count per distinct cell,
/// then a stable scatter) using an epoch-stamped per-cell table — no sort,
/// so a tick's grouping cost never exceeds a couple of linear scans even
/// for ingest-bound workloads. Runs come out in first-touched order with
/// FIFO (arrival) order within each run; the replay loops never depend on
/// the order *across* cells. All buffers retain capacity across ticks.
///
/// Arrival runs carry no coordinate copy of their own: a cycle's live
/// arrivals in cell `c` are exactly the **newest** points of `c`'s chain
/// (arrivals append at the tail, expiry only consumes the front), so the
/// replay loop scans them straight out of the grid — see
/// [`IngestState::arrival_run_points`].
#[derive(Debug)]
struct CellGroups {
    /// Per-cell `(epoch stamp, run index)`: the run index is valid while
    /// the stamp equals `epoch` (bumping the epoch invalidates all
    /// entries in O(1)). One array, so each event touches one cache line
    /// here, not two.
    cell_run: Vec<(u32, u32)>,
    epoch: u32,
    /// `(cell, start, len)` runs indexing into `ids`, first-touched order.
    runs: Vec<(CellId, u32, u32)>,
    /// Per-run scatter cursors (pass 2 scratch).
    cursors: Vec<u32>,
    /// Tuple ids, concatenated run by run.
    ids: Vec<TupleId>,
}

impl CellGroups {
    fn new(num_cells: usize) -> CellGroups {
        CellGroups {
            cell_run: vec![(0, 0); num_cells],
            epoch: 0,
            runs: Vec::new(),
            cursors: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// Regroups one cycle's events: `cells[i]` is the cell of tuple
    /// `first + i` (a cycle's arrivals and its expiries are both dense id
    /// ranges, so an event is just its cell).
    fn rebuild(&mut self, cells: &[CellId], first: TupleId) {
        self.runs.clear();
        self.ids.clear();
        self.cursors.clear();
        if cells.is_empty() {
            return;
        }
        if self.epoch == u32::MAX {
            self.cell_run.fill((0, 0));
            self.epoch = 0;
        }
        self.epoch += 1;
        // Pass 1: one run per distinct cell (first-touched order), counting
        // its events.
        for &cell in cells {
            let slot = &mut self.cell_run[cell.0 as usize];
            if slot.0 == self.epoch {
                self.runs[slot.1 as usize].2 += 1;
            } else {
                *slot = (self.epoch, self.runs.len() as u32);
                self.runs.push((cell, 0, 1));
            }
        }
        // Prefix sums fix each run's start offset.
        let mut start = 0u32;
        for r in &mut self.runs {
            r.1 = start;
            start += r.2;
        }
        // Pass 2: stable scatter — event order is preserved within runs.
        self.cursors.resize(self.runs.len(), 0);
        self.ids.resize(cells.len(), TupleId(0));
        for (id, &cell) in (first.0..).zip(cells) {
            let run = self.cell_run[cell.0 as usize].1 as usize;
            let pos = self.runs[run].1 + self.cursors[run];
            self.cursors[run] += 1;
            self.ids[pos as usize] = TupleId(id);
        }
    }

    fn iter(&self) -> impl Iterator<Item = (CellId, &[TupleId])> {
        self.runs.iter().map(move |&(cell, start, len)| {
            (cell, &self.ids[start as usize..(start + len) as usize])
        })
    }

    fn space_bytes(&self) -> usize {
        self.cell_run.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.cursors.capacity() * std::mem::size_of::<u32>()
            + self.runs.capacity() * std::mem::size_of::<(CellId, u32, u32)>()
            + self.ids.capacity() * std::mem::size_of::<TupleId>()
    }
}

/// Shared per-stream state: the window's timeline, the grid that stores
/// its tuples and the cell-grouped events of the most recent processing
/// cycle.
#[derive(Debug)]
pub struct IngestState {
    timeline: Timeline,
    grid: Grid,
    /// The covering cell of every resident tuple, oldest first — the
    /// paper's FIFO list, in lockstep with the timeline: tuple `id` is
    /// stored in cell `cells[id − oldest]`, and the expired prefix's cells
    /// are popped from here rather than located a second time.
    cells: VecDeque<CellId>,
    /// Per-pass scratch: the cells of the dense id range being scattered
    /// (arrivals) or popped (expiries).
    located: Vec<CellId>,
    /// The arrival events of the last cycle, grouped by cell.
    arrival_groups: CellGroups,
    /// The expiry events of the last cycle, grouped by cell.
    expiry_groups: CellGroups,
    stats: IngestStats,
}

impl IngestState {
    /// Creates the shared state for `dims`-dimensional tuples; a
    /// [`GridSpec::FitWindow`] grid is sized for `window`.
    pub fn new(dims: usize, window: WindowSpec, grid: GridSpec) -> Result<IngestState> {
        let grid = grid.for_window(dims, window).build(dims, CellMode::Fifo)?;
        let cells = grid.num_cells();
        Ok(IngestState {
            timeline: Timeline::new(window)?,
            grid,
            cells: VecDeque::new(),
            located: Vec::new(),
            arrival_groups: CellGroups::new(cells),
            expiry_groups: CellGroups::new(cells),
            stats: IngestStats::default(),
        })
    }

    /// Dimensionality of the monitored stream.
    #[inline]
    pub fn dims(&self) -> usize {
        self.grid.dims()
    }

    /// The window's resident id range, arrival times and expiry rule.
    #[inline]
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Coordinates of a resident tuple, read from its grid cell: the ring
    /// names the cell, and the cell's chain is scanned for the id. `None`
    /// for an id that has expired or was never issued.
    pub fn coords(&self, id: TupleId) -> Option<&[f64]> {
        let cell = *self.cells.get(self.timeline.offset(id)?)?;
        let dims = self.dims();
        self.grid.points(cell).chunks().find_map(|(ids, coords)| {
            let at = ids.iter().position(|&stored| stored == id)?;
            Some(&coords[at * dims..(at + 1) * dims])
        })
    }

    /// The shared grid (read access).
    #[inline]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Executes the stream half of one processing cycle: validates the
    /// arrival batch, inserts it (timeline + grid), then removes the expiry
    /// set, recording both grouped by cell for the maintenance stage. A
    /// rejected batch — misaligned, a coordinate outside the unit
    /// workspace, a timestamp earlier than the newest resident tuple's —
    /// changes nothing.
    ///
    /// Tuples that arrive and expire within the same cycle (a count window
    /// overrun by a burst) appear in both sets; their coordinates are no
    /// longer resolvable afterwards, which maintenance handles by skipping
    /// arrivals whose ids have already left the window.
    pub fn ingest(&mut self, now: Timestamp, arrivals: &[f64]) -> Result<()> {
        let Self {
            timeline,
            grid,
            cells,
            located,
            arrival_groups,
            expiry_groups,
            stats,
        } = self;
        let dims = grid.dims();
        timeline.validate_tick(dims, now, arrivals)?;

        // Arrivals: take the next dense ids, locate sequentially, then
        // scatter — the scatter body is only cell head → push — and
        // remember the cells for the expiry pass of a later cycle.
        let first = timeline.append(arrivals.len() / dims, now);
        stats.ticks += 1;
        located.clear();
        grid.locate_batch(arrivals, located);
        for ((id, &cell), coords) in (first.0..)
            .zip(located.iter())
            .zip(arrivals.chunks_exact(dims))
        {
            grid.push_at(cell, TupleId(id), coords);
        }
        stats.arrivals += located.len() as u64;
        arrival_groups.rebuild(located, first);
        let resident = cells.len() + located.len();
        if resident > cells.capacity() {
            // An eighth at a time, like the point arena: a count window's
            // ring settles at N plus its largest batch, a time window's
            // follows the window without doubling past it.
            let room = resident.max(cells.capacity() + cells.capacity() / 8);
            cells.reserve_exact(room - cells.len());
        }
        cells.extend(located.iter().copied());

        // Expiries: the expired prefix is known up front and its cells
        // come off the ring's front; the removal body is only the FIFO
        // front check + offset bump.
        let expired = timeline.expired_prefix(now);
        let oldest = timeline.oldest().unwrap_or(first);
        located.clear();
        let (head_run, wrapped) = cells.as_slices();
        let split = expired.min(head_run.len());
        located.extend_from_slice(&head_run[..split]);
        located.extend_from_slice(&wrapped[..expired - split]);
        cells.drain(..expired);
        for (id, &cell) in (oldest.0..).zip(located.iter()) {
            #[expect(
                clippy::expect_used,
                reason = "ring/grid lockstep is the ingest invariant; desync is unrecoverable"
            )]
            grid.remove_at(cell, TupleId(id))
                .expect("cell ring and grid are updated in lockstep");
        }
        timeline.drop_front(expired);
        stats.expirations += expired as u64;
        expiry_groups.rebuild(located, oldest);
        Ok(())
    }

    /// The last cycle's arrival events grouped by cell: one `(cell,
    /// tuples)` run per distinct cell (first-touched order), tuples in
    /// arrival order within each run. The maintenance replay loop probes
    /// each cell's influence list once per run instead of once per event;
    /// the run's points come from [`IngestState::arrival_run_points`].
    #[inline]
    pub fn arrival_runs(&self) -> impl Iterator<Item = (CellId, &[TupleId])> {
        self.arrival_groups.iter()
    }

    /// The `live` still-valid arrivals of this cycle's run in `cell` —
    /// the newest points of the cell's chain, which are exactly those
    /// arrivals: arrivals append at the tail and expiry only consumes the
    /// front, so no per-event coordinate copy (let alone a per-tuple
    /// window resolution) is ever made. `live` must be the number of run
    /// tuples still in the window (same-cycle transients sliced off), as
    /// computed by the replay loop's live-suffix step. The view is
    /// resolved here once per run; scanning it per listed query re-walks
    /// nothing.
    #[inline]
    pub fn arrival_run_points(&self, cell: CellId, live: usize) -> CellPoints<'_> {
        self.grid.points(cell).tail(live)
    }

    /// The last cycle's expiry events grouped by cell (one run per
    /// distinct cell, FIFO order within each run).
    #[inline]
    pub fn expiry_runs(&self) -> impl Iterator<Item = (CellId, &[TupleId])> {
        self.expiry_groups.iter()
    }

    /// Cumulative stream-side counters.
    #[inline]
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Deep size estimate in bytes: the tuple storage that sharded
    /// maintenance *shares* instead of replicating.
    pub fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>() - std::mem::size_of::<Timeline>() - std::mem::size_of::<Grid>()
            + self.timeline.space_bytes()
            + self.grid.space_bytes()
            + (self.cells.capacity() + self.located.capacity()) * std::mem::size_of::<CellId>()
            + self.arrival_groups.space_bytes()
            + self.expiry_groups.space_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkm_common::TkmError;

    /// A cycle's runs flattened back to `(cell, id)` events in id order.
    fn events<'a>(runs: impl Iterator<Item = (CellId, &'a [TupleId])>) -> Vec<(CellId, TupleId)> {
        let mut flat: Vec<(CellId, TupleId)> = runs
            .flat_map(|(cell, ids)| ids.iter().map(move |id| (cell, *id)))
            .collect();
        flat.sort_by_key(|(_, id)| *id);
        flat
    }

    fn ids(events: &[(CellId, TupleId)]) -> Vec<u64> {
        events.iter().map(|(_, id)| id.0).collect()
    }

    /// What must hold after every cycle: the cell ring, the timeline and
    /// the cells describe the same tuples in the same order — every
    /// resident id sits in the cell its ring entry names, which covers its
    /// coordinates, and every stored id is resident — and each arrival
    /// run's live suffix is found, id for id, at the tail of its cell.
    fn assert_lockstep(s: &IngestState, context: &str) {
        let t = s.timeline();
        let stored: usize = s.grid().cells().map(|(_, points)| points.len()).sum();
        assert_eq!(
            (s.cells.len(), stored),
            (t.len(), t.len()),
            "{context}: ring / cells / timeline sizes"
        );
        for (id, &cell) in (t.oldest().map_or(0, |id| id.0)..).zip(&s.cells) {
            let coords = s.coords(TupleId(id)).expect("resident");
            assert_eq!(
                cell,
                s.grid().locate(coords),
                "{context}: ring entry of {id}"
            );
        }
        for (_, points) in s.grid().cells() {
            assert!(
                points.iter().all(|(id, _)| t.offset(id).is_some()),
                "{context}"
            );
        }
        if let (Some(oldest), Some(&cell)) = (t.oldest(), s.cells.front()) {
            let front = s.grid().points(cell).iter().next().map(|(id, _)| id);
            assert_eq!(front, Some(oldest), "{context}: the ring's front cell");
        }
        let oldest = t.oldest().unwrap_or(TupleId(u64::MAX));
        for (cell, run) in s.arrival_runs() {
            let live = &run[run.partition_point(|id| *id < oldest)..];
            let tail: Vec<TupleId> = s
                .arrival_run_points(cell, live.len())
                .iter()
                .map(|(id, _)| id)
                .collect();
            assert_eq!(tail, live, "{context}: tail of {cell:?}");
        }
    }

    /// Cells per axis of the grid the default spec builds for `window`.
    fn fitted(dims: usize, window: WindowSpec) -> usize {
        GridSpec::default()
            .for_window(dims, window)
            .build(dims, CellMode::Fifo)
            .unwrap()
            .per_dim()
    }

    #[test]
    fn default_grid_puts_one_cell_per_k_tuples_up_to_the_paper_budget() {
        let sized = |capacity| WindowSpec::TimeSized {
            duration: 1,
            capacity,
        };
        // Table 1's stream: 14.95 an axis, held at the paper's 12.
        assert_eq!(fitted(4, WindowSpec::Count(1_000_000)), 12);
        // The benchmark's d = 2 shapes: steady / serve, storm, fanout.
        assert_eq!(fitted(2, WindowSpec::Count(10_000)), 22);
        assert_eq!(fitted(2, sized(18_000)), 30);
        assert_eq!(fitted(2, WindowSpec::Count(1_000)), 7);
        // A one-tuple window is one cell.
        assert_eq!(fitted(2, WindowSpec::Count(1)), 1);
        // A time window has no size to fit: the 12⁴ budget, 144².
        assert_eq!(fitted(2, WindowSpec::Time(5)), 144);
        // The cap holds without overflow however large the window.
        assert_eq!(fitted(4, WindowSpec::Count(usize::MAX)), 12);
        // d = 6: 6.07 fitted, capped at round(12^(4/6)) = 5.
        assert_eq!(fitted(6, WindowSpec::Count(1_000_000)), 5);

        // The engines size their grid the same way; explicit specs and a
        // grid built without a window keep the paper's budget.
        let s = IngestState::new(2, WindowSpec::Count(10_000), GridSpec::default()).unwrap();
        assert_eq!(s.grid().per_dim(), 22);
        let spec = GridSpec::CellBudget(GridSpec::DEFAULT_BUDGET);
        assert_eq!(spec.for_window(2, WindowSpec::Count(10_000)), spec);
        let bare = GridSpec::default().build(2, CellMode::Fifo).unwrap();
        assert_eq!(bare.per_dim(), 144);
    }

    #[test]
    fn events_mirror_window_and_grid() {
        let mut s = IngestState::new(2, WindowSpec::Count(3), GridSpec::PerDim(4)).unwrap();
        s.ingest(Timestamp(0), &[0.1, 0.1, 0.9, 0.9]).unwrap();
        assert_eq!(ids(&events(s.arrival_runs())), vec![0, 1]);
        assert!(s.expiry_runs().next().is_none());
        assert_eq!(s.timeline().len(), 2);

        // Two more arrivals overflow the count window by one.
        s.ingest(Timestamp(1), &[0.5, 0.5, 0.2, 0.8]).unwrap();
        assert_eq!(ids(&events(s.arrival_runs())), vec![2, 3]);
        // The expired tuple's cell matches where it was inserted.
        assert_eq!(
            events(s.expiry_runs()),
            vec![(s.grid().locate(&[0.1, 0.1]), TupleId(0))]
        );
        assert_eq!(s.timeline().len(), 3);
        assert_lockstep(&s, "one over");

        let st = s.stats();
        assert_eq!((st.ticks, st.arrivals, st.expirations), (2, 4, 1));
    }

    #[test]
    fn burst_larger_than_window_expires_same_cycle() {
        let mut s = IngestState::new(1, WindowSpec::Count(2), GridSpec::PerDim(4)).unwrap();
        s.ingest(Timestamp(0), &[0.1, 0.3, 0.5, 0.7]).unwrap();
        assert_eq!(ids(&events(s.arrival_runs())), vec![0, 1, 2, 3]);
        assert_eq!(
            ids(&events(s.expiry_runs())),
            vec![0, 1],
            "same-cycle transients"
        );
        // Transients are gone from the window; survivors resolve.
        assert!(s.coords(TupleId(0)).is_none());
        assert_eq!(s.coords(TupleId(3)), Some(&[0.7][..]));
        assert_lockstep(&s, "4 into Count(2)");

        // The same with runs long enough to straddle chunks: 100 tuples
        // over 4 cells into a window of 30, twice — the second burst also
        // pops cells it did not fill — then a trickle.
        let mut s = IngestState::new(2, WindowSpec::Count(30), GridSpec::PerDim(2)).unwrap();
        let burst = |salt: usize| -> Vec<f64> {
            (0..200)
                .map(|i| ((i * 7 + salt) % 16) as f64 / 16.0)
                .collect()
        };
        for (t, batch) in [burst(0), burst(5), burst(3)[..6].to_vec()]
            .iter()
            .enumerate()
        {
            s.ingest(Timestamp(t as u64), batch).unwrap();
            assert_lockstep(&s, &format!("burst {t}"));
        }
        assert_eq!(s.timeline().len(), 30);
        assert_eq!(s.stats().expirations, 203 - 30);
    }

    /// The ring follows a time window through everything a count window
    /// never does: growth from its first allocation, equal timestamps, an idle tick that drains
    /// the whole window (ring and arena empty, chunks all free) and the
    /// refill after it.
    #[test]
    fn ring_follows_a_time_window() {
        let mut s = IngestState::new(2, WindowSpec::Time(3), GridSpec::PerDim(3)).unwrap();
        let batch = |count: usize, salt: usize| -> Vec<f64> {
            (0..count * 2)
                .map(|i| ((i * 5 + salt) % 11) as f64 / 10.0)
                .collect()
        };
        let cycles = [
            (0, batch(50, 0)),
            (0, batch(50, 1)),
            (1, batch(120, 2)),
            (2, batch(7, 3)),
            (3, batch(0, 4)),
            (4, batch(30, 5)),
            (40, batch(0, 6)),
            (41, batch(9, 7)),
            (41, batch(9, 8)),
        ];
        let mut most = 0;
        for (ts, coords) in &cycles {
            s.ingest(Timestamp(*ts), coords).unwrap();
            assert_lockstep(&s, &format!("@{ts}"));
            most = most.max(s.timeline().len());
            if *ts == 40 {
                assert!(s.timeline().is_empty() && s.cells.is_empty());
                assert_eq!(s.grid().chunks_in_use(), 0);
            }
        }
        assert_eq!(most, 227);
        assert!(s.cells.capacity() >= most && s.cells.capacity() <= most + most / 8);
    }

    #[test]
    fn runs_group_events_by_cell() {
        let mut s = IngestState::new(1, WindowSpec::Count(16), GridSpec::PerDim(4)).unwrap();
        // Cells for per_dim=4: 0.1→cell0, 0.3→cell1, 0.9→cell3.
        s.ingest(Timestamp(0), &[0.1, 0.9, 0.12, 0.3, 0.15])
            .unwrap();
        let runs: Vec<(u32, Vec<u64>)> = s
            .arrival_runs()
            .map(|(c, ids)| (c.0, ids.iter().map(|t| t.0).collect()))
            .collect();
        // One run per distinct cell in first-touched order; arrival (id)
        // order within each run.
        assert_eq!(runs, vec![(0, vec![0, 2, 4]), (3, vec![1]), (1, vec![3])]);
        // A run's points are the tail of its cell, aligned with the run's
        // ids.
        let coord_runs: Vec<Vec<f64>> = s
            .arrival_runs()
            .map(|(c, ids)| {
                let tail = s.arrival_run_points(c, ids.len());
                tail.iter().map(|(_, coords)| coords[0]).collect()
            })
            .collect();
        assert_eq!(
            coord_runs,
            vec![vec![0.1, 0.12, 0.15], vec![0.9], vec![0.3]]
        );
        assert!(s.expiry_runs().next().is_none());

        // Expiries group the same way (capacity 16 → push 14 more): the
        // runs cover exactly the expired id range, one run per cell.
        let burst: Vec<f64> = (0..14).map(|i| (i % 10) as f64 / 10.0).collect();
        s.ingest(Timestamp(1), &burst).unwrap();
        s.ingest(Timestamp(2), &[0.5, 0.5, 0.5]).unwrap();
        assert_eq!(ids(&events(s.expiry_runs())), vec![3, 4, 5]);
        let mut cells: Vec<u32> = s.expiry_runs().map(|(c, _)| c.0).collect();
        let distinct = cells.len();
        cells.sort_unstable();
        cells.dedup();
        assert_eq!(cells.len(), distinct, "exactly one run per distinct cell");
    }

    #[test]
    fn rejects_bad_input() {
        let mut s = IngestState::new(2, WindowSpec::Count(4), GridSpec::PerDim(4)).unwrap();
        assert!(s.ingest(Timestamp(0), &[0.5]).is_err());
        assert!(s.ingest(Timestamp(0), &[0.5, 1.2]).is_err());
    }

    /// A regressing cycle timestamp is an error on both window kinds (it
    /// would break FIFO expiry on a time window); an equal one is not.
    #[test]
    fn regressing_timestamp_is_an_error() {
        for window in [WindowSpec::Count(4), WindowSpec::Time(3)] {
            let mut s = IngestState::new(1, window, GridSpec::PerDim(4)).unwrap();
            s.ingest(Timestamp(5), &[0.1, 0.2]).unwrap();
            s.ingest(Timestamp(5), &[0.3]).unwrap();
            for batch in [&[0.4][..], &[]] {
                match s.ingest(Timestamp(4), batch) {
                    Err(TkmError::InvalidParameter(msg)) => {
                        assert!(msg.contains("earlier than"), "{window:?}: {msg}")
                    }
                    other => panic!("{window:?}: expected InvalidParameter, got {other:?}"),
                }
            }
            assert_eq!(s.timeline().len(), 3, "{window:?}");
            s.ingest(Timestamp(6), &[0.5]).unwrap();
            assert_eq!(s.timeline().newest(), Some(TupleId(3)), "{window:?}");
        }
    }

    /// Everything a rejected batch could have touched.
    fn trace(s: &IngestState) -> impl PartialEq + std::fmt::Debug {
        (
            {
                let t = s.timeline();
                (t.len(), t.oldest(), t.newest(), t.newest_time())
            },
            s.grid()
                .cells()
                .map(|(_, points)| points.iter().map(|(id, c)| (id, c.to_vec())).collect())
                .collect::<Vec<Vec<_>>>(),
            (s.grid().chunks_held(), s.grid().chunks_in_use()),
            s.cells.iter().copied().collect::<Vec<_>>(),
            s.stats(),
            events(s.arrival_runs()),
            events(s.expiry_runs()),
        )
    }

    /// Validation runs before any mutation: a batch whose *last* value is
    /// bad, a misaligned one and a regressing timestamp all leave timeline,
    /// cells, arena, cell ring, counters (ticks included) and the previous
    /// cycle's runs as they were, and the next valid batch gets the next
    /// dense ids.
    #[test]
    fn rejected_batch_leaves_no_trace() {
        let mut s = IngestState::new(2, WindowSpec::Count(3), GridSpec::PerDim(4)).unwrap();
        s.ingest(Timestamp(1), &[0.1, 0.1, 0.9, 0.9]).unwrap();
        s.ingest(Timestamp(2), &[0.5, 0.5, 0.2, 0.8]).unwrap();
        let before = trace(&s);
        let rejected: [(u64, &[f64]); 4] = [
            (3, &[0.3, 0.3, 0.6, 1.5]),
            (3, &[0.3, 0.3, 0.6, f64::NAN]),
            (3, &[0.3, 0.3, 0.6]),
            (1, &[0.3, 0.3]),
        ];
        for (ts, batch) in rejected {
            assert!(s.ingest(Timestamp(ts), batch).is_err(), "{batch:?} @{ts}");
            assert_eq!(trace(&s), before, "{batch:?} @{ts}");
        }
        s.ingest(Timestamp(3), &[0.3, 0.3, 0.6, 0.6]).unwrap();
        assert_eq!(ids(&events(s.arrival_runs())), vec![4, 5]);
        assert_eq!(ids(&events(s.expiry_runs())), vec![1, 2]);
        assert_eq!(s.stats().ticks, 3);
        assert_lockstep(&s, "after the rejected batches");
    }

    /// Every tick entry point funnels through [`Timeline::validate_tick`]
    /// before it mutates anything, so a misaligned buffer, a bad
    /// coordinate in the middle of a batch and a regressing timestamp
    /// each produce the *identical* error from all five engines — a
    /// client switching engines sees the same diagnostic — and leave the
    /// window as it was; an equal timestamp is accepted by all of them.
    #[test]
    fn dims_mismatch_message_is_shared_across_engines() {
        use crate::monitor::{SmaMonitor, TmaMonitor};
        use crate::oracle::OracleMonitor;
        use crate::threshold::ThresholdMonitor;
        use tkm_common::ScoreFn;
        use tkm_tsl::{KmaxPolicy, TslMonitor};

        fn check<E>(
            name: &str,
            engine: &mut E,
            tick: impl Fn(&mut E, Timestamp, &[f64]) -> Result<()>,
            timeline: impl Fn(&E) -> &Timeline,
        ) {
            tick(engine, Timestamp(5), &[0.1, 0.2, 0.3, 0.4]).unwrap();
            tick(engine, Timestamp(5), &[0.5, 0.6]).unwrap();
            let before = (timeline(engine).len(), timeline(engine).newest());
            assert_eq!(before, (3, Some(TupleId(2))), "{name}");
            let regressing =
                "tick: timestamp @3 is earlier than the newest tuple's arrival time @5";
            let rejected: [(u64, &[f64], &str); 4] = [
                (
                    5,
                    &[0.1, 0.2, 0.3],
                    "tick: arrival buffer length 3 is not a multiple of dims 2",
                ),
                (
                    5,
                    &[0.1, 0.2, 1.5, 0.4, 0.3, 0.3],
                    "tick: coordinate 1.5 outside the unit workspace",
                ),
                (3, &[0.7, 0.8], regressing),
                (3, &[], regressing),
            ];
            for (ts, batch, want) in rejected {
                match tick(engine, Timestamp(ts), batch) {
                    Err(TkmError::InvalidParameter(msg)) => assert_eq!(msg, want, "{name}"),
                    other => panic!("{name}: expected InvalidParameter, got {other:?}"),
                }
                let after = (timeline(engine).len(), timeline(engine).newest());
                assert_eq!(after, before, "{name}: {batch:?} @{ts}");
            }
            tick(engine, Timestamp(6), &[0.9, 0.9]).unwrap();
            assert_eq!(timeline(engine).newest(), Some(TupleId(3)), "{name}");
        }

        let (spec, grid) = (WindowSpec::Count(8), GridSpec::PerDim(4));
        let mut tma = TmaMonitor::new(2, spec, grid).unwrap();
        let mut sma = SmaMonitor::new(2, spec, grid).unwrap();
        let mut thr = ThresholdMonitor::new(2, spec, grid).unwrap();
        let mut orc = OracleMonitor::new(2, spec).unwrap();
        let mut tsl = TslMonitor::new(2, spec, KmaxPolicy::Dynamic).unwrap();
        let f = ScoreFn::linear(vec![1.0, 1.0]).unwrap();
        thr.register_query(tkm_common::QueryId(0), f.clone(), 0.5)
            .unwrap();
        tsl.register_query(tkm_common::QueryId(0), f, 2).unwrap();

        fn oracle_timeline(m: &OracleMonitor) -> &Timeline {
            m.window().timeline()
        }
        fn tsl_timeline(m: &TslMonitor) -> &Timeline {
            m.window().timeline()
        }
        check("TMA", &mut tma, TmaMonitor::tick, TmaMonitor::timeline);
        check("SMA", &mut sma, SmaMonitor::tick, SmaMonitor::timeline);
        check(
            "threshold",
            &mut thr,
            ThresholdMonitor::tick,
            ThresholdMonitor::timeline,
        );
        check("oracle", &mut orc, OracleMonitor::tick, oracle_timeline);
        check("TSL", &mut tsl, TslMonitor::tick, tsl_timeline);
        assert_eq!(tsl.stats().ticks, 3, "a rejected TSL tick is not counted");
    }

    /// The three stores a tick can be refused by — the ingest stage, a
    /// bare [`tkm_window::Window`] (TSL's and the oracle's store) and the
    /// threshold monitor on top of the stage — give the same error for a
    /// ragged buffer, a coordinate outside `[0, 1]` (NaN included) and a
    /// regressing timestamp, on both window kinds, and each leaves its
    /// state exactly as it was.
    #[test]
    fn validation_parity_on_both_window_kinds() {
        use crate::threshold::ThresholdMonitor;
        use tkm_common::{QueryId, ScoreFn};
        use tkm_window::Window;

        fn window_tick(w: &mut Window, now: Timestamp, batch: &[f64]) -> Result<()> {
            w.validate_tick(now, batch)?;
            for coords in batch.chunks_exact(w.dims()) {
                w.insert(coords, now)?;
            }
            w.drain_expired(now, |_, _| {});
            Ok(())
        }
        fn window_trace(w: &Window) -> impl PartialEq + std::fmt::Debug {
            let t = w.timeline();
            (
                (t.len(), t.oldest(), t.newest(), t.newest_time()),
                w.iter().map(|(id, c)| (id, c.to_vec())).collect::<Vec<_>>(),
            )
        }
        fn threshold_trace(m: &ThresholdMonitor) -> impl PartialEq + std::fmt::Debug {
            let t = m.timeline();
            let mut matching: Vec<TupleId> =
                m.matching(QueryId(0)).unwrap().iter().copied().collect();
            matching.sort_unstable();
            (
                (t.len(), t.oldest(), t.newest(), t.newest_time()),
                m.grid()
                    .cells()
                    .map(|(_, points)| points.iter().map(|(id, c)| (id, c.to_vec())).collect())
                    .collect::<Vec<Vec<_>>>(),
                matching,
                m.added(QueryId(0)).unwrap().to_vec(),
                m.removed(QueryId(0)).unwrap().to_vec(),
            )
        }

        let rejected: [(u64, &[f64]); 6] = [
            (4, &[0.3, 0.3, 0.6]),
            (4, &[0.3, 0.3, 0.6, 1.5]),
            (4, &[0.3, 0.3, -0.25, 0.6]),
            (4, &[0.3, f64::NAN, 0.6, 0.6]),
            (2, &[0.3, 0.3]),
            (2, &[]),
        ];
        for spec in [WindowSpec::Count(3), WindowSpec::Time(2)] {
            let grid = GridSpec::PerDim(4);
            let mut stage = IngestState::new(2, spec, grid).unwrap();
            let mut window = Window::new(2, spec).unwrap();
            let mut thr = ThresholdMonitor::new(2, spec, grid).unwrap();
            let f = ScoreFn::linear(vec![1.0, 1.0]).unwrap();
            thr.register_query(QueryId(0), f, 0.5).unwrap();
            for (ts, batch) in [(1, [0.1, 0.1, 0.9, 0.9]), (3, [0.5, 0.5, 0.2, 0.8])] {
                stage.ingest(Timestamp(ts), &batch).unwrap();
                window_tick(&mut window, Timestamp(ts), &batch).unwrap();
                thr.tick(Timestamp(ts), &batch).unwrap();
            }
            let before = (trace(&stage), window_trace(&window), threshold_trace(&thr));
            for (ts, batch) in rejected {
                let now = Timestamp(ts);
                let context = format!("{spec:?}: {batch:?} @{ts}");
                let errors = [
                    stage.ingest(now, batch),
                    window_tick(&mut window, now, batch),
                    thr.tick(now, batch),
                ];
                let Err(TkmError::InvalidParameter(msg)) = &errors[0] else {
                    panic!("{context}: expected InvalidParameter, got {:?}", errors[0]);
                };
                assert!(
                    errors.iter().all(|e| e == &errors[0]),
                    "{context}: {errors:?}"
                );
                assert!(msg.starts_with("tick: "), "{context}: {msg}");
                let after = (trace(&stage), window_trace(&window), threshold_trace(&thr));
                assert_eq!(after, before, "{context}");
            }
            // An equal timestamp is accepted by all three.
            stage.ingest(Timestamp(3), &[0.4, 0.4]).unwrap();
            window_tick(&mut window, Timestamp(3), &[0.4, 0.4]).unwrap();
            thr.tick(Timestamp(3), &[0.4, 0.4]).unwrap();
            assert_eq!(stage.timeline().newest(), Some(TupleId(4)), "{spec:?}");
            assert_eq!(window.newest(), Some(TupleId(4)), "{spec:?}");
            assert_eq!(thr.timeline().newest(), Some(TupleId(4)), "{spec:?}");
        }
    }

    /// `coords(id)` returns exactly what was fed for every resident id, on
    /// count and time windows, with cells deep enough that every lookup
    /// crosses chunk boundaries and with expiry waves in between; expired
    /// ids and ids never issued are `None`.
    #[test]
    fn coords_returns_what_was_fed() {
        let dims = 3;
        let sized = WindowSpec::TimeSized {
            duration: 2,
            capacity: 300,
        };
        for spec in [WindowSpec::Count(200), WindowSpec::Time(2), sized] {
            // Two cells an axis: ~25 points a cell, six-plus chunks deep.
            let mut s = IngestState::new(dims, spec, GridSpec::PerDim(2)).unwrap();
            let mut fed: Vec<f64> = Vec::new();
            // Bursts of 150, 40 and 0 tuples on timestamps 0, 0, 1, 1, 2,
            // …: the count window overruns, the time window drains whole
            // timestamps at a time.
            for tick in 0..12u64 {
                let count = [150, 40, 0][tick as usize % 3];
                let batch: Vec<f64> = crate::testutil::lcg_stream(tick, count, dims);
                fed.extend_from_slice(&batch);
                s.ingest(Timestamp(tick / 2), &batch).unwrap();
                let t = s.timeline();
                let issued = (fed.len() / dims) as u64;
                let oldest = t.oldest().map_or(issued, |id| id.0);
                assert_eq!(t.newest().map_or(issued, |id| id.0 + 1), issued);
                for id in 0..issued + 3 {
                    let got = s.coords(TupleId(id));
                    let context = format!("{spec:?} tick {tick}: id {id}");
                    if id < oldest || id >= issued {
                        assert_eq!(got, None, "{context}");
                    } else {
                        let at = id as usize * dims;
                        assert_eq!(got, Some(&fed[at..at + dims]), "{context}");
                    }
                }
                assert_lockstep(&s, &format!("{spec:?} tick {tick}"));
            }
            assert!(s.stats().expirations > 0, "{spec:?}: no expiry wave");
        }
    }

    /// A tenth of the benchmark's `ingest` stream (d = 4, N = 100k, r =
    /// 10k a tick): outside the grid the stage holds its 4-byte cell ring
    /// and an amount fixed by the grid and the batch size — no coordinate
    /// copy (3.2 MB here) and no per-tuple timestamp (0.8 MB) — on both
    /// window kinds.
    #[test]
    fn ingest_state_keeps_tuples_only_in_the_grid() {
        const DIMS: usize = 4;
        const N: usize = 100_000;
        const R: usize = 10_000;
        let sized = WindowSpec::TimeSized {
            duration: (N / R) as u64,
            capacity: N + R,
        };
        for spec in [WindowSpec::Count(N), sized] {
            let mut s = IngestState::new(DIMS, spec, GridSpec::default()).unwrap();
            for tick in 0..(2 * N / R) as u64 {
                let batch = crate::testutil::lcg_stream(tick, R, DIMS);
                s.ingest(Timestamp(tick), &batch).unwrap();
            }
            assert_eq!(s.timeline().len(), N, "{spec:?}");
            let outside = s.space_bytes() - s.grid().space_bytes();
            // The two cell-grouping tables (8 B a cell each), one cycle's
            // event buffers (at most 52 B an arrival: ids, runs and
            // cursors of both groupings, the located cells), the
            // timeline's few runs and the struct itself.
            let fixed = 16 * s.grid().num_cells() + 52 * R + 4096;
            let budget = 4 * s.cells.capacity() + fixed;
            assert!(
                outside <= budget,
                "{spec:?}: {outside} bytes outside the grid, budget {budget}"
            );
        }
    }
}
