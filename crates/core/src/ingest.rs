//! The ingest stage: one window timeline + one grid, populated
//! exactly once per processing cycle.
//!
//! The paper's server couples tuple storage and query maintenance in one
//! loop; the engines here split it in two. [`IngestState`] owns everything
//! that is *per-stream* (the window's timeline, the grid's point lists,
//! the expiry bookkeeping), while the per-query state (influence regions,
//! top-lists, skybands) lives in a [`crate::maintenance::QueryMaintenance`]
//! implementation or in [`crate::ThresholdMonitor`], each holding its
//! queries in the query table of [`crate::influence`]. Each
//! tick, [`IngestState::ingest`] applies the arrival set and the expiry
//! set to timeline and grid *once* and keeps the cell of every event of
//! both, as it found them; the maintenance stage then groups the events
//! its influence lists can see by cell and replays them against its
//! queries through an immutable `&IngestState` view. The stage itself
//! groups nothing: a tuple in a cell no query lists costs its insert and
//! its delete, as in the paper's processing cycle (Figures 9 and 11).
//!
//! The stage runs as a fixed sequence of tight passes over the whole
//! batch — extend the timeline, locate, scatter into cells, remember the
//! cells, pop the expired prefix from the cells it was remembered in, drop
//! it from the timeline — rather than one loop that walks each tuple
//! through the whole chain. A pass that only computes (locate)
//! and a pass that only touches cells (scatter, removal) keep many
//! independent cache misses in flight; a fused loop, whose iterations are
//! each ~60 dependent operations long, fits only a few iterations in the
//! reorder window and fetches the cold cell lines almost one at a time.
//! The scatter runs before the removal: removing first keeps the cells
//! within the window, but measured about 8 % slower a tick on the
//! benchmark's `ingest` shape (d = 4, N = 1M, r = 10k, on 2 vCPU), so a
//! sized window's arena plans for the window plus one batch instead.
//!
//! Every tuple is stored **once** (§4.1's single FIFO list): its
//! coordinates go into its grid cell and nowhere else. The list itself is
//! a ring of covering cell ids, oldest first, beside a coordinate-free
//! [`Timeline`] that knows the resident id range and when its tuples
//! arrived — 2 bytes per tuple (the grid has at most
//! [`IngestState::MAX_CELLS`] = 65 536 cells), plus one `(timestamp,
//! count)` run per distinct arrival time on a time window. In the grid a
//! tuple costs its 4-byte stored id, its coordinates and a quarter of a
//! chunk link, and a sized window stops the arena's growth at the chunks
//! it can need (see [`IngestState::new`]). A tuple is located once, on
//! arrival; the expiry pass pops the expired prefix's cells off the ring's
//! front, and [`IngestState::coords`] finds any resident tuple through
//! its ring entry and a scan of that cell.

use std::collections::VecDeque;

use tkm_common::{HeapBytes, Result, Timestamp, TkmError, TupleId};
use tkm_grid::{CellId, CellMode, CellPoints, Grid, CHUNK_POINTS};
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

/// Shared per-stream state: the window's timeline, the grid that stores
/// its tuples and the events of the most recent processing cycle.
#[derive(Debug)]
pub struct IngestState {
    timeline: Timeline,
    grid: Grid,
    /// The window's size, `N` of a [`WindowSpec::Count`] or the capacity
    /// of a [`WindowSpec::TimeSized`]: what the grid's arena plans for.
    window_size: Option<usize>,
    /// The covering cell of every resident tuple, oldest first — the
    /// paper's FIFO list, in lockstep with the timeline: tuple `id` is
    /// stored in cell `cells[id − oldest]`, and the expired prefix's cells
    /// are popped from here rather than located a second time. Two bytes
    /// an entry: the grid has at most [`IngestState::MAX_CELLS`] cells.
    /// It grows an eighth at a time, and a sized window's no further than
    /// the window plus its largest batch.
    cells: VecDeque<u16>,
    /// The last cycle's arrivals: the first one's id and the located cell
    /// of each, in id order (a cycle's arrivals are a dense id range).
    arrival_events: (TupleId, Vec<CellId>),
    /// The last cycle's expiries: the oldest one's id and the cell each
    /// was popped from, in id order.
    expiry_events: (TupleId, Vec<CellId>),
    stats: IngestStats,
}

impl IngestState {
    /// Most cells the stage's grid may have, so that a ring entry fits in
    /// two bytes. [`GridSpec::FitWindow`] stays at or below 12⁴ = 20 736.
    pub const MAX_CELLS: usize = 1 << 16;

    /// Creates the shared state for `dims`-dimensional tuples; a
    /// [`GridSpec::FitWindow`] grid is sized for `window`. A grid of more
    /// than [`IngestState::MAX_CELLS`] cells is refused. For a window of
    /// known size `n`, each [`IngestState::ingest`] plans the grid's arena
    /// and the cell ring for the window and its batch of `r`: growth steps
    /// stop at `⌈(n + r) / CHUNK_POINTS⌉` chunks plus one per cell (a
    /// partly filled chunk a cell) and at `n + r` ring entries, and only
    /// past that plan go on an eighth at a time. Nothing is allocated for
    /// the plan up front.
    pub fn new(dims: usize, window: WindowSpec, grid: GridSpec) -> Result<IngestState> {
        let grid = grid.for_window(dims, window).build(dims, CellMode::Fifo)?;
        let cells = grid.num_cells();
        if cells > Self::MAX_CELLS {
            return Err(TkmError::InvalidParameter(format!(
                "IngestState: {cells} grid cells exceed the cap of {} (2-byte cell ring)",
                Self::MAX_CELLS
            )));
        }
        let window_size = match window {
            WindowSpec::Count(n) | WindowSpec::TimeSized { capacity: n, .. } => Some(n),
            WindowSpec::Time(_) => None,
        };
        Ok(IngestState {
            timeline: Timeline::new(window)?,
            grid,
            window_size,
            cells: VecDeque::new(),
            arrival_events: (TupleId(0), Vec::new()),
            expiry_events: (TupleId(0), Vec::new()),
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
        let cell = CellId(u32::from(*self.cells.get(self.timeline.offset(id)?)?));
        let dims = self.dims();
        self.grid.points(cell).chunks().find_map(|(ids, coords)| {
            let at = ids.iter().position(|stored| stored == id)?;
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
    /// set, keeping the cell of every event of both for the maintenance
    /// stage ([`IngestState::arrival_cells`], [`IngestState::expiry_cells`]).
    /// A rejected batch — misaligned, a coordinate outside the unit
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
            window_size,
            cells,
            arrival_events: (first, located),
            expiry_events: (oldest, popped),
            stats,
        } = self;
        let dims = grid.dims();
        timeline.validate_tick(dims, now, arrivals)?;

        // Arrivals: take the next dense ids, locate sequentially, then
        // scatter — the scatter body is only cell head → push — and
        // remember the cells for the expiry pass of a later cycle. The
        // cells and the ring hold the window and this batch until the
        // expiry pass, and a sized window plans both for just that.
        *first = timeline.append(arrivals.len() / dims, now);
        stats.ticks += 1;
        located.clear();
        grid.locate_batch(arrivals, located);
        let plan = window_size.map(|n| n.saturating_add(located.len()));
        if let Some(plan) = plan {
            let chunks = plan.div_ceil(CHUNK_POINTS);
            grid.plan_chunks(chunks.saturating_add(grid.num_cells()));
        }
        for ((id, &cell), coords) in (first.0..)
            .zip(located.iter())
            .zip(arrivals.chunks_exact(dims))
        {
            grid.push_at(cell, TupleId(id), coords);
        }
        stats.arrivals += located.len() as u64;
        let resident = cells.len() + located.len();
        if resident > cells.capacity() {
            // An eighth at a time, like the point arena, and never past the
            // plan from below it: a sized window's ring settles at its size
            // plus its largest batch, a time window's follows the window
            // without doubling past it.
            let held = cells.capacity();
            let step = held + held / 8;
            let room = plan
                .filter(|&plan| held < plan)
                .map_or(step, |plan| step.min(plan));
            cells.reserve_exact(resident.max(room) - cells.len());
        }
        // Cell ids fit: the grid has at most `MAX_CELLS` cells.
        cells.extend(located.iter().map(|cell| cell.0 as u16));

        // Expiries: the expired prefix is known up front and its cells
        // come off the ring's front; the removal body is only the FIFO
        // front check + offset bump.
        let expired = timeline.expired_prefix(now);
        *oldest = timeline.oldest().unwrap_or(*first);
        popped.clear();
        popped.extend(cells.drain(..expired).map(|cell| CellId(u32::from(cell))));
        for (id, &cell) in (oldest.0..).zip(popped.iter()) {
            #[expect(
                clippy::expect_used,
                reason = "ring/grid lockstep is the ingest invariant; desync is unrecoverable"
            )]
            grid.remove_at(cell, TupleId(id))
                .expect("cell ring and grid are updated in lockstep");
        }
        stats.expirations += expired as u64;
        timeline.drop_front(expired);
        Ok(())
    }

    /// The last cycle's arrivals as the stage found them: the first
    /// arrival's id and the cell of each arrival in id order (`cells[i]`
    /// holds tuple `first + i`). The query table groups the ones its
    /// influence lists can see ([`crate::influence::ListedEvents`]).
    #[inline]
    pub fn arrival_cells(&self) -> (TupleId, &[CellId]) {
        (self.arrival_events.0, &self.arrival_events.1)
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

    /// The last cycle's expiries as the stage popped them: the oldest
    /// expired id and the cell of each expiry in id order.
    #[inline]
    pub fn expiry_cells(&self) -> (TupleId, &[CellId]) {
        (self.expiry_events.0, &self.expiry_events.1)
    }

    /// Cumulative stream-side counters.
    #[inline]
    pub fn stats(&self) -> IngestStats {
        self.stats
    }
}

/// The tuple storage (timeline, grid, cell ring) and the last cycle's
/// event buffers. The stage lives inline in its engine, which counts the
/// struct itself.
impl HeapBytes for IngestState {
    fn heap_bytes(&self) -> usize {
        self.timeline.heap_bytes()
            + self.grid.heap_bytes()
            + self.cells.heap_bytes()
            + self.arrival_events.1.heap_bytes()
            + self.expiry_events.1.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::influence::ListedEvents;
    use tkm_common::{QuerySlot, TkmError};
    use tkm_grid::InfluenceTable;

    /// A cycle's event cells as `(cell, id)` events in id order.
    fn events((first, cells): (TupleId, &[CellId])) -> Vec<(CellId, TupleId)> {
        (first.0..)
            .map(TupleId)
            .zip(cells)
            .map(|(id, &cell)| (cell, id))
            .collect()
    }

    /// The last cycle's events grouped by a query table that lists every
    /// cell, so that it keeps them all.
    fn grouped(s: &IngestState) -> ListedEvents {
        let mut influence = InfluenceTable::new(s.grid().num_cells());
        for cell in 0..s.grid().num_cells() as u32 {
            influence.insert(CellId(cell), QuerySlot(0));
        }
        let mut events = ListedEvents::default();
        events.group(&influence, s);
        events
    }

    fn ids(events: &[(CellId, TupleId)]) -> Vec<u64> {
        events.iter().map(|(_, id)| id.0).collect()
    }

    /// What must hold after every cycle: the cell ring, the timeline and
    /// the cells describe the same tuples in the same order — every
    /// resident id sits in the cell its ring entry names, which covers its
    /// coordinates, and every stored id is resident — and each arrival
    /// run's live suffix, grouped by the query table, is found, id for id,
    /// at the tail of its cell.
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
                CellId(u32::from(cell)),
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
            let front = s.grid().points(CellId(u32::from(cell))).iter().next();
            let front = front.map(|(id, _)| id);
            assert_eq!(front, Some(oldest), "{context}: the ring's front cell");
        }
        let oldest = t.oldest().unwrap_or(TupleId(u64::MAX));
        for (cell, run) in grouped(s).arrival_runs() {
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
        assert_eq!(ids(&events(s.arrival_cells())), vec![0, 1]);
        assert!(s.expiry_cells().1.is_empty());
        assert_eq!(s.timeline().len(), 2);

        // Two more arrivals overflow the count window by one.
        s.ingest(Timestamp(1), &[0.5, 0.5, 0.2, 0.8]).unwrap();
        assert_eq!(ids(&events(s.arrival_cells())), vec![2, 3]);
        // The expired tuple's cell matches where it was inserted.
        assert_eq!(
            events(s.expiry_cells()),
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
        assert_eq!(ids(&events(s.arrival_cells())), vec![0, 1, 2, 3]);
        assert_eq!(
            ids(&events(s.expiry_cells())),
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
        let groups = grouped(&s);
        let runs: Vec<(u32, Vec<u64>)> = groups
            .arrival_runs()
            .map(|(c, ids)| (c.0, ids.iter().map(|t| t.0).collect()))
            .collect();
        // One run per distinct cell in first-touched order; arrival (id)
        // order within each run.
        assert_eq!(runs, vec![(0, vec![0, 2, 4]), (3, vec![1]), (1, vec![3])]);
        // A run's points are the tail of its cell, aligned with the run's
        // ids.
        let coord_runs: Vec<Vec<f64>> = groups
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
        assert!(groups.expiry_runs().next().is_none());

        // Expiries group the same way (capacity 16 → push 14 more): the
        // runs cover exactly the expired id range, one run per cell.
        let burst: Vec<f64> = (0..14).map(|i| (i % 10) as f64 / 10.0).collect();
        s.ingest(Timestamp(1), &burst).unwrap();
        s.ingest(Timestamp(2), &[0.5, 0.5, 0.5]).unwrap();
        assert_eq!(ids(&events(s.expiry_cells())), vec![3, 4, 5]);
        let groups = grouped(&s);
        let mut expired: Vec<u64> = groups
            .expiry_runs()
            .flat_map(|(_, ids)| ids.iter().map(|id| id.0))
            .collect();
        expired.sort_unstable();
        assert_eq!(expired, vec![3, 4, 5]);
        let mut cells: Vec<u32> = groups.expiry_runs().map(|(c, _)| c.0).collect();
        let distinct = cells.len();
        cells.sort_unstable();
        cells.dedup();
        assert_eq!(cells.len(), distinct, "exactly one run per distinct cell");
    }

    /// The ring's two-byte entries cap the grid at 65 536 cells: one more
    /// is refused with a message naming the cap, exactly that many works.
    #[test]
    fn grid_above_the_ring_cap_is_refused() {
        let window = WindowSpec::Count(10);
        for (dims, per_dim) in [(1, 65_537), (2, 257), (4, 17)] {
            match IngestState::new(dims, window, GridSpec::PerDim(per_dim)) {
                Err(TkmError::InvalidParameter(msg)) => assert!(msg.contains("65536"), "{msg}"),
                other => panic!("{dims}-d {per_dim}: expected InvalidParameter, got {other:?}"),
            }
        }
        for (dims, per_dim) in [(1, 65_536), (2, 256), (4, 16)] {
            let mut s = IngestState::new(dims, window, GridSpec::PerDim(per_dim)).unwrap();
            assert_eq!(s.grid().num_cells(), IngestState::MAX_CELLS);
            // The last cell's id survives the ring.
            s.ingest(Timestamp(0), &vec![1.0; dims]).unwrap();
            assert_eq!(s.coords(TupleId(0)), Some(&vec![1.0; dims][..]));
            assert_lockstep(&s, "the cap");
        }
    }

    /// A window too large to ever fill plans an arena it never allocates:
    /// building the stage and running a tick are both cheap.
    #[test]
    fn unbounded_count_window_allocates_nothing_up_front() {
        let mut s =
            IngestState::new(4, WindowSpec::Count(usize::MAX), GridSpec::default()).unwrap();
        s.ingest(Timestamp(0), &[0.5; 8]).unwrap();
        assert_eq!(s.timeline().len(), 2);
        // One minimal growth step of 64 chunks.
        assert_eq!(s.grid().chunks_held(), 64);
        assert_lockstep(&s, "Count(usize::MAX)");
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
            events(s.arrival_cells()),
            events(s.expiry_cells()),
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
        assert_eq!(ids(&events(s.arrival_cells())), vec![4, 5]);
        assert_eq!(ids(&events(s.expiry_cells())), vec![1, 2]);
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
        use crate::engine::ContinuousTopK;
        use crate::monitor::{SmaMonitor, TmaMonitor};
        use crate::oracle::OracleMonitor;
        use crate::threshold::ThresholdMonitor;
        use crate::tsl::{KmaxPolicy, TslMonitor};
        use tkm_common::ScoreFn;

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
        tsl.register_query(
            tkm_common::QueryId(0),
            crate::query::Query::top_k(f, 2).unwrap(),
        )
        .unwrap();

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
    /// 10k a tick): outside the grid the stage holds its 2-byte cell ring
    /// and an amount fixed by the batch size — no coordinate copy (3.2 MB
    /// here), no per-tuple timestamp (0.8 MB) and no per-cell table
    /// (grouping events by cell is the query table's work) — on both
    /// window kinds; and after two window generations both plan what
    /// they hold for the window's size `n` plus the batch: the ring at
    /// most `n + R` entries, the arena at most `⌈(n + R) / 4⌉` chunks plus
    /// one a cell.
    #[test]
    fn ingest_state_keeps_tuples_only_in_the_grid() {
        const DIMS: usize = 4;
        const N: usize = 100_000;
        const R: usize = 10_000;
        let sized = WindowSpec::TimeSized {
            duration: (N / R) as u64,
            capacity: N + R,
        };
        for (spec, n) in [(WindowSpec::Count(N), N), (sized, N + R)] {
            let mut s = IngestState::new(DIMS, spec, GridSpec::default()).unwrap();
            for tick in 0..(2 * N / R) as u64 {
                let batch = crate::testutil::lcg_stream(tick, R, DIMS);
                s.ingest(Timestamp(tick), &batch).unwrap();
            }
            assert_eq!(s.timeline().len(), N, "{spec:?}");
            let outside = s.heap_bytes() - s.grid().heap_bytes();
            // One cycle's two event-cell buffers (4 B an event) and the
            // timeline's few runs: no grouping table, run or id buffer,
            // which belong to the query table.
            let fixed = 2 * 4 * R + 1024;
            let budget = 2 * s.cells.capacity() + fixed;
            assert!(
                outside <= budget,
                "{spec:?}: {outside} bytes outside the grid, budget {budget}"
            );
            let ring = s.cells.capacity();
            assert!(
                ring <= n + R,
                "{spec:?}: {ring} ring entries, plan {}",
                n + R
            );
            let plan = (n + R).div_ceil(CHUNK_POINTS) + s.grid().num_cells();
            let held = s.grid().chunks_held();
            assert!(held <= plan, "{spec:?}: {held} chunks held, plan {plan}");
        }
    }
}
