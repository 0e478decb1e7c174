//! Differential suite for the coordinate-inline (SoA) cell storage: under
//! arbitrary churn, every cell's `(id, coords)` pairs must mirror a naive
//! per-cell model exactly — through chunk turnover, window-overrun
//! transients, and Hash-mode removals — and the engines built on the
//! cells must keep reporting the brute-force oracle's results. The
//! staged batch ingest (`IngestState::ingest`) is held, cycle by cycle, to
//! the per-tuple window→grid loop it replaced — its raw event cells, and
//! the query table's grouping of them (`ListedEvents`), to that loop's
//! events — and the per-cycle band merge
//! (arrivals staged per query, folded in by one sweep) to the oracle on
//! the cycles that stress it: floods, overrun bursts, expiry waves.

mod common;

use common::TrackedStream;
use proptest::prelude::*;
use topk_monitor::engines::influence::ListedEvents;
use topk_monitor::engines::{
    GridSpec, IngestState, IngestStats, OracleMonitor, SmaMonitor, TmaMonitor,
};
use topk_monitor::grid::{CellId, CellMode, Grid, InfluenceTable};
use topk_monitor::{
    Query, QueryId, QuerySlot, ScoreFn, Scored, Timestamp, TupleId, UpdateOp, Window, WindowSpec,
};

/// Rebuilds the expected per-cell contents from the window: every valid
/// tuple, grouped by its covering cell, in arrival order.
fn expected_cells(grid: &Grid, window: &Window) -> Vec<Vec<(TupleId, Vec<f64>)>> {
    let mut cells: Vec<Vec<(TupleId, Vec<f64>)>> = vec![Vec::new(); grid.num_cells()];
    for (id, coords) in window.iter() {
        cells[grid.locate(coords).0 as usize].push((id, coords.to_vec()));
    }
    cells
}

fn assert_cells_match(grid: &Grid, window: &Window, context: &str) {
    let want = expected_cells(grid, window);
    for (cid, points) in grid.cells() {
        let got: Vec<(TupleId, Vec<f64>)> = points.iter().map(|(id, c)| (id, c.to_vec())).collect();
        assert_eq!(
            got, want[cid.0 as usize],
            "{context}: cell {cid:?} diverged from the window"
        );
        // The SoA arrays themselves stay aligned, chunk by chunk.
        for (ids, coords) in points.chunks() {
            assert_eq!(ids.len() * grid.dims(), coords.len());
        }
    }
}

fn brute(grid: &Grid, q: &Query) -> Vec<Scored> {
    let mut all: Vec<Scored> = grid
        .cells()
        .flat_map(|(_, points)| points.iter())
        .filter(|(_, c)| q.constraint.as_ref().is_none_or(|r| r.contains(c)))
        .map(|(id, c)| Scored::new(q.f.score(c), id))
        .collect();
    all.sort_by(|a, b| b.cmp(a));
    all.truncate(q.k);
    all
}

/// The per-tuple ingest loop that the staged `IngestState::ingest`
/// replaced, kept as its reference: every arrival goes `Window::insert` →
/// `Grid::insert_point`, every expiry `Window::drain_expired` →
/// `Grid::remove_point`, one tuple at a time.
struct PerTupleIngest {
    window: Window,
    grid: Grid,
    arrivals: Vec<(CellId, TupleId)>,
    expiries: Vec<(CellId, TupleId)>,
    stats: IngestStats,
}

impl PerTupleIngest {
    fn new(dims: usize, window: WindowSpec, grid: GridSpec) -> PerTupleIngest {
        PerTupleIngest {
            window: Window::new(dims, window).expect("config"),
            grid: grid.build(dims, CellMode::Fifo).expect("config"),
            arrivals: Vec::new(),
            expiries: Vec::new(),
            stats: IngestStats::default(),
        }
    }

    fn ingest(&mut self, now: Timestamp, batch: &[f64]) {
        let PerTupleIngest {
            window,
            grid,
            arrivals,
            expiries,
            stats,
        } = self;
        stats.ticks += 1;
        arrivals.clear();
        expiries.clear();
        for coords in batch.chunks_exact(window.dims()) {
            let id = window.insert(coords, now).expect("insert");
            arrivals.push((grid.insert_point(coords, id), id));
            stats.arrivals += 1;
        }
        window.drain_expired(now, |id, coords| {
            let cell = grid.remove_point(coords, id).expect("lockstep");
            expiries.push((cell, id));
            stats.expirations += 1;
        });
    }
}

/// Checks one kind of runs against the reference's flat event list: one
/// run per distinct cell, FIFO (ascending id) order inside a run, and the
/// runs together exactly the cycle's `(cell, id)` events in listed cells.
fn assert_runs_cover<'a>(
    runs: impl Iterator<Item = (CellId, &'a [TupleId])>,
    want: &[(CellId, TupleId)],
    context: &str,
) {
    let mut seen = std::collections::BTreeSet::new();
    let mut flat = Vec::new();
    for (cell, ids) in runs {
        assert!(!ids.is_empty(), "{context}: empty run for {cell:?}");
        assert!(seen.insert(cell), "{context}: two runs for {cell:?}");
        assert!(
            ids.windows(2).all(|pair| pair[0] < pair[1]),
            "{context}: run of {cell:?} not FIFO: {ids:?}"
        );
        flat.extend(ids.iter().map(|id| (cell, *id)));
    }
    flat.sort_by_key(|(_, id)| *id);
    assert_eq!(
        flat, want,
        "{context}: runs do not cover the cycle's events"
    );
}

/// Everything the staged ingest must share with the per-tuple reference
/// after a cycle.
fn assert_staged_matches(staged: &IngestState, reference: &PerTupleIngest, context: &str) {
    let (timeline, want) = (staged.timeline(), &reference.window);
    assert_eq!(
        (timeline.len(), timeline.oldest(), timeline.newest()),
        (want.len(), want.oldest(), want.newest()),
        "{context}: window"
    );
    for (id, coords) in want.iter() {
        assert_eq!(staged.coords(id), Some(coords), "{context}: coords({id})");
    }
    assert_eq!(staged.stats(), reference.stats, "{context}: stats");
    for ((cid, points), (_, want)) in staged.grid().cells().zip(reference.grid.cells()) {
        assert!(
            points.iter().eq(want.iter()),
            "{context}: points of {cid:?}"
        );
    }
    // The stage keeps every event's cell, in id order.
    let events = |(first, cells): (TupleId, &[CellId])| -> Vec<(CellId, TupleId)> {
        (first.0..)
            .map(TupleId)
            .zip(cells)
            .map(|(id, &c)| (c, id))
            .collect()
    };
    assert_eq!(
        events(staged.arrival_cells()),
        reference.arrivals,
        "{context}: arrival cells"
    );
    assert_eq!(
        events(staged.expiry_cells()),
        reference.expiries,
        "{context}: expiry cells"
    );
    // A query table groups the events in its listed cells: with every
    // cell listed, and with every other one.
    for step in [1, 2] {
        let listed = |cell: CellId| cell.0.is_multiple_of(step);
        let mut influence = InfluenceTable::new(staged.grid().num_cells());
        for cell in (0..staged.grid().num_cells() as u32).map(CellId) {
            if listed(cell) {
                influence.insert(cell, QuerySlot(0));
            }
        }
        let mut grouped = ListedEvents::default();
        grouped.group(&influence, staged);
        let context = format!("{context}: every {step} cell(s) listed");
        let kept = |all: &[(CellId, TupleId)]| -> Vec<(CellId, TupleId)> {
            all.iter().copied().filter(|(c, _)| listed(*c)).collect()
        };
        assert_runs_cover(
            grouped.arrival_runs(),
            &kept(&reference.arrivals),
            &format!("{context}: arrivals"),
        );
        assert_runs_cover(
            grouped.expiry_runs(),
            &kept(&reference.expiries),
            &format!("{context}: expiries"),
        );
        // Tail-slice invariant: a run's still-live tuples are the newest
        // points of the cell, ids and coordinates alike.
        let oldest = timeline.oldest().unwrap_or(TupleId(u64::MAX));
        for (cell, ids) in grouped.arrival_runs() {
            let live = &ids[ids.partition_point(|id| *id < oldest)..];
            let want = live.iter().map(|id| (*id, want.coords(*id).expect("live")));
            assert!(
                staged.arrival_run_points(cell, live.len()).iter().eq(want),
                "{context}: tail slices of {cell:?}"
            );
        }
    }
}

/// Feeds the same `(timestamp, batch)` cycles to the staged ingest and to
/// the per-tuple reference, comparing after every cycle.
fn drive_differential(
    dims: usize,
    window: WindowSpec,
    per_dim: usize,
    cycles: impl IntoIterator<Item = (u64, Vec<f64>)>,
) -> IngestState {
    let grid = GridSpec::PerDim(per_dim);
    let mut staged = IngestState::new(dims, window, grid).expect("config");
    let mut reference = PerTupleIngest::new(dims, window, grid);
    for (cycle, (ts, batch)) in cycles.into_iter().enumerate() {
        staged.ingest(Timestamp(ts), &batch).expect("ingest");
        reference.ingest(Timestamp(ts), &batch);
        let context = format!("d={dims} {window:?} cycle {cycle} @{ts}");
        assert_staged_matches(&staged, &reference, &context);
    }
    staged
}

/// Drives TMA, SMA and the oracle through `cycles` with `queries`
/// registered up front and holds both engines to the oracle — and the
/// oracle to a brute-force scan of TMA's window — after every cycle.
fn assert_engines_match_oracle(
    dims: usize,
    window: WindowSpec,
    per_dim: usize,
    queries: &[Query],
    cycles: impl IntoIterator<Item = (u64, Vec<f64>)>,
) {
    let grid = GridSpec::PerDim(per_dim);
    let mut tma = TmaMonitor::new(dims, window, grid).expect("config");
    let mut sma = SmaMonitor::new(dims, window, grid).expect("config");
    let mut oracle = OracleMonitor::new(dims, window).expect("config");
    for (i, q) in queries.iter().enumerate() {
        let id = QueryId(i as u64);
        tma.register_query(id, q.clone()).expect("register");
        sma.register_query(id, q.clone()).expect("register");
        oracle.register_query(id, q.clone()).expect("register");
    }
    for (cycle, (now, batch)) in cycles.into_iter().enumerate() {
        let ts = Timestamp(now);
        tma.tick(ts, &batch).expect("tick");
        sma.tick(ts, &batch).expect("tick");
        oracle.tick(ts, &batch).expect("tick");
        for (i, q) in queries.iter().enumerate() {
            let id = QueryId(i as u64);
            let want = oracle.result(id).expect("oracle");
            assert_eq!(tma.result(id).expect("tma"), want, "TMA {id} cycle {cycle}");
            assert_eq!(sma.result(id).expect("sma"), want, "SMA {id} cycle {cycle}");
            assert_eq!(brute(tma.grid(), q), want, "window drift cycle {cycle}");
        }
    }
}

/// `count` deterministic points on a 1/16 lattice, different per `salt`.
fn lattice_batch(dims: usize, count: usize, salt: usize) -> Vec<f64> {
    (0..count * dims)
        .map(|i| ((i * 7 + salt * 13) % 17) as f64 / 16.0)
        .collect()
}

/// The named corners of the staged ingest, at every dimensionality: an
/// empty batch, a burst larger than N (same-cycle transients), a batch
/// that straddles the ring wrap, one that grows the ring by several
/// doublings in a single call, and a time window with equal timestamps
/// and a mass expiry.
#[test]
fn staged_ingest_matches_reference_on_named_cases() {
    for dims in 1..=4 {
        let batch = |count, salt| lattice_batch(dims, count, salt);

        // Count window N = 8 → 24 ring slots. 20 + 3 tuples stay inside
        // the ring and leave the tail at slot 23, so the next 6 straddle
        // the wrap without growing; the empty cycles change nothing; 9 > N
        // expires its own first tuple in-cycle; 100 tuples need
        // 24 → 48 → 96 → 192 slots in one call.
        let s = drive_differential(
            dims,
            WindowSpec::Count(8),
            3,
            [
                (0, batch(0, 0)),
                (0, batch(20, 1)),
                (1, batch(3, 2)),
                (1, batch(6, 3)),
                (2, batch(0, 4)),
                (3, batch(9, 5)),
                (4, batch(100, 6)),
                (5, batch(5, 7)),
            ],
        );
        let st = s.stats();
        assert_eq!(
            (st.ticks, st.arrivals, st.expirations),
            (8, 143, 135),
            "d={dims}"
        );

        // Time window of 3 ticks hinted at 2 tuples: 40 share timestamp 0
        // (the reference's ring grows 2 → 64 slots in one call), more
        // arrive at equal and later timestamps, the whole group from timestamp 0 expires in
        // one cycle, and a jump empties the window before it refills.
        let s = drive_differential(
            dims,
            WindowSpec::TimeSized {
                duration: 3,
                capacity: 2,
            },
            3,
            [
                (0, batch(40, 1)),
                (0, batch(7, 2)),
                (1, batch(0, 3)),
                (2, batch(11, 4)),
                (3, batch(2, 5)),
                (3, batch(4, 6)),
                (50, batch(0, 7)),
                (60, batch(3, 8)),
                (63, batch(5, 9)),
            ],
        );
        assert_eq!(s.timeline().len(), 5, "d={dims}");
        assert_eq!(s.stats().expirations, 67, "d={dims}");
    }
}

/// The cycles that stress the per-cycle band merge, each against the
/// oracle for both engines: a flood into bands that still admit
/// everything (threshold −∞: every arrival is staged, the spare capacity
/// runs out again and again mid-cycle, and TMA's cap then tightens), a
/// burst larger than N (same-cycle transients must never be staged), and
/// a time window whose whole hot group expires in the cycle that brings
/// the next hot batch.
#[test]
fn band_merge_matches_oracle_on_named_cycles() {
    let dims = 2;
    let queries: Vec<Query> = [(1.0, 1.0, 3), (0.3, 1.7, 10), (1.0, -0.5, 1)]
        .into_iter()
        .map(|(a, b, k)| Query::top_k(ScoreFn::linear(vec![a, b]).expect("dims"), k).expect("k"))
        .collect();
    // Off-lattice points: few ties, long bands.
    let spread = |count: usize, salt: usize, lo: f64| -> Vec<f64> {
        (0..count * dims)
            .map(|i| lo + (1.0 - lo) * ((i * 7919 + salt * 104_729) % 10_007) as f64 / 10_007.0)
            .collect()
    };

    // Flood: registration over an empty window leaves every threshold at
    // −∞, then 600 tuples arrive in one cycle (and 600 more, tie-heavy).
    assert_engines_match_oracle(
        dims,
        WindowSpec::Count(5000),
        4,
        &queries,
        [
            (0, spread(600, 1, 0.0)),
            (1, lattice_batch(dims, 600, 2)),
            (2, spread(40, 3, 0.0)),
        ],
    );

    // Overrun: N = 50, bursts of 120 and 51 expire their own heads.
    assert_engines_match_oracle(
        dims,
        WindowSpec::Count(50),
        4,
        &queries,
        [
            (0, spread(30, 1, 0.0)),
            (1, spread(120, 2, 0.0)),
            (2, spread(51, 3, 0.5)),
            (3, spread(5, 4, 0.0)),
            (4, lattice_batch(dims, 120, 5)),
        ],
    );

    // Expiry wave + hot batch: the hot group of t=0 leaves the `Time(2)`
    // window at t=2, in the very cycle the next hot group arrives.
    assert_engines_match_oracle(
        dims,
        WindowSpec::Time(2),
        4,
        &queries,
        [
            (0, spread(300, 1, 0.5)),
            (1, spread(20, 2, 0.0)),
            (2, spread(300, 3, 0.5)),
            (3, spread(20, 4, 0.0)),
            (4, spread(500, 5, 0.7)),
            (6, spread(10, 6, 0.0)),
        ],
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The staged batch ingest vs the per-tuple reference under arbitrary
    /// cycles, on count windows (tiny N: constant expiry, transients, ring
    /// wrap every few cycles, growth on big bursts) and time windows
    /// (tiny ring: growth; `dt = 0`: equal timestamps; `dt = 9`: mass
    /// expiry), at d ∈ 1..=4.
    #[test]
    fn staged_ingest_matches_per_tuple_reference(
        dims in 1usize..5,
        timed in any::<bool>(),
        size in 1usize..24,
        per_dim in 1usize..6,
        cycles in prop::collection::vec(
            (0u64..10, 0usize..4, prop::collection::vec(0u32..17, 0..120)),
            1..24,
        ),
    ) {
        let window = if timed {
            WindowSpec::TimeSized { duration: 1 + size as u64 / 4, capacity: size }
        } else {
            WindowSpec::Count(size)
        };
        let mut now = 0u64;
        let cycles = cycles.iter().map(|(dt, scale, raw)| {
            // Two cycles in three share the previous timestamp or advance
            // by one; the rest jump. Most batches are small, a few large.
            now += if *dt < 7 { dt % 2 } else { *dt };
            let tuples = raw.len() / dims / (1 + 2 * (3 - scale));
            let batch: Vec<f64> = raw[..tuples * dims].iter().map(|v| *v as f64 / 16.0).collect();
            (now, batch)
        });
        drive_differential(dims, window, per_dim, cycles);
    }

    /// FIFO cells vs a reference window fed the same batches, under
    /// arbitrary arrival/expiry churn.
    /// Small capacities force constant expiry (chunks handed back and
    /// reused every few cycles) and bursts larger than the window create
    /// same-cycle transients.
    #[test]
    fn fifo_cells_mirror_window_under_churn(
        capacity in 1usize..40,
        per_dim in 1usize..8,
        bursts in prop::collection::vec(prop::collection::vec((0u32..32, 0u32..32), 0..50), 1..20),
    ) {
        let dims = 2;
        let spec = WindowSpec::Count(capacity);
        let mut s = IngestState::new(dims, spec, GridSpec::PerDim(per_dim)).expect("config");
        let mut window = Window::new(dims, spec).expect("config");
        for (t, burst) in bursts.iter().enumerate() {
            let mut batch = Vec::with_capacity(burst.len() * dims);
            for (a, b) in burst {
                batch.push(*a as f64 / 31.0);
                batch.push(*b as f64 / 31.0);
            }
            s.ingest(Timestamp(t as u64), &batch).expect("ingest");
            for coords in batch.chunks_exact(dims) {
                window.insert(coords, Timestamp(t as u64)).expect("insert");
            }
            window.drain_expired(Timestamp(t as u64), |_, _| {});
            assert_cells_match(s.grid(), &window, &format!("tick {t}"));
        }
    }

    /// Hash cells vs a naive model under explicit out-of-order deletes
    /// (the §7 update-stream discipline): filling a hole from the cell's
    /// front must keep the id and coordinate arenas aligned, and the TMA
    /// engine on top must keep matching a full rescan.
    #[test]
    fn hash_cells_and_engine_survive_explicit_deletes(
        per_dim in 1usize..7,
        k in 1usize..6,
        w1 in -2.0f64..2.0,
        w2 in -2.0f64..2.0,
        ops in prop::collection::vec((0u32..32, 0u32..32, 0u32..4), 1..120),
    ) {
        let dims = 2;
        let mut t = TrackedStream::new(dims, GridSpec::PerDim(per_dim));
        let q = Query::top_k(ScoreFn::linear(vec![w1, w2]).expect("dims"), k).expect("k");
        t.m.register_query(QueryId(0), q.clone()).expect("register");
        let mut live: Vec<TupleId> = Vec::new();
        let mut cycle = Vec::new();
        for (i, (a, b, action)) in ops.iter().enumerate() {
            // action 0: delete a pseudo-random live tuple; else insert.
            if *action == 0 && live.len() > 1 {
                let victim = live.remove((*a as usize + i) % live.len());
                cycle.push(UpdateOp::Delete(victim));
            } else {
                cycle.push(UpdateOp::Insert(vec![*a as f64 / 31.0, *b as f64 / 31.0]));
            }
            if cycle.len() == 4 {
                let ids = t.apply(&cycle);
                live.extend(ids);
                cycle.clear();
                // Engine result stays exact over the hash cells.
                prop_assert_eq!(t.m.result(QueryId(0)).expect("result"), &t.brute(&q)[..]);
            }
        }
        // Drain the remaining partial cycle so the cells are settled, then
        // check the index against the model: every live tuple is in exactly
        // its covering cell with its coordinates aligned, and nothing else
        // is indexed.
        if !cycle.is_empty() {
            t.apply(&cycle);
        }
        t.assert_grid_holds();
    }

    /// Expiry-heavy engine differential: tiny windows and big bursts make
    /// every tick recompute (exercising the region-bound influence skip)
    /// while the FIFO cells turn their chunks over constantly. TMA and SMA
    /// must match the oracle on every cycle.
    #[test]
    fn engines_match_oracle_under_heavy_expiry(
        capacity in 2usize..12,
        k in 1usize..8,
        per_dim in 2usize..8,
        w1 in -2.0f64..2.0,
        w2 in -2.0f64..2.0,
        bursts in prop::collection::vec(prop::collection::vec((0u32..24, 0u32..24), 0..10), 1..30),
    ) {
        let q = Query::top_k(ScoreFn::linear(vec![w1, w2]).expect("dims"), k).expect("k");
        let cycles = bursts.iter().enumerate().map(|(t, burst)| {
            let batch = burst
                .iter()
                .flat_map(|(a, b)| [*a as f64 / 23.0, *b as f64 / 23.0])
                .collect();
            (t as u64, batch)
        });
        assert_engines_match_oracle(2, WindowSpec::Count(capacity), per_dim, &[q], cycles);
    }

    /// Band-merge differential at engine level: cycles that are mostly
    /// trickles with the occasional flood (hundreds of arrivals, so every
    /// band overflows its spare capacity mid-cycle), on a count window
    /// small enough for the floods to overrun it or a short time window
    /// whose groups expire en masse; `hot` floods score high for every
    /// query, so they land in the bands rather than below the thresholds.
    #[test]
    fn band_merge_matches_oracle_under_floods(
        timed in any::<bool>(),
        size in 1usize..400,
        k in 1usize..12,
        w1 in 0.1f64..2.0,
        w2 in 0.1f64..2.0,
        cycles in prop::collection::vec(
            (0u64..3, 0usize..8, any::<bool>(), prop::collection::vec(0u32..4096, 0..1200)),
            1..12,
        ),
    ) {
        let dims = 2;
        let window = if timed {
            WindowSpec::Time(1 + size as u64 % 3)
        } else {
            WindowSpec::Count(size)
        };
        let queries = [
            Query::top_k(ScoreFn::linear(vec![w1, w2]).expect("dims"), k).expect("k"),
            Query::top_k(ScoreFn::linear(vec![w2, w1]).expect("dims"), 1 + k / 2).expect("k"),
        ];
        let mut now = 0u64;
        let cycles = cycles.iter().map(|(dt, scale, hot, raw)| {
            now += dt;
            // One cycle in eight keeps its whole batch (a flood); the rest
            // are cut down to a trickle.
            let tuples = if *scale == 0 { raw.len() / dims } else { raw.len() / dims / 40 };
            let lo = if *hot { 0.75 } else { 0.0 };
            let batch: Vec<f64> = raw[..tuples * dims]
                .iter()
                .map(|v| lo + (1.0 - lo) * *v as f64 / 4096.0)
                .collect();
            (now, batch)
        });
        assert_engines_match_oracle(dims, window, 4, &queries, cycles);
    }
}
