//! The top-k computation module (paper Figure 6).
//!
//! Visits grid cells in descending `maxscore` order without scoring every
//! cell up front: starting from the best-corner cell, each processed cell
//! en-heaps its `d` "one step worse" neighbours, whose maxscores bound all
//! remaining cells (Figure 5b). The search stops when the best unprocessed
//! cell cannot contain a tuple that beats the current k-th score, which
//! makes the set of processed cells exactly the cells intersecting the
//! query's influence region — the minimal set that must be book-kept.
//!
//! Differences from the paper's pseudo-code, both deliberate:
//!
//! * the loop continues while the heap key is `≥` the current k-th score
//!   (the paper uses `>`); with the workspace tie-break (older tuple wins
//!   equal scores) a boundary cell whose maxscore ties the threshold can
//!   still contain result tuples, and the non-strict test keeps the engines
//!   exact under ties at negligible extra cost;
//! * with tie tracking enabled (SMA), candidates displaced at the k-th
//!   boundary with equal score are collected so the skyband can be seeded
//!   with the *full* k-skyband of tuples scoring at least the threshold.
//!
//! Constrained queries (§7) pass a constraint rectangle: the traversal is
//! clipped to the cells overlapping it and points outside are filtered.
//!
//! The scan of each processed cell streams `(ids, coords)` slices straight
//! out of the cell's coordinate-inline chunks through the
//! dim-specialized [`crate::kernel`] scan — the traversal performs **zero**
//! per-tuple lookups by id, and takes no window at all.
//!
//! The traversal state (visit stamps, the cell heap, the frontier list)
//! lives in a caller-owned [`ComputeScratch`]: engines recompute queries
//! every tick, and reusing the buffers makes steady-state recomputations
//! allocation-free apart from the result list itself.

use std::collections::BinaryHeap;

use crate::kernel;
use crate::result::TopList;
use tkm_common::{HeapBytes, Monotonicity, OrderedF64, QuerySlot, Rect, ScoreFn, Scored, MAX_DIMS};
use tkm_grid::{CellId, Grid, InfluenceTable, VisitStamps};

/// Counters of one computation-module invocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ComputeStats {
    /// Cells de-heaped and processed.
    pub cells_processed: u64,
    /// Points examined in processed cells.
    pub points_scanned: u64,
    /// Cells pushed onto the heap.
    pub heap_pushes: u64,
}

/// Result of one computation-module invocation.
///
/// The frontier (cells en-heaped but not processed at termination — the
/// seeds of the influence clean-up walk, Figure 9 line 14) is *not* part
/// of this value: it is left in [`ComputeScratch::frontier`] so the
/// follow-up [`crate::influence::cleanup_from_frontier`] walk can consume
/// it in place without an allocation.
#[derive(Debug)]
pub struct ComputeOutcome {
    /// The top-k list (≤ k entries, best first). With tie tracking it
    /// also holds the candidates displaced at the k-th boundary — read
    /// them with [`TopList::append_boundary_ties`].
    pub top: TopList,
    /// The minimum traversal key (maxscore, clipped under a constraint)
    /// over the processed cells: after the follow-up clean-up walk, the
    /// query's influence lists cover every cell with key strictly above
    /// this. Feed it back as [`InfluenceUpdate::listed_above`] on the next
    /// recomputation to skip the (idempotent, but at high query counts
    /// expensive) re-insert into every already-listed cell.
    pub region_bound: f64,
    /// Access counters.
    pub stats: ComputeStats,
}

/// Influence-list maintenance instructions for a monitored computation.
#[derive(Debug)]
pub struct InfluenceUpdate<'a> {
    /// The maintenance domain's influence lists.
    pub table: &'a mut InfluenceTable,
    /// The dense slot of the query being (re)computed.
    pub slot: QuerySlot,
    /// Cells whose traversal key is strictly above this are known to carry
    /// the slot already (the [`ComputeOutcome::region_bound`] of the
    /// previous computation for this slot, `+∞` for a first computation):
    /// the traversal skips their insert instead of binary-searching the
    /// corner cells' long lists on every recomputation. Boundary cells
    /// whose key ties the bound still insert — a stop mid-way through an
    /// equal-key group can leave part of that group unlisted, so only the
    /// strict region is provably covered.
    pub listed_above: f64,
}

impl<'a> InfluenceUpdate<'a> {
    /// Update instructions for a first computation (or any caller without
    /// a remembered bound): nothing is assumed listed, every processed
    /// cell inserts.
    pub fn fresh(table: &'a mut InfluenceTable, slot: QuerySlot) -> InfluenceUpdate<'a> {
        InfluenceUpdate {
            table,
            slot,
            listed_above: f64::INFINITY,
        }
    }
}

/// Runs the top-k computation. With `influence = Some(update)` — the
/// monitoring path — the query's dense slot is registered in the influence
/// list of every processed cell not already known to carry it (see
/// [`InfluenceUpdate::listed_above`]); with `influence = None` the
/// traversal is a side-effect-free *snapshot* query. The grid itself is
/// only read; the caller brings the influence table and scratch.
/// `scratch` must be sized for the same grid; after return its stamp
/// epoch still marks every en-heaped cell and [`ComputeScratch::frontier`]
/// holds the unprocessed frontier — the clean-up walk relies on both.
///
/// All point data is read from the grid's coordinate-inline cells;
/// the window/slab is not consulted (and not a parameter).
///
/// `reuse` recycles a previous result's [`TopList`] buffers into the new
/// result (engines pass the query's old top-list so recomputations do not
/// allocate); pass `None` to build a fresh list.
#[allow(clippy::too_many_arguments)]
pub fn compute_topk(
    grid: &Grid,
    scratch: &mut ComputeScratch,
    influence: Option<InfluenceUpdate<'_>>,
    f: &ScoreFn,
    k: usize,
    constraint: Option<&Rect>,
    track_ties: bool,
    reuse: Option<TopList>,
) -> ComputeOutcome {
    debug_assert_eq!(grid.dims(), f.dims());
    debug_assert_eq!(scratch.stamps.len(), grid.num_cells());
    let top = match reuse {
        Some(mut t) => {
            t.reset(k, track_ties);
            t
        }
        None if track_ties => TopList::with_tie_tracking(k),
        None => TopList::new(k),
    };
    // Resolve the scoring function to a concrete monomorphized kernel once;
    // the whole traversal (bounds on every heap push, scans of every
    // processed cell) then runs without a single enum dispatch.
    kernel::dispatch(
        f,
        grid.dims(),
        Traversal {
            grid,
            scratch,
            influence,
            f,
            constraint,
            top,
        },
    )
}

/// The traversal of [`compute_topk`], generic over the concrete scorer.
struct Traversal<'a> {
    grid: &'a Grid,
    scratch: &'a mut ComputeScratch,
    influence: Option<InfluenceUpdate<'a>>,
    f: &'a ScoreFn,
    constraint: Option<&'a Rect>,
    top: TopList,
}

impl kernel::ScorerVisitor for Traversal<'_> {
    type Out = ComputeOutcome;

    fn visit<S: kernel::Scorer>(self, scorer: &S) -> ComputeOutcome {
        let Traversal {
            grid,
            scratch,
            mut influence,
            f,
            constraint,
            mut top,
        } = self;
        let dims = grid.dims();
        let mut stats = ComputeStats::default();

        let range = grid.cell_range(constraint);
        let start = grid.best_corner(&range, f);
        // Resolve each axis' monotonicity once; the per-cell neighbour
        // steps below run on the cached directions.
        let dirs = directions(f);

        // With a constraint the heap keys are clipped maxscores (cell ∩
        // R): tighter for boundary cells, and mandatory when `f` is only
        // monotone inside R (piecewise-monotone pieces). This runs on
        // every heap push.
        let cell_bound = |cell: CellId| {
            let (cell_lo, cell_hi) = grid.cell_lo_hi(cell);
            match constraint {
                Some(r) => {
                    let mut lo = [0.0f64; MAX_DIMS];
                    let mut hi = [0.0f64; MAX_DIMS];
                    for dim in 0..dims {
                        lo[dim] = cell_lo[dim].max(r.lo()[dim]);
                        hi[dim] = cell_hi[dim].min(r.hi()[dim]);
                        if lo[dim] > hi[dim] {
                            // Disjoint (possible for range-boundary
                            // cells): nothing inside can qualify.
                            return f64::NEG_INFINITY;
                        }
                    }
                    scorer.bound(&lo[..dims], &hi[..dims])
                }
                None => scorer.bound(cell_lo, cell_hi),
            }
        };

        let ComputeScratch {
            stamps,
            heap,
            frontier,
        } = scratch;
        heap.clear();
        stamps.begin();
        stamps.mark(start);
        heap.push((OrderedF64::new(cell_bound(start)), start));
        stats.heap_pushes += 1;
        // Tracks `top.threshold()` so sub-threshold points are rejected
        // before the offer call; score == threshold still goes through
        // (ties matter, and the tie pool lives inside `offer`).
        let mut threshold = f64::NEG_INFINITY;
        // Minimum processed key so far (pops come out in descending key
        // order, so the running value is just the latest pop's key).
        let mut region_bound = f64::INFINITY;

        while let Some(&(maxscore, cell)) = heap.peek() {
            // Stop when even the best unprocessed cell cannot reach the
            // k-th score (non-strict continue: ties may still matter).
            if top.is_full() && maxscore.get() < threshold {
                break;
            }
            heap.pop();
            stats.cells_processed += 1;
            region_bound = maxscore.get();

            let points = grid.points(cell);
            stats.points_scanned += points.len() as u64;
            for (ids, coords) in points.chunks() {
                scorer.scan(ids, coords, constraint, |id, score| {
                    if score >= threshold && top.offer(Scored::new(score, id)) {
                        threshold = top.threshold();
                    }
                });
            }
            if let Some(upd) = influence.as_mut() {
                // Cells strictly above the previous region bound already
                // carry the slot — skip the sorted-list insert (at high
                // query counts the corner cells' lists are long, and this
                // probe used to dominate recomputation cost).
                if maxscore.get() <= upd.listed_above {
                    upd.table.insert(cell, upd.slot);
                }
            }

            for (dim, &dir) in dirs.iter().enumerate().take(dims) {
                if let Some(n) = grid.step_worse(cell, dim, dir, &range) {
                    if stamps.mark(n) {
                        heap.push((OrderedF64::new(cell_bound(n)), n));
                        stats.heap_pushes += 1;
                    }
                }
            }
        }

        frontier.clear();
        frontier.extend(heap.drain().map(|(_, c)| c));

        ComputeOutcome {
            top,
            region_bound,
            stats,
        }
    }
}

/// Each axis' monotonicity under `f`, resolved once per traversal or walk.
pub(crate) fn directions(f: &ScoreFn) -> [Monotonicity; MAX_DIMS] {
    let mut dirs = [Monotonicity::Increasing; MAX_DIMS];
    for (dim, dir) in dirs.iter_mut().enumerate().take(f.dims()) {
        *dir = f.monotonicity(dim);
    }
    dirs
}

/// Reusable traversal buffers owned by one engine's maintenance stage.
/// Keeping them here makes steady-state processing cycles allocation-free:
/// the computation heap and the frontier list retain their capacity across
/// ticks.
#[derive(Debug)]
pub struct ComputeScratch {
    /// Reusable visited markers.
    pub stamps: VisitStamps,
    /// Cell heap of the top-k traversal (drained into `frontier` on
    /// completion).
    pub heap: BinaryHeap<(OrderedF64, CellId)>,
    /// Cells en-heaped but not processed by the last [`compute_topk`]
    /// call: the clean-up walk's seed list, consumed in place.
    pub frontier: Vec<CellId>,
}

impl ComputeScratch {
    /// Creates scratch state for a grid with `num_cells` cells.
    pub fn new(num_cells: usize) -> ComputeScratch {
        ComputeScratch {
            stamps: VisitStamps::new(num_cells),
            heap: BinaryHeap::new(),
            frontier: Vec::new(),
        }
    }
}

/// The retained buffers.
impl HeapBytes for ComputeScratch {
    fn heap_bytes(&self) -> usize {
        self.stamps.heap_bytes() + self.heap.heap_bytes() + self.frontier.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkm_common::TupleId;
    use tkm_grid::CellMode;

    /// No window exists in this harness at all: the traversal reads every
    /// coordinate from the grid's cell blocks, which is the whole point of
    /// the coordinate-inline layout (and the compile-time guarantee that
    /// it resolves no tuple through a window).
    fn setup(points: &[[f64; 2]], per_dim: usize) -> (Grid, ComputeScratch, InfluenceTable) {
        let mut grid = Grid::new(2, per_dim, CellMode::Fifo).unwrap();
        for (i, p) in points.iter().enumerate() {
            grid.insert_point(p, TupleId(i as u64));
        }
        let scratch = ComputeScratch::new(grid.num_cells());
        let influence = InfluenceTable::new(grid.num_cells());
        (grid, scratch, influence)
    }

    fn naive_topk(points: &[[f64; 2]], f: &ScoreFn, k: usize, r: Option<&Rect>) -> Vec<Scored> {
        let mut all: Vec<Scored> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| r.is_none_or(|r| r.contains(&p[..])))
            .map(|(i, p)| Scored::new(f.score(&p[..]), TupleId(i as u64)))
            .collect();
        all.sort_by(|a, b| b.cmp(a));
        all.truncate(k);
        all
    }

    /// Figure 5(a): top-1 with f = x1 + 2·x2 in a 7×7 grid; the search must
    /// process only the cells intersecting the influence region.
    #[test]
    fn figure5_processes_minimal_cells() {
        let points = [[0.55, 0.90], [0.90, 0.55]]; // p1 (winner), p2
        let f = ScoreFn::linear(vec![1.0, 2.0]).unwrap();
        let (grid, mut scratch, mut influence) = setup(&points, 7);
        let out = compute_topk(
            &grid,
            &mut scratch,
            Some(InfluenceUpdate::fresh(&mut influence, QuerySlot(0))),
            &f,
            1,
            None,
            false,
            None,
        );
        assert_eq!(out.top.as_slice(), &naive_topk(&points, &f, 1, None)[..]);
        assert_eq!(out.top.as_slice()[0].id, TupleId(0));
        // score(p1) = 0.55 + 1.8 = 2.35. Cells with maxscore ≥ 2.35 in the
        // 7×7 grid: count them directly.
        let expected: u64 = (0..49)
            .filter(|i| grid.maxscore(CellId(*i), &f) >= 2.35)
            .count() as u64;
        assert_eq!(out.stats.cells_processed, expected);
        // Every processed cell carries the influence entry.
        let listed = (0..49)
            .filter(|i| influence.contains(CellId(*i), QuerySlot(0)))
            .count() as u64;
        assert_eq!(listed, expected);
        // Frontier cells were en-heaped but not processed.
        for c in &scratch.frontier {
            assert!(!influence.contains(*c, QuerySlot(0)));
            assert!(scratch.stamps.is_marked(*c));
        }
    }

    #[test]
    fn empty_window_processes_everything_and_finds_nothing() {
        let (grid, mut scratch, mut influence) = setup(&[], 4);
        let f = ScoreFn::linear(vec![1.0, 1.0]).unwrap();
        let out = compute_topk(
            &grid,
            &mut scratch,
            Some(InfluenceUpdate::fresh(&mut influence, QuerySlot(3))),
            &f,
            2,
            None,
            false,
            None,
        );
        assert!(out.top.is_empty());
        assert_eq!(out.stats.cells_processed, 16, "deficient search floods");
        assert!(scratch.frontier.is_empty());
    }

    #[test]
    fn mixed_monotonicity_figure7a() {
        // f = x1 - x2, top-2 (Figure 7a): best points have large x1,
        // small x2.
        let points = [[0.95, 0.1], [0.8, 0.05], [0.3, 0.9], [0.5, 0.4]];
        let f = ScoreFn::linear(vec![1.0, -1.0]).unwrap();
        let (grid, mut scratch, mut influence) = setup(&points, 7);
        let out = compute_topk(
            &grid,
            &mut scratch,
            Some(InfluenceUpdate::fresh(&mut influence, QuerySlot(1))),
            &f,
            2,
            None,
            false,
            None,
        );
        assert_eq!(out.top.as_slice(), &naive_topk(&points, &f, 2, None)[..]);
    }

    #[test]
    fn product_function_figure7b() {
        let points = [[0.9, 0.8], [0.99, 0.2], [0.5, 0.5]];
        let f = ScoreFn::product(vec![0.0, 0.0]).unwrap();
        let (grid, mut scratch, mut influence) = setup(&points, 7);
        let out = compute_topk(
            &grid,
            &mut scratch,
            Some(InfluenceUpdate::fresh(&mut influence, QuerySlot(1))),
            &f,
            1,
            None,
            false,
            None,
        );
        assert_eq!(out.top.as_slice()[0].id, TupleId(0), "0.72 beats 0.198");
    }

    /// Figure 12: the constrained search starts at the best cell inside R
    /// and ignores outside points (p1 in the figure).
    #[test]
    fn constrained_query_figure12() {
        let points = [[0.55, 0.95], [0.62, 0.68], [0.9, 0.9]];
        let f = ScoreFn::linear(vec![1.0, 2.0]).unwrap();
        let r = Rect::new(vec![0.5, 0.45], vec![0.8, 0.75]).unwrap();
        let (grid, mut scratch, mut influence) = setup(&points, 7);
        let out = compute_topk(
            &grid,
            &mut scratch,
            Some(InfluenceUpdate::fresh(&mut influence, QuerySlot(2))),
            &f,
            1,
            Some(&r),
            false,
            None,
        );
        assert_eq!(
            out.top.as_slice(),
            &naive_topk(&points, &f, 1, Some(&r))[..]
        );
        assert_eq!(out.top.as_slice()[0].id, TupleId(1), "p2 wins inside R");
        // Cells outside the constraint range are never touched.
        let range = grid.cell_range(Some(&r));
        for (cid, _) in grid.cells() {
            if influence.contains(cid, QuerySlot(2)) {
                let cc = grid.cell_coords(cid);
                for ((c, lo), hi) in cc.iter().zip(&range.0).zip(&range.1).take(2) {
                    assert!(c >= lo && c <= hi);
                }
            }
        }
    }

    #[test]
    fn tie_tracking_collects_boundary_ties() {
        // Four points, three tie at the k-th score.
        let points = [[0.5, 0.5], [0.6, 0.4], [0.4, 0.6], [0.9, 0.9]];
        let f = ScoreFn::linear(vec![1.0, 1.0]).unwrap();
        let (grid, mut scratch, mut influence) = setup(&points, 4);
        let out = compute_topk(
            &grid,
            &mut scratch,
            Some(InfluenceUpdate::fresh(&mut influence, QuerySlot(0))),
            &f,
            2,
            None,
            true,
            None,
        );
        // Top-2: id3 (1.8), id0 (1.0, oldest of the ties).
        let ids: Vec<u64> = out.top.as_slice().iter().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![3, 0]);
        let mut ties = Vec::new();
        out.top.append_boundary_ties(&mut ties);
        let tie_ids: Vec<u64> = ties.iter().map(|e| e.id.0).collect();
        assert_eq!(tie_ids, vec![1, 2], "both 1.0-ties outside the result");
    }

    #[test]
    fn k_larger_than_population() {
        let points = [[0.2, 0.3], [0.8, 0.1]];
        let f = ScoreFn::linear(vec![1.0, 1.0]).unwrap();
        let (grid, mut scratch, mut influence) = setup(&points, 4);
        let out = compute_topk(
            &grid,
            &mut scratch,
            Some(InfluenceUpdate::fresh(&mut influence, QuerySlot(0))),
            &f,
            5,
            None,
            false,
            None,
        );
        assert_eq!(out.top.len(), 2);
        assert!(!out.top.is_full());
        assert!(
            scratch.frontier.is_empty(),
            "deficient search floods the grid"
        );
    }

    /// Scratch reuse: back-to-back computations leave no stale state and
    /// keep their buffer capacity.
    #[test]
    fn scratch_is_reusable_across_calls() {
        let points = [[0.2, 0.9], [0.9, 0.2], [0.6, 0.6], [0.1, 0.1]];
        let (grid, mut scratch, mut influence) = setup(&points, 6);
        let f1 = ScoreFn::linear(vec![1.0, 2.0]).unwrap();
        let f2 = ScoreFn::linear(vec![-1.0, 1.0]).unwrap();
        let first = compute_topk(&grid, &mut scratch, None, &f1, 2, None, false, None);
        let heap_cap = scratch.heap.capacity();
        let again = compute_topk(&grid, &mut scratch, None, &f1, 2, None, false, None);
        assert_eq!(first.top.as_slice(), again.top.as_slice());
        assert!(scratch.heap.capacity() >= heap_cap, "capacity retained");
        // A different query direction still computes exactly.
        let out = compute_topk(
            &grid,
            &mut scratch,
            Some(InfluenceUpdate::fresh(&mut influence, QuerySlot(9))),
            &f2,
            1,
            None,
            false,
            None,
        );
        assert_eq!(out.top.as_slice(), &naive_topk(&points, &f2, 1, None)[..]);
        assert!(scratch.heap_bytes() > scratch.stamps.heap_bytes());
    }
}
