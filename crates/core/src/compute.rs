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
//! per-tuple lookups into the window ring, and takes no window at all.
//!
//! The traversal state (visit stamps, the cell heap, the frontier list)
//! lives in a caller-owned [`ComputeScratch`]: engines recompute queries
//! every tick, and reusing the buffers makes steady-state recomputations
//! allocation-free apart from the result list itself.

use std::collections::BinaryHeap;

use crate::kernel;
use crate::result::TopList;
use tkm_common::{Monotonicity, OrderedF64, QuerySlot, Rect, ScoreFn, Scored, MAX_DIMS};
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
// lint: allow(space, reason=transient per-computation value; its buffers are recycled into the counted ComputeScratch)
pub struct ComputeOutcome {
    /// The top-k list (≤ k entries, best first).
    pub top: TopList,
    /// Candidates outside the top-k whose score ties the k-th score
    /// (present only when tie tracking was requested).
    pub boundary_ties: Vec<Scored>,
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
/// only read, so one shared grid can serve concurrent computations as long
/// as each caller brings its own table and scratch. `scratch` must be
/// sized for the same grid; after return its stamp epoch still marks every
/// en-heaped cell and [`ComputeScratch::frontier`] holds the unprocessed
/// frontier — the clean-up walk relies on both.
///
/// All point data is read from the grid's coordinate-inline cells;
/// the window/slab is not consulted (and not a parameter).
///
/// `reuse` recycles a previous result's [`TopList`] buffers into the new
/// result (engines pass the query's old top-list so recomputations do not
/// allocate); pass `None` to build a fresh list.
#[allow(clippy::too_many_arguments)]
// lint: hot-path
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

        let range = constraint.map(|r| grid.cell_range(r));
        let start = match &range {
            Some(r) => grid.best_corner_in(r, f),
            None => grid.best_corner(f),
        };
        // Resolve each axis' monotonicity once; the per-cell neighbour
        // steps below run on the cached directions.
        let mut dirs = [Monotonicity::Increasing; MAX_DIMS];
        for (dim, dir) in dirs.iter_mut().enumerate().take(dims) {
            *dir = f.monotonicity(dim);
        }

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
            ..
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
                let next = match &range {
                    Some(r) => grid.step_worse_in_dir(cell, dim, dir, r),
                    None => grid.step_worse_dir(cell, dim, dir),
                };
                if let Some(n) = next {
                    if stamps.mark(n) {
                        heap.push((OrderedF64::new(cell_bound(n)), n));
                        stats.heap_pushes += 1;
                    }
                }
            }
        }

        frontier.clear();
        frontier.extend(heap.drain().map(|(_, c)| c));

        let boundary_ties = top.boundary_ties();
        ComputeOutcome {
            top,
            boundary_ties,
            region_bound,
            stats,
        }
    }
}

/// One query of a batched shared recomputation ([`compute_topk_group`]).
///
/// Members of one group must agree on per-axis monotonicity (they share a
/// traversal order) and must be unconstrained — a constrained query clips
/// its traversal to a private cell range and recomputes solo.
#[derive(Debug)]
pub struct GroupMember {
    /// The query's dense slot.
    pub slot: QuerySlot,
    /// The query's scoring function.
    pub f: ScoreFn,
    /// Result size.
    pub k: usize,
    /// Cells whose maxscore under `f` is strictly above this are known to
    /// carry the slot already (see [`InfluenceUpdate::listed_above`]).
    pub listed_above: f64,
    /// Keep the previously listed superset: the influence post-pass skips
    /// the shrink-side removals for this member, so cells between the new
    /// threshold and `listed_above` stay listed. A superset region is
    /// sound — it only costs extra replay probes — and skipping the
    /// removals (plus the frontier sweep) turns a threshold flip-flop
    /// into a no-op instead of a mass relist. The caller must then keep
    /// its fed-back bound at `min(listed_above, region_bound)`.
    pub keep_superset: bool,
    /// Collect boundary ties (skyband seeding).
    pub track_ties: bool,
    /// Recycled result buffers from the previous computation.
    pub reuse: Option<TopList>,
}

/// Per-member result of a [`compute_topk_group`] traversal. The fields
/// mirror [`ComputeOutcome`], except that `region_bound` is the member's
/// final k-th score (`−∞` when deficient): every cell with maxscore ≥ it
/// was processed and is covered by the member's influence lists.
#[derive(Debug)]
pub struct GroupOutcome {
    /// The member's dense slot (copied through for the caller's re-match).
    pub slot: QuerySlot,
    /// The top-k list (≤ k entries, best first).
    pub top: TopList,
    /// Candidates tying the k-th score (when tie tracking was requested).
    pub boundary_ties: Vec<Scored>,
    /// The member's influence-region bound — feed back as `listed_above`.
    pub region_bound: f64,
}

/// Internal per-member traversal state of [`compute_topk_group`].
#[derive(Debug)]
pub(crate) struct GroupRun {
    m: GroupMember,
    top: TopList,
    threshold: f64,
}

/// Runs one shared grid traversal serving every member of a group —
/// the batched counterpart of N solo [`compute_topk`] calls.
///
/// Cells pop in descending *group* key order (the max of the active
/// members' cell bounds), each popped cell's coordinates are streamed
/// once per still-interested member, and a member drops out as soon as the
/// group key falls strictly below its k-th score. Every cell a solo
/// traversal for member `m` would process has bound ≥ `m`'s final
/// threshold, hence group key ≥ that threshold, hence pops before `m` is
/// done — so each member's result is identical to its solo result.
///
/// Influence lists are maintained in a post-pass over the popped cells
/// (recorded in [`ComputeScratch::popped`]): for each member, cells with
/// bound ≥ its final threshold are inserted (unless already listed per
/// `listed_above`), and popped cells *below* the member's threshold but
/// inside its previously-listed region are removed — the shared envelope
/// covers them, so the follow-up frontier walk (which starts strictly
/// below every member's threshold) would never reach those stale entries.
/// After return, [`ComputeScratch::frontier`] holds the shared frontier
/// and the stamp epoch still marks every en-heaped cell; pass the group's
/// slots to [`crate::influence::cleanup_group_from_frontier`] to finish
/// the sweep.
///
/// `members` is drained (its buffers are recycled by the caller);
/// `results` is cleared and refilled with one [`GroupOutcome`] per member,
/// in member order.
// lint: hot-path
pub fn compute_topk_group(
    grid: &Grid,
    scratch: &mut ComputeScratch,
    influence: &mut InfluenceTable,
    members: &mut Vec<GroupMember>,
    results: &mut Vec<GroupOutcome>,
) -> ComputeStats {
    results.clear();
    let mut stats = ComputeStats::default();
    if members.is_empty() {
        scratch.frontier.clear();
        return stats;
    }
    let dims = grid.dims();
    debug_assert!(members.iter().all(|m| m.f.dims() == dims));
    debug_assert!(
        members
            .iter()
            .all(|m| (0..dims).all(|d| m.f.monotonicity(d) == members[0].f.monotonicity(d))),
        "group members must share per-axis monotonicity"
    );

    let ComputeScratch {
        stamps,
        heap,
        frontier,
        popped,
        runs,
        active,
        ..
    } = scratch;
    runs.clear();
    runs.extend(members.drain(..).map(|mut m| {
        let top = match m.reuse.take() {
            Some(mut t) => {
                t.reset(m.k, m.track_ties);
                t
            }
            None if m.track_ties => TopList::with_tie_tracking(m.k),
            None => TopList::new(m.k),
        };
        GroupRun {
            m,
            top,
            threshold: f64::NEG_INFINITY,
        }
    }));

    let mut dirs = [Monotonicity::Increasing; MAX_DIMS];
    for (dim, dir) in dirs.iter_mut().enumerate().take(dims) {
        *dir = runs[0].m.f.monotonicity(dim);
    }
    let start = grid.best_corner(&runs[0].m.f);

    // Max cell bound over the members still traversing: the heap key. A
    // finished member stops inflating the keys of cells pushed later, so
    // the group search narrows as members complete. Only the active
    // member indices are consulted, so a popped cell costs the *live*
    // member count, not the group size — in a recompute storm most
    // members retire within the first few cells and the deep tail of the
    // traversal is paid only by the members that still need it.
    let group_bound = |runs: &[GroupRun], active: &[u32], cell: CellId| -> f64 {
        let (lo, hi) = grid.cell_lo_hi(cell);
        let mut best = f64::NEG_INFINITY;
        for &ri in active {
            best = best.max(kernel::cell_bound(&runs[ri as usize].m.f, lo, hi));
        }
        best
    };
    let active_idx = active;
    active_idx.clear();
    active_idx.extend(0..runs.len() as u32);

    heap.clear();
    popped.clear();
    stamps.begin();
    stamps.mark(start);
    heap.push((OrderedF64::new(group_bound(runs, active_idx, start)), start));
    stats.heap_pushes += 1;

    while let Some(&(key, cell)) = heap.peek() {
        let key = key.get();
        let mut ai = 0;
        while ai < active_idx.len() {
            let r = &mut runs[active_idx[ai] as usize];
            // Strictly below the member's k-th score: no remaining cell
            // (keys descend) can contribute to it. Ties continue.
            if r.top.is_full() && key < r.threshold {
                active_idx.swap_remove(ai);
            } else {
                ai += 1;
            }
        }
        if active_idx.is_empty() {
            break;
        }
        heap.pop();
        stats.cells_processed += 1;
        popped.push((key, cell));

        let points = grid.points(cell);
        let (lo, hi) = grid.cell_lo_hi(cell);
        for &ri in active_idx.iter() {
            let r = &mut runs[ri as usize];
            // The cell may be on the heap for *other* members only: skip
            // the scan when this member's own bound is already beaten
            // (strictly — boundary ties can still hold result tuples).
            if r.top.is_full() && kernel::cell_bound(&r.m.f, lo, hi) < r.threshold {
                continue;
            }
            stats.points_scanned += points.len() as u64;
            let top = &mut r.top;
            let mut threshold = r.threshold;
            for (ids, coords) in points.chunks() {
                kernel::scan_block(&r.m.f, dims, ids, coords, None, |id, score| {
                    if score >= threshold && top.offer(Scored::new(score, id)) {
                        threshold = top.threshold();
                    }
                });
            }
            r.threshold = threshold;
        }

        for (dim, &dir) in dirs.iter().enumerate().take(dims) {
            if let Some(n) = grid.step_worse_dir(cell, dim, dir) {
                if stamps.mark(n) {
                    heap.push((OrderedF64::new(group_bound(runs, active_idx, n)), n));
                    stats.heap_pushes += 1;
                }
            }
        }
    }

    frontier.clear();
    frontier.extend(heap.drain().map(|(_, c)| c));

    // Influence post-pass over the shared envelope. Every cell with
    // bound ≥ a member's final threshold was popped (see above), so
    // inserting those popped cells covers the member's influence region
    // exactly; popped cells below the threshold but at/above the member's
    // previously-listed bound may carry stale entries that the frontier
    // walk (seeded strictly below every threshold) cannot reach — remove
    // them here.
    for r in runs.iter() {
        let t_final = r.top.threshold();
        for &(key, cell) in popped.iter() {
            // Pop keys are non-increasing and, while a member is active,
            // upper-bound its cell bound; every cell with bound ≥ the
            // member's final threshold pops (with key ≥ that bound)
            // before the member retires. So once the key drops below the
            // threshold no later cell can need an insert — a
            // superset-keeping member (no removals) is finished. A
            // resyncing member keeps scanning: cells popped after it
            // retired can carry stale entries at keys the bound no longer
            // dominates, and a missed removal would strand an influence
            // entry that the frontier walk (blocked by this epoch's
            // stamps) can never reach.
            if r.m.keep_superset && key < t_final {
                break;
            }
            let (lo, hi) = grid.cell_lo_hi(cell);
            let b = kernel::cell_bound(&r.m.f, lo, hi);
            if b >= t_final {
                if b <= r.m.listed_above {
                    influence.insert(cell, r.m.slot);
                }
            } else if !r.m.keep_superset && b >= r.m.listed_above {
                influence.remove(cell, r.m.slot);
            }
        }
    }

    for r in runs.drain(..) {
        let region_bound = r.top.threshold();
        let boundary_ties = r.top.boundary_ties();
        results.push(GroupOutcome {
            slot: r.m.slot,
            top: r.top,
            boundary_ties,
            region_bound,
        });
    }
    stats
}

/// Reusable traversal buffers owned by one maintenance domain (engine or
/// shard). Keeping them here makes steady-state processing cycles
/// allocation-free: the computation heap and the frontier list retain
/// their capacity across ticks.
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
    /// `(pop key, cell)` pairs processed by the last
    /// [`compute_topk_group`] call, in pop order (keys non-increasing) —
    /// the shared envelope its influence post-pass iterates. The recorded
    /// group key upper-bounds every then-active member's cell bound, so
    /// the post-pass can stop a member's scan at the first key below its
    /// threshold.
    pub popped: Vec<(f64, CellId)>,
    /// Per-member traversal slots of [`compute_topk_group`], drained into
    /// the outcomes on completion (the vec itself keeps its capacity).
    pub(crate) runs: Vec<GroupRun>,
    /// Indices of the members still traversing, reused across group
    /// computations.
    pub(crate) active: Vec<u32>,
}

impl ComputeScratch {
    /// Creates scratch state for a grid with `num_cells` cells.
    pub fn new(num_cells: usize) -> ComputeScratch {
        ComputeScratch {
            stamps: VisitStamps::new(num_cells),
            heap: BinaryHeap::new(),
            frontier: Vec::new(),
            popped: Vec::new(),
            runs: Vec::new(),
            active: Vec::new(),
        }
    }

    /// Deep size estimate of the retained buffers in bytes.
    pub fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.stamps.space_bytes()
            + self.heap.capacity() * std::mem::size_of::<(OrderedF64, CellId)>()
            + self.frontier.capacity() * std::mem::size_of::<CellId>()
            + self.popped.capacity() * std::mem::size_of::<(f64, CellId)>()
            + self.runs.capacity() * std::mem::size_of::<GroupRun>()
            + self.active.capacity() * std::mem::size_of::<u32>()
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
        let range = grid.cell_range(&r);
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
        let tie_ids: Vec<u64> = out.boundary_ties.iter().map(|e| e.id.0).collect();
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

    /// A shared group traversal must produce, per member, the identical
    /// result list and the identical influence coverage as solo
    /// traversals.
    #[test]
    fn group_traversal_matches_solo() {
        let points = [
            [0.55, 0.90],
            [0.90, 0.55],
            [0.10, 0.95],
            [0.40, 0.40],
            [0.75, 0.20],
            [0.33, 0.66],
            [0.80, 0.80],
        ];
        let fs = [
            ScoreFn::linear(vec![1.0, 2.0]).unwrap(),
            ScoreFn::linear(vec![2.0, 1.0]).unwrap(),
            ScoreFn::product(vec![0.1, 0.1]).unwrap(),
        ];
        let (grid, mut scratch, mut solo_influence) = setup(&points, 7);
        let mut solo_tops = Vec::new();
        let mut solo_listed = Vec::new();
        for (i, f) in fs.iter().enumerate() {
            let out = compute_topk(
                &grid,
                &mut scratch,
                Some(InfluenceUpdate::fresh(
                    &mut solo_influence,
                    QuerySlot(i as u32),
                )),
                f,
                2,
                None,
                true,
                None,
            );
            solo_tops.push((out.top.as_slice().to_vec(), out.boundary_ties.clone()));
            let listed: Vec<u32> = (0..grid.num_cells() as u32)
                .filter(|c| solo_influence.contains(CellId(*c), QuerySlot(i as u32)))
                .collect();
            solo_listed.push(listed);
        }

        let mut group_influence = InfluenceTable::new(grid.num_cells());
        let mut members: Vec<GroupMember> = fs
            .iter()
            .enumerate()
            .map(|(i, f)| GroupMember {
                slot: QuerySlot(i as u32),
                f: f.clone(),
                k: 2,
                listed_above: f64::INFINITY,
                keep_superset: false,
                track_ties: true,
                reuse: None,
            })
            .collect();
        let mut results = Vec::new();
        let stats = compute_topk_group(
            &grid,
            &mut scratch,
            &mut group_influence,
            &mut members,
            &mut results,
        );
        assert!(members.is_empty(), "members are drained");
        assert_eq!(results.len(), fs.len());
        assert!(stats.cells_processed > 0);

        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.slot, QuerySlot(i as u32));
            assert_eq!(r.top.as_slice(), &solo_tops[i].0[..], "member {i} top");
            assert_eq!(r.boundary_ties, solo_tops[i].1, "member {i} ties");
            let listed: Vec<u32> = (0..grid.num_cells() as u32)
                .filter(|c| group_influence.contains(CellId(*c), QuerySlot(i as u32)))
                .collect();
            assert_eq!(listed, solo_listed[i], "member {i} influence coverage");
        }
        // Frontier cells sit strictly below every member's threshold and
        // carry no fresh influence entries.
        for c in &scratch.frontier {
            for (i, r) in results.iter().enumerate() {
                let (lo, hi) = grid.cell_lo_hi(*c);
                assert!(kernel::cell_bound(&fs[i], lo, hi) < r.region_bound);
            }
        }
    }

    /// A deficient member (k beyond the population) keeps the group
    /// traversal flooding the whole grid, exactly like a solo search.
    #[test]
    fn group_with_deficient_member_floods() {
        let points = [[0.2, 0.3], [0.8, 0.1]];
        let (grid, mut scratch, mut influence) = setup(&points, 4);
        let mut members = vec![
            GroupMember {
                slot: QuerySlot(0),
                f: ScoreFn::linear(vec![1.0, 1.0]).unwrap(),
                k: 1,
                listed_above: f64::INFINITY,
                keep_superset: false,
                track_ties: false,
                reuse: None,
            },
            GroupMember {
                slot: QuerySlot(1),
                f: ScoreFn::linear(vec![2.0, 0.5]).unwrap(),
                k: 5,
                listed_above: f64::INFINITY,
                keep_superset: false,
                track_ties: false,
                reuse: None,
            },
        ];
        let mut results = Vec::new();
        let stats = compute_topk_group(
            &grid,
            &mut scratch,
            &mut influence,
            &mut members,
            &mut results,
        );
        assert_eq!(stats.cells_processed, 16, "deficient member floods");
        assert!(scratch.frontier.is_empty());
        assert_eq!(results[1].top.len(), 2);
        assert_eq!(results[1].region_bound, f64::NEG_INFINITY);
        // The deficient member is listed everywhere; the satisfied member
        // only in its influence region.
        let listed0 = (0..16)
            .filter(|c| influence.contains(CellId(*c), QuerySlot(0)))
            .count();
        let listed1 = (0..16)
            .filter(|c| influence.contains(CellId(*c), QuerySlot(1)))
            .count();
        assert_eq!(listed1, 16);
        assert!(listed0 < 16);
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
        assert!(scratch.space_bytes() > std::mem::size_of::<ComputeScratch>());
    }
}
