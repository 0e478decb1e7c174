//! Influence-list clean-up walks (paper §4.3, Figure 9 lines 14–21).
//!
//! Influence lists are maintained lazily: result improvements shrink a
//! query's influence region without touching the lists, so stale entries
//! accumulate in cells between the old and the new region boundary. After
//! every from-scratch computation the stale band is swept with a list-based
//! walk: seeded with the cells left in the computation heap (the *frontier*
//! — en-heaped but not processed, i.e. just below the new region), the walk
//! removes the query from a cell and expands to the cell's worse
//! neighbours only where the query was actually registered. Because
//! influence regions are staircase-shaped (closed toward the preferred
//! corner), this reaches every stale cell and stops immediately at the old
//! boundary.
//!
//! The same walk with the best-corner cell as seed clears *all* entries of
//! a terminating query. Sweeping every entry before a dense slot is freed
//! is what makes slot recycling in [`crate::registry::QueryRegistry`]
//! safe: a recycled slot can never inherit a dead query's influence
//! entries.
//!
//! The walks read the grid (geometry only) and mutate the caller's
//! [`InfluenceTable`] — the grid itself stays immutable, so a maintenance
//! stage sweeps its table through the ingest stage's `&IngestState`. Both
//! walks run entirely inside the caller's [`ComputeScratch`]:
//! [`cleanup_from_frontier`] consumes [`ComputeScratch::frontier`] (left
//! behind by the preceding [`crate::compute::compute_topk`] call) in place
//! as its worklist, so a steady-state recompute-and-sweep cycle performs
//! no allocation.

use crate::compute::ComputeScratch;
use tkm_common::{QuerySlot, Rect, ScoreFn};
use tkm_grid::{CellId, CellRange, Grid, InfluenceTable, VisitStamps};

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
    let ComputeScratch {
        stamps, frontier, ..
    } = scratch;
    let mut visited = 0;
    while let Some(cell) = frontier.pop() {
        visited += 1;
        if !influence.remove(cell, slot) {
            // The query never influenced this cell: nothing below it can be
            // stale either (influence regions are upward-closed).
            continue;
        }
        push_worse_neighbours(grid, stamps, f, &range, cell, frontier);
    }
    visited
}

/// Removes `slot` from every influence list (query termination). Walks
/// from the query's best-corner cell; returns the number of cells visited.
pub(crate) fn remove_query_walk(
    grid: &Grid,
    influence: &mut InfluenceTable,
    scratch: &mut ComputeScratch,
    slot: QuerySlot,
    f: &ScoreFn,
    constraint: Option<&Rect>,
) -> u64 {
    let range = grid.cell_range(constraint);
    let start = grid.best_corner(&range, f);
    let ComputeScratch {
        stamps, frontier, ..
    } = scratch;
    stamps.begin();
    stamps.mark(start);
    frontier.clear();
    frontier.push(start);
    let mut visited = 0;
    while let Some(cell) = frontier.pop() {
        visited += 1;
        if !influence.remove(cell, slot) {
            continue;
        }
        push_worse_neighbours(grid, stamps, f, &range, cell, frontier);
    }
    visited
}

fn push_worse_neighbours(
    grid: &Grid,
    stamps: &mut VisitStamps,
    f: &ScoreFn,
    range: &CellRange,
    cell: CellId,
    list: &mut Vec<CellId>,
) {
    for dim in 0..grid.dims() {
        if let Some(n) = grid.step_worse(cell, dim, f.monotonicity(dim), range) {
            if stamps.mark(n) {
                list.push(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::{compute_topk, InfluenceUpdate};
    use tkm_common::Timestamp;
    use tkm_grid::CellMode;
    use tkm_window::{Window, WindowSpec};

    fn listed_cells(grid: &Grid, influence: &InfluenceTable, slot: QuerySlot) -> Vec<u32> {
        (0..grid.num_cells() as u32)
            .filter(|i| influence.contains(CellId(*i), slot))
            .collect()
    }

    /// After a recomputation with a *higher* threshold, the frontier walk
    /// must remove exactly the stale band: cells of the old region that are
    /// not in the new one.
    #[test]
    fn frontier_walk_removes_stale_band() {
        let f = ScoreFn::linear(vec![1.0, 2.0]).unwrap();
        let mut grid = Grid::new(2, 7, CellMode::Fifo).unwrap();
        let mut influence = InfluenceTable::new(grid.num_cells());
        let mut scratch = ComputeScratch::new(grid.num_cells());
        let mut w = Window::new(2, WindowSpec::Count(16)).unwrap();
        let q = QuerySlot(9);

        // Weak initial point → large influence region.
        let id0 = w.insert(&[0.3, 0.3], Timestamp(0)).unwrap();
        grid.insert_point(&[0.3, 0.3], id0);
        let out = compute_topk(
            &grid,
            &mut scratch,
            Some(InfluenceUpdate::fresh(&mut influence, q)),
            &f,
            1,
            None,
            false,
            None,
        );
        let old_region = listed_cells(&grid, &influence, q);
        assert!(old_region.len() > 20, "weak top-1 floods most of the grid");
        let _ = out;

        // A strong point arrives → much smaller region after recompute.
        let id1 = w.insert(&[0.9, 0.9], Timestamp(1)).unwrap();
        grid.insert_point(&[0.9, 0.9], id1);
        let out = compute_topk(
            &grid,
            &mut scratch,
            Some(InfluenceUpdate::fresh(&mut influence, q)),
            &f,
            1,
            None,
            false,
            None,
        );
        cleanup_from_frontier(&grid, &mut influence, &mut scratch, q, &f, None);

        // Remaining entries = exactly the cells with maxscore ≥ new
        // threshold (the new influence region).
        let threshold = out.top.threshold();
        let want: Vec<u32> = (0..grid.num_cells() as u32)
            .filter(|i| grid.maxscore(CellId(*i), &f) >= threshold)
            .collect();
        let mut got = listed_cells(&grid, &influence, q);
        got.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn removal_walk_clears_everything() {
        let f = ScoreFn::linear(vec![1.0, -0.5]).unwrap();
        let mut grid = Grid::new(2, 6, CellMode::Fifo).unwrap();
        let mut influence = InfluenceTable::new(grid.num_cells());
        let mut scratch = ComputeScratch::new(grid.num_cells());
        let mut w = Window::new(2, WindowSpec::Count(8)).unwrap();
        let q = QuerySlot(4);
        for (i, p) in [[0.2, 0.9], [0.7, 0.4], [0.5, 0.5]].iter().enumerate() {
            let id = w.insert(p, Timestamp(i as u64)).unwrap();
            grid.insert_point(p, id);
        }
        compute_topk(
            &grid,
            &mut scratch,
            Some(InfluenceUpdate::fresh(&mut influence, q)),
            &f,
            2,
            None,
            false,
            None,
        );
        assert!(!listed_cells(&grid, &influence, q).is_empty());
        remove_query_walk(&grid, &mut influence, &mut scratch, q, &f, None);
        assert!(listed_cells(&grid, &influence, q).is_empty());
    }

    #[test]
    fn removal_walk_respects_other_queries() {
        let f = ScoreFn::linear(vec![1.0, 1.0]).unwrap();
        let mut grid = Grid::new(2, 5, CellMode::Fifo).unwrap();
        let mut influence = InfluenceTable::new(grid.num_cells());
        let mut scratch = ComputeScratch::new(grid.num_cells());
        let mut w = Window::new(2, WindowSpec::Count(4)).unwrap();
        let id = w.insert(&[0.4, 0.4], Timestamp(0)).unwrap();
        grid.insert_point(&[0.4, 0.4], id);
        compute_topk(
            &grid,
            &mut scratch,
            Some(InfluenceUpdate::fresh(&mut influence, QuerySlot(1))),
            &f,
            1,
            None,
            false,
            None,
        );
        compute_topk(
            &grid,
            &mut scratch,
            Some(InfluenceUpdate::fresh(&mut influence, QuerySlot(2))),
            &f,
            1,
            None,
            false,
            None,
        );
        remove_query_walk(&grid, &mut influence, &mut scratch, QuerySlot(1), &f, None);
        assert!(listed_cells(&grid, &influence, QuerySlot(1)).is_empty());
        assert!(!listed_cells(&grid, &influence, QuerySlot(2)).is_empty());
    }

    #[test]
    fn constrained_removal_walk() {
        let f = ScoreFn::linear(vec![1.0, 1.0]).unwrap();
        let r = Rect::new(vec![0.2, 0.2], vec![0.6, 0.6]).unwrap();
        let grid = Grid::new(2, 5, CellMode::Fifo).unwrap();
        let mut influence = InfluenceTable::new(grid.num_cells());
        let mut scratch = ComputeScratch::new(grid.num_cells());
        compute_topk(
            &grid,
            &mut scratch,
            Some(InfluenceUpdate::fresh(&mut influence, QuerySlot(1))),
            &f,
            1,
            Some(&r),
            false,
            None,
        );
        assert!(!listed_cells(&grid, &influence, QuerySlot(1)).is_empty());
        remove_query_walk(
            &grid,
            &mut influence,
            &mut scratch,
            QuerySlot(1),
            &f,
            Some(&r),
        );
        assert!(listed_cells(&grid, &influence, QuerySlot(1)).is_empty());
    }
}
