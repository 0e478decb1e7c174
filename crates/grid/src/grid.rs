//! The regular grid: geometry and cell container.

use crate::cell::{CellMode, CellPoints, PointArena};
use tkm_common::{HeapBytes, Monotonicity, Rect, Result, ScoreFn, TkmError, TupleId, MAX_DIMS};

/// Hard cap on the number of cells (memory guard: a `d`-dimensional grid
/// has `m^d` cells and `m` is easy to over-specify).
pub const MAX_CELLS: usize = 1 << 24;

/// An inclusive per-axis cell index range `(lo, hi)` (see
/// [`Grid::cell_range`]).
pub type CellRange = ([usize; MAX_DIMS], [usize; MAX_DIMS]);

/// Linear index of a grid cell. `u32` keeps heap entries small.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CellId(pub u32);

/// A regular grid over the unit workspace `[0,1]^d` with `m` cells per axis
/// of extent `δ = 1/m` each.
#[derive(Debug)]
pub struct Grid {
    dims: usize,
    per_dim: usize,
    delta: f64,
    /// Exactly `per_dim as f64`: `locate` multiplies by this instead of
    /// dividing by `delta` (the float-guard comparisons stay in terms of
    /// `delta` products, so cell assignment is unchanged).
    inv_delta: f64,
    /// Every cell's points (see [`crate::cell`]).
    points: PointArena,
    /// Precomputed closed bounds of every cell, `2·dims` values apiece
    /// (lower corner, then upper corner). `maxscore` runs on every heap
    /// push of the traversal; reading the corner here replaces the per-call
    /// div/mod decomposition of the linear cell index.
    bounds: Vec<f64>,
    /// Per-cell per-axis indices (`dims` apiece): the worse-neighbour steps
    /// of the traversal and the clean-up walks check boundaries here
    /// instead of re-deriving axis indices with a div/mod chain.
    axes: Vec<u32>,
    /// Linear-index stride of one step along each axis (`per_dim^axis`).
    strides: [u32; MAX_DIMS],
}

impl Grid {
    /// Creates a grid with `per_dim` cells along each of `dims` axes.
    pub fn new(dims: usize, per_dim: usize, mode: CellMode) -> Result<Grid> {
        if dims == 0 || dims > MAX_DIMS {
            return Err(TkmError::InvalidParameter(format!(
                "Grid: dimensionality {dims} outside [1, {MAX_DIMS}]"
            )));
        }
        if per_dim == 0 {
            return Err(TkmError::InvalidParameter(
                "Grid: at least one cell per axis required".into(),
            ));
        }
        let mut total: usize = 1;
        for _ in 0..dims {
            total = total.saturating_mul(per_dim);
            if total > MAX_CELLS {
                return Err(TkmError::InvalidParameter(format!(
                    "Grid: {per_dim}^{dims} cells exceed MAX_CELLS = {MAX_CELLS}"
                )));
            }
        }
        let delta = 1.0 / per_dim as f64;
        // Precompute every cell's closed bounds and axis indices with an
        // odometer over the per-axis indices (dimension 0 fastest,
        // matching `locate`).
        let mut bounds = Vec::with_capacity(total * 2 * dims);
        let mut axes = Vec::with_capacity(total * dims);
        let mut idx = [0usize; MAX_DIMS];
        for _ in 0..total {
            for &i in idx.iter().take(dims) {
                bounds.push(i as f64 * delta);
            }
            for &i in idx.iter().take(dims) {
                // The workspace ends at exactly 1.0; `per_dim·δ` can round
                // to either side of it, so the last cell's upper bound is
                // pinned (sound — no coordinate exceeds 1.0 — and at least
                // as tight).
                bounds.push(if i + 1 == per_dim {
                    1.0
                } else {
                    (i + 1) as f64 * delta
                });
            }
            for &i in idx.iter().take(dims) {
                axes.push(i as u32);
            }
            for slot in idx.iter_mut().take(dims) {
                *slot += 1;
                if *slot < per_dim {
                    break;
                }
                *slot = 0;
            }
        }
        let mut strides = [0u32; MAX_DIMS];
        let mut stride = 1usize;
        for s in strides.iter_mut().take(dims) {
            *s = stride as u32;
            stride *= per_dim;
        }
        Ok(Grid {
            dims,
            per_dim,
            delta,
            inv_delta: per_dim as f64,
            points: PointArena::new(mode, dims, total),
            bounds,
            axes,
            strides,
        })
    }

    /// Creates a grid with approximately `budget` cells in total — the
    /// paper's sizing rule ("the cell extent is selected so that the grid
    /// contains approximately 12⁴ cells" regardless of dimensionality).
    pub fn with_cell_budget(dims: usize, budget: usize, mode: CellMode) -> Result<Grid> {
        if budget == 0 {
            return Err(TkmError::InvalidParameter(
                "Grid: cell budget must be positive".into(),
            ));
        }
        let per_dim = (budget as f64).powf(1.0 / dims as f64).round().max(1.0) as usize;
        Grid::new(dims, per_dim, mode)
    }

    /// Dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Cells per axis (`m`).
    #[inline]
    pub fn per_dim(&self) -> usize {
        self.per_dim
    }

    /// Cell extent per axis (`δ = 1/m`).
    #[inline]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Total number of cells (`m^d`).
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.points.num_cells()
    }

    /// The points of a cell.
    #[inline]
    pub fn points(&self, id: CellId) -> CellPoints<'_> {
        self.points.points(id.0 as usize)
    }

    /// Iterates all `(CellId, points)` pairs.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, CellPoints<'_>)> + '_ {
        (0..self.num_cells() as u32).map(|i| (CellId(i), self.points(CellId(i))))
    }

    /// Per-axis cell index of the cell covering a coordinate, in signed
    /// arithmetic: x86-64 converts between `f64` and `i64` in one
    /// instruction either way but has none for `u64`, so a `usize` index
    /// would turn each of the three conversions below into a branchy
    /// sequence. Every value here lies in `[0, per_dim]`, exact in both.
    #[inline(always)]
    fn axis_index(&self, x: f64) -> i64 {
        debug_assert!(
            (0.0..=1.0).contains(&x),
            "coordinates must lie in the unit workspace, got {x}"
        );
        let last = self.per_dim as i64 - 1;
        let clamped = x.clamp(0.0, 1.0);
        let mut idx = ((clamped * self.inv_delta) as i64).min(last);
        // Floating-point guard: make the assignment consistent with the
        // closed cell bounds used by `maxscore` (idx·δ ≤ x ≤ (idx+1)·δ).
        if clamped < idx as f64 * self.delta {
            idx -= 1;
        } else if clamped > (idx + 1) as f64 * self.delta {
            idx += 1;
        }
        // The guard can step past the last cell when `per_dim·δ` rounds
        // below 1.0 (e.g. per_dim = 49): x = 1.0 exceeds `per_dim·δ` yet
        // belongs to the last cell, whose upper bound is pinned to exactly
        // 1.0 in the bounds table.
        idx.min(last)
    }

    /// The cell covering `coords`. Coordinates must lie in `[0,1]^d`.
    #[inline]
    pub fn locate(&self, coords: &[f64]) -> CellId {
        debug_assert_eq!(coords.len(), self.dims);
        // Row-major with dimension 0 fastest: linear = Σ idx_i · m^i.
        let mut linear = 0i64;
        for (&x, &stride) in coords.iter().zip(&self.strides[..self.dims]) {
            linear += self.axis_index(x) * i64::from(stride);
        }
        CellId(linear as u32)
    }

    /// Decomposes a cell id into per-axis indices (first `dims` entries of
    /// the returned array are meaningful). Reads the precomputed axis
    /// table — no div/mod chain.
    #[inline]
    pub fn cell_coords(&self, id: CellId) -> [usize; MAX_DIMS] {
        let base = id.0 as usize * self.dims;
        let mut out = [0usize; MAX_DIMS];
        for (slot, &axis) in out.iter_mut().zip(&self.axes[base..base + self.dims]) {
            *slot = axis as usize;
        }
        out
    }

    /// The per-axis index of a cell along one dimension (precomputed).
    #[inline]
    fn axis_of(&self, id: CellId, dim: usize) -> u32 {
        self.axes[id.0 as usize * self.dims + dim]
    }

    /// Recomposes per-axis indices into a cell id.
    #[inline]
    pub fn cell_from_coords(&self, coords: &[usize]) -> CellId {
        debug_assert_eq!(coords.len(), self.dims);
        let mut linear = 0usize;
        let mut stride = 1usize;
        for &i in coords {
            debug_assert!(i < self.per_dim);
            linear += i * stride;
            stride *= self.per_dim;
        }
        CellId(linear as u32)
    }

    /// The precomputed closed bounds of a cell as `(lo, hi)` slices.
    #[inline]
    pub fn cell_lo_hi(&self, id: CellId) -> (&[f64], &[f64]) {
        let base = id.0 as usize * 2 * self.dims;
        let block = &self.bounds[base..base + 2 * self.dims];
        block.split_at(self.dims)
    }

    /// Upper bound for the score of any point inside the cell: the score of
    /// the cell's preferred corner (paper §3.1). Runs on every heap push of
    /// the traversal, so it reads the precomputed corner directly.
    #[inline]
    pub fn maxscore(&self, id: CellId, f: &ScoreFn) -> f64 {
        debug_assert_eq!(f.dims(), self.dims);
        let (lo, hi) = self.cell_lo_hi(id);
        f.max_score_rect(lo, hi)
    }

    /// Upper bound for the score of any point inside the *intersection* of
    /// the cell with `rect`. Tighter than [`Grid::maxscore`] for boundary
    /// cells of a constrained query, and required for correctness when `f`
    /// is only monotone *inside* `rect` (piecewise-monotone queries): the
    /// preferred corner of the clipped bounds stays within the region where
    /// the declared monotonicity holds.
    #[inline]
    pub fn maxscore_in(&self, id: CellId, f: &ScoreFn, rect: &Rect) -> f64 {
        debug_assert_eq!(f.dims(), self.dims);
        let (cell_lo, cell_hi) = self.cell_lo_hi(id);
        let mut lo = [0.0f64; MAX_DIMS];
        let mut hi = [0.0f64; MAX_DIMS];
        for dim in 0..self.dims {
            lo[dim] = cell_lo[dim].max(rect.lo()[dim]);
            hi[dim] = cell_hi[dim].min(rect.hi()[dim]);
            if lo[dim] > hi[dim] {
                // Disjoint (possible for range-boundary cells): nothing
                // inside can qualify.
                return f64::NEG_INFINITY;
            }
        }
        f.max_score_rect(&lo[..self.dims], &hi[..self.dims])
    }

    /// Per-axis cell index range `[lo, hi]` (inclusive) of the cells that
    /// may intersect a constraint rectangle; the whole grid,
    /// `[0, m−1]^d`, without one.
    pub fn cell_range(&self, rect: Option<&Rect>) -> CellRange {
        debug_assert!(rect.is_none_or(|r| r.dims() == self.dims));
        let mut lo = [0usize; MAX_DIMS];
        let mut hi = [0usize; MAX_DIMS];
        for dim in 0..self.dims {
            (lo[dim], hi[dim]) = match rect {
                Some(r) => (
                    self.axis_index(r.lo()[dim].clamp(0.0, 1.0)) as usize,
                    self.axis_index(r.hi()[dim].clamp(0.0, 1.0)) as usize,
                ),
                None => (0, self.per_dim - 1),
            };
        }
        (lo, hi)
    }

    /// The highest-`maxscore` cell for `f` within an inclusive per-axis
    /// cell range — the traversal start (top-right corner of the range for
    /// functions increasing on every axis).
    pub fn best_corner(&self, range: &CellRange, f: &ScoreFn) -> CellId {
        let mut coords = [0usize; MAX_DIMS];
        for (dim, slot) in coords.iter_mut().enumerate().take(self.dims) {
            *slot = match f.monotonicity(dim) {
                Monotonicity::Increasing => range.1[dim],
                Monotonicity::Decreasing => range.0[dim],
            };
        }
        self.cell_from_coords(&coords[..self.dims])
    }

    /// The neighbour of `id` one step toward lower scores along `dim`
    /// (`c_{i-1,j}` / `c_{i,j-1}` of Figure 6 generalised to the axis'
    /// monotonicity direction `dir`), or `None` at the boundary of the
    /// inclusive per-axis cell `range`. One axis-table read and one stride
    /// add — this runs for every processed cell × dimension of every
    /// traversal and clean-up walk.
    #[inline]
    pub fn step_worse(
        &self,
        id: CellId,
        dim: usize,
        dir: Monotonicity,
        range: &CellRange,
    ) -> Option<CellId> {
        let axis = self.axis_of(id, dim) as usize;
        match dir {
            Monotonicity::Increasing => {
                if axis <= range.0[dim] {
                    return None;
                }
                Some(CellId(id.0 - self.strides[dim]))
            }
            Monotonicity::Decreasing => {
                if axis >= range.1[dim] {
                    return None;
                }
                Some(CellId(id.0 + self.strides[dim]))
            }
        }
    }

    /// Appends the covering cell of every point of a packed batch (`dims`
    /// values per point) to `out` — [`Grid::locate`] as a sequential pass
    /// that computes and touches no cell, so a later pass over `out` can
    /// address the cells directly.
    pub fn locate_batch(&self, coords: &[f64], out: &mut Vec<CellId>) {
        out.extend(coords.chunks_exact(self.dims).map(|p| self.locate(p)));
    }

    /// Inserts a tuple into its covering cell (coordinates are copied into
    /// the cell's point chain); returns the cell id.
    pub fn insert_point(&mut self, coords: &[f64], id: TupleId) -> CellId {
        let cell = self.locate(coords);
        self.push_at(cell, id, coords);
        cell
    }

    /// [`Grid::insert_point`] for an already located point: appends the
    /// tuple to `cell`, which must be `locate(coords)`.
    #[inline]
    pub fn push_at(&mut self, cell: CellId, id: TupleId, coords: &[f64]) {
        debug_assert_eq!(cell, self.locate(coords));
        self.points.push(cell.0 as usize, id, coords);
    }

    /// Removes a tuple from its covering cell; returns the cell id.
    pub fn remove_point(&mut self, coords: &[f64], id: TupleId) -> Result<CellId> {
        let cell = self.locate(coords);
        self.remove_at(cell, id)?;
        Ok(cell)
    }

    /// [`Grid::remove_point`] for an already located tuple: removes `id`
    /// from `cell`. In FIFO grids this is a pop-front — `id` must be the
    /// cell's oldest tuple; in Hash grids `id` must be stored in `cell`.
    /// Anything else is [`TkmError::UnknownTuple`] and changes nothing.
    #[inline]
    pub fn remove_at(&mut self, cell: CellId, id: TupleId) -> Result<()> {
        self.points.remove(cell.0 as usize, id)
    }

    /// The cell holding tuple `id`, from the id index a Hash grid keeps for
    /// its removals: how an explicit-deletion stream, which has no window
    /// to resolve an id through, finds the cell to delete from.
    /// `None` if `id` is not stored — and always in a FIFO grid, which
    /// keeps no index.
    #[inline]
    pub fn cell_of(&self, id: TupleId) -> Option<CellId> {
        self.points.cell_of(id).map(|cell| CellId(cell as u32))
    }

    /// Caps the point arena's growth steps at `chunks` held: a step below
    /// the plan never passes it, and past it the arena grows an eighth at
    /// a time as without one. Allocates nothing. For a window of known
    /// size `n` taking a batch of `r`, `⌈(n + r) / CHUNK_POINTS⌉` plus one
    /// partly filled chunk per cell is what its cells need at once.
    pub fn plan_chunks(&mut self, chunks: usize) {
        self.points.plan_chunks(chunks);
    }

    /// Chunks the point arena holds, in cells or free (diagnostics and
    /// space tests; each is [`crate::CHUNK_POINTS`] points).
    pub fn chunks_held(&self) -> usize {
        self.points.chunks_held()
    }

    /// Chunks currently linked into cells (diagnostics; walks the free
    /// list).
    pub fn chunks_in_use(&self) -> usize {
        self.points.chunks_in_use()
    }
}

/// The geometry tables plus the point storage (cell heads, both arenas,
/// chunk links, the Hash-mode index) at capacity.
impl HeapBytes for Grid {
    fn heap_bytes(&self) -> usize {
        self.bounds.heap_bytes() + self.axes.heap_bytes() + self.points.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn linear2(w1: f64, w2: f64) -> ScoreFn {
        ScoreFn::linear(vec![w1, w2]).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(Grid::new(0, 4, CellMode::Fifo).is_err());
        assert!(Grid::new(2, 0, CellMode::Fifo).is_err());
        assert!(Grid::new(8, 100, CellMode::Fifo).is_err(), "cell cap");
        let g = Grid::new(2, 7, CellMode::Fifo).unwrap();
        assert_eq!(g.num_cells(), 49);
        assert!((g.delta() - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn cell_budget_matches_paper_rule() {
        // d=4 with a 12^4 budget → 12 cells per axis; d=2 → 144 per axis;
        // d=6 → ~5 per axis.
        let budget = 12usize.pow(4);
        assert_eq!(
            Grid::with_cell_budget(4, budget, CellMode::Fifo)
                .unwrap()
                .per_dim(),
            12
        );
        assert_eq!(
            Grid::with_cell_budget(2, budget, CellMode::Fifo)
                .unwrap()
                .per_dim(),
            144
        );
        assert_eq!(
            Grid::with_cell_budget(6, budget, CellMode::Fifo)
                .unwrap()
                .per_dim(),
            5
        );
    }

    #[test]
    fn locate_and_bounds_roundtrip() {
        let g = Grid::new(2, 7, CellMode::Fifo).unwrap();
        // Figure 5: in a 7×7 grid the top-right cell is c_{6,6}.
        let top_right = g.locate(&[0.99, 0.99]);
        assert_eq!(g.cell_coords(top_right)[..2], [6, 6]);
        // Coordinate exactly 1.0 still maps inside the grid.
        assert_eq!(g.locate(&[1.0, 1.0]), top_right);
        let origin = g.locate(&[0.0, 0.0]);
        assert_eq!(g.cell_coords(origin)[..2], [0, 0]);
    }

    #[test]
    fn best_corner_follows_monotonicity() {
        let g = Grid::new(2, 7, CellMode::Fifo).unwrap();
        // Increasing on both axes: start top-right (Figure 5).
        let all = g.cell_range(None);
        let f = linear2(1.0, 2.0);
        assert_eq!(g.cell_coords(g.best_corner(&all, &f))[..2], [6, 6]);
        // f = x1 - x2 (Figure 7a): start bottom-right.
        let f = linear2(1.0, -1.0);
        assert_eq!(g.cell_coords(g.best_corner(&all, &f))[..2], [6, 0]);
    }

    #[test]
    fn step_worse_direction_and_boundary() {
        let g = Grid::new(2, 7, CellMode::Fifo).unwrap();
        let all = g.cell_range(None);
        assert_eq!((&all.0[..2], &all.1[..2]), (&[0, 0][..], &[6, 6][..]));
        let f = linear2(1.0, -1.0);
        let step = |c, dim| g.step_worse(c, dim, f.monotonicity(dim), &all);
        let start = g.best_corner(&all, &f); // (6, 0)
                                             // Worse along x1 (increasing): index decreases.
        let a = step(start, 0).unwrap();
        assert_eq!(g.cell_coords(a)[..2], [5, 0]);
        // Worse along x2 (decreasing): index increases (Figure 7a en-heaps
        // c_{i,j+1} instead of c_{i,j-1}).
        let b = step(start, 1).unwrap();
        assert_eq!(g.cell_coords(b)[..2], [6, 1]);
        // Boundary cells have no worse neighbour.
        let worst = g.cell_from_coords(&[0, 6]);
        assert_eq!(step(worst, 0), None);
        assert_eq!(step(worst, 1), None);
    }

    #[test]
    fn maxscore_is_preferred_corner() {
        let g = Grid::new(2, 4, CellMode::Fifo).unwrap();
        let f = linear2(1.0, 2.0);
        let c = g.locate(&[0.3, 0.6]); // cell [0.25,0.5] × [0.5,0.75]
        assert!((g.maxscore(c, &f) - (0.5 + 2.0 * 0.75)).abs() < 1e-12);
    }

    #[test]
    fn constrained_range_and_corner() {
        let g = Grid::new(2, 7, CellMode::Fifo).unwrap();
        // Figure 12: constrained top-1 with R in the middle-right area.
        let rect = Rect::new(vec![0.55, 0.35], vec![0.85, 0.75]).unwrap();
        let range = g.cell_range(Some(&rect));
        assert_eq!(range.0[..2], [3, 2]);
        assert_eq!(range.1[..2], [5, 5]);
        let f = linear2(1.0, 2.0);
        let step = |c, dim| g.step_worse(c, dim, f.monotonicity(dim), &range);
        let start = g.best_corner(&range, &f);
        assert_eq!(g.cell_coords(start)[..2], [5, 5]);
        // Stepping stays inside the range.
        assert!(step(start, 0).is_some());
        let lo_corner = g.cell_from_coords(&[3, 2]);
        assert_eq!(step(lo_corner, 0), None);
        assert_eq!(step(lo_corner, 1), None);
    }

    /// The construction-time bounds table must agree exactly (bitwise, not
    /// within epsilon) with the index-arithmetic derivation it replaced —
    /// `axis_index`'s floating-point guard depends on the same products —
    /// except each axis' last cell, whose upper bound is pinned to 1.0.
    #[test]
    fn precomputed_bounds_match_index_arithmetic() {
        for dims in 1..=3usize {
            let g = Grid::new(dims, 7, CellMode::Fifo).unwrap();
            for c in 0..g.num_cells() as u32 {
                let id = CellId(c);
                let cc = g.cell_coords(id);
                let (lo, hi) = g.cell_lo_hi(id);
                for dim in 0..dims {
                    assert_eq!(lo[dim], cc[dim] as f64 * g.delta());
                    if cc[dim] + 1 == g.per_dim() {
                        assert_eq!(hi[dim], 1.0);
                    } else {
                        assert_eq!(hi[dim], (cc[dim] + 1) as f64 * g.delta());
                    }
                }
            }
        }
    }

    /// Regression: resolutions where `per_dim · fl(1/per_dim)` rounds
    /// below 1.0 (49 is one) used to let the float guard step *past* the
    /// last cell for coordinates at the workspace boundary — panicking on
    /// insert for corner points and silently mis-indexing mixed ones. The
    /// boundary coordinate must land in the last cell, whose pinned
    /// closed bounds contain it.
    #[test]
    fn workspace_boundary_lands_in_last_cell() {
        for per_dim in [7usize, 49, 98, 103, 144] {
            let mut g = Grid::new(2, per_dim, CellMode::Fifo).unwrap();
            let corner = g.locate(&[1.0, 1.0]);
            assert_eq!(
                g.cell_coords(corner)[..2],
                [per_dim - 1, per_dim - 1],
                "per_dim {per_dim}"
            );
            let mixed = g.insert_point(&[1.0, 0.5], TupleId(0));
            let (lo, hi) = g.cell_lo_hi(mixed);
            assert!(lo[0] <= 1.0 && 1.0 <= hi[0], "per_dim {per_dim}");
            assert!(lo[1] <= 0.5 && 0.5 <= hi[1], "per_dim {per_dim}");
            // The traversal's soundness invariant at the boundary: the
            // point's score never exceeds its cell's maxscore.
            let f = ScoreFn::linear(vec![1.0, 1.0]).unwrap();
            assert!(f.score(&[1.0, 0.5]) <= g.maxscore(mixed, &f));
            g.remove_point(&[1.0, 0.5], TupleId(0)).unwrap();
        }
    }

    /// Every k/m of a grid with `per_dim` cells an axis (as a quotient
    /// and as k·δ, the guard's product), their one-ulp neighbours inside
    /// the workspace, and its edge values.
    fn edge_coords(per_dim: usize) -> Vec<f64> {
        let delta = 1.0 / per_dim as f64;
        let mut v = vec![
            0.0,
            -0.0,
            1.0,
            f64::MIN_POSITIVE / 2.0,
            1.0 - f64::EPSILON / 2.0,
        ];
        for k in 0..=per_dim {
            for x in [k as f64 / per_dim as f64, k as f64 * delta] {
                let near = [x.next_down(), x, x.next_up()];
                v.extend(near.into_iter().filter(|x| (0.0..=1.0).contains(x)));
            }
        }
        v
    }

    /// The axis index in unsigned arithmetic, conversions and all: the
    /// reference the signed ones must match.
    fn unsigned_axis_index(g: &Grid, x: f64) -> usize {
        let clamped = x.clamp(0.0, 1.0);
        let mut idx = ((clamped * g.per_dim as f64) as usize).min(g.per_dim - 1);
        if clamped < idx as f64 * g.delta {
            idx -= 1;
        } else if clamped > (idx + 1) as f64 * g.delta {
            idx += 1;
        }
        idx.min(g.per_dim - 1)
    }

    /// `locate_batch` gives every point the cell per-point `locate` gives
    /// it, which is the cell unsigned arithmetic gave it and whose closed
    /// bounds contain it: for every k/m, its neighbours and the edge values
    /// on each axis, and seeded points, on grids from 1 to 256 cells an
    /// axis.
    #[test]
    fn locate_is_exact_at_every_cell_boundary() {
        // Within `MAX_CELLS`, and small enough that the bounds tables
        // of a debug test stay a few MB.
        const MAX_TEST_CELLS: usize = 1 << 18;
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut lcg = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut grids = 0;
        for dims in 1..=6usize {
            for per_dim in [1usize, 2, 5, 7, 12, 22, 30, 49, 256] {
                if per_dim
                    .checked_pow(dims as u32)
                    .is_none_or(|n| n > MAX_TEST_CELLS)
                {
                    continue;
                }
                let g = Grid::new(dims, per_dim, CellMode::Fifo).unwrap();
                grids += 1;
                // Each edge value on each axis, the other axes cycling
                // through the edge values too; then seeded points.
                let edges = edge_coords(per_dim);
                let mut batch = Vec::new();
                for (i, &x) in edges.iter().enumerate() {
                    for axis in 0..dims {
                        let other = |j: usize| edges[(31 * i + 7 * j + 3) % edges.len()];
                        batch.extend((0..dims).map(|j| if j == axis { x } else { other(j) }));
                    }
                }
                batch.extend((0..200 * dims).map(|_| lcg()));
                let mut cells = Vec::new();
                g.locate_batch(&batch, &mut cells);
                assert_eq!(cells.len(), batch.len() / dims);
                for (&cell, p) in cells.iter().zip(batch.chunks_exact(dims)) {
                    let context = format!("d = {dims}, m = {per_dim}, {p:?}");
                    assert_eq!(cell, g.locate(p), "{context}");
                    let want: Vec<usize> = p.iter().map(|&x| unsigned_axis_index(&g, x)).collect();
                    assert_eq!(g.cell_coords(cell)[..dims], want[..], "{context}");
                    let (lo, hi) = g.cell_lo_hi(cell);
                    for (j, &x) in p.iter().enumerate() {
                        assert!(lo[j] <= x && x <= hi[j], "{context}: axis {j}");
                    }
                }
            }
        }
        assert_eq!(grids, 41);
    }

    #[test]
    fn point_lifecycle() {
        let mut g = Grid::new(2, 4, CellMode::Fifo).unwrap();
        let c1 = g.insert_point(&[0.1, 0.1], TupleId(0));
        let c2 = g.insert_point(&[0.9, 0.9], TupleId(1));
        assert_ne!(c1, c2);
        assert_eq!(g.points(c1).len(), 1);
        assert_eq!(g.remove_point(&[0.1, 0.1], TupleId(0)).unwrap(), c1);
        assert!(g.points(c1).is_empty());
        assert!(g.remove_point(&[0.9, 0.9], TupleId(5)).is_err());
    }

    /// The cell-addressed pair is the coordinate-addressed pair minus the
    /// `locate`, and keeps the FIFO front check.
    #[test]
    fn cell_addressed_push_and_remove() {
        let mut g = Grid::new(2, 4, CellMode::Fifo).unwrap();
        let batch = [0.1, 0.1, 0.15, 0.12, 0.9, 0.9];
        let mut cells = Vec::new();
        g.locate_batch(&batch, &mut cells);
        assert_eq!(cells.len(), 3);
        assert_eq!((cells[0], cells[0]), (cells[1], g.locate(&[0.1, 0.1])));
        for (i, (cell, p)) in cells.iter().zip(batch.chunks_exact(2)).enumerate() {
            g.push_at(*cell, TupleId(i as u64), p);
        }
        let stored: Vec<(TupleId, &[f64])> = g.points(cells[0]).iter().collect();
        assert_eq!(
            stored,
            [(TupleId(0), &batch[..2]), (TupleId(1), &batch[2..4])]
        );
        // Only the cell's front may leave.
        assert_eq!(
            g.remove_at(cells[0], TupleId(1)),
            Err(TkmError::UnknownTuple(TupleId(1)))
        );
        assert_eq!(g.points(cells[0]).len(), 2, "failed remove is a no-op");
        assert_eq!(g.remove_at(cells[0], TupleId(0)), Ok(()));
        assert_eq!(g.remove_at(cells[0], TupleId(1)), Ok(()));
        assert_eq!(
            g.remove_at(cells[0], TupleId(2)),
            Err(TkmError::UnknownTuple(TupleId(2))),
            "empty cell"
        );
        assert_eq!(g.remove_at(cells[2], TupleId(2)), Ok(()));
    }

    /// A Hash grid is the whole tuple store of an update stream: ids are
    /// found without their coordinates, deleted in any order — the very
    /// thing FIFO cells cannot do — and a dead id is unknown from then on.
    #[test]
    fn hash_grid_finds_and_deletes_by_id() {
        let mut g = Grid::new(1, 4, CellMode::Hash).unwrap();
        for i in 0..10u64 {
            g.insert_point(&[i as f64 / 10.0], TupleId(i));
        }
        for i in [5u64, 0, 9, 3] {
            let cell = g.cell_of(TupleId(i)).unwrap();
            assert_eq!(cell, g.locate(&[i as f64 / 10.0]));
            assert_eq!(g.remove_at(cell, TupleId(i)), Ok(()));
            assert_eq!(g.cell_of(TupleId(i)), None);
            assert!(g.remove_at(cell, TupleId(i)).is_err());
        }
        let mut left: Vec<(u64, f64)> = (g.cells())
            .flat_map(|(_, points)| points.iter().map(|(id, c)| (id.0, c[0])))
            .collect();
        left.sort_by_key(|p| p.0);
        let want = [1u64, 2, 4, 6, 7, 8].map(|i| (i, i as f64 / 10.0));
        assert_eq!(left, want);

        let mut fifo = Grid::new(1, 4, CellMode::Fifo).unwrap();
        fifo.insert_point(&[0.5], TupleId(0));
        assert_eq!(fifo.cell_of(TupleId(0)), None, "a FIFO grid keeps no index");
    }

    /// Cells store 4-byte ids: ids past 2³² (the window has run that
    /// long) come back from `cells()` exactly, in both cell modes, and the
    /// FIFO front check still takes the full id.
    #[test]
    fn ids_above_two_to_the_32_come_back_whole() {
        for mode in [CellMode::Fifo, CellMode::Hash] {
            let mut g = Grid::new(1, 4, mode).unwrap();
            let first = 3 * (1u64 << 32) - 5;
            for id in first..first + 12 {
                g.insert_point(&[(id % 4) as f64 / 4.0 + 0.1], TupleId(id));
            }
            let mut got: Vec<u64> = g
                .cells()
                .flat_map(|(_, points)| points.iter().map(|(id, _)| id.0))
                .collect();
            got.sort_unstable();
            assert_eq!(got, (first..first + 12).collect::<Vec<_>>(), "{mode:?}");
            let front = TupleId(first);
            let alias = TupleId(first + (1 << 32));
            assert_eq!(
                g.remove_point(&[(first % 4) as f64 / 4.0 + 0.1], alias),
                Err(TkmError::UnknownTuple(alias)),
                "{mode:?}"
            );
            assert!(g
                .remove_point(&[(first % 4) as f64 / 4.0 + 0.1], front)
                .is_ok());
        }
    }

    #[test]
    fn three_dimensional_linearisation() {
        let g = Grid::new(3, 5, CellMode::Fifo).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                for w in 0..5 {
                    let id = g.cell_from_coords(&[i, j, w]);
                    assert_eq!(g.cell_coords(id)[..3], [i, j, w]);
                }
            }
        }
        // In 3-d, a cell has three worse neighbours (paper: after
        // processing c_{i,j,w}, en-heap c_{i-1,j,w}, c_{i,j-1,w},
        // c_{i,j,w-1}).
        let f = ScoreFn::linear(vec![1.0, 1.0, 1.0]).unwrap();
        let c = g.cell_from_coords(&[2, 2, 2]);
        let neighbours: Vec<[usize; 3]> = (0..3)
            .map(|dim| {
                let n = g
                    .step_worse(c, dim, f.monotonicity(dim), &g.cell_range(None))
                    .unwrap();
                let cc = g.cell_coords(n);
                [cc[0], cc[1], cc[2]]
            })
            .collect();
        assert_eq!(neighbours, vec![[1, 2, 2], [2, 1, 2], [2, 2, 1]]);
    }

    #[test]
    fn maxscore_in_clips_to_rect() {
        let g = Grid::new(2, 4, CellMode::Fifo).unwrap();
        let f = linear2(1.0, 1.0);
        // Cell [0.25,0.5]×[0.25,0.5]; constraint only covers its lower-left
        // quarter.
        let c = g.locate(&[0.3, 0.3]);
        let r = Rect::new(vec![0.0, 0.0], vec![0.375, 0.375]).unwrap();
        assert!((g.maxscore(c, &f) - 1.0).abs() < 1e-12);
        assert!((g.maxscore_in(c, &f, &r) - 0.75).abs() < 1e-12);
        // Disjoint rect → nothing can qualify.
        let far = Rect::new(vec![0.9, 0.9], vec![1.0, 1.0]).unwrap();
        assert_eq!(g.maxscore_in(c, &f, &far), f64::NEG_INFINITY);
    }

    proptest! {
        /// `maxscore_in` bounds every contained point inside cell ∩ rect
        /// and never exceeds the unclipped bound.
        #[test]
        fn maxscore_in_is_tight_and_sound(
            x in 0.0f64..=1.0,
            y in 0.0f64..=1.0,
            lo1 in 0.0f64..0.8,
            lo2 in 0.0f64..0.8,
            ext in 0.05f64..0.9,
            w1 in -2.0f64..2.0,
            w2 in -2.0f64..2.0,
            m in 1usize..12,
        ) {
            let g = Grid::new(2, m, CellMode::Fifo).unwrap();
            let f = linear2(w1, w2);
            let rect = Rect::new(
                vec![lo1, lo2],
                vec![(lo1 + ext).min(1.0), (lo2 + ext).min(1.0)],
            ).unwrap();
            let cell = g.locate(&[x, y]);
            let clipped = g.maxscore_in(cell, &f, &rect);
            prop_assert!(clipped <= g.maxscore(cell, &f) + 1e-12);
            if rect.contains(&[x, y]) {
                prop_assert!(f.score(&[x, y]) <= clipped + 1e-9);
            }
        }

        /// `cell_range` covers exactly the cells overlapping the rectangle:
        /// every in-rect point's cell lies inside the range.
        #[test]
        fn cell_range_covers_contained_points(
            lo1 in 0.0f64..0.9,
            lo2 in 0.0f64..0.9,
            ext1 in 0.01f64..0.5,
            ext2 in 0.01f64..0.5,
            px in 0.0f64..=1.0,
            py in 0.0f64..=1.0,
            m in 1usize..15,
        ) {
            let g = Grid::new(2, m, CellMode::Fifo).unwrap();
            let rect = Rect::new(
                vec![lo1, lo2],
                vec![(lo1 + ext1).min(1.0), (lo2 + ext2).min(1.0)],
            ).unwrap();
            let range = g.cell_range(Some(&rect));
            if rect.contains(&[px, py]) {
                let cc = g.cell_coords(g.locate(&[px, py]));
                for dim in 0..2 {
                    prop_assert!(
                        cc[dim] >= range.0[dim] && cc[dim] <= range.1[dim],
                        "cell {:?} outside range {:?}..{:?}",
                        &cc[..2], &range.0[..2], &range.1[..2]
                    );
                }
            }
        }

        /// Every point scores at most the maxscore of its covering cell —
        /// the invariant the whole traversal rests on.
        #[test]
        fn maxscore_bounds_points(
            x in 0.0f64..=1.0,
            y in 0.0f64..=1.0,
            w1 in -2.0f64..2.0,
            w2 in -2.0f64..2.0,
            m in 1usize..20,
        ) {
            let g = Grid::new(2, m, CellMode::Fifo).unwrap();
            let f = linear2(w1, w2);
            let cell = g.locate(&[x, y]);
            prop_assert!(f.score(&[x, y]) <= g.maxscore(cell, &f) + 1e-9);
        }

        /// `locate` is consistent with `cell_lo_hi` (closed bounds).
        #[test]
        fn locate_consistent_with_bounds(
            x in 0.0f64..=1.0,
            y in 0.0f64..=1.0,
            m in 1usize..20,
        ) {
            let g = Grid::new(2, m, CellMode::Fifo).unwrap();
            let cell = g.locate(&[x, y]);
            let (lo, hi) = g.cell_lo_hi(cell);
            prop_assert!(lo[0] <= x && x <= hi[0]);
            prop_assert!(lo[1] <= y && y <= hi[1]);
        }

        /// Worse-step neighbours never have a higher maxscore.
        #[test]
        fn step_worse_never_improves(
            i in 0usize..7,
            j in 0usize..7,
            w1 in -2.0f64..2.0,
            w2 in -2.0f64..2.0,
        ) {
            let g = Grid::new(2, 7, CellMode::Fifo).unwrap();
            let f = linear2(w1, w2);
            let c = g.cell_from_coords(&[i, j]);
            for dim in 0..2 {
                if let Some(n) = g.step_worse(c, dim, f.monotonicity(dim), &g.cell_range(None)) {
                    prop_assert!(g.maxscore(n, &f) <= g.maxscore(c, &f) + 1e-12);
                }
            }
        }
    }
}
