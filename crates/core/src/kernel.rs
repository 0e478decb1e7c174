//! Dim-specialized scoring kernels over coordinate blocks.
//!
//! Every hot loop of the system — the top-k traversal's cell scan and
//! heap-push bounds, the maintenance replay of a cell run, the threshold
//! walk, update-stream scoring — reduces to the same two shapes: *score a
//! packed block of points* and *bound a function over a cell's corner
//! rectangle*. This module is those shapes, compiled well:
//!
//! * the [`ScoreFn`] enum is dispatched **once per call** (and, via
//!   [`dispatch`], once per whole traversal), never once per point or per
//!   heap push;
//! * the common dimensionalities (d = 2, 3, 4 — the paper's evaluation
//!   range, plus 1) are monomorphized via a const generic: weights,
//!   offsets and constraint bounds live in fixed-size stack arrays, the
//!   per-point reduction fully unrolls, and the compiler auto-vectorizes
//!   the scan over the packed coordinate block;
//! * other dimensionalities fall back to strided loops with the same
//!   per-call dispatch.
//!
//! The centrepiece is the [`Scorer`] trait plus the [`dispatch`] visitor:
//! a caller hands [`dispatch`] a generic closure-like visitor and receives
//! it back instantiated with a concrete scorer — the top-k computation
//! module runs its *entire* traversal (bounds on every heap push, scans of
//! every processed cell) through one monomorphized scorer with zero enum
//! matches inside the loop.
//!
//! The kernels are pure: they invoke `emit(id, score)` for every passing
//! point and leave all result book-keeping (top-lists, skybands, matching
//! sets) to the caller's closure.

// The fixed-dimensionality kernels index with `for d in 0..D` on purpose:
// with a const bound the compiler proves the accesses in range, fully
// unrolls the reduction, and vectorizes — the iterator forms clippy
// prefers obscure exactly that.
#![allow(clippy::needless_range_loop)]

use tkm_common::{Rect, ScoreFn, TupleId};
use tkm_grid::StoredIds;

/// A scoring function pinned to a concrete family and dimensionality:
/// the monomorphized view of a [`ScoreFn`] that the hot loops run on.
pub trait Scorer {
    /// Dimensionality (a compile-time constant for the fixed kernels, so
    /// the default `scan` loop unrolls through inlining).
    fn dims(&self) -> usize;

    /// Evaluates the function on one packed point.
    fn score(&self, coords: &[f64]) -> f64;

    /// Upper bound over the closed rectangle `(lo, hi)`: the preferred
    /// corner's score, bitwise identical to [`ScoreFn::max_score_rect`].
    fn bound(&self, lo: &[f64], hi: &[f64]) -> f64;

    /// Invokes `emit(id, score)` for every point of the block inside
    /// `constraint` (all points when `None`).
    #[inline]
    fn scan(
        &self,
        ids: StoredIds<'_>,
        coords: &[f64],
        constraint: Option<&Rect>,
        emit: impl FnMut(TupleId, f64),
    ) where
        Self: Sized,
    {
        scan_chunks(
            self.dims(),
            ids,
            coords,
            constraint,
            |c| self.score(c),
            emit,
        );
    }
}

/// A computation generic over the concrete scorer; [`dispatch`] resolves
/// the `(family, dims)` pair once and instantiates the visitor with it.
pub trait ScorerVisitor {
    /// The computation's result type.
    type Out;
    /// Runs the computation against a concrete scorer.
    fn visit<S: Scorer>(self, scorer: &S) -> Self::Out;
}

/// Resolves `f` to a concrete [`Scorer`] (monomorphized for d ≤ 4,
/// strided fallback above) and runs `v` against it. One enum match per
/// call — hot loops inside the visitor run dispatch-free.
#[inline]
pub fn dispatch<V: ScorerVisitor>(f: &ScoreFn, dims: usize, v: V) -> V::Out {
    match dims {
        1 => dispatch_fixed::<1, V>(f, v),
        2 => dispatch_fixed::<2, V>(f, v),
        3 => dispatch_fixed::<3, V>(f, v),
        4 => dispatch_fixed::<4, V>(f, v),
        _ => match f {
            ScoreFn::Linear(lf) => v.visit(&LinearDyn {
                weights: lf.weights(),
            }),
            ScoreFn::Product(pf) => v.visit(&ProductDyn {
                offsets: pf.offsets(),
            }),
            ScoreFn::Quadratic(qf) => v.visit(&QuadraticDyn {
                weights: qf.weights(),
            }),
            ScoreFn::Custom(_) => v.visit(&CustomScorer { f, dims }),
        },
    }
}

#[inline]
fn dispatch_fixed<const D: usize, V: ScorerVisitor>(f: &ScoreFn, v: V) -> V::Out {
    match f {
        ScoreFn::Linear(lf) => {
            let mut weights = [0.0f64; D];
            weights.copy_from_slice(lf.weights());
            v.visit(&LinearK::<D> { weights })
        }
        ScoreFn::Product(pf) => {
            let mut offsets = [0.0f64; D];
            offsets.copy_from_slice(pf.offsets());
            v.visit(&ProductK::<D> { offsets })
        }
        ScoreFn::Quadratic(qf) => {
            let mut weights = [0.0f64; D];
            weights.copy_from_slice(qf.weights());
            v.visit(&QuadraticK::<D> { weights })
        }
        ScoreFn::Custom(_) => v.visit(&CustomScorer { f, dims: D }),
    }
}

/// The shared block loop: streams the packed coordinates in fixed-size
/// chunks, applies the constraint test, and hands passing points to
/// `score` + `emit`. `D` is a compile-time chunk width where available.
#[inline(always)]
fn scan_chunks(
    dims: usize,
    ids: StoredIds<'_>,
    coords: &[f64],
    constraint: Option<&Rect>,
    score: impl Fn(&[f64]) -> f64,
    mut emit: impl FnMut(TupleId, f64),
) {
    debug_assert_eq!(coords.len(), ids.len() * dims);
    let chunks = ids.iter().zip(coords.chunks_exact(dims));
    match constraint {
        None => {
            for (id, c) in chunks {
                emit(id, score(c));
            }
        }
        Some(r) => {
            let lo = r.lo();
            let hi = r.hi();
            'points: for (id, c) in chunks {
                for d in 0..dims {
                    if c[d] < lo[d] || c[d] > hi[d] {
                        continue 'points;
                    }
                }
                emit(id, score(c));
            }
        }
    }
}

/// Lane width of the fixed-dimensionality block scans: four points are
/// scored side by side in independent accumulators, which is what lets
/// the compiler keep the reduction in vector registers (4 × f64 = one
/// AVX2 register, two NEON registers) instead of chaining a serial
/// dependency through one accumulator.
const LANES: usize = 4;

/// Four-points-at-a-time scan shared by the fixed-dimensionality kernels.
///
/// `step` folds dimension `d` of one point into its lane accumulator with
/// exactly the floating-point operation (and `d`-major order) of the
/// kernel's `score`, so lane results are bitwise identical to the
/// per-point path — the traversal's threshold comparisons must not depend
/// on which path scored a tuple. Constrained scans keep the scalar path:
/// the filter makes lanes diverge, and constrained queries are rare.
#[inline(always)]
fn scan_lanes<const D: usize>(
    ids: StoredIds<'_>,
    coords: &[f64],
    init: f64,
    step: impl Fn(&mut f64, usize, f64),
    score: impl Fn(&[f64]) -> f64,
    mut emit: impl FnMut(TupleId, f64),
) {
    debug_assert_eq!(coords.len(), ids.len() * D);
    let n = ids.len();
    let mut i = 0;
    while i + LANES <= n {
        let base = i * D;
        let mut acc = [init; LANES];
        for d in 0..D {
            for lane in 0..LANES {
                step(&mut acc[lane], d, coords[base + lane * D + d]);
            }
        }
        for lane in 0..LANES {
            emit(ids.get(i + lane), acc[lane]);
        }
        i += LANES;
    }
    for j in i..n {
        emit(ids.get(j), score(&coords[j * D..(j + 1) * D]));
    }
}

/// `Σ wᵢ·xᵢ`, compile-time dimensionality.
struct LinearK<const D: usize> {
    weights: [f64; D],
}

impl<const D: usize> Scorer for LinearK<D> {
    #[inline(always)]
    fn score(&self, coords: &[f64]) -> f64 {
        let mut acc = 0.0;
        for d in 0..D {
            acc += self.weights[d] * coords[d];
        }
        acc
    }

    #[inline]
    fn scan(
        &self,
        ids: StoredIds<'_>,
        coords: &[f64],
        constraint: Option<&Rect>,
        emit: impl FnMut(TupleId, f64),
    ) {
        if constraint.is_some() {
            scan_chunks(D, ids, coords, constraint, |c| self.score(c), emit);
            return;
        }
        scan_lanes::<D>(
            ids,
            coords,
            0.0,
            |acc, d, x| *acc += self.weights[d] * x,
            |c| self.score(c),
            emit,
        );
    }

    #[inline(always)]
    fn bound(&self, lo: &[f64], hi: &[f64]) -> f64 {
        let mut acc = 0.0;
        for d in 0..D {
            let w = self.weights[d];
            acc += w * if w < 0.0 { lo[d] } else { hi[d] };
        }
        acc
    }

    #[inline(always)]
    fn dims(&self) -> usize {
        D
    }
}

/// `Σ wᵢ·xᵢ`, runtime dimensionality.
struct LinearDyn<'a> {
    weights: &'a [f64],
}

impl Scorer for LinearDyn<'_> {
    #[inline]
    fn score(&self, coords: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (w, x) in self.weights.iter().zip(coords) {
            acc += w * x;
        }
        acc
    }

    #[inline]
    fn bound(&self, lo: &[f64], hi: &[f64]) -> f64 {
        let mut acc = 0.0;
        for ((&w, &l), &h) in self.weights.iter().zip(lo).zip(hi) {
            acc += w * if w < 0.0 { l } else { h };
        }
        acc
    }

    #[inline]
    fn dims(&self) -> usize {
        self.weights.len()
    }
}

/// `Π (aᵢ + xᵢ)`, compile-time dimensionality (increasing on every axis).
struct ProductK<const D: usize> {
    offsets: [f64; D],
}

impl<const D: usize> Scorer for ProductK<D> {
    #[inline(always)]
    fn score(&self, coords: &[f64]) -> f64 {
        let mut acc = 1.0;
        for d in 0..D {
            acc *= self.offsets[d] + coords[d];
        }
        acc
    }

    #[inline]
    fn scan(
        &self,
        ids: StoredIds<'_>,
        coords: &[f64],
        constraint: Option<&Rect>,
        emit: impl FnMut(TupleId, f64),
    ) {
        if constraint.is_some() {
            scan_chunks(D, ids, coords, constraint, |c| self.score(c), emit);
            return;
        }
        scan_lanes::<D>(
            ids,
            coords,
            1.0,
            |acc, d, x| *acc *= self.offsets[d] + x,
            |c| self.score(c),
            emit,
        );
    }

    #[inline(always)]
    fn bound(&self, _lo: &[f64], hi: &[f64]) -> f64 {
        let mut acc = 1.0;
        for d in 0..D {
            acc *= self.offsets[d] + hi[d];
        }
        acc
    }

    #[inline(always)]
    fn dims(&self) -> usize {
        D
    }
}

/// `Π (aᵢ + xᵢ)`, runtime dimensionality.
struct ProductDyn<'a> {
    offsets: &'a [f64],
}

impl Scorer for ProductDyn<'_> {
    #[inline]
    fn score(&self, coords: &[f64]) -> f64 {
        let mut acc = 1.0;
        for (a, x) in self.offsets.iter().zip(coords) {
            acc *= a + x;
        }
        acc
    }

    #[inline]
    fn bound(&self, _lo: &[f64], hi: &[f64]) -> f64 {
        let mut acc = 1.0;
        for (&a, &h) in self.offsets.iter().zip(hi) {
            acc *= a + h;
        }
        acc
    }

    #[inline]
    fn dims(&self) -> usize {
        self.offsets.len()
    }
}

/// `Σ wᵢ·xᵢ²`, compile-time dimensionality.
struct QuadraticK<const D: usize> {
    weights: [f64; D],
}

impl<const D: usize> Scorer for QuadraticK<D> {
    #[inline(always)]
    fn score(&self, coords: &[f64]) -> f64 {
        let mut acc = 0.0;
        for d in 0..D {
            acc += self.weights[d] * coords[d] * coords[d];
        }
        acc
    }

    #[inline]
    fn scan(
        &self,
        ids: StoredIds<'_>,
        coords: &[f64],
        constraint: Option<&Rect>,
        emit: impl FnMut(TupleId, f64),
    ) {
        if constraint.is_some() {
            scan_chunks(D, ids, coords, constraint, |c| self.score(c), emit);
            return;
        }
        scan_lanes::<D>(
            ids,
            coords,
            0.0,
            |acc, d, x| *acc += self.weights[d] * x * x,
            |c| self.score(c),
            emit,
        );
    }

    #[inline(always)]
    fn bound(&self, lo: &[f64], hi: &[f64]) -> f64 {
        let mut acc = 0.0;
        for d in 0..D {
            let w = self.weights[d];
            let c = if w < 0.0 { lo[d] } else { hi[d] };
            acc += w * c * c;
        }
        acc
    }

    #[inline(always)]
    fn dims(&self) -> usize {
        D
    }
}

/// `Σ wᵢ·xᵢ²`, runtime dimensionality.
struct QuadraticDyn<'a> {
    weights: &'a [f64],
}

impl Scorer for QuadraticDyn<'_> {
    #[inline]
    fn score(&self, coords: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (w, x) in self.weights.iter().zip(coords) {
            acc += w * x * x;
        }
        acc
    }

    #[inline]
    fn bound(&self, lo: &[f64], hi: &[f64]) -> f64 {
        let mut acc = 0.0;
        for ((&w, &l), &h) in self.weights.iter().zip(lo).zip(hi) {
            let c = if w < 0.0 { l } else { h };
            acc += w * c * c;
        }
        acc
    }

    #[inline]
    fn dims(&self) -> usize {
        self.weights.len()
    }
}

/// User-supplied monotone functions: the dynamic call stays, but the
/// per-point enum match and the per-push corner staging are gone.
struct CustomScorer<'a> {
    f: &'a ScoreFn,
    dims: usize,
}

impl Scorer for CustomScorer<'_> {
    #[inline]
    fn score(&self, coords: &[f64]) -> f64 {
        self.f.score(coords)
    }

    #[inline]
    fn bound(&self, lo: &[f64], hi: &[f64]) -> f64 {
        self.f.max_score_rect(lo, hi)
    }

    #[inline]
    fn dims(&self) -> usize {
        self.dims
    }
}

struct ScanVisitor<'a, E> {
    ids: StoredIds<'a>,
    coords: &'a [f64],
    constraint: Option<&'a Rect>,
    emit: E,
}

impl<E: FnMut(TupleId, f64)> ScorerVisitor for ScanVisitor<'_, E> {
    type Out = ();
    #[inline]
    fn visit<S: Scorer>(self, scorer: &S) {
        scorer.scan(self.ids, self.coords, self.constraint, self.emit);
    }
}

/// Invokes `emit(id, score)` for every point of the block that lies inside
/// `constraint` (all points when `None`). `coords` holds `dims` packed
/// values per id, as produced by the grid's cell chunks and the ingest
/// stage's cell-grouped runs. Each id is resolved from its stored 4 bytes
/// right at the `emit` call, so an inlined `emit` that drops the point
/// never pays for it.
#[inline]
pub fn scan_block(
    f: &ScoreFn,
    dims: usize,
    ids: StoredIds<'_>,
    coords: &[f64],
    constraint: Option<&Rect>,
    emit: impl FnMut(TupleId, f64),
) {
    debug_assert_eq!(f.dims(), dims);
    debug_assert_eq!(coords.len(), ids.len() * dims);
    dispatch(
        f,
        dims,
        ScanVisitor {
            ids,
            coords,
            constraint,
            emit,
        },
    );
}

/// Scores one point. A thin alias for [`ScoreFn::score`]: for a single
/// point the enum already dispatches exactly once, so there is nothing
/// for the block machinery to amortise — the function exists to mark the
/// single-tuple scoring call sites (update-stream inserts, threshold
/// arrivals, the oracle's rescan) as part of this module's surface.
#[inline]
pub fn score_point(f: &ScoreFn, coords: &[f64]) -> f64 {
    f.score(coords)
}

/// Upper bound of `f` over the closed cell bounds `(lo, hi)` — the score
/// of the preferred corner, specialised per family so the built-ins pick
/// each corner coordinate with one sign test and never materialise the
/// corner. Bitwise identical to [`ScoreFn::max_score_rect`], which the
/// tests check through this entry point. (The top-k traversal needs the
/// bound on every heap push and therefore holds a [`Scorer`] for the
/// whole traversal instead of re-dispatching here.)
#[cfg(test)]
fn cell_bound(f: &ScoreFn, lo: &[f64], hi: &[f64]) -> f64 {
    struct BoundVisitor<'a> {
        lo: &'a [f64],
        hi: &'a [f64],
    }
    impl ScorerVisitor for BoundVisitor<'_> {
        type Out = f64;
        #[inline]
        fn visit<S: Scorer>(self, scorer: &S) -> f64 {
            scorer.bound(self.lo, self.hi)
        }
    }
    dispatch(f, lo.len(), BoundVisitor { lo, hi })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tkm_common::{Monotonicity, ScoringFunction};

    /// The id of a block's first point: blocks cross a 2³² boundary.
    const FIRST: u64 = (1 << 32) - 5;

    fn block(dims: usize, n: usize) -> (Vec<TupleId>, Vec<f64>) {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut coords = Vec::with_capacity(n * dims);
        for _ in 0..n * dims {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            coords.push(((state >> 11) as f64 / (1u64 << 53) as f64).clamp(0.0, 1.0));
        }
        ((FIRST..FIRST + n as u64).map(TupleId).collect(), coords)
    }

    fn collect(
        f: &ScoreFn,
        dims: usize,
        ids: &[TupleId],
        coords: &[f64],
        r: Option<&Rect>,
    ) -> Vec<(TupleId, f64)> {
        let raw: Vec<u32> = ids.iter().map(|id| id.0 as u32).collect();
        let newest = ids.last().map_or(0, |id| id.0);
        let mut out = Vec::new();
        scan_block(f, dims, StoredIds::new(&raw, newest), coords, r, |id, s| {
            out.push((id, s))
        });
        out
    }

    /// Every family × every dimensionality (fixed and fallback) must agree
    /// exactly with the per-point reference evaluation.
    #[test]
    fn kernels_match_per_point_reference() {
        for dims in [1usize, 2, 3, 4, 5, 6] {
            let (ids, coords) = block(dims, 37);
            let fns = [
                ScoreFn::linear(vec![0.7; dims]).unwrap(),
                ScoreFn::linear((0..dims).map(|d| d as f64 - 1.5).collect::<Vec<_>>()).unwrap(),
                ScoreFn::product(vec![0.2; dims]).unwrap(),
                ScoreFn::quadratic(vec![1.3; dims]).unwrap(),
            ];
            for f in &fns {
                let got = collect(f, dims, &ids, &coords, None);
                assert_eq!(got.len(), ids.len());
                for (i, (id, s)) in got.iter().enumerate() {
                    assert_eq!(*id, ids[i]);
                    let reference = f.score(&coords[i * dims..(i + 1) * dims]);
                    assert_eq!(*s, reference, "family {f:?} dims {dims} point {i}");
                }
            }
        }
    }

    /// The 4-wide lane scans must agree bitwise with the per-point
    /// reference at every block size around the lane width: 0..=9 covers
    /// empty, sub-lane, exactly-one-lane, and lane-plus-remainder blocks.
    #[test]
    fn lane_boundaries_match_reference() {
        for dims in [1usize, 2, 3, 4] {
            for n in 0..=9 {
                let (ids, coords) = block(dims, n);
                let fns = [
                    ScoreFn::linear((0..dims).map(|d| 0.3 * d as f64 - 0.7).collect::<Vec<_>>())
                        .unwrap(),
                    ScoreFn::product(vec![0.15; dims]).unwrap(),
                    ScoreFn::quadratic((0..dims).map(|d| 1.1 - d as f64).collect::<Vec<_>>())
                        .unwrap(),
                ];
                for f in &fns {
                    let got = collect(f, dims, &ids, &coords, None);
                    assert_eq!(got.len(), n);
                    for (i, (id, s)) in got.iter().enumerate() {
                        assert_eq!(*id, ids[i]);
                        let reference = f.score(&coords[i * dims..(i + 1) * dims]);
                        assert_eq!(
                            s.to_bits(),
                            reference.to_bits(),
                            "family {f:?} dims {dims} n {n} point {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn constraint_filters_exactly() {
        for dims in [2usize, 5] {
            let (ids, coords) = block(dims, 64);
            let r = Rect::new(vec![0.25; dims], vec![0.75; dims]).unwrap();
            let f = ScoreFn::linear(vec![1.0; dims]).unwrap();
            let got = collect(&f, dims, &ids, &coords, Some(&r));
            let want: Vec<(TupleId, f64)> = ids
                .iter()
                .enumerate()
                .filter(|(i, _)| r.contains(&coords[i * dims..(i + 1) * dims]))
                .map(|(i, &id)| (id, f.score(&coords[i * dims..(i + 1) * dims])))
                .collect();
            assert_eq!(got, want);
            assert!(got.len() < ids.len(), "constraint filtered something");
            assert!(!got.is_empty(), "constraint kept something");
        }
    }

    /// `cell_bound` (and thus `Scorer::bound`) must agree bitwise with the
    /// generic preferred-corner evaluation it replaces — the traversal's
    /// termination test compares these bounds against scores produced by
    /// the same functions.
    #[test]
    fn cell_bound_matches_max_score_rect() {
        for dims in [1usize, 2, 3, 4, 6] {
            let lo: Vec<f64> = (0..dims).map(|d| 0.1 + d as f64 * 0.05).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + 0.2).collect();
            let fns = [
                ScoreFn::linear((0..dims).map(|d| d as f64 - 1.2).collect::<Vec<_>>()).unwrap(),
                ScoreFn::linear(vec![0.0; dims]).unwrap(),
                ScoreFn::product(vec![0.3; dims]).unwrap(),
                ScoreFn::quadratic((0..dims).map(|d| 0.8 - d as f64).collect::<Vec<_>>()).unwrap(),
            ];
            for f in &fns {
                assert_eq!(
                    cell_bound(f, &lo, &hi),
                    f.max_score_rect(&lo, &hi),
                    "family {f:?} dims {dims}"
                );
            }
        }
    }

    #[test]
    fn custom_functions_run_through_the_block_path() {
        #[derive(Debug)]
        struct MinFn(usize);
        impl ScoringFunction for MinFn {
            fn dims(&self) -> usize {
                self.0
            }
            fn score(&self, coords: &[f64]) -> f64 {
                coords.iter().copied().fold(f64::INFINITY, f64::min)
            }
            fn monotonicity(&self, _dim: usize) -> Monotonicity {
                Monotonicity::Increasing
            }
        }
        for dims in [3usize, 6] {
            let (ids, coords) = block(dims, 9);
            let f = ScoreFn::custom(Arc::new(MinFn(dims))).unwrap();
            let got = collect(&f, dims, &ids, &coords, None);
            for (i, (_, s)) in got.iter().enumerate() {
                assert_eq!(*s, f.score(&coords[i * dims..(i + 1) * dims]));
            }
            let lo = vec![0.2; dims];
            let hi = vec![0.9; dims];
            assert_eq!(cell_bound(&f, &lo, &hi), f.max_score_rect(&lo, &hi));
        }
    }

    #[test]
    fn empty_block_is_a_no_op() {
        let f = ScoreFn::linear(vec![1.0, 1.0]).unwrap();
        let mut calls = 0;
        scan_block(&f, 2, StoredIds::new(&[], 0), &[], None, |_, _| calls += 1);
        assert_eq!(calls, 0);
    }
}
