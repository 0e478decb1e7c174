//! Dim-specialized scoring kernels over coordinate blocks.
//!
//! Every hot loop of the system — the top-k traversal's cell scan and
//! heap-push bounds, the maintenance replay of a cell run, the threshold
//! walk, update-stream scoring — reduces to the same two shapes: *score a
//! packed block of points* and *bound a function over a cell's corner
//! rectangle*. This module is those shapes, compiled well:
//!
//! * the [`ScoreFn`] enum is dispatched **once per call** (and, via
//!   `dispatch`, once per whole traversal), never once per point or per
//!   heap push; the maintenance replay resolves the dimensionality once
//!   per cycle (`dispatch_dims`) and matches only the family per block;
//! * each built-in family (linear, product, quadratic) states its
//!   arithmetic once: the accumulator's start value, the fold of one axis
//!   into it, and the parameter sign that makes an axis decreasing. One
//!   kernel runs that arithmetic at the common dimensionalities (d = 2,
//!   3, 4 — the paper's evaluation range, plus 1), monomorphized via a
//!   const generic: the parameters live in a fixed-size stack array, the
//!   per-point reduction fully unrolls, and the unconstrained scan scores
//!   four points side by side;
//! * every other case — d > 4, and user-supplied functions at any d —
//!   runs the per-point reference, [`ScoreFn::score`] and
//!   [`ScoreFn::max_score_rect`], with the same per-call dispatch.
//!
//! The centrepiece is the `Scorer` trait plus the `dispatch` visitor: a
//! caller hands `dispatch` a generic closure-like visitor and receives it
//! back instantiated with a concrete scorer — the top-k computation
//! module runs its *entire* traversal (bounds on every heap push, scans of
//! every processed cell) through one monomorphized scorer with zero enum
//! matches inside the loop.
//!
//! The kernels are pure: they invoke `emit(id, score)` for every passing
//! point and leave all result book-keeping (top-lists, skybands, matching
//! sets) to the caller's closure.

// The fixed-dimensionality kernel indexes with `for d in 0..D` on purpose:
// with a const bound the compiler proves the accesses in range, fully
// unrolls the reduction, and vectorizes — the iterator forms clippy
// prefers obscure exactly that.
#![allow(clippy::needless_range_loop)]

use std::marker::PhantomData;

use tkm_common::{Rect, ScoreFn, TupleId};
use tkm_grid::StoredIds;

/// A scoring function pinned to a concrete family and dimensionality:
/// the monomorphized view of a [`ScoreFn`] that the hot loops run on.
pub(crate) trait Scorer {
    /// Evaluates the function on one packed point.
    fn score(&self, coords: &[f64]) -> f64;

    /// Upper bound over the closed rectangle `(lo, hi)`: the preferred
    /// corner's score, bitwise identical to [`ScoreFn::max_score_rect`].
    fn bound(&self, lo: &[f64], hi: &[f64]) -> f64;

    /// Invokes `emit(id, score)` for every point of the block inside
    /// `constraint` (all points when `None`).
    fn scan(
        &self,
        ids: StoredIds<'_>,
        coords: &[f64],
        constraint: Option<&Rect>,
        emit: impl FnMut(TupleId, f64),
    );
}

/// A computation generic over the concrete scorer; `dispatch` resolves
/// the `(family, dims)` pair once and instantiates the visitor with it.
pub(crate) trait ScorerVisitor {
    /// The computation's result type.
    type Out;
    /// Runs the computation against a concrete scorer.
    fn visit<S: Scorer>(self, scorer: &S) -> Self::Out;
}

/// Resolves `f` to a concrete [`Scorer`] (a [`Kernel`] for the built-in
/// families at d ≤ 4, the [`Reference`] otherwise) and runs `v` against
/// it. One enum match per call — hot loops inside the visitor run
/// dispatch-free.
#[inline]
pub(crate) fn dispatch<V: ScorerVisitor>(f: &ScoreFn, dims: usize, v: V) -> V::Out {
    struct Resolve<'a, V> {
        f: &'a ScoreFn,
        v: V,
    }
    impl<V: ScorerVisitor> DimsVisitor for Resolve<'_, V> {
        type Out = V::Out;
        #[inline(always)]
        fn visit<D: Dims>(self, dims: D) -> V::Out {
            dims.resolve(self.f, self.v)
        }
    }
    dispatch_dims(dims, Resolve { f, v })
}

/// A dimensionality resolved once for a stretch of work that all shares
/// it — a whole maintenance replay cycle — so that each block scored
/// within it matches only the function's family: [`Fixed`] at d = 1..=4,
/// [`Runtime`] above.
pub(crate) trait Dims: Copy {
    /// Resolves `f` at this dimensionality (a [`Kernel`] for a built-in
    /// family at d ≤ 4, the [`Reference`] otherwise) and runs `v` against
    /// it.
    fn resolve<V: ScorerVisitor>(self, f: &ScoreFn, v: V) -> V::Out;

    /// [`scan_block`] at this dimensionality, inlined into the caller
    /// with `emit`, so that the caller's per-block state never leaves
    /// registers.
    #[inline(always)]
    fn scan(
        self,
        f: &ScoreFn,
        ids: StoredIds<'_>,
        coords: &[f64],
        constraint: Option<&Rect>,
        emit: impl FnMut(TupleId, f64),
    ) {
        self.resolve(
            f,
            ScanVisitor {
                ids,
                coords,
                constraint,
                emit,
            },
        );
    }
}

/// A dimensionality of 1 to 4, known at compile time.
#[derive(Clone, Copy)]
pub(crate) struct Fixed<const D: usize>;

impl<const D: usize> Dims for Fixed<D> {
    #[inline(always)]
    fn resolve<V: ScorerVisitor>(self, f: &ScoreFn, v: V) -> V::Out {
        match f {
            ScoreFn::Linear(lf) => v.visit(&Kernel::<Linear, D>::new(lf.weights())),
            ScoreFn::Product(pf) => v.visit(&Kernel::<Product, D>::new(pf.offsets())),
            ScoreFn::Quadratic(qf) => v.visit(&Kernel::<Quadratic, D>::new(qf.weights())),
            ScoreFn::Custom(_) => v.visit(&Reference { f, dims: D }),
        }
    }
}

/// A dimensionality above 4, known at run time: every function runs the
/// reference.
#[derive(Clone, Copy)]
pub(crate) struct Runtime(usize);

impl Dims for Runtime {
    #[inline(always)]
    fn resolve<V: ScorerVisitor>(self, f: &ScoreFn, v: V) -> V::Out {
        v.visit(&Reference { f, dims: self.0 })
    }
}

/// A computation generic over the dimensionality; [`dispatch_dims`]
/// matches `dims` once and instantiates the visitor with it.
pub(crate) trait DimsVisitor {
    /// The computation's result type.
    type Out;
    /// Runs the computation at the dimensionality `dims`.
    fn visit<D: Dims>(self, dims: D) -> Self::Out;
}

/// Resolves `dims` to a [`Dims`] and runs `v` at it: one match per call.
#[inline]
pub(crate) fn dispatch_dims<V: DimsVisitor>(dims: usize, v: V) -> V::Out {
    match dims {
        1 => v.visit(Fixed::<1>),
        2 => v.visit(Fixed::<2>),
        3 => v.visit(Fixed::<3>),
        4 => v.visit(Fixed::<4>),
        _ => v.visit(Runtime(dims)),
    }
}

/// The per-point block loop: streams the packed coordinates in `dims`-wide
/// chunks, applies the constraint test, and hands passing points to
/// `score` + `emit`. `dims` is a compile-time constant on the kernel's
/// constrained scans.
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

/// One built-in family's arithmetic, stated once. A point's score is
/// `step` folded over its axes from `INIT`, in axis order — the same
/// operations, in the same order, as the family's [`ScoreFn::score`] — and
/// a rectangle's bound is the same fold over its preferred corner, which
/// takes `lo` on the axes whose parameter is `decreasing` and `hi` on the
/// rest, as [`ScoreFn::max_score_rect`] does.
trait Family {
    /// The accumulator before the first axis.
    const INIT: f64;
    /// Folds one axis, with parameter `param` and coordinate `x`.
    fn step(acc: f64, param: f64, x: f64) -> f64;
    /// Whether a parameter makes its axis decreasing.
    fn decreasing(param: f64) -> bool;
}

/// `Σ wᵢ·xᵢ`.
struct Linear;

impl Family for Linear {
    const INIT: f64 = 0.0;
    #[inline(always)]
    fn step(acc: f64, w: f64, x: f64) -> f64 {
        acc + w * x
    }
    #[inline(always)]
    fn decreasing(w: f64) -> bool {
        w < 0.0
    }
}

/// `Π (aᵢ + xᵢ)`, increasing on every axis (`aᵢ ≥ 0`).
struct Product;

impl Family for Product {
    const INIT: f64 = 1.0;
    #[inline(always)]
    fn step(acc: f64, a: f64, x: f64) -> f64 {
        acc * (a + x)
    }
    #[inline(always)]
    fn decreasing(_a: f64) -> bool {
        false
    }
}

/// `Σ wᵢ·xᵢ²`.
struct Quadratic;

impl Family for Quadratic {
    const INIT: f64 = 0.0;
    #[inline(always)]
    fn step(acc: f64, w: f64, x: f64) -> f64 {
        acc + w * x * x
    }
    #[inline(always)]
    fn decreasing(w: f64) -> bool {
        w < 0.0
    }
}

/// A built-in family at a compile-time dimensionality, its parameters in
/// a fixed-size stack array.
struct Kernel<F, const D: usize> {
    params: [f64; D],
    family: PhantomData<F>,
}

impl<F: Family, const D: usize> Kernel<F, D> {
    #[inline(always)]
    fn new(params: &[f64]) -> Self {
        let mut fixed = [0.0f64; D];
        fixed.copy_from_slice(params);
        Kernel {
            params: fixed,
            family: PhantomData,
        }
    }
}

impl<F: Family, const D: usize> Scorer for Kernel<F, D> {
    #[inline(always)]
    fn score(&self, coords: &[f64]) -> f64 {
        let mut acc = F::INIT;
        for d in 0..D {
            acc = F::step(acc, self.params[d], coords[d]);
        }
        acc
    }

    #[inline(always)]
    fn bound(&self, lo: &[f64], hi: &[f64]) -> f64 {
        let mut acc = F::INIT;
        for d in 0..D {
            let p = self.params[d];
            acc = F::step(acc, p, if F::decreasing(p) { lo[d] } else { hi[d] });
        }
        acc
    }

    /// Unconstrained blocks are scored [`LANES`] points at a time, each
    /// lane running `step` in the axis order of `score`, so lane results
    /// are bitwise identical to the per-point path — the traversal's
    /// threshold comparisons must not depend on which path scored a
    /// tuple. Constrained scans keep the per-point loop: the filter makes
    /// lanes diverge, and constrained queries are rare.
    #[inline]
    fn scan(
        &self,
        ids: StoredIds<'_>,
        coords: &[f64],
        constraint: Option<&Rect>,
        mut emit: impl FnMut(TupleId, f64),
    ) {
        if constraint.is_some() {
            scan_chunks(D, ids, coords, constraint, |c| self.score(c), emit);
            return;
        }
        debug_assert_eq!(coords.len(), ids.len() * D);
        let n = ids.len();
        let mut i = 0;
        while i + LANES <= n {
            let base = i * D;
            let mut acc = [F::INIT; LANES];
            for d in 0..D {
                for lane in 0..LANES {
                    acc[lane] = F::step(acc[lane], self.params[d], coords[base + lane * D + d]);
                }
            }
            for lane in 0..LANES {
                emit(ids.get(i + lane), acc[lane]);
            }
            i += LANES;
        }
        for j in i..n {
            emit(ids.get(j), self.score(&coords[j * D..(j + 1) * D]));
        }
    }
}

/// The per-point reference, [`ScoreFn::score`] and
/// [`ScoreFn::max_score_rect`]: user-supplied functions at any d, and
/// the built-in families above d = 4.
struct Reference<'a> {
    f: &'a ScoreFn,
    dims: usize,
}

impl Scorer for Reference<'_> {
    #[inline]
    fn score(&self, coords: &[f64]) -> f64 {
        self.f.score(coords)
    }

    #[inline]
    fn bound(&self, lo: &[f64], hi: &[f64]) -> f64 {
        self.f.max_score_rect(lo, hi)
    }

    #[inline]
    fn scan(
        &self,
        ids: StoredIds<'_>,
        coords: &[f64],
        constraint: Option<&Rect>,
        emit: impl FnMut(TupleId, f64),
    ) {
        scan_chunks(self.dims, ids, coords, constraint, |c| self.score(c), emit);
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
    #[inline(always)]
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

    /// Mixed signs and a −0.0, sliced to the dimensionality.
    const MIXED: [f64; 6] = [-0.7, 1.3, -0.0, -1.2, 0.4, -0.6];

    /// Every family at `dims`; the linear and quadratic ones with
    /// [`MIXED`] weights and with their negation, so each axis is seen
    /// decreasing and increasing at every dimensionality.
    fn families(dims: usize) -> [ScoreFn; 5] {
        let mixed = &MIXED[..dims];
        let flipped: Vec<f64> = mixed.iter().map(|w| -w).collect();
        [
            ScoreFn::linear(mixed).unwrap(),
            ScoreFn::linear(flipped.clone()).unwrap(),
            ScoreFn::product((0..dims).map(|d| 0.1 * d as f64).collect::<Vec<_>>()).unwrap(),
            ScoreFn::quadratic(mixed).unwrap(),
            ScoreFn::quadratic(flipped).unwrap(),
        ]
    }

    /// Constrained scans, on the fixed path (d ≤ 4) and the reference
    /// path (d > 4), keep exactly the points inside the rectangle and
    /// score them as the per-point reference does.
    #[test]
    fn constraint_filters_exactly() {
        for dims in 1usize..=6 {
            let (ids, coords) = block(dims, 64);
            let r = Rect::new(vec![0.2; dims], vec![0.9; dims]).unwrap();
            for f in &families(dims) {
                let got = collect(f, dims, &ids, &coords, Some(&r));
                let want: Vec<(TupleId, f64)> = ids
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| r.contains(&coords[i * dims..(i + 1) * dims]))
                    .map(|(i, &id)| (id, f.score(&coords[i * dims..(i + 1) * dims])))
                    .collect();
                let bits = |v: &[(TupleId, f64)]| -> Vec<(TupleId, u64)> {
                    v.iter().map(|&(id, s)| (id, s.to_bits())).collect()
                };
                assert_eq!(bits(&got), bits(&want), "family {f:?} dims {dims}");
                assert!(got.len() < ids.len(), "constraint filtered something");
                assert!(!got.is_empty(), "constraint kept something");
            }
        }
    }

    /// `cell_bound` (and thus `Scorer::bound`) must agree bitwise with the
    /// generic preferred-corner evaluation, on the fixed path and the
    /// reference path — the traversal's termination test compares these
    /// bounds against scores produced by the same functions.
    #[test]
    fn cell_bound_matches_max_score_rect() {
        for dims in 1usize..=6 {
            let lo: Vec<f64> = (0..dims).map(|d| 0.1 + d as f64 * 0.05).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + 0.2).collect();
            for f in &families(dims) {
                assert_eq!(
                    cell_bound(f, &lo, &hi).to_bits(),
                    f.max_score_rect(&lo, &hi).to_bits(),
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
