//! Monotone preference (scoring) functions.
//!
//! A top-k query maps each tuple `p` to `score(p) = f(p.x_1, …, p.x_d)` and
//! asks for the k tuples with the highest scores. The paper's framework
//! works for *any* function that is monotone (increasing or decreasing) on
//! every dimension: the score of the per-dimension preferred corner of a
//! rectangle then upper-bounds the score of every point inside, which is
//! what drives both the grid traversal order and its termination condition.
//!
//! Three families are built in, matching the evaluation section:
//!
//! * [`LinearFn`]: `f(x) = Σ wᵢ·xᵢ` (negative weights give decreasing
//!   dimensions, as in the paper's `x₁ − x₂` example);
//! * [`ProductFn`]: `f(x) = Π (aᵢ + xᵢ)` with `aᵢ ≥ 0` (Figure 21 a/b);
//! * [`QuadraticFn`]: `f(x) = Σ aᵢ·xᵢ²` (Figure 21 c/d).
//!
//! User-defined functions plug in through [`ScoringFunction`] and
//! [`ScoreFn::Custom`]. The engines dispatch through the [`ScoreFn`] enum so
//! the built-in families stay inlineable in the hot per-point loop.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::error::{Result, TkmError};
use crate::heap::HeapBytes;
use crate::ids::TupleId;
use crate::ordered::OrderedF64;

/// Maximum supported dimensionality.
///
/// Lets `maxscore` build rectangle corners on the stack. The paper evaluates
/// d ∈ [2, 6]; 12 leaves generous headroom.
pub const MAX_DIMS: usize = 12;

/// Direction of monotonicity of a scoring function along one dimension.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Monotonicity {
    /// Larger attribute values give larger (or equal) scores.
    Increasing,
    /// Larger attribute values give smaller (or equal) scores.
    Decreasing,
}

impl Monotonicity {
    /// The coordinate of the preferred (score-maximising) side of an
    /// interval `[lo, hi]`.
    #[inline]
    pub fn preferred(self, lo: f64, hi: f64) -> f64 {
        match self {
            Monotonicity::Increasing => hi,
            Monotonicity::Decreasing => lo,
        }
    }

    /// The coordinate of the worst (score-minimising) side of `[lo, hi]`.
    #[inline]
    pub fn worst(self, lo: f64, hi: f64) -> f64 {
        match self {
            Monotonicity::Increasing => lo,
            Monotonicity::Decreasing => hi,
        }
    }
}

/// A scoring function that is monotone on every dimension.
///
/// Implementors must guarantee per-dimension monotonicity as reported by
/// [`ScoringFunction::monotonicity`]; the engines' correctness depends on it.
pub trait ScoringFunction: fmt::Debug + Send + Sync {
    /// Number of attributes the function consumes.
    fn dims(&self) -> usize;

    /// Evaluates the function. `coords.len()` must equal `self.dims()`.
    fn score(&self, coords: &[f64]) -> f64;

    /// Monotonicity along dimension `dim` (`0 ≤ dim < self.dims()`).
    fn monotonicity(&self, dim: usize) -> Monotonicity;
}

fn validate_params(params: &[f64], what: &str) -> Result<()> {
    if params.is_empty() {
        return Err(TkmError::InvalidParameter(format!(
            "{what}: at least one dimension required"
        )));
    }
    if params.len() > MAX_DIMS {
        return Err(TkmError::InvalidParameter(format!(
            "{what}: {} dimensions exceed MAX_DIMS = {MAX_DIMS}",
            params.len()
        )));
    }
    if let Some(bad) = params.iter().find(|v| !v.is_finite()) {
        return Err(TkmError::InvalidParameter(format!(
            "{what}: non-finite parameter {bad}"
        )));
    }
    Ok(())
}

/// Weighted sum `f(x) = Σ wᵢ·xᵢ`.
#[derive(Clone, Debug, PartialEq)]
pub struct LinearFn {
    weights: Box<[f64]>,
}

impl LinearFn {
    /// Creates a linear preference function from per-dimension weights.
    /// Negative weights make the corresponding dimension decreasing.
    pub fn new(weights: impl Into<Vec<f64>>) -> Result<LinearFn> {
        let weights = weights.into();
        validate_params(&weights, "LinearFn")?;
        Ok(LinearFn {
            weights: weights.into_boxed_slice(),
        })
    }

    /// The per-dimension weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl ScoringFunction for LinearFn {
    #[inline]
    fn dims(&self) -> usize {
        self.weights.len()
    }

    #[inline]
    fn score(&self, coords: &[f64]) -> f64 {
        debug_assert_eq!(coords.len(), self.weights.len());
        let mut acc = 0.0;
        for (w, x) in self.weights.iter().zip(coords) {
            acc += w * x;
        }
        acc
    }

    #[inline]
    fn monotonicity(&self, dim: usize) -> Monotonicity {
        if self.weights[dim] < 0.0 {
            Monotonicity::Decreasing
        } else {
            Monotonicity::Increasing
        }
    }
}

/// Product form `f(x) = Π (aᵢ + xᵢ)`, `aᵢ ≥ 0` (Figure 21 a/b).
#[derive(Clone, Debug, PartialEq)]
pub struct ProductFn {
    offsets: Box<[f64]>,
}

impl ProductFn {
    /// Creates a product preference function; all offsets must be ≥ 0 so
    /// that the function is increasing on every dimension over the unit
    /// workspace.
    pub fn new(offsets: impl Into<Vec<f64>>) -> Result<ProductFn> {
        let offsets = offsets.into();
        validate_params(&offsets, "ProductFn")?;
        if let Some(bad) = offsets.iter().find(|v| **v < 0.0) {
            return Err(TkmError::InvalidParameter(format!(
                "ProductFn: offset {bad} < 0 breaks monotonicity on [0,1]^d"
            )));
        }
        Ok(ProductFn {
            offsets: offsets.into_boxed_slice(),
        })
    }

    /// The per-dimension offsets.
    pub fn offsets(&self) -> &[f64] {
        &self.offsets
    }
}

impl ScoringFunction for ProductFn {
    #[inline]
    fn dims(&self) -> usize {
        self.offsets.len()
    }

    #[inline]
    fn score(&self, coords: &[f64]) -> f64 {
        debug_assert_eq!(coords.len(), self.offsets.len());
        let mut acc = 1.0;
        for (a, x) in self.offsets.iter().zip(coords) {
            acc *= a + x;
        }
        acc
    }

    #[inline]
    fn monotonicity(&self, _dim: usize) -> Monotonicity {
        Monotonicity::Increasing
    }
}

/// Weighted squares `f(x) = Σ aᵢ·xᵢ²` (Figure 21 c/d).
#[derive(Clone, Debug, PartialEq)]
pub struct QuadraticFn {
    weights: Box<[f64]>,
}

impl QuadraticFn {
    /// Creates a quadratic preference function. Negative weights make the
    /// corresponding dimension decreasing (on the non-negative unit space).
    pub fn new(weights: impl Into<Vec<f64>>) -> Result<QuadraticFn> {
        let weights = weights.into();
        validate_params(&weights, "QuadraticFn")?;
        Ok(QuadraticFn {
            weights: weights.into_boxed_slice(),
        })
    }

    /// The per-dimension weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl ScoringFunction for QuadraticFn {
    #[inline]
    fn dims(&self) -> usize {
        self.weights.len()
    }

    #[inline]
    fn score(&self, coords: &[f64]) -> f64 {
        debug_assert_eq!(coords.len(), self.weights.len());
        let mut acc = 0.0;
        for (w, x) in self.weights.iter().zip(coords) {
            acc += w * x * x;
        }
        acc
    }

    #[inline]
    fn monotonicity(&self, dim: usize) -> Monotonicity {
        if self.weights[dim] < 0.0 {
            Monotonicity::Decreasing
        } else {
            Monotonicity::Increasing
        }
    }
}

/// A scoring function, dispatched by enum so the built-in families inline.
#[derive(Clone, Debug)]
pub enum ScoreFn {
    /// `Σ wᵢ·xᵢ`.
    Linear(LinearFn),
    /// `Π (aᵢ + xᵢ)`.
    Product(ProductFn),
    /// `Σ aᵢ·xᵢ²`.
    Quadratic(QuadraticFn),
    /// Any user-supplied monotone function.
    Custom(Arc<dyn ScoringFunction>),
}

impl ScoreFn {
    /// Convenience constructor for the linear family.
    pub fn linear(weights: impl Into<Vec<f64>>) -> Result<ScoreFn> {
        Ok(ScoreFn::Linear(LinearFn::new(weights)?))
    }

    /// Convenience constructor for the product family.
    pub fn product(offsets: impl Into<Vec<f64>>) -> Result<ScoreFn> {
        Ok(ScoreFn::Product(ProductFn::new(offsets)?))
    }

    /// Convenience constructor for the quadratic family.
    pub fn quadratic(weights: impl Into<Vec<f64>>) -> Result<ScoreFn> {
        Ok(ScoreFn::Quadratic(QuadraticFn::new(weights)?))
    }

    /// Wraps a user-defined monotone function.
    pub fn custom(f: Arc<dyn ScoringFunction>) -> Result<ScoreFn> {
        if f.dims() == 0 || f.dims() > MAX_DIMS {
            return Err(TkmError::InvalidParameter(format!(
                "custom scoring function has unsupported dimensionality {}",
                f.dims()
            )));
        }
        Ok(ScoreFn::Custom(f))
    }

    /// Number of attributes the function consumes.
    #[inline]
    pub fn dims(&self) -> usize {
        match self {
            ScoreFn::Linear(f) => f.dims(),
            ScoreFn::Product(f) => f.dims(),
            ScoreFn::Quadratic(f) => f.dims(),
            ScoreFn::Custom(f) => f.dims(),
        }
    }

    /// Evaluates the function on a tuple's coordinates.
    #[inline]
    pub fn score(&self, coords: &[f64]) -> f64 {
        match self {
            ScoreFn::Linear(f) => f.score(coords),
            ScoreFn::Product(f) => f.score(coords),
            ScoreFn::Quadratic(f) => f.score(coords),
            ScoreFn::Custom(f) => f.score(coords),
        }
    }

    /// Monotonicity along `dim`.
    #[inline]
    pub fn monotonicity(&self, dim: usize) -> Monotonicity {
        match self {
            ScoreFn::Linear(f) => f.monotonicity(dim),
            ScoreFn::Product(f) => f.monotonicity(dim),
            ScoreFn::Quadratic(f) => f.monotonicity(dim),
            ScoreFn::Custom(f) => f.monotonicity(dim),
        }
    }

    /// Upper bound for the score of any point in the axis-parallel
    /// rectangle `[lo, hi]`: the score of the per-dimension preferred
    /// corner (the `maxscore` of the paper, §3.1).
    #[inline]
    pub fn max_score_rect(&self, lo: &[f64], hi: &[f64]) -> f64 {
        debug_assert_eq!(lo.len(), self.dims());
        debug_assert_eq!(hi.len(), self.dims());
        let mut corner = [0.0f64; MAX_DIMS];
        for dim in 0..self.dims() {
            corner[dim] = self.monotonicity(dim).preferred(lo[dim], hi[dim]);
        }
        self.score(&corner[..self.dims()])
    }

    /// Lower bound analogue of [`ScoreFn::max_score_rect`] (worst corner).
    #[inline]
    pub fn min_score_rect(&self, lo: &[f64], hi: &[f64]) -> f64 {
        debug_assert_eq!(lo.len(), self.dims());
        debug_assert_eq!(hi.len(), self.dims());
        let mut corner = [0.0f64; MAX_DIMS];
        for dim in 0..self.dims() {
            corner[dim] = self.monotonicity(dim).worst(lo[dim], hi[dim]);
        }
        self.score(&corner[..self.dims()])
    }
}

/// A built-in family's parameters, one `f64` a dimension. A `Custom`
/// function is shared through its `Arc` and is no one query's to count.
impl HeapBytes for ScoreFn {
    fn heap_bytes(&self) -> usize {
        match self {
            ScoreFn::Custom(_) => 0,
            _ => self.dims() * std::mem::size_of::<f64>(),
        }
    }
}

/// A `(score, tuple)` pair with the workspace-wide candidate order.
///
/// Candidates are compared by score; on ties the *older* tuple (smaller id)
/// wins. Every engine — TMA, SMA, TSL and the brute-force oracle — uses this
/// single comparator, so their reported results are identical even when
/// scores collide. The tie direction is chosen to be consistent with the
/// skyband dominance relation: a dominator must score at least as high *and*
/// expire later, and a later-expiring tuple of equal score ranks lower, so a
/// tuple with k dominators can indeed never appear in a top-k result.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Scored {
    /// The tuple's score under the query's function.
    pub score: OrderedF64,
    /// The tuple's arrival sequence number.
    pub id: TupleId,
}

impl Scored {
    /// Creates a candidate from a raw score.
    #[inline]
    pub fn new(score: f64, id: TupleId) -> Scored {
        Scored {
            score: OrderedF64::new(score),
            id,
        }
    }
}

impl Ord for Scored {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Greater = better: higher score first, then smaller (older) id.
        self.score
            .cmp(&other.score)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for Scored {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_matches_paper_example() {
        // f(x1, x2) = x1 + 2*x2 from Figure 1(a).
        let f = ScoreFn::linear(vec![1.0, 2.0]).unwrap();
        assert_eq!(f.score(&[0.5, 0.25]), 1.0);
        assert_eq!(f.monotonicity(0), Monotonicity::Increasing);
        assert_eq!(f.max_score_rect(&[0.0, 0.0], &[1.0, 1.0]), 3.0);
        assert_eq!(f.min_score_rect(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn linear_mixed_monotonicity() {
        // f(x1, x2) = x1 - x2 from Figure 7(a): increasing on x1,
        // decreasing on x2; the preferred corner is the bottom-right.
        let f = ScoreFn::linear(vec![1.0, -1.0]).unwrap();
        assert_eq!(f.monotonicity(0), Monotonicity::Increasing);
        assert_eq!(f.monotonicity(1), Monotonicity::Decreasing);
        assert_eq!(f.max_score_rect(&[0.0, 0.0], &[1.0, 1.0]), 1.0);
        assert_eq!(f.min_score_rect(&[0.0, 0.0], &[1.0, 1.0]), -1.0);
    }

    #[test]
    fn product_function() {
        // f(x1, x2) = x1 * x2 from Figure 7(b) is ProductFn with zero
        // offsets.
        let f = ScoreFn::product(vec![0.0, 0.0]).unwrap();
        assert_eq!(f.score(&[0.5, 0.5]), 0.25);
        assert_eq!(f.max_score_rect(&[0.0, 0.0], &[1.0, 1.0]), 1.0);
    }

    #[test]
    fn product_rejects_negative_offsets() {
        assert!(ProductFn::new(vec![0.5, -0.1]).is_err());
    }

    #[test]
    fn quadratic_function() {
        let f = ScoreFn::quadratic(vec![2.0, 1.0]).unwrap();
        assert_eq!(f.score(&[0.5, 1.0]), 2.0 * 0.25 + 1.0);
        assert_eq!(f.max_score_rect(&[0.0, 0.0], &[1.0, 1.0]), 3.0);
    }

    #[test]
    fn maxscore_bounds_interior_points() {
        let f = ScoreFn::linear(vec![0.3, -0.7, 1.1]).unwrap();
        let lo = [0.2, 0.1, 0.4];
        let hi = [0.6, 0.9, 0.8];
        let bound = f.max_score_rect(&lo, &hi);
        // A grid of interior points must all score at or below the bound.
        for &a in &[0.2, 0.4, 0.6] {
            for &b in &[0.1, 0.5, 0.9] {
                for &c in &[0.4, 0.6, 0.8] {
                    assert!(f.score(&[a, b, c]) <= bound + 1e-12);
                }
            }
        }
    }

    #[test]
    fn scored_orders_by_score_then_age() {
        let better = Scored::new(2.0, TupleId(10));
        let worse = Scored::new(1.0, TupleId(1));
        assert!(better > worse);

        // Equal scores: the older tuple wins.
        let old = Scored::new(1.0, TupleId(1));
        let new = Scored::new(1.0, TupleId(2));
        assert!(old > new);
    }

    #[test]
    fn dimension_validation() {
        assert!(LinearFn::new(Vec::<f64>::new()).is_err());
        assert!(LinearFn::new(vec![0.0; MAX_DIMS + 1]).is_err());
        assert!(LinearFn::new(vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn custom_function_dispatch() {
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
        let f = ScoreFn::custom(Arc::new(MinFn(2))).unwrap();
        assert_eq!(f.score(&[0.3, 0.7]), 0.3);
        assert_eq!(f.max_score_rect(&[0.1, 0.2], &[0.5, 0.6]), 0.5);
    }
}
