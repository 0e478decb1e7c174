//! Random query workloads (paper §8: "queries with scoring functions of
//! the form f(p) = Σ aᵢ·p.xᵢ where the aᵢ coefficients are randomly chosen
//! between 0 and 1", plus the non-linear families of Figure 21).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tkm_common::{Result, ScoreFn, TkmError, MAX_DIMS};

/// Scoring-function family of a generated workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FnFamily {
    /// `f(p) = Σ aᵢ·pᵢ` (the default workload).
    Linear,
    /// `f(p) = Π (aᵢ + pᵢ)` (Figure 21 a/b).
    Product,
    /// `f(p) = Σ aᵢ·pᵢ²` (Figure 21 c/d).
    Quadratic,
}

impl FnFamily {
    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            FnFamily::Linear => "linear",
            FnFamily::Product => "product",
            FnFamily::Quadratic => "quadratic",
        }
    }
}

/// Deterministic generator of random preference functions.
#[derive(Debug)]
pub struct QueryGen {
    dims: usize,
    family: FnFamily,
    rng: StdRng,
}

impl QueryGen {
    /// Creates a generator with a fixed seed.
    pub fn new(dims: usize, family: FnFamily, seed: u64) -> Result<QueryGen> {
        if dims == 0 || dims > MAX_DIMS {
            return Err(TkmError::InvalidParameter(format!(
                "QueryGen: dimensionality {dims} outside [1, {MAX_DIMS}]"
            )));
        }
        Ok(QueryGen {
            dims,
            family,
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// Generates the next random preference function.
    #[expect(
        clippy::expect_used,
        reason = "generated coefficients are drawn from [0,1), which every family accepts"
    )]
    pub fn next_fn(&mut self) -> ScoreFn {
        let coeffs: Vec<f64> = (0..self.dims).map(|_| self.rng.random::<f64>()).collect();
        match self.family {
            FnFamily::Linear => ScoreFn::linear(coeffs),
            FnFamily::Product => ScoreFn::product(coeffs),
            FnFamily::Quadratic => ScoreFn::quadratic(coeffs),
        }
        .expect("coefficients in [0,1] are always valid")
    }

    /// Generates a workload of `n` functions.
    pub fn workload(&mut self, n: usize) -> Vec<ScoreFn> {
        (0..n).map(|_| self.next_fn()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(QueryGen::new(0, FnFamily::Linear, 1).is_err());
    }

    #[test]
    fn deterministic_and_family_correct() {
        let mut a = QueryGen::new(3, FnFamily::Linear, 9).unwrap();
        let mut b = QueryGen::new(3, FnFamily::Linear, 9).unwrap();
        let fa = a.next_fn();
        let fb = b.next_fn();
        let p = [0.3, 0.5, 0.7];
        assert_eq!(fa.score(&p), fb.score(&p));
        assert!(matches!(fa, ScoreFn::Linear(_)));

        let mut c = QueryGen::new(2, FnFamily::Product, 9).unwrap();
        assert!(matches!(c.next_fn(), ScoreFn::Product(_)));
        let mut d = QueryGen::new(2, FnFamily::Quadratic, 9).unwrap();
        assert!(matches!(d.next_fn(), ScoreFn::Quadratic(_)));
    }

    #[test]
    fn workload_size() {
        let mut g = QueryGen::new(2, FnFamily::Linear, 1).unwrap();
        assert_eq!(g.workload(10).len(), 10);
    }
}
