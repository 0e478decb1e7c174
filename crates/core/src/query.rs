//! Continuous query definitions.

use tkm_common::{same_dims, HeapBytes, Rect, Result, ScoreFn, TkmError};

/// A continuous top-k query: a monotone preference function, a result size,
/// and (optionally, §7) an axis-parallel constraint region restricting the
/// monitored tuples.
#[derive(Clone, Debug)]
pub struct Query {
    /// The monotone preference function.
    pub f: ScoreFn,
    /// Result cardinality `k`.
    pub k: usize,
    /// Optional constraint region: only tuples inside are considered.
    pub constraint: Option<Rect>,
}

impl Query {
    /// Builds an unconstrained top-k query.
    pub fn top_k(f: ScoreFn, k: usize) -> Result<Query> {
        if k == 0 {
            return Err(TkmError::InvalidParameter(
                "Query: k must be positive".into(),
            ));
        }
        Ok(Query {
            f,
            k,
            constraint: None,
        })
    }

    /// Builds a constrained top-k query (paper §7): only tuples inside
    /// `region` are monitored.
    pub fn constrained(f: ScoreFn, k: usize, region: Rect) -> Result<Query> {
        same_dims(f.dims(), region.dims())?;
        let mut q = Query::top_k(f, k)?;
        q.constraint = Some(region);
        Ok(q)
    }

    /// Dimensionality of the query's function.
    #[inline]
    pub fn dims(&self) -> usize {
        self.f.dims()
    }
}

/// The function's parameters and the constraint's corners.
impl HeapBytes for Query {
    fn heap_bytes(&self) -> usize {
        self.f.heap_bytes() + self.constraint.as_ref().map_or(0, Rect::heap_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        let f = ScoreFn::linear(vec![1.0, 2.0]).unwrap();
        assert!(Query::top_k(f.clone(), 0).is_err());
        let q = Query::top_k(f.clone(), 3).unwrap();
        assert_eq!(q.k, 3);
        assert!(q.constraint.is_none());

        let r = Rect::new(vec![0.0, 0.0], vec![0.5, 0.5]).unwrap();
        let q = Query::constrained(f.clone(), 2, r).unwrap();
        assert!(q.constraint.is_some());

        let bad = Rect::new(vec![0.0], vec![0.5]).unwrap();
        assert!(Query::constrained(f, 2, bad).is_err());
    }
}
