//! Axis-parallel rectangles (hyper-rectangles).
//!
//! Used for grid-cell extents and for the constraint regions of constrained
//! top-k queries (paper §7). Bounds are treated as closed on both sides;
//! grid cells are conceptually half-open but the engines only ever need the
//! conservative closed-overlap test (visiting one extra boundary cell is
//! harmless, missing one would not be).

use crate::error::{Result, TkmError};
use crate::heap::HeapBytes;

/// A closed axis-parallel rectangle `[lo, hi]` in d-dimensional space.
#[derive(Clone, Debug, PartialEq)]
pub struct Rect {
    lo: Box<[f64]>,
    hi: Box<[f64]>,
}

impl Rect {
    /// Creates a rectangle; `lo[i] ≤ hi[i]` must hold for every dimension.
    pub fn new(lo: impl Into<Vec<f64>>, hi: impl Into<Vec<f64>>) -> Result<Rect> {
        let lo = lo.into();
        let hi = hi.into();
        if lo.is_empty() {
            return Err(TkmError::InvalidParameter(
                "Rect: at least one dimension required".into(),
            ));
        }
        if lo.len() != hi.len() {
            return Err(TkmError::DimensionMismatch {
                expected: lo.len(),
                got: hi.len(),
            });
        }
        for (i, (l, h)) in lo.iter().zip(&hi).enumerate() {
            if !l.is_finite() || !h.is_finite() {
                return Err(TkmError::InvalidParameter(format!(
                    "Rect: non-finite bound on dimension {i}"
                )));
            }
            if l > h {
                return Err(TkmError::InvalidParameter(format!(
                    "Rect: lo {l} > hi {h} on dimension {i}"
                )));
            }
        }
        Ok(Rect {
            lo: lo.into_boxed_slice(),
            hi: hi.into_boxed_slice(),
        })
    }

    /// The unit hyper-cube `[0,1]^d` — the paper's workspace.
    pub fn unit(dims: usize) -> Rect {
        Rect {
            lo: vec![0.0; dims].into_boxed_slice(),
            hi: vec![1.0; dims].into_boxed_slice(),
        }
    }

    /// Dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Lower corner.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper corner.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Whether the point lies inside (closed bounds).
    #[inline]
    pub fn contains(&self, coords: &[f64]) -> bool {
        debug_assert_eq!(coords.len(), self.dims());
        self.lo
            .iter()
            .zip(self.hi.iter())
            .zip(coords)
            .all(|((l, h), x)| *l <= *x && *x <= *h)
    }

    /// Whether two rectangles overlap (closed bounds).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        self.lo
            .iter()
            .zip(self.hi.iter())
            .zip(other.lo.iter().zip(other.hi.iter()))
            .all(|((al, ah), (bl, bh))| al <= bh && bl <= ah)
    }

    /// Intersection of two rectangles, `None` if they are disjoint.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        let lo: Vec<f64> = self
            .lo
            .iter()
            .zip(other.lo.iter())
            .map(|(a, b)| a.max(*b))
            .collect();
        let hi: Vec<f64> = self
            .hi
            .iter()
            .zip(other.hi.iter())
            .map(|(a, b)| a.min(*b))
            .collect();
        Some(Rect {
            lo: lo.into_boxed_slice(),
            hi: hi.into_boxed_slice(),
        })
    }

    /// Volume of the rectangle.
    pub fn volume(&self) -> f64 {
        self.lo
            .iter()
            .zip(self.hi.iter())
            .map(|(l, h)| h - l)
            .product()
    }
}

impl HeapBytes for Rect {
    fn heap_bytes(&self) -> usize {
        self.lo.heap_bytes() + self.hi.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(Rect::new(vec![0.0], vec![1.0]).is_ok());
        assert!(Rect::new(vec![0.5], vec![0.4]).is_err());
        assert!(Rect::new(vec![0.0, 0.0], vec![1.0]).is_err());
        assert!(Rect::new(Vec::<f64>::new(), Vec::<f64>::new()).is_err());
        assert!(Rect::new(vec![f64::NAN], vec![1.0]).is_err());
    }

    #[test]
    fn contains_closed_bounds() {
        let r = Rect::new(vec![0.2, 0.2], vec![0.8, 0.8]).unwrap();
        assert!(r.contains(&[0.2, 0.8]));
        assert!(r.contains(&[0.5, 0.5]));
        assert!(!r.contains(&[0.1, 0.5]));
        assert!(!r.contains(&[0.5, 0.9]));
    }

    #[test]
    fn intersection_logic() {
        let a = Rect::new(vec![0.0, 0.0], vec![0.5, 0.5]).unwrap();
        let b = Rect::new(vec![0.4, 0.4], vec![1.0, 1.0]).unwrap();
        let c = Rect::new(vec![0.6, 0.6], vec![1.0, 1.0]).unwrap();
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        let i = a.intersection(&b).unwrap();
        assert_eq!(i.lo(), &[0.4, 0.4]);
        assert_eq!(i.hi(), &[0.5, 0.5]);
        assert!(a.intersection(&c).is_none());
    }

    #[test]
    fn touching_rects_intersect() {
        let a = Rect::new(vec![0.0], vec![0.5]).unwrap();
        let b = Rect::new(vec![0.5], vec![1.0]).unwrap();
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b).unwrap().volume(), 0.0);
    }

    #[test]
    fn unit_volume() {
        assert_eq!(Rect::unit(3).volume(), 1.0);
        let r = Rect::new(vec![0.0, 0.0], vec![0.5, 0.25]).unwrap();
        assert!((r.volume() - 0.125).abs() < 1e-12);
    }
}
