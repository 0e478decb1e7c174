//! The flat coordinate ring underlying [`crate::Window`].

use tkm_common::{HeapBytes, Result, TkmError, MAX_DIMS};

/// A FIFO ring of d-dimensional coordinates stored in one flat `Vec<f64>`.
///
/// Each slot holds `dims` consecutive coordinates and nothing else: ids and
/// arrival times are the [`crate::Timeline`]'s. Tuples are addressed by
/// their offset from the oldest, so locating one is
/// `slot = (head_slot + offset) % capacity` — no hashing. The ring grows
/// geometrically when full (the count window sizes it up front; the time
/// window relies on growth).
#[derive(Debug)]
pub struct FlatRing {
    dims: usize,
    /// Coordinate storage, `capacity * dims` floats.
    buf: Vec<f64>,
    /// Number of slots (not floats).
    capacity: usize,
    /// Slot index of the oldest tuple.
    head_slot: usize,
    /// Number of stored tuples.
    len: usize,
}

impl FlatRing {
    /// Creates a ring for `dims`-dimensional tuples with room for
    /// `initial_slots` tuples before the first reallocation.
    pub fn new(dims: usize, initial_slots: usize) -> Result<FlatRing> {
        if dims == 0 || dims > MAX_DIMS {
            return Err(TkmError::InvalidParameter(format!(
                "FlatRing: dimensionality {dims} outside [1, {MAX_DIMS}]"
            )));
        }
        let capacity = initial_slots.max(1);
        Ok(FlatRing {
            dims,
            buf: vec![0.0; capacity * dims],
            capacity,
            head_slot: 0,
            len: 0,
        })
    }

    /// Dimensionality of stored tuples.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of slots available before the next reallocation.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of stored tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Coordinates of the tuple `offset` places after the oldest, `None`
    /// past the newest.
    #[inline]
    pub fn get(&self, offset: usize) -> Option<&[f64]> {
        if offset >= self.len {
            return None;
        }
        let slot = (self.head_slot + offset) % self.capacity;
        Some(&self.buf[slot * self.dims..(slot + 1) * self.dims])
    }

    /// Appends one tuple; nothing is appended if `coords` is not exactly
    /// one tuple long.
    pub fn push(&mut self, coords: &[f64]) -> Result<()> {
        if coords.len() != self.dims {
            return Err(TkmError::DimensionMismatch {
                expected: self.dims,
                got: coords.len(),
            });
        }
        if self.len == self.capacity {
            self.grow();
        }
        let slot = (self.head_slot + self.len) % self.capacity;
        self.buf[slot * self.dims..(slot + 1) * self.dims].copy_from_slice(coords);
        self.len += 1;
        Ok(())
    }

    /// The packed coordinates of the `n` oldest tuples, in arrival order,
    /// as the (at most two) contiguous runs they occupy in the ring; the
    /// second slice is empty unless the run crosses the ring wrap.
    #[inline]
    fn front_coords(&self, n: usize) -> (&[f64], &[f64]) {
        debug_assert!(n <= self.len);
        let first = n.min(self.capacity - self.head_slot);
        (
            &self.buf[self.head_slot * self.dims..(self.head_slot + first) * self.dims],
            &self.buf[..(n - first) * self.dims],
        )
    }

    /// Removes the `n` oldest tuples in one step.
    pub fn drop_front(&mut self, n: usize) {
        debug_assert!(n <= self.len);
        self.head_slot = (self.head_slot + n) % self.capacity;
        self.len -= n;
        if self.len == 0 {
            self.head_slot = 0;
        }
    }

    /// Doubles capacity, re-linearising so the head moves to slot 0.
    fn grow(&mut self) {
        let new_capacity = (self.capacity * 2).max(4);
        let (head_run, wrapped) = self.front_coords(self.len);
        let mut buf = Vec::with_capacity(new_capacity * self.dims);
        buf.extend_from_slice(head_run);
        buf.extend_from_slice(wrapped);
        buf.resize(new_capacity * self.dims, 0.0);
        self.buf = buf;
        self.capacity = new_capacity;
        self.head_slot = 0;
    }

    /// Iterates the stored tuples' coordinates, oldest first.
    pub fn iter(&self) -> RingIter<'_> {
        RingIter {
            ring: self,
            offset: 0,
        }
    }
}

impl HeapBytes for FlatRing {
    fn heap_bytes(&self) -> usize {
        self.buf.heap_bytes()
    }
}

/// Oldest-first iterator over the coordinates of a [`FlatRing`].
pub struct RingIter<'a> {
    ring: &'a FlatRing,
    offset: usize,
}

impl<'a> Iterator for RingIter<'a> {
    type Item = &'a [f64];

    fn next(&mut self) -> Option<Self::Item> {
        let coords = self.ring.get(self.offset)?;
        self.offset += 1;
        Some(coords)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.ring.len - self.offset;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for RingIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Removes and returns the oldest tuple.
    fn pop_front(r: &mut FlatRing) -> Option<Vec<f64>> {
        let front = r.get(0)?.to_vec();
        r.drop_front(1);
        Some(front)
    }

    #[test]
    fn rejects_bad_dims() {
        assert!(FlatRing::new(0, 4).is_err());
        assert!(FlatRing::new(MAX_DIMS + 1, 4).is_err());
        let mut r = FlatRing::new(2, 4).unwrap();
        assert_eq!(
            r.push(&[0.0]),
            Err(TkmError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        );
        assert!(r.push(&[0.1, 0.2, 0.3, 0.4]).is_err());
        assert!(r.is_empty(), "nothing appended");
    }

    #[test]
    fn push_pop_fifo() {
        let mut r = FlatRing::new(2, 2).unwrap();
        r.push(&[0.1, 0.2]).unwrap();
        r.push(&[0.3, 0.4]).unwrap();
        assert_eq!(pop_front(&mut r), Some(vec![0.1, 0.2]));
        assert_eq!(r.get(0), Some(&[0.3, 0.4][..]));
        assert_eq!(r.get(1), None, "past the newest");
        assert_eq!(pop_front(&mut r), Some(vec![0.3, 0.4]));
        assert_eq!(pop_front(&mut r), None);
    }

    /// Pushes straddle the ring wrap without growing, then a grow
    /// re-linearises a wrapped ring with a non-zero head.
    #[test]
    fn wraps_then_grows() {
        let mut r = FlatRing::new(1, 8).unwrap();
        for x in 0..6 {
            r.push(&[f64::from(x)]).unwrap();
        }
        r.drop_front(5);
        // Slots 6, 7, then 0..3.
        for x in 6..11 {
            r.push(&[f64::from(x)]).unwrap();
        }
        assert_eq!((r.capacity(), r.len()), (8, 6));
        assert_eq!(
            r.front_coords(6),
            (&[5.0, 6.0, 7.0][..], &[8.0, 9.0, 10.0][..])
        );
        // 6 + 30 tuples need 8 → 16 → 32 → 64.
        for x in 11..41 {
            r.push(&[f64::from(x)]).unwrap();
        }
        assert_eq!(r.capacity(), 64);
        assert_eq!(r.iter().len(), 36);
        for (offset, coords) in r.iter().enumerate() {
            assert_eq!(coords, &[(5 + offset) as f64]);
            assert_eq!(r.get(offset), Some(coords));
        }
    }

    #[test]
    fn growth_preserves_contents_under_churn() {
        let mut r = FlatRing::new(3, 2).unwrap();
        // Interleave pushes and pops so head_slot is non-zero when growth
        // happens (exercises the re-linearisation).
        let mut oldest = 0u64;
        for i in 0..50u64 {
            r.push(&[i as f64, 0.5, 1.0 - i as f64 / 100.0]).unwrap();
            if i % 3 == 0 {
                pop_front(&mut r);
                oldest += 1;
            }
        }
        assert_eq!(r.iter().len(), r.len());
        for (offset, coords) in r.iter().enumerate() {
            assert_eq!(coords[0], (oldest + offset as u64) as f64);
        }
    }
}
