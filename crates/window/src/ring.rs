//! The flat coordinate ring underlying both window kinds.

use tkm_common::{Result, Timestamp, TkmError, TupleId, MAX_DIMS};

/// A FIFO ring of d-dimensional tuples stored in one flat `Vec<f64>`.
///
/// Each slot holds `dims` consecutive coordinates plus a parallel arrival
/// timestamp. Tuple ids are dense arrival sequence numbers, so locating a
/// tuple is `slot = (head_slot + (id − head_id)) % capacity` — no hashing.
/// The ring grows geometrically when full (the count window sizes it up
/// front; the time window relies on growth).
#[derive(Debug)]
pub struct FlatRing {
    dims: usize,
    /// Coordinate storage, `capacity * dims` floats.
    buf: Vec<f64>,
    /// Arrival timestamps, `capacity` entries.
    times: Vec<u64>,
    /// Number of slots (not floats).
    capacity: usize,
    /// Slot index of the oldest tuple.
    head_slot: usize,
    /// Number of valid tuples.
    len: usize,
    /// Id of the oldest tuple (`head_id + len` = next id to assign).
    head_id: u64,
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
            times: vec![0; capacity],
            capacity,
            head_slot: 0,
            len: 0,
            head_id: 0,
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

    /// Number of valid tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Id of the oldest valid tuple.
    #[inline]
    pub fn oldest(&self) -> Option<TupleId> {
        (self.len > 0).then_some(TupleId(self.head_id))
    }

    /// Id of the newest valid tuple.
    #[inline]
    pub fn newest(&self) -> Option<TupleId> {
        (self.len > 0).then(|| TupleId(self.head_id + self.len as u64 - 1))
    }

    /// Slot index for a valid id, `None` if the id is outside the window.
    #[inline]
    fn slot_of(&self, id: TupleId) -> Option<usize> {
        let offset = id.0.checked_sub(self.head_id)?;
        if (offset as usize) < self.len {
            Some((self.head_slot + offset as usize) % self.capacity)
        } else {
            None
        }
    }

    /// Coordinates of a valid tuple.
    #[inline]
    pub fn coords(&self, id: TupleId) -> Option<&[f64]> {
        let slot = self.slot_of(id)?;
        Some(&self.buf[slot * self.dims..(slot + 1) * self.dims])
    }

    /// Arrival time of a valid tuple.
    #[inline]
    pub fn arrival_time(&self, id: TupleId) -> Option<Timestamp> {
        Some(Timestamp(self.times[self.slot_of(id)?]))
    }

    /// Appends a tuple and returns its id. Timestamps must be
    /// non-decreasing in arrival order (FIFO expiry depends on it).
    pub fn push(&mut self, coords: &[f64], ts: Timestamp) -> Result<TupleId> {
        if coords.len() != self.dims {
            return Err(TkmError::DimensionMismatch {
                expected: self.dims,
                got: coords.len(),
            });
        }
        debug_assert!(
            self.newest()
                .and_then(|id| self.arrival_time(id))
                .is_none_or(|newest| newest.0 <= ts.0),
            "arrival timestamps must be non-decreasing"
        );
        if self.len == self.capacity {
            self.grow_to(self.len + 1);
        }
        let slot = (self.head_slot + self.len) % self.capacity;
        self.buf[slot * self.dims..(slot + 1) * self.dims].copy_from_slice(coords);
        self.times[slot] = ts.0;
        let id = TupleId(self.head_id + self.len as u64);
        self.len += 1;
        Ok(id)
    }

    /// Appends a whole batch of tuples sharing one arrival timestamp —
    /// `coords` holds `dims` packed values per tuple — and returns the id
    /// of the first one (the batch takes the dense id range starting
    /// there). One capacity check and at most two block copies across the
    /// ring wrap, instead of a modulo and a `Result` per tuple. The
    /// timestamp must not precede the newest stored tuple's. A buffer
    /// that is not a whole number of tuples is a
    /// [`TkmError::DimensionMismatch`] whose `got` is the length of the
    /// trailing partial tuple; nothing is appended.
    pub fn append_batch(&mut self, coords: &[f64], ts: Timestamp) -> Result<TupleId> {
        if !coords.len().is_multiple_of(self.dims) {
            return Err(TkmError::DimensionMismatch {
                expected: self.dims,
                got: coords.len() % self.dims,
            });
        }
        debug_assert!(
            self.back_time().is_none_or(|newest| newest <= ts),
            "arrival timestamps must be non-decreasing"
        );
        let count = coords.len() / self.dims;
        if self.len + count > self.capacity {
            self.grow_to(self.len + count);
        }
        let tail = (self.head_slot + self.len) % self.capacity;
        let first = count.min(self.capacity - tail);
        let (before_wrap, after_wrap) = coords.split_at(first * self.dims);
        self.buf[tail * self.dims..(tail + first) * self.dims].copy_from_slice(before_wrap);
        self.buf[..after_wrap.len()].copy_from_slice(after_wrap);
        self.times[tail..tail + first].fill(ts.0);
        self.times[..count - first].fill(ts.0);
        let id = TupleId(self.head_id + self.len as u64);
        self.len += count;
        Ok(id)
    }

    /// Arrival time of the newest tuple.
    #[inline]
    pub fn back_time(&self) -> Option<Timestamp> {
        self.newest().and_then(|id| self.arrival_time(id))
    }

    /// The slot ranges of the `n` oldest tuples: the run from the head up
    /// to the ring wrap, then the run from slot 0.
    #[inline]
    fn front_ranges(&self, n: usize) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        debug_assert!(n <= self.len);
        let first = n.min(self.capacity - self.head_slot);
        (self.head_slot..self.head_slot + first, 0..n - first)
    }

    /// The packed coordinates of the `n` oldest tuples, in arrival order,
    /// as the (at most two) contiguous runs they occupy in the ring; the
    /// second slice is empty unless the run crosses the ring wrap.
    #[inline]
    fn front_coords(&self, n: usize) -> (&[f64], &[f64]) {
        let (a, b) = self.front_ranges(n);
        (
            &self.buf[a.start * self.dims..a.end * self.dims],
            &self.buf[..b.end * self.dims],
        )
    }

    /// Length of the prefix of tuples whose arrival time satisfies
    /// `expired`. Arrival times are non-decreasing in ring order, so for a
    /// predicate of the form "older than a cut-off" the prefix is found by
    /// binary search rather than by walking it.
    pub fn expired_prefix(&self, mut expired: impl FnMut(Timestamp) -> bool) -> usize {
        let (a, b) = self.front_ranges(self.len);
        let head_run = &self.times[a];
        let cut = head_run.partition_point(|&t| expired(Timestamp(t)));
        if cut < head_run.len() {
            return cut;
        }
        cut + self.times[b].partition_point(|&t| expired(Timestamp(t)))
    }

    /// Removes the `n` oldest tuples in one step.
    pub fn drop_front(&mut self, n: usize) {
        debug_assert!(n <= self.len);
        self.head_slot = (self.head_slot + n) % self.capacity;
        self.head_id += n as u64;
        self.len -= n;
        if self.len == 0 {
            self.head_slot = 0;
        }
    }

    /// Doubles capacity until `slots` tuples fit, re-linearising so the
    /// head moves to slot 0 (one reallocation however many doublings).
    fn grow_to(&mut self, slots: usize) {
        let mut new_capacity = (self.capacity * 2).max(4);
        while new_capacity < slots {
            new_capacity *= 2;
        }
        let (head_run, wrapped) = self.front_coords(self.len);
        let mut buf = Vec::with_capacity(new_capacity * self.dims);
        buf.extend_from_slice(head_run);
        buf.extend_from_slice(wrapped);
        buf.resize(new_capacity * self.dims, 0.0);
        let (head_run, wrapped) = self.front_ranges(self.len);
        let mut times = Vec::with_capacity(new_capacity);
        times.extend_from_slice(&self.times[head_run]);
        times.extend_from_slice(&self.times[wrapped]);
        times.resize(new_capacity, 0);
        self.buf = buf;
        self.times = times;
        self.capacity = new_capacity;
        self.head_slot = 0;
    }

    /// Iterates valid tuples in arrival order.
    pub fn iter(&self) -> RingIter<'_> {
        RingIter {
            ring: self,
            offset: 0,
        }
    }

    /// Deep size estimate in bytes.
    pub fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.buf.capacity() * std::mem::size_of::<f64>()
            + self.times.capacity() * std::mem::size_of::<u64>()
    }
}

/// Arrival-order iterator over `(id, coords)` pairs of a [`FlatRing`].
pub struct RingIter<'a> {
    ring: &'a FlatRing,
    offset: usize,
}

impl<'a> Iterator for RingIter<'a> {
    type Item = (TupleId, &'a [f64]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.offset >= self.ring.len {
            return None;
        }
        let id = TupleId(self.ring.head_id + self.offset as u64);
        let slot = (self.ring.head_slot + self.offset) % self.ring.capacity;
        self.offset += 1;
        Some((
            id,
            &self.ring.buf[slot * self.ring.dims..(slot + 1) * self.ring.dims],
        ))
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
    use proptest::prelude::*;

    /// Removes and returns the oldest tuple: the per-tuple reference the
    /// bulk operations are held to.
    fn pop_front(r: &mut FlatRing) -> Option<(TupleId, Vec<f64>)> {
        let front = r.iter().next().map(|(id, c)| (id, c.to_vec()))?;
        r.drop_front(1);
        Some(front)
    }

    #[test]
    fn rejects_bad_dims() {
        assert!(FlatRing::new(0, 4).is_err());
        assert!(FlatRing::new(MAX_DIMS + 1, 4).is_err());
        let mut r = FlatRing::new(2, 4).unwrap();
        assert!(r.push(&[0.0], Timestamp(0)).is_err());
    }

    #[test]
    fn push_pop_fifo() {
        let mut r = FlatRing::new(2, 2).unwrap();
        let a = r.push(&[0.1, 0.2], Timestamp(0)).unwrap();
        let b = r.push(&[0.3, 0.4], Timestamp(1)).unwrap();
        assert_eq!(a, TupleId(0));
        assert_eq!(b, TupleId(1));
        assert_eq!(pop_front(&mut r), Some((a, vec![0.1, 0.2])));
        assert_eq!(r.coords(a), None, "popped tuple is gone");
        assert_eq!(r.coords(b), Some(&[0.3, 0.4][..]));
        assert_eq!(pop_front(&mut r), Some((b, vec![0.3, 0.4])));
        assert_eq!(pop_front(&mut r), None);
    }

    #[test]
    fn growth_preserves_contents_and_wraps() {
        let mut r = FlatRing::new(3, 2).unwrap();
        // Interleave pushes and pops so head_slot is non-zero when growth
        // happens (exercises the re-linearisation).
        for i in 0..50u64 {
            r.push(&[i as f64, 0.5, 1.0 - i as f64 / 100.0], Timestamp(i))
                .unwrap();
            if i % 3 == 0 {
                pop_front(&mut r);
            }
        }
        let items: Vec<(TupleId, Vec<f64>)> = r.iter().map(|(id, c)| (id, c.to_vec())).collect();
        assert_eq!(items.len(), r.len());
        for (id, coords) in items {
            assert_eq!(coords[0], id.0 as f64);
            assert_eq!(r.coords(id).unwrap(), &coords[..]);
            assert_eq!(r.arrival_time(id), Some(Timestamp(id.0)));
        }
    }

    #[test]
    fn lookup_outside_window() {
        let mut r = FlatRing::new(1, 2).unwrap();
        r.push(&[0.5], Timestamp(0)).unwrap();
        assert_eq!(r.coords(TupleId(5)), None);
        pop_front(&mut r);
        assert_eq!(r.coords(TupleId(0)), None);
    }

    #[test]
    fn append_batch_rejects_misaligned_input() {
        let mut r = FlatRing::new(2, 4).unwrap();
        assert_eq!(
            r.append_batch(&[0.1, 0.2, 0.3], Timestamp(0)),
            Err(TkmError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        );
        assert!(r.is_empty(), "nothing appended");
        assert_eq!(r.append_batch(&[], Timestamp(0)), Ok(TupleId(0)));
        assert!(r.is_empty());
    }

    /// One call that must wrap around the end of the buffer, and one that
    /// must grow it by several doublings with a non-zero head.
    #[test]
    fn append_batch_wraps_and_grows() {
        let mut r = FlatRing::new(1, 8).unwrap();
        r.append_batch(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0], Timestamp(0))
            .unwrap();
        r.drop_front(5);
        // Slots 6, 7, then 0..3: straddles the wrap without growing.
        let first = r
            .append_batch(&[6.0, 7.0, 8.0, 9.0, 10.0], Timestamp(1))
            .unwrap();
        assert_eq!((first, r.capacity(), r.len()), (TupleId(6), 8, 6));
        assert_eq!(
            r.front_coords(6),
            (&[5.0, 6.0, 7.0][..], &[8.0, 9.0, 10.0][..])
        );
        // 6 + 30 tuples need 8 → 16 → 32 → 64.
        let burst: Vec<f64> = (11..41).map(f64::from).collect();
        r.append_batch(&burst, Timestamp(2)).unwrap();
        assert_eq!(r.capacity(), 64);
        for (offset, (id, coords)) in r.iter().enumerate() {
            assert_eq!(id, TupleId(5 + offset as u64));
            assert_eq!(coords, &[id.0 as f64]);
        }
        assert_eq!(r.arrival_time(TupleId(5)), Some(Timestamp(0)));
        assert_eq!(r.arrival_time(TupleId(10)), Some(Timestamp(1)));
        assert_eq!(r.back_time(), Some(Timestamp(2)));
        assert_eq!(r.expired_prefix(|t| t.0 < 2), 6);
    }

    proptest! {
        /// The bulk operations against the per-tuple ones they batch, with
        /// small initial capacities so batches wrap and grow.
        #[test]
        fn bulk_ops_match_per_tuple(
            initial in 1usize..6,
            steps in prop::collection::vec((0usize..20, 0usize..20), 1..30),
        ) {
            let mut bulk = FlatRing::new(2, initial).unwrap();
            let mut single = FlatRing::new(2, initial).unwrap();
            let mut base = 0u64;
            for (t, (push, pop)) in steps.iter().enumerate() {
                let ts = Timestamp(t as u64 / 2);
                let batch: Vec<f64> = (0..push * 2).map(|i| (base * 2) as f64 + i as f64).collect();
                prop_assert_eq!(bulk.append_batch(&batch, ts), Ok(TupleId(base)));
                for c in batch.chunks_exact(2) {
                    single.push(c, ts).unwrap();
                }
                base += *push as u64;
                // A time cut anywhere finds the prefix a front walk finds.
                for cut in 0..=ts.0 + 1 {
                    let walked = single
                        .iter()
                        .take_while(|(id, _)| single.arrival_time(*id).unwrap().0 < cut)
                        .count();
                    prop_assert_eq!(bulk.expired_prefix(|at| at.0 < cut), walked);
                }
                let pop = (*pop).min(bulk.len());
                let mut want = Vec::new();
                for _ in 0..pop {
                    want.extend(pop_front(&mut single).unwrap().1);
                }
                let (head_run, wrapped) = bulk.front_coords(pop);
                prop_assert_eq!([head_run, wrapped].concat(), want);
                bulk.drop_front(pop);
                prop_assert_eq!(bulk.len(), single.len());
                prop_assert_eq!(bulk.oldest(), single.oldest());
                prop_assert_eq!(bulk.back_time(), single.back_time());
                for ((id, coords), (want_id, want_coords)) in bulk.iter().zip(single.iter()) {
                    prop_assert_eq!(id, want_id);
                    prop_assert_eq!(coords, want_coords);
                    prop_assert_eq!(bulk.arrival_time(id), single.arrival_time(id));
                }
            }
        }

        #[test]
        fn ids_are_dense_and_fifo(pushes in 1usize..200, pop_every in 1usize..5) {
            let mut r = FlatRing::new(2, 1).unwrap();
            let mut popped = Vec::new();
            for i in 0..pushes {
                let id = r.push(&[i as f64, 0.0], Timestamp(i as u64)).unwrap();
                prop_assert_eq!(id, TupleId(i as u64));
                if i % pop_every == 0 {
                    if let Some((id, _)) = pop_front(&mut r) {
                        popped.push(id.0);
                    }
                }
            }
            // Popped ids are exactly a prefix of the id sequence.
            let expected: Vec<u64> = (0..popped.len() as u64).collect();
            prop_assert_eq!(popped, expected);
            // Remaining ids are contiguous.
            let remaining: Vec<u64> = r.iter().map(|(id, _)| id.0).collect();
            for pair in remaining.windows(2) {
                prop_assert_eq!(pair[1], pair[0] + 1);
            }
        }
    }
}
