//! Count-based sliding window: the `N` most recent tuples are valid.

use crate::ring::{FlatRing, RingIter};
use tkm_common::{Result, Timestamp, TkmError, TupleId, MAX_DIMS};

/// A count-based sliding window holding the `capacity` most recent tuples.
///
/// Arrivals are buffered without immediate eviction so that a processing
/// cycle can (as the paper's maintenance modules require) handle the arrival
/// set `P_ins` *before* the expiry set `P_del`; [`CountWindow::drain_expired`]
/// then evicts the overflow in FIFO order.
#[derive(Debug)]
pub struct CountWindow {
    ring: FlatRing,
    capacity: usize,
}

impl CountWindow {
    /// Creates a window keeping the `capacity` most recent tuples.
    pub fn new(dims: usize, capacity: usize) -> Result<CountWindow> {
        if capacity == 0 {
            return Err(TkmError::InvalidParameter(
                "CountWindow: capacity must be positive".into(),
            ));
        }
        // Headroom above `capacity` so that a cycle's arrivals fit before
        // the paired drain; the ring still grows if a cycle exceeds it.
        let initial = capacity + (capacity / 8).max(16);
        Ok(CountWindow {
            ring: FlatRing::new(dims, initial)?,
            capacity,
        })
    }

    /// Window capacity `N`.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Dimensionality of stored tuples.
    #[inline]
    pub fn dims(&self) -> usize {
        self.ring.dims()
    }

    /// Number of currently stored tuples (may transiently exceed capacity
    /// between `insert` and `drain_expired`).
    #[inline]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the window is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Coordinates of a valid tuple.
    #[inline]
    pub fn coords(&self, id: TupleId) -> Option<&[f64]> {
        self.ring.coords(id)
    }

    /// Arrival time of a valid tuple.
    #[inline]
    pub fn arrival_time(&self, id: TupleId) -> Option<Timestamp> {
        self.ring.arrival_time(id)
    }

    /// Appends a tuple; returns its arrival id.
    pub fn insert(&mut self, coords: &[f64], ts: Timestamp) -> Result<TupleId> {
        self.ring.push(coords, ts)
    }

    /// Appends a batch of tuples sharing one timestamp (`dims` packed
    /// values apiece); returns the first one's id. See
    /// [`FlatRing::append_batch`].
    #[inline]
    pub fn append_batch(&mut self, coords: &[f64], ts: Timestamp) -> Result<TupleId> {
        self.ring.append_batch(coords, ts)
    }

    /// How many of the oldest tuples overflow the capacity: what
    /// [`CountWindow::drain_expired`] would evict.
    #[inline]
    pub fn expired_prefix(&self) -> usize {
        self.ring.len().saturating_sub(self.capacity)
    }

    /// Removes the `n` oldest tuples in one step.
    #[inline]
    pub fn drop_front(&mut self, n: usize) {
        self.ring.drop_front(n);
    }

    /// Arrival time of the newest tuple.
    #[inline]
    pub fn newest_time(&self) -> Option<Timestamp> {
        self.ring.back_time()
    }

    /// Evicts tuples beyond the capacity, oldest first.
    pub fn drain_expired(&mut self, mut on_expire: impl FnMut(TupleId, &[f64])) {
        let mut scratch = [0.0f64; MAX_DIMS];
        let dims = self.ring.dims();
        while self.ring.len() > self.capacity {
            let Some(id) = self.ring.pop_front_into(&mut scratch) else {
                break; // len > capacity >= 1, so the ring cannot be empty
            };
            on_expire(id, &scratch[..dims]);
        }
    }

    /// Oldest valid tuple id.
    #[inline]
    pub fn oldest(&self) -> Option<TupleId> {
        self.ring.oldest()
    }

    /// Newest valid tuple id.
    #[inline]
    pub fn newest(&self) -> Option<TupleId> {
        self.ring.newest()
    }

    /// Iterates valid tuples in arrival order.
    pub fn iter(&self) -> RingIter<'_> {
        self.ring.iter()
    }

    /// Deep size estimate in bytes.
    pub fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>() - std::mem::size_of::<FlatRing>() + self.ring.space_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_capacity() {
        assert!(CountWindow::new(2, 0).is_err());
    }

    #[test]
    fn keeps_most_recent_n() {
        let mut w = CountWindow::new(1, 3).unwrap();
        for i in 0..5u64 {
            w.insert(&[i as f64], Timestamp(i)).unwrap();
        }
        let mut expired = Vec::new();
        w.drain_expired(|id, c| expired.push((id.0, c[0])));
        assert_eq!(expired, vec![(0, 0.0), (1, 1.0)]);
        assert_eq!(w.len(), 3);
        assert_eq!(w.oldest(), Some(TupleId(2)));
        assert_eq!(w.newest(), Some(TupleId(4)));
    }

    #[test]
    fn steady_state_one_in_one_out() {
        let mut w = CountWindow::new(2, 100).unwrap();
        for i in 0..100u64 {
            w.insert(&[0.5, 0.5], Timestamp(i)).unwrap();
        }
        for tick in 100..200u64 {
            w.insert(&[0.1, 0.9], Timestamp(tick)).unwrap();
            let mut count = 0;
            w.drain_expired(|_, _| count += 1);
            assert_eq!(count, 1);
            assert_eq!(w.len(), 100);
        }
    }

    #[test]
    fn drain_noop_when_under_capacity() {
        let mut w = CountWindow::new(1, 10).unwrap();
        w.insert(&[0.3], Timestamp(0)).unwrap();
        let mut count = 0;
        w.drain_expired(|_, _| count += 1);
        assert_eq!(count, 0);
        assert_eq!(w.len(), 1);
    }
}
