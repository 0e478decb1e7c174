//! Time-based sliding window: tuples younger than `T` ticks are valid.

use crate::ring::{FlatRing, RingIter};
use tkm_common::{Result, Timestamp, TkmError, TupleId, MAX_DIMS};

/// A time-based sliding window: a tuple inserted at time `t` is valid while
/// `now − t < duration`.
///
/// Because arrival timestamps are non-decreasing, expiry is FIFO here too —
/// the property every engine depends on.
#[derive(Debug)]
pub struct TimeWindow {
    ring: FlatRing,
    duration: u64,
}

impl TimeWindow {
    /// Ring slots pre-allocated when no capacity hint is given.
    const DEFAULT_CAPACITY: usize = 64;

    /// Creates a window keeping tuples for `duration` ticks, with a small
    /// default ring. High-rate streams should use
    /// [`TimeWindow::with_capacity`] so the warm-up phase does not pay a
    /// regrow-and-copy per doubling.
    pub fn new(dims: usize, duration: u64) -> Result<TimeWindow> {
        TimeWindow::with_capacity(dims, duration, Self::DEFAULT_CAPACITY)
    }

    /// Creates a window keeping tuples for `duration` ticks with room for
    /// `capacity` tuples before the first reallocation. The natural hint is
    /// `expected arrival rate × (duration + 1)` — a cycle's arrivals are
    /// buffered before its expiries drain — and the ring still grows beyond
    /// it if the stream bursts higher.
    pub fn with_capacity(dims: usize, duration: u64, capacity: usize) -> Result<TimeWindow> {
        if duration == 0 {
            return Err(TkmError::InvalidParameter(
                "TimeWindow: duration must be positive".into(),
            ));
        }
        Ok(TimeWindow {
            ring: FlatRing::new(dims, capacity.max(1))?,
            duration,
        })
    }

    /// Window length `T` in ticks.
    #[inline]
    pub fn duration(&self) -> u64 {
        self.duration
    }

    /// Tuples the ring can hold before the next reallocation.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Dimensionality of stored tuples.
    #[inline]
    pub fn dims(&self) -> usize {
        self.ring.dims()
    }

    /// Number of currently stored tuples.
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

    /// Appends a tuple; returns its arrival id. Timestamps must be
    /// non-decreasing across inserts.
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

    /// How many of the oldest tuples have reached the duration at `now`:
    /// what [`TimeWindow::drain_expired`] would evict. A binary search for
    /// the cut point on the non-decreasing arrival times.
    #[inline]
    pub fn expired_prefix(&self, now: Timestamp) -> usize {
        self.ring
            .expired_prefix(|arrived| now.since(arrived) >= self.duration)
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

    /// Evicts every tuple whose age at `now` reaches the duration,
    /// oldest first.
    pub fn drain_expired(&mut self, now: Timestamp, mut on_expire: impl FnMut(TupleId, &[f64])) {
        let mut scratch = [0.0f64; MAX_DIMS];
        let dims = self.ring.dims();
        while let Some(front) = self.ring.front_time() {
            if now.since(front) < self.duration {
                break;
            }
            let Some(id) = self.ring.pop_front_into(&mut scratch) else {
                break; // front_time returned Some, so the ring is non-empty
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
    fn rejects_zero_duration() {
        assert!(TimeWindow::new(2, 0).is_err());
        assert!(TimeWindow::with_capacity(2, 0, 128).is_err());
    }

    #[test]
    fn capacity_hint_presizes_the_ring() {
        let w = TimeWindow::new(2, 5).unwrap();
        assert_eq!(w.capacity(), 64, "default stays small");
        let w = TimeWindow::with_capacity(2, 5, 1000).unwrap();
        assert_eq!(w.capacity(), 1000);
        // A zero hint is clamped rather than rejected.
        let w = TimeWindow::with_capacity(2, 5, 0).unwrap();
        assert!(w.capacity() >= 1);
    }

    #[test]
    fn presized_ring_absorbs_rate_without_growth() {
        // rate × (duration + 1) tuples fit exactly (arrivals land before
        // expiries drain): no reallocation happens while the stream is
        // steady.
        let (rate, duration) = (50usize, 4u64);
        let mut w = TimeWindow::with_capacity(1, duration, rate * (duration as usize + 1)).unwrap();
        let cap0 = w.capacity();
        for tick in 0..20u64 {
            for i in 0..rate {
                w.insert(&[i as f64 / rate as f64], Timestamp(tick))
                    .unwrap();
            }
            w.drain_expired(Timestamp(tick), |_, _| {});
        }
        assert_eq!(w.capacity(), cap0, "steady state must not regrow");
    }

    #[test]
    fn grow_path_crosses_several_doublings() {
        // A deliberately tiny hint forces the ring through multiple
        // doublings (4 → 8 → … → 256) while tuples stay addressable.
        let mut w = TimeWindow::with_capacity(2, 1000, 4).unwrap();
        let mut growths = 0;
        let mut cap = w.capacity();
        for i in 0..200u64 {
            let x = (i as f64 / 200.0).clamp(0.0, 1.0);
            let id = w.insert(&[x, 1.0 - x], Timestamp(i)).unwrap();
            assert_eq!(id, TupleId(i));
            if w.capacity() != cap {
                growths += 1;
                cap = w.capacity();
            }
        }
        assert!(growths >= 5, "expected ≥5 doublings, saw {growths}");
        assert_eq!(w.len(), 200);
        for i in 0..200u64 {
            let x = (i as f64 / 200.0).clamp(0.0, 1.0);
            assert_eq!(w.coords(TupleId(i)).unwrap(), &[x, 1.0 - x][..]);
            assert_eq!(w.arrival_time(TupleId(i)), Some(Timestamp(i)));
        }
    }

    #[test]
    fn expiry_by_age() {
        let mut w = TimeWindow::new(1, 3).unwrap();
        w.insert(&[0.0], Timestamp(0)).unwrap();
        w.insert(&[1.0], Timestamp(1)).unwrap();
        w.insert(&[2.0], Timestamp(2)).unwrap();

        let mut gone = Vec::new();
        w.drain_expired(Timestamp(2), |id, _| gone.push(id.0));
        assert!(gone.is_empty(), "age 2 < duration 3, nothing expires");

        w.drain_expired(Timestamp(4), |id, _| gone.push(id.0));
        assert_eq!(gone, vec![0, 1], "ages 4 and 3 have expired");
        assert_eq!(w.len(), 1);
        assert_eq!(w.oldest(), Some(TupleId(2)));
    }

    #[test]
    fn variable_rate_stream() {
        // Bursty arrivals: the window size fluctuates with the rate,
        // which is exactly what distinguishes time from count windows.
        let mut w = TimeWindow::new(2, 10).unwrap();
        for tick in 0..30u64 {
            let burst = if tick % 3 == 0 { 5 } else { 1 };
            for _ in 0..burst {
                w.insert(&[0.5, 0.5], Timestamp(tick)).unwrap();
            }
            w.drain_expired(Timestamp(tick), |_, _| {});
            // All tuples are at most 10 ticks old.
            for (id, _) in w.iter() {
                assert!(tick.saturating_sub(w.arrival_time(id).unwrap().0) < 10);
            }
        }
        assert!(w.len() > 10, "several ticks' worth of tuples stay valid");
    }

    #[test]
    fn whole_window_can_expire() {
        let mut w = TimeWindow::new(1, 2).unwrap();
        w.insert(&[0.1], Timestamp(0)).unwrap();
        w.insert(&[0.2], Timestamp(0)).unwrap();
        let mut count = 0;
        w.drain_expired(Timestamp(100), |_, _| count += 1);
        assert_eq!(count, 2);
        assert!(w.is_empty());
        assert_eq!(w.oldest(), None);
    }
}
