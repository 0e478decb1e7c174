#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented
)]

//! The sliding-window tuple store.
//!
//! The paper keeps all valid tuples in main memory in a single
//! first-in-first-out list (§4.1): new arrivals append at the tail, expired
//! tuples leave from the head, and this holds for both count-based and
//! time-based windows. This crate is that list:
//!
//! * [`FlatRing`] — the ring buffer. Coordinates live in one flat
//!   `Vec<f64>` (stride = dimensionality); because tuple ids are dense
//!   arrival sequence numbers, `id → slot` is pure arithmetic and the score
//!   evaluation hot path performs no hashing.
//! * [`Window`] — one ring plus an expiry rule: keep the `N` most recent
//!   tuples, or every tuple that arrived within the last `T` time units.
//!   The rule decides only how long the expired prefix is; everything else
//!   is the ring.
//!
//! The §7 *update stream* model (explicit deletions, no expiry order) has
//! no list to keep: its tuples live only in the grid's id-indexed cells
//! (`tkm_grid::CellMode::Hash`).

pub mod ring;

pub use ring::FlatRing;

use tkm_common::{Result, Timestamp, TkmError, TupleId};

/// Which sliding-window semantics to instantiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowSpec {
    /// Keep the `N` most recent tuples.
    Count(usize),
    /// Keep tuples that arrived within the last `T` ticks (a tuple inserted
    /// at time `t` expires once `now − t ≥ T`).
    Time(u64),
    /// [`WindowSpec::Time`] with a ring-capacity hint: pre-allocates room
    /// for `capacity` tuples (expected arrival rate × duration) so
    /// high-rate streams skip the warm-up regrow-and-copy cascade.
    TimeSized {
        /// Window length `T` in ticks.
        duration: u64,
        /// Tuples to pre-allocate room for.
        capacity: usize,
    },
}

/// When a stored tuple stops being valid.
#[derive(Clone, Copy, Debug)]
enum Expiry {
    /// Beyond the `N` most recent.
    Count(usize),
    /// Once `now − arrival ≥ T`.
    Age(u64),
}

/// A sliding window over the stream — count-based or time-based.
///
/// Both kinds expire tuples strictly in arrival order (arrival timestamps
/// are non-decreasing, so age order is arrival order too), which the
/// engines (and the skyband reduction) rely on.
///
/// Arrivals are buffered without immediate eviction so that a processing
/// cycle can (as the paper's maintenance modules require) handle the arrival
/// set `P_ins` *before* the expiry set `P_del`: the length may transiently
/// exceed a count window's `N` between an append and the paired drain.
#[derive(Debug)]
pub struct Window {
    ring: FlatRing,
    expiry: Expiry,
}

impl Window {
    /// Ring slots a [`WindowSpec::Time`] window pre-allocates. High-rate
    /// streams should give a [`WindowSpec::TimeSized`] hint so the warm-up
    /// phase does not pay a regrow-and-copy per doubling.
    const DEFAULT_TIME_SLOTS: usize = 64;

    /// Builds a window from its spec. A [`WindowSpec::TimeSized`] capacity
    /// is a hint — the natural one is `expected arrival rate × (duration +
    /// 1)`, a cycle's arrivals being buffered before its expiries drain —
    /// and the ring still grows beyond it if the stream bursts higher; a
    /// zero hint is clamped rather than rejected.
    pub fn new(dims: usize, spec: WindowSpec) -> Result<Window> {
        let (expiry, slots) = match spec {
            // Headroom above `n` so that a cycle's arrivals fit before the
            // paired drain; the ring still grows if a cycle exceeds it.
            WindowSpec::Count(n) => (Expiry::Count(n), n + (n / 8).max(16)),
            WindowSpec::Time(t) => (Expiry::Age(t), Self::DEFAULT_TIME_SLOTS),
            WindowSpec::TimeSized { duration, capacity } => (Expiry::Age(duration), capacity),
        };
        if matches!(expiry, Expiry::Count(0) | Expiry::Age(0)) {
            return Err(TkmError::InvalidParameter(format!(
                "Window: size must be positive, got {spec:?}"
            )));
        }
        Ok(Window {
            ring: FlatRing::new(dims, slots)?,
            expiry,
        })
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

    /// Whether the window holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Tuples the ring can hold before the next reallocation.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Coordinates of a valid tuple, `None` if expired or never inserted.
    #[inline]
    pub fn coords(&self, id: TupleId) -> Option<&[f64]> {
        self.ring.coords(id)
    }

    /// Arrival time of a valid tuple.
    #[inline]
    pub fn arrival_time(&self, id: TupleId) -> Option<Timestamp> {
        self.ring.arrival_time(id)
    }

    /// Validates one processing cycle's input before anything is
    /// mutated — the single entry-point check shared by every engine's
    /// tick path (TMA, SMA and threshold via the ingest stage, TSL, the
    /// brute-force oracle), so all of them reject malformed input with
    /// the same error. The flat arrival buffer must hold whole tuples
    /// inside the unit workspace, and `now` must not precede the newest
    /// resident tuple's arrival time: expiry is FIFO only while arrival
    /// times are non-decreasing, so a regressing clock must be refused
    /// before it reaches the ring. Equal timestamps are fine.
    pub fn validate_tick(&self, now: Timestamp, arrivals: &[f64]) -> Result<()> {
        let dims = self.dims();
        if !arrivals.len().is_multiple_of(dims) {
            return Err(TkmError::InvalidParameter(format!(
                "tick: arrival buffer length {} is not a multiple of dims {dims}",
                arrivals.len()
            )));
        }
        if let Some(bad) = arrivals.iter().find(|x| !(0.0..=1.0).contains(*x)) {
            return Err(TkmError::InvalidParameter(format!(
                "tick: coordinate {bad} outside the unit workspace"
            )));
        }
        match self.newest_time() {
            Some(newest) if now < newest => Err(TkmError::InvalidParameter(format!(
                "tick: timestamp {now} is earlier than the newest tuple's arrival time {newest}"
            ))),
            _ => Ok(()),
        }
    }

    /// Appends a tuple; returns its arrival id. `ts` must not precede
    /// [`Window::newest_time`] (see [`Window::validate_tick`]).
    pub fn insert(&mut self, coords: &[f64], ts: Timestamp) -> Result<TupleId> {
        self.ring.push(coords, ts)
    }

    /// Removes every tuple that is no longer valid at `now`, invoking
    /// `on_expire(id, coords)` for each in expiry (arrival) order.
    pub fn drain_expired(&mut self, now: Timestamp, mut on_expire: impl FnMut(TupleId, &[f64])) {
        let expired = self.expired_prefix(now);
        for (id, coords) in self.ring.iter().take(expired) {
            on_expire(id, coords);
        }
        self.ring.drop_front(expired);
    }

    /// Appends a whole arrival batch sharing the timestamp `ts` (`dims`
    /// packed values per tuple); returns the id of its first tuple — the
    /// batch takes the dense id range starting there. `ts` must not
    /// precede [`Window::newest_time`]. See [`FlatRing::append_batch`].
    #[inline]
    pub fn append_batch(&mut self, coords: &[f64], ts: Timestamp) -> Result<TupleId> {
        self.ring.append_batch(coords, ts)
    }

    /// Number of oldest tuples no longer valid at `now` — the prefix
    /// [`Window::drain_expired`] would evict — computed without touching
    /// them: the overflow of a count window, a binary search for the cut
    /// point on the non-decreasing arrival times of a time window. Paired
    /// with [`Window::drop_front`], this is the batch form of the drain.
    #[inline]
    pub fn expired_prefix(&self, now: Timestamp) -> usize {
        match self.expiry {
            Expiry::Count(n) => self.ring.len().saturating_sub(n),
            Expiry::Age(t) => self.ring.expired_prefix(|arrived| now.since(arrived) >= t),
        }
    }

    /// Removes the `n` oldest tuples in one step.
    #[inline]
    pub fn drop_front(&mut self, n: usize) {
        self.ring.drop_front(n);
    }

    /// Arrival time of the most recently inserted tuple.
    #[inline]
    pub fn newest_time(&self) -> Option<Timestamp> {
        self.ring.back_time()
    }

    /// Oldest valid tuple id (the next to expire).
    #[inline]
    pub fn oldest(&self) -> Option<TupleId> {
        self.ring.oldest()
    }

    /// Most recently inserted tuple id.
    #[inline]
    pub fn newest(&self) -> Option<TupleId> {
        self.ring.newest()
    }

    /// Iterates valid tuples in arrival order.
    pub fn iter(&self) -> ring::RingIter<'_> {
        self.ring.iter()
    }

    /// Deep size estimate in bytes (used by the space experiments).
    pub fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>() - std::mem::size_of::<FlatRing>() + self.ring.space_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(dims: usize, n: usize) -> Window {
        Window::new(dims, WindowSpec::Count(n)).unwrap()
    }

    fn time(dims: usize, duration: u64) -> Window {
        Window::new(dims, WindowSpec::Time(duration)).unwrap()
    }

    fn time_sized(dims: usize, duration: u64, capacity: usize) -> Window {
        Window::new(dims, WindowSpec::TimeSized { duration, capacity }).unwrap()
    }

    #[test]
    fn insert_drain_roundtrip() {
        let mut w = count(2, 2);
        let a = w.insert(&[0.1, 0.2], Timestamp(0)).unwrap();
        let b = w.insert(&[0.3, 0.4], Timestamp(0)).unwrap();
        let c = w.insert(&[0.5, 0.6], Timestamp(1)).unwrap();
        let mut expired = Vec::new();
        w.drain_expired(Timestamp(1), |id, coords| {
            expired.push((id, coords.to_vec()));
        });
        assert_eq!(expired, vec![(a, vec![0.1, 0.2])]);
        assert_eq!(w.len(), 2);
        assert_eq!(w.oldest(), Some(b));
        assert_eq!(w.newest(), Some(c));
        assert_eq!(w.coords(a), None);
        assert_eq!(w.coords(c), Some(&[0.5, 0.6][..]));
    }

    #[test]
    fn time_sized_spec_presizes() {
        let w = time_sized(2, 3, 512);
        assert_eq!(w.capacity(), 512);
        assert_eq!(w.dims(), 2);
    }

    /// `expired_prefix` + `drop_front` is the batch form of
    /// `drain_expired`, on both window kinds (equal timestamps, a mass
    /// expiry and an empty cycle included).
    #[test]
    fn batch_drain_matches_per_tuple_drain() {
        for spec in [WindowSpec::Count(5), WindowSpec::Time(2)] {
            let mut batch = Window::new(1, spec).unwrap();
            let mut single = Window::new(1, spec).unwrap();
            let cycles: [(u64, &[f64]); 6] = [
                (0, &[0.1, 0.2, 0.3]),
                (0, &[0.4]),
                (1, &[0.5, 0.6, 0.7, 0.8]),
                (1, &[]),
                (9, &[0.9]),
                (20, &[]),
            ];
            for (ts, coords) in cycles {
                let now = Timestamp(ts);
                let first = batch.append_batch(coords, now).unwrap();
                for (i, c) in coords.iter().enumerate() {
                    let id = single.insert(&[*c], now).unwrap();
                    assert_eq!(id, TupleId(first.0 + i as u64));
                }
                assert_eq!(
                    batch.newest_time(),
                    single.newest().and_then(|id| single.arrival_time(id))
                );
                let mut want = Vec::new();
                single.drain_expired(now, |_, c| want.push(c[0]));
                let n = batch.expired_prefix(now);
                let front: Vec<f64> = batch.iter().take(n).map(|(_, c)| c[0]).collect();
                assert_eq!(front, want, "{spec:?} @{ts}");
                batch.drop_front(n);
                assert_eq!(batch.len(), single.len());
                assert_eq!(batch.oldest(), single.oldest());
                assert_eq!(batch.newest(), single.newest());
            }
            assert_eq!(batch.is_empty(), matches!(spec, WindowSpec::Time(_)));
        }
    }

    #[test]
    fn time_variant_expiry() {
        let mut w = time(1, 2);
        w.insert(&[0.1], Timestamp(0)).unwrap();
        w.insert(&[0.2], Timestamp(1)).unwrap();
        let mut gone = Vec::new();
        w.drain_expired(Timestamp(2), |id, _| gone.push(id));
        assert_eq!(gone, vec![TupleId(0)]);
        assert_eq!(w.len(), 1);
    }

    // ---- Count rule.

    #[test]
    fn rejects_zero_capacity() {
        assert!(Window::new(2, WindowSpec::Count(0)).is_err());
    }

    #[test]
    fn keeps_most_recent_n() {
        let mut w = count(1, 3);
        for i in 0..5u64 {
            w.insert(&[i as f64], Timestamp(i)).unwrap();
        }
        let mut expired = Vec::new();
        w.drain_expired(Timestamp(4), |id, c| expired.push((id.0, c[0])));
        assert_eq!(expired, vec![(0, 0.0), (1, 1.0)]);
        assert_eq!(w.len(), 3);
        assert_eq!(w.oldest(), Some(TupleId(2)));
        assert_eq!(w.newest(), Some(TupleId(4)));
    }

    #[test]
    fn steady_state_one_in_one_out() {
        let mut w = count(2, 100);
        for i in 0..100u64 {
            w.insert(&[0.5, 0.5], Timestamp(i)).unwrap();
        }
        for tick in 100..200u64 {
            w.insert(&[0.1, 0.9], Timestamp(tick)).unwrap();
            let mut count = 0;
            w.drain_expired(Timestamp(tick), |_, _| count += 1);
            assert_eq!(count, 1);
            assert_eq!(w.len(), 100);
        }
    }

    #[test]
    fn drain_noop_when_under_capacity() {
        let mut w = count(1, 10);
        w.insert(&[0.3], Timestamp(0)).unwrap();
        let mut count = 0;
        w.drain_expired(Timestamp(0), |_, _| count += 1);
        assert_eq!(count, 0);
        assert_eq!(w.len(), 1);
    }

    // ---- Age rule.

    #[test]
    fn rejects_zero_duration() {
        assert!(Window::new(2, WindowSpec::Time(0)).is_err());
        let sized = WindowSpec::TimeSized {
            duration: 0,
            capacity: 128,
        };
        assert!(Window::new(2, sized).is_err());
    }

    #[test]
    fn capacity_hint_presizes_the_ring() {
        assert_eq!(time(2, 5).capacity(), 64, "default stays small");
        assert_eq!(time_sized(2, 5, 1000).capacity(), 1000);
        // A zero hint is clamped rather than rejected.
        assert!(time_sized(2, 5, 0).capacity() >= 1);
    }

    #[test]
    fn presized_ring_absorbs_rate_without_growth() {
        // rate × (duration + 1) tuples fit exactly (arrivals land before
        // expiries drain): no reallocation happens while the stream is
        // steady.
        let (rate, duration) = (50usize, 4u64);
        let mut w = time_sized(1, duration, rate * (duration as usize + 1));
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
        let mut w = time_sized(2, 1000, 4);
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
        let mut w = time(1, 3);
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
        let mut w = time(2, 10);
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
        let mut w = time(1, 2);
        w.insert(&[0.1], Timestamp(0)).unwrap();
        w.insert(&[0.2], Timestamp(0)).unwrap();
        let mut count = 0;
        w.drain_expired(Timestamp(100), |_, _| count += 1);
        assert_eq!(count, 2);
        assert!(w.is_empty());
        assert_eq!(w.oldest(), None);
    }
}
