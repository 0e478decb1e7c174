#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! Sliding-window tuple stores.
//!
//! The paper keeps all valid tuples in main memory in a single
//! first-in-first-out list (§4.1): new arrivals append at the tail, expired
//! tuples leave from the head, and this holds for both count-based and
//! time-based windows. This crate provides that storage layer:
//!
//! * [`FlatRing`] — the underlying ring buffer. Coordinates live in one flat
//!   `Vec<f64>` (stride = dimensionality); because tuple ids are dense
//!   arrival sequence numbers, `id → slot` is pure arithmetic and the score
//!   evaluation hot path performs no hashing.
//! * [`CountWindow`] — keeps the `N` most recent tuples.
//! * [`TimeWindow`] — keeps every tuple that arrived within the last `T`
//!   time units.
//! * [`SlabStore`] — the §7 *update stream* model with explicit deletions,
//!   where expiry order is unknown and lookups go through a hash map.

pub mod count;
pub mod ring;
pub mod slab;
pub mod time;

pub use count::CountWindow;
pub use ring::FlatRing;
pub use slab::SlabStore;
pub use time::TimeWindow;

use tkm_common::{Result, Timestamp, TkmError, TupleId};

/// Random access to the coordinates of valid tuples by id.
///
/// The top-k computation module is generic over this: sliding-window
/// engines resolve ids through the FIFO ring, the update-stream engine
/// through the slab store.
pub trait TupleLookup {
    /// Dimensionality of stored tuples.
    fn dims(&self) -> usize;
    /// Coordinates of a valid tuple, `None` if absent.
    fn coords(&self, id: TupleId) -> Option<&[f64]>;
    /// Number of valid tuples.
    fn len(&self) -> usize;
    /// Whether no tuples are valid.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TupleLookup for Window {
    fn dims(&self) -> usize {
        Window::dims(self)
    }
    fn coords(&self, id: TupleId) -> Option<&[f64]> {
        Window::coords(self, id)
    }
    fn len(&self) -> usize {
        Window::len(self)
    }
}

impl TupleLookup for SlabStore {
    fn dims(&self) -> usize {
        SlabStore::dims(self)
    }
    fn coords(&self, id: TupleId) -> Option<&[f64]> {
        SlabStore::coords(self, id)
    }
    fn len(&self) -> usize {
        SlabStore::len(self)
    }
}

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

/// A sliding window over the stream — count-based or time-based.
///
/// Both variants expire tuples strictly in arrival order, which the engines
/// (and the skyband reduction) rely on.
#[derive(Debug)]
pub enum Window {
    /// Count-based window.
    Count(CountWindow),
    /// Time-based window.
    Time(TimeWindow),
}

impl Window {
    /// Builds a window from its spec.
    pub fn new(dims: usize, spec: WindowSpec) -> Result<Window> {
        Ok(match spec {
            WindowSpec::Count(n) => Window::Count(CountWindow::new(dims, n)?),
            WindowSpec::Time(t) => Window::Time(TimeWindow::new(dims, t)?),
            WindowSpec::TimeSized { duration, capacity } => {
                Window::Time(TimeWindow::with_capacity(dims, duration, capacity)?)
            }
        })
    }

    /// Dimensionality of stored tuples.
    #[inline]
    pub fn dims(&self) -> usize {
        match self {
            Window::Count(w) => w.dims(),
            Window::Time(w) => w.dims(),
        }
    }

    /// Number of currently valid tuples.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Window::Count(w) => w.len(),
            Window::Time(w) => w.len(),
        }
    }

    /// Whether the window holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Coordinates of a valid tuple, `None` if expired or never inserted.
    #[inline]
    pub fn coords(&self, id: TupleId) -> Option<&[f64]> {
        match self {
            Window::Count(w) => w.coords(id),
            Window::Time(w) => w.coords(id),
        }
    }

    /// Arrival time of a valid tuple.
    #[inline]
    pub fn arrival_time(&self, id: TupleId) -> Option<Timestamp> {
        match self {
            Window::Count(w) => w.arrival_time(id),
            Window::Time(w) => w.arrival_time(id),
        }
    }

    /// Validates one processing cycle's input before anything is
    /// mutated — the single entry-point check shared by every engine's
    /// tick path (TMA/SMA via the ingest stage, threshold, TSL, the
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
        match self {
            Window::Count(w) => w.insert(coords, ts),
            Window::Time(w) => w.insert(coords, ts),
        }
    }

    /// Removes every tuple that is no longer valid at `now`, invoking
    /// `on_expire(id, coords)` for each in expiry (arrival) order.
    pub fn drain_expired(&mut self, now: Timestamp, on_expire: impl FnMut(TupleId, &[f64])) {
        match self {
            Window::Count(w) => w.drain_expired(on_expire),
            Window::Time(w) => w.drain_expired(now, on_expire),
        }
    }

    /// Appends a whole arrival batch sharing the timestamp `ts` (`dims`
    /// packed values per tuple); returns the id of its first tuple — the
    /// batch takes the dense id range starting there. `ts` must not
    /// precede [`Window::newest_time`].
    #[inline]
    pub fn append_batch(&mut self, coords: &[f64], ts: Timestamp) -> Result<TupleId> {
        match self {
            Window::Count(w) => w.append_batch(coords, ts),
            Window::Time(w) => w.append_batch(coords, ts),
        }
    }

    /// Number of oldest tuples no longer valid at `now` — the prefix
    /// [`Window::drain_expired`] would evict — computed without touching
    /// them. Paired with [`Window::drop_front`], this is the batch form of
    /// the drain.
    #[inline]
    pub fn expired_prefix(&self, now: Timestamp) -> usize {
        match self {
            Window::Count(w) => w.expired_prefix(),
            Window::Time(w) => w.expired_prefix(now),
        }
    }

    /// Removes the `n` oldest tuples in one step.
    #[inline]
    pub fn drop_front(&mut self, n: usize) {
        match self {
            Window::Count(w) => w.drop_front(n),
            Window::Time(w) => w.drop_front(n),
        }
    }

    /// Arrival time of the most recently inserted tuple.
    #[inline]
    pub fn newest_time(&self) -> Option<Timestamp> {
        match self {
            Window::Count(w) => w.newest_time(),
            Window::Time(w) => w.newest_time(),
        }
    }

    /// Oldest valid tuple id (the next to expire).
    #[inline]
    pub fn oldest(&self) -> Option<TupleId> {
        match self {
            Window::Count(w) => w.oldest(),
            Window::Time(w) => w.oldest(),
        }
    }

    /// Most recently inserted tuple id.
    #[inline]
    pub fn newest(&self) -> Option<TupleId> {
        match self {
            Window::Count(w) => w.newest(),
            Window::Time(w) => w.newest(),
        }
    }

    /// Iterates valid tuples in arrival order.
    pub fn iter(&self) -> ring::RingIter<'_> {
        match self {
            Window::Count(w) => w.iter(),
            Window::Time(w) => w.iter(),
        }
    }

    /// Deep size estimate in bytes (used by the space experiments).
    pub fn space_bytes(&self) -> usize {
        match self {
            Window::Count(w) => w.space_bytes(),
            Window::Time(w) => w.space_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_dispatch_roundtrip() {
        let mut w = Window::new(2, WindowSpec::Count(2)).unwrap();
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
        let w = Window::new(
            2,
            WindowSpec::TimeSized {
                duration: 3,
                capacity: 512,
            },
        )
        .unwrap();
        match &w {
            Window::Time(t) => assert_eq!(t.capacity(), 512),
            Window::Count(_) => panic!("TimeSized must build a time window"),
        }
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
        let mut w = Window::new(1, WindowSpec::Time(2)).unwrap();
        w.insert(&[0.1], Timestamp(0)).unwrap();
        w.insert(&[0.2], Timestamp(1)).unwrap();
        let mut gone = Vec::new();
        w.drain_expired(Timestamp(2), |id, _| gone.push(id));
        assert_eq!(gone, vec![TupleId(0)]);
        assert_eq!(w.len(), 1);
    }
}
