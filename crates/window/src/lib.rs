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
//! time-based windows. This crate splits that list into what it knows
//! about order and what it stores:
//!
//! * [`Timeline`] — the list without its tuples: the dense id range
//!   `[oldest, oldest + len)` (ids are arrival sequence numbers), the
//!   expiry rule (keep the `N` most recent tuples, or every tuple that
//!   arrived within the last `T` time units) and the arrival times the
//!   rule needs. It decides how long the expired prefix is; it holds no
//!   per-tuple storage.
//! * [`FlatRing`] — the tuples' coordinates in one flat `Vec<f64>`
//!   (stride = dimensionality), addressed by offset from the oldest.
//! * [`Window`] — a timeline plus a coordinate ring: the self-contained
//!   store that TSL and the brute-force oracle keep.
//!
//! The grid engines keep only the timeline: their tuples' coordinates
//! live once, in the grid's cells, and a ring of covering cells beside the
//! timeline is their FIFO list (`tkm_core::IngestState`). The §7 *update
//! stream* model (explicit deletions, no expiry order) has no list to
//! keep: its tuples live only in the grid's id-indexed cells
//! (`tkm_grid::CellMode::Hash`).

pub mod ring;

pub use ring::FlatRing;

use std::collections::VecDeque;

use tkm_common::{HeapBytes, Result, Timestamp, TkmError, TupleId};

/// Which sliding-window semantics to instantiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowSpec {
    /// Keep the `N` most recent tuples.
    Count(usize),
    /// Keep tuples that arrived within the last `T` ticks (a tuple inserted
    /// at time `t` expires once `now − t ≥ T`).
    Time(u64),
    /// [`WindowSpec::Time`] with a capacity hint: pre-allocates room for
    /// `capacity` tuples (expected arrival rate × duration) so high-rate
    /// streams skip the warm-up regrow-and-copy cascade.
    TimeSized {
        /// Window length `T` in ticks.
        duration: u64,
        /// Tuples to pre-allocate room for.
        capacity: usize,
    },
}

/// When a resident tuple stops being valid, with the arrival times the
/// rule reads.
#[derive(Debug)]
enum Expiry {
    /// Beyond the `n` most recent. Only the newest arrival time is kept:
    /// [`Timeline::validate_tick`] refuses a clock that runs back past it.
    Count { n: usize, newest: Option<Timestamp> },
    /// Once `now − arrival ≥ duration`. Arrival times as `(timestamp,
    /// tuples)` runs, oldest first: one entry per distinct timestamp in
    /// the window, not one per tuple.
    Age {
        duration: u64,
        runs: VecDeque<(Timestamp, usize)>,
    },
}

/// The order of a sliding window without its tuples: which dense id range
/// is resident, when those tuples arrived, and how many of the oldest
/// are no longer valid at a given time.
///
/// Both kinds expire tuples strictly in arrival order (arrival timestamps
/// are non-decreasing, so age order is arrival order too), which the
/// engines (and the skyband reduction) rely on.
///
/// Arrivals are appended without immediate eviction so that a processing
/// cycle can (as the paper's maintenance modules require) handle the arrival
/// set `P_ins` *before* the expiry set `P_del`: the length may transiently
/// exceed a count window's `N` between an append and the paired drop.
#[derive(Debug)]
pub struct Timeline {
    /// Id of the oldest resident tuple (`oldest + len` is the next id).
    oldest: u64,
    len: usize,
    expiry: Expiry,
}

impl Timeline {
    /// Builds the timeline of a window. A [`WindowSpec::TimeSized`] window
    /// pre-allocates a run per timestamp it can hold, at most one per
    /// hinted tuple; a zero size is an error.
    pub fn new(spec: WindowSpec) -> Result<Timeline> {
        let expiry = match spec {
            WindowSpec::Count(n) if n > 0 => Expiry::Count { n, newest: None },
            WindowSpec::Time(duration) if duration > 0 => Expiry::Age {
                duration,
                runs: VecDeque::new(),
            },
            WindowSpec::TimeSized { duration, capacity } if duration > 0 => {
                let runs = usize::try_from(duration.saturating_add(1)).unwrap_or(usize::MAX);
                Expiry::Age {
                    duration,
                    runs: VecDeque::with_capacity(runs.min(capacity)),
                }
            }
            _ => {
                return Err(TkmError::InvalidParameter(format!(
                    "Window: size must be positive, got {spec:?}"
                )))
            }
        };
        Ok(Timeline {
            oldest: 0,
            len: 0,
            expiry,
        })
    }

    /// Number of resident tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no tuple is resident.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Oldest resident tuple id (the next to expire).
    #[inline]
    pub fn oldest(&self) -> Option<TupleId> {
        (self.len > 0).then_some(TupleId(self.oldest))
    }

    /// Most recently appended resident tuple id.
    #[inline]
    pub fn newest(&self) -> Option<TupleId> {
        (self.len > 0).then(|| TupleId(self.oldest + self.len as u64 - 1))
    }

    /// Position of a resident tuple counted from the oldest, `None` if the
    /// id has expired or was never issued.
    #[inline]
    pub fn offset(&self, id: TupleId) -> Option<usize> {
        let offset = usize::try_from(id.0.checked_sub(self.oldest)?).ok()?;
        (offset < self.len).then_some(offset)
    }

    /// Arrival time of the newest resident tuple.
    #[inline]
    pub fn newest_time(&self) -> Option<Timestamp> {
        match &self.expiry {
            Expiry::Count { newest, .. } => *newest,
            Expiry::Age { runs, .. } => runs.back().map(|&(ts, _)| ts),
        }
    }

    /// Validates one processing cycle's input before anything is
    /// mutated — the single entry-point check shared by every engine's
    /// tick path (TMA, SMA and threshold via the ingest stage, TSL, the
    /// brute-force oracle), so all of them reject malformed input with
    /// the same error. The flat arrival buffer must hold whole
    /// `dims`-dimensional tuples inside the unit workspace, and `now` must
    /// not precede the newest resident tuple's arrival time: expiry is
    /// FIFO only while arrival times are non-decreasing, so a regressing
    /// clock must be refused before it reaches the window. Equal
    /// timestamps are fine.
    pub fn validate_tick(&self, dims: usize, now: Timestamp, arrivals: &[f64]) -> Result<()> {
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

    /// Appends `count` tuples arriving at `ts` and returns the first one's
    /// id: the batch takes the dense id range starting there. `ts` must
    /// not precede [`Timeline::newest_time`] (see
    /// [`Timeline::validate_tick`]).
    pub fn append(&mut self, count: usize, ts: Timestamp) -> TupleId {
        debug_assert!(
            self.newest_time().is_none_or(|newest| newest <= ts),
            "arrival timestamps must be non-decreasing"
        );
        let first = TupleId(self.oldest + self.len as u64);
        if count == 0 {
            return first;
        }
        self.len += count;
        match &mut self.expiry {
            Expiry::Count { newest, .. } => *newest = Some(ts),
            Expiry::Age { runs, .. } => match runs.back_mut() {
                Some((last, tuples)) if *last == ts => *tuples += count,
                _ => runs.push_back((ts, count)),
            },
        }
        first
    }

    /// Number of oldest tuples no longer valid at `now` — the prefix
    /// [`Timeline::drop_front`] is to remove — computed without touching
    /// any tuple: the overflow of a count window, the expired runs of a
    /// time window (one step per distinct timestamp that leaves).
    #[inline]
    pub fn expired_prefix(&self, now: Timestamp) -> usize {
        match &self.expiry {
            Expiry::Count { n, .. } => self.len.saturating_sub(*n),
            Expiry::Age { duration, runs } => runs
                .iter()
                .take_while(|(arrived, _)| now.since(*arrived) >= *duration)
                .map(|&(_, tuples)| tuples)
                .sum(),
        }
    }

    /// Removes the `n` oldest tuples in one step.
    pub fn drop_front(&mut self, n: usize) {
        debug_assert!(n <= self.len);
        self.oldest += n as u64;
        self.len -= n;
        if let Expiry::Age { runs, .. } = &mut self.expiry {
            let mut left = n;
            while left > 0 {
                let Some(front) = runs.front_mut() else { break };
                if front.1 > left {
                    front.1 -= left;
                    break;
                }
                left -= front.1;
                runs.pop_front();
            }
        }
    }
}

impl HeapBytes for Timeline {
    fn heap_bytes(&self) -> usize {
        match &self.expiry {
            Expiry::Count { .. } => 0,
            Expiry::Age { runs, .. } => runs.heap_bytes(),
        }
    }
}

/// A sliding window over the stream — count-based or time-based: a
/// [`Timeline`] and the coordinates of its resident tuples.
#[derive(Debug)]
pub struct Window {
    timeline: Timeline,
    ring: FlatRing,
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
        let timeline = Timeline::new(spec)?;
        let slots = match spec {
            // Headroom above `n` so that a cycle's arrivals fit before the
            // paired drain; the ring still grows if a cycle exceeds it.
            WindowSpec::Count(n) => n + (n / 8).max(16),
            WindowSpec::Time(_) => Self::DEFAULT_TIME_SLOTS,
            WindowSpec::TimeSized { capacity, .. } => capacity,
        };
        Ok(Window {
            timeline,
            ring: FlatRing::new(dims, slots)?,
        })
    }

    /// Dimensionality of stored tuples.
    #[inline]
    pub fn dims(&self) -> usize {
        self.ring.dims()
    }

    /// The window's ids, arrival times and expiry rule.
    #[inline]
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Number of currently stored tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.timeline.len()
    }

    /// Whether the window holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.timeline.is_empty()
    }

    /// Tuples the ring can hold before the next reallocation.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Coordinates of a valid tuple, `None` if expired or never inserted.
    #[inline]
    pub fn coords(&self, id: TupleId) -> Option<&[f64]> {
        self.ring.get(self.timeline.offset(id)?)
    }

    /// [`Timeline::validate_tick`] at this window's dimensionality.
    pub fn validate_tick(&self, now: Timestamp, arrivals: &[f64]) -> Result<()> {
        self.timeline.validate_tick(self.dims(), now, arrivals)
    }

    /// Appends a tuple; returns its arrival id. `ts` must not precede
    /// [`Timeline::newest_time`] (see [`Window::validate_tick`]).
    pub fn insert(&mut self, coords: &[f64], ts: Timestamp) -> Result<TupleId> {
        self.ring.push(coords)?;
        Ok(self.timeline.append(1, ts))
    }

    /// Removes every tuple that is no longer valid at `now`, invoking
    /// `on_expire(id, coords)` for each in expiry (arrival) order.
    pub fn drain_expired(&mut self, now: Timestamp, mut on_expire: impl FnMut(TupleId, &[f64])) {
        let expired = self.timeline.expired_prefix(now);
        for (id, coords) in self.iter().take(expired) {
            on_expire(id, coords);
        }
        self.timeline.drop_front(expired);
        self.ring.drop_front(expired);
    }

    /// Oldest valid tuple id (the next to expire).
    #[inline]
    pub fn oldest(&self) -> Option<TupleId> {
        self.timeline.oldest()
    }

    /// Most recently inserted tuple id.
    #[inline]
    pub fn newest(&self) -> Option<TupleId> {
        self.timeline.newest()
    }

    /// Iterates valid tuples in arrival order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (TupleId, &[f64])> + '_ {
        let oldest = self.timeline.oldest;
        self.ring
            .iter()
            .enumerate()
            .map(move |(offset, coords)| (TupleId(oldest + offset as u64), coords))
    }
}

impl HeapBytes for Window {
    fn heap_bytes(&self) -> usize {
        self.timeline.heap_bytes() + self.ring.heap_bytes()
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

    proptest::proptest! {
        /// The timeline against a per-tuple model — one arrival time per
        /// resident tuple, expiry by walking the front — under batched
        /// appends (empty ones and equal timestamps included), clock
        /// jumps that expire everything, and partial drops that split a
        /// timestamp run.
        #[test]
        fn timeline_matches_per_tuple_model(
            timed in proptest::prelude::any::<bool>(),
            size in 1usize..12,
            cycles in proptest::collection::vec((0u64..6, 0usize..9, 0usize..4), 1..40),
        ) {
            let spec = if timed { WindowSpec::Time(size as u64) } else { WindowSpec::Count(size) };
            let mut t = Timeline::new(spec).unwrap();
            let mut model: std::collections::VecDeque<(u64, Timestamp)> = Default::default();
            let (mut now, mut next) = (0u64, 0u64);
            for (dt, count, partial) in cycles {
                now += if dt < 4 { dt % 2 } else { dt * 3 };
                let now = Timestamp(now);
                proptest::prop_assert_eq!(t.append(count, now), TupleId(next));
                model.extend((next..next + count as u64).map(|id| (id, now)));
                next += count as u64;
                let want = if timed {
                    model.iter().take_while(|(_, at)| now.since(*at) >= size as u64).count()
                } else {
                    model.len().saturating_sub(size)
                };
                proptest::prop_assert_eq!(t.expired_prefix(now), want);
                // Drop the prefix in two steps: the first may end inside
                // a timestamp run.
                let first = partial.min(want);
                for n in [first, want - first] {
                    t.drop_front(n);
                    model.drain(..n);
                }
                proptest::prop_assert_eq!(t.len(), model.len());
                proptest::prop_assert_eq!(t.oldest(), model.front().map(|(id, _)| TupleId(*id)));
                proptest::prop_assert_eq!(t.newest(), model.back().map(|(id, _)| TupleId(*id)));
                proptest::prop_assert_eq!(t.newest_time(), model.back().map(|(_, at)| *at));
                // What the model still holds expires in arrival order.
                let later = Timestamp(now.0 + 1);
                let want = if timed {
                    model.iter().take_while(|(_, at)| later.since(*at) >= size as u64).count()
                } else {
                    0
                };
                proptest::prop_assert_eq!(t.expired_prefix(later), want);
            }
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
        // Each tuple's coordinate is its arrival tick.
        let mut w = time(1, 10);
        for tick in 0..30u64 {
            let burst = if tick % 3 == 0 { 5 } else { 1 };
            for _ in 0..burst {
                w.insert(&[tick as f64 / 30.0], Timestamp(tick)).unwrap();
            }
            w.drain_expired(Timestamp(tick), |_, _| {});
            // All tuples are at most 10 ticks old, and every younger one
            // is still there.
            let ages: Vec<u64> = w
                .iter()
                .map(|(_, c)| tick - (c[0] * 30.0).round() as u64)
                .collect();
            let want: usize = (tick.saturating_sub(9)..=tick)
                .map(|t| if t % 3 == 0 { 5 } else { 1 })
                .sum();
            assert!(ages.iter().all(|age| *age < 10), "@{tick}: {ages:?}");
            assert_eq!(w.len(), want, "@{tick}");
        }
        assert!(w.len() > 10, "several ticks' worth of tuples stay valid");
    }

    /// A time window keeps one `(timestamp, tuples)` run per distinct
    /// arrival time, split when a drop ends inside a run, and a count
    /// window keeps none: the timeline's heap follows the timestamps, not
    /// the tuples.
    #[test]
    fn timeline_keeps_runs_not_tuples() {
        let mut t = Timeline::new(WindowSpec::Time(3)).unwrap();
        assert_eq!(
            (t.append(4, Timestamp(0)), t.append(0, Timestamp(0))),
            (TupleId(0), TupleId(4))
        );
        assert_eq!(t.append(2, Timestamp(0)), TupleId(4));
        assert_eq!(t.append(3, Timestamp(2)), TupleId(6));
        assert_eq!(t.newest_time(), Some(Timestamp(2)));
        assert_eq!(
            (
                t.expired_prefix(Timestamp(2)),
                t.expired_prefix(Timestamp(3))
            ),
            (0, 6)
        );
        assert_eq!(t.expired_prefix(Timestamp(5)), 9);
        // A partial drop leaves the rest of the run in place.
        t.drop_front(5);
        assert_eq!(
            (t.oldest(), t.newest(), t.len()),
            (Some(TupleId(5)), Some(TupleId(8)), 4)
        );
        assert_eq!(t.expired_prefix(Timestamp(3)), 1);
        assert_eq!(
            (
                t.offset(TupleId(4)),
                t.offset(TupleId(5)),
                t.offset(TupleId(8))
            ),
            (None, Some(0), Some(3))
        );
        assert_eq!(t.offset(TupleId(9)), None, "never issued");
        t.drop_front(4);
        assert!(t.is_empty());
        assert_eq!(t.newest_time(), None, "an empty time window has no clock");
        assert_eq!(t.append(1, Timestamp(1)), TupleId(9), "ids stay dense");
        let runs = t.heap_bytes();
        assert!(runs > 0 && runs <= 4 * std::mem::size_of::<(Timestamp, usize)>());

        let mut c = Timeline::new(WindowSpec::Count(2)).unwrap();
        c.append(1000, Timestamp(7));
        assert_eq!(c.expired_prefix(Timestamp(7)), 998);
        c.drop_front(998);
        assert_eq!(
            (c.oldest(), c.newest_time()),
            (Some(TupleId(998)), Some(Timestamp(7)))
        );
        assert_eq!(c.heap_bytes(), 0);
    }

    /// A non-root counts no inline bytes: built empty, the timeline owns
    /// no heap, and a ring or window owns just its one-slot buffer.
    #[test]
    fn non_roots_count_no_inline_bytes() {
        let hollow = WindowSpec::TimeSized {
            duration: 2,
            capacity: 0,
        };
        let slot = 3 * std::mem::size_of::<f64>();
        let table = [
            (
                "Timeline/Count",
                Timeline::new(WindowSpec::Count(9)).unwrap().heap_bytes(),
                0,
            ),
            (
                "Timeline/Time",
                Timeline::new(WindowSpec::Time(2)).unwrap().heap_bytes(),
                0,
            ),
            (
                "Timeline/TimeSized",
                Timeline::new(hollow).unwrap().heap_bytes(),
                0,
            ),
            ("FlatRing", FlatRing::new(3, 0).unwrap().heap_bytes(), slot),
            ("Window", Window::new(3, hollow).unwrap().heap_bytes(), slot),
        ];
        for (name, heap, want) in table {
            assert_eq!(heap, want, "{name}");
        }
    }

    /// The unit-workspace check at its edges: −0.0 and subnormals are
    /// inside; NaN and both infinities are refused wherever they sit in
    /// the batch, the message names the first bad value even with a later
    /// one behind it, and nothing is stored — on both window kinds.
    #[test]
    fn hostile_coordinates_are_named_and_change_nothing() {
        let subnormal = f64::MIN_POSITIVE / 2.0;
        assert!(subnormal > 0.0 && !subnormal.is_normal());
        for mut w in [count(3, 5), time(3, 4)] {
            w.insert(&[0.1, 0.2, 0.3], Timestamp(1)).unwrap();
            let state = |w: &Window| (w.len(), w.oldest(), w.newest(), w.timeline().newest_time());
            let before = state(&w);
            let edges = [-0.0, subnormal, 1.0, 0.0, 5e-324, -0.0];
            assert_eq!(w.validate_tick(Timestamp(2), &edges), Ok(()));
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for at in [0, 4, 8] {
                    let mut batch = [0.5; 9];
                    batch[at] = bad;
                    if at < 8 {
                        batch[8] = 2.0;
                    }
                    let want = format!("tick: coordinate {bad} outside the unit workspace");
                    assert_eq!(
                        w.validate_tick(Timestamp(2), &batch),
                        Err(TkmError::InvalidParameter(want)),
                        "{bad} at {at}"
                    );
                    assert_eq!(state(&w), before, "{bad} at {at}");
                }
            }
        }
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
