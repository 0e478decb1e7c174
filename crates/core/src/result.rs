//! Bounded top-k result lists.
//!
//! TMA stores, per query, the exact current top-k set ordered best-first
//! (`q.top_list` in the paper, with `q.top_score` = score of its k-th
//! element). The list is tiny (k ≤ a few hundred), so a sorted vector with
//! binary-search insertion is the right structure.

use tkm_common::{HeapBytes, OrderedF64, QueryId, Scored, TupleId};

/// Entries a [`DeltaList`] holds without touching the heap. A cycle moves
/// a result by a tuple or three (98 % of the lists on the benchmark's
/// `steady` workload, all of them on `serve`), so this is what keeps a
/// changed query from costing two `malloc`s.
const INLINE: usize = 3;

#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [Scored; INLINE] },
    Heap(Vec<Scored>),
}

/// One side of a [`ResultDelta`]: a best-first run of scored tuples,
/// stored inline up to three entries and in a `Vec` beyond. Reads like a
/// slice (`Deref<Target = [Scored]>`) and compares equal to any slice or
/// `Vec` with the same entries, whichever representation holds them.
#[derive(Clone)]
pub struct DeltaList(Repr);

impl DeltaList {
    /// An empty list (no allocation).
    #[inline]
    pub fn new() -> DeltaList {
        DeltaList(Repr::Inline {
            len: 0,
            buf: [Scored::new(0.0, TupleId(0)); INLINE],
        })
    }

    /// Appends an entry, spilling to the heap on the fourth.
    #[inline]
    pub fn push(&mut self, entry: Scored) {
        self.push_within(entry, INLINE + 1);
    }

    /// Appends an entry that at most `more` further entries follow: a
    /// spill to the heap reserves room for all of them at once.
    #[inline]
    fn push_within(&mut self, entry: Scored, more: usize) {
        match &mut self.0 {
            Repr::Inline { len, buf } if usize::from(*len) < INLINE => {
                buf[usize::from(*len)] = entry;
                *len += 1;
            }
            Repr::Inline { .. } => self.spill(&[entry], more),
            Repr::Heap(v) => v.push(entry),
        }
    }

    /// Moves a full inline list to the heap, appending `entries`, with
    /// room for `more` further entries.
    #[cold]
    fn spill(&mut self, entries: &[Scored], more: usize) {
        let mut spilled = Vec::with_capacity(self.len() + entries.len() + more);
        spilled.extend_from_slice(self);
        spilled.extend_from_slice(entries);
        self.0 = Repr::Heap(spilled);
    }

    /// Appends every entry of `entries`, spilling at most once.
    pub fn extend_from_slice(&mut self, entries: &[Scored]) {
        for (i, e) in entries.iter().enumerate() {
            if let Repr::Heap(v) = &mut self.0 {
                v.extend_from_slice(&entries[i..]);
                return;
            }
            self.push_within(*e, entries.len() - i - 1);
        }
    }
}

impl Default for DeltaList {
    fn default() -> DeltaList {
        DeltaList::new()
    }
}

impl std::ops::Deref for DeltaList {
    type Target = [Scored];
    #[inline]
    fn deref(&self) -> &[Scored] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }
}

impl<'a> IntoIterator for &'a DeltaList {
    type Item = &'a Scored;
    type IntoIter = std::slice::Iter<'a, Scored>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<Vec<Scored>> for DeltaList {
    fn from(entries: Vec<Scored>) -> DeltaList {
        if entries.len() > INLINE {
            return DeltaList(Repr::Heap(entries));
        }
        let mut list = DeltaList::new();
        list.extend_from_slice(&entries);
        list
    }
}

impl PartialEq for DeltaList {
    fn eq(&self, other: &DeltaList) -> bool {
        **self == **other
    }
}

impl Eq for DeltaList {}

impl PartialEq<Vec<Scored>> for DeltaList {
    fn eq(&self, other: &Vec<Scored>) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for DeltaList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The change of one query's result across a processing cycle — the
/// "changes reported to the client" of Figures 9 and 11.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResultDelta {
    /// The query whose result changed.
    pub query: QueryId,
    /// Tuples that entered the top-k, best first.
    pub added: DeltaList,
    /// Tuples that left the top-k, best first.
    pub removed: DeltaList,
}

impl ResultDelta {
    /// Whether nothing actually changed.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Applies this delta to a client-side mirror of the result list,
    /// keeping it best-first.
    ///
    /// This is the inverse of [`ResultDelta::diff`]: a subscriber that
    /// starts from a snapshot of `result()` and applies every subsequent
    /// delta in order reconstructs `result()` exactly (the contract pinned
    /// by `tests/delta_replay.rs` and relied on by the `tkm_service` wire
    /// protocol). Removals that are not present and additions that already
    /// are leave the mirror unchanged, so re-applying a delta after a
    /// snapshot resync is harmless.
    pub fn apply(&self, mirror: &mut Vec<Scored>) {
        for gone in &self.removed {
            if let Some(pos) = mirror.iter().position(|e| e == gone) {
                mirror.remove(pos);
            }
        }
        for fresh in &self.added {
            let pos = mirror.partition_point(|e| e > fresh);
            if mirror.get(pos) != Some(fresh) {
                mirror.insert(pos, *fresh);
            }
        }
    }

    /// Diffs two best-first result lists. Scores are immutable per tuple,
    /// so the common prefix is skipped by tuple id and a single merge pass
    /// over the rest suffices.
    pub fn diff(query: QueryId, old: &[Scored], new: &[Scored]) -> ResultDelta {
        let mut delta = ResultDelta {
            query,
            added: DeltaList::new(),
            removed: DeltaList::new(),
        };
        let same = common_prefix(old, new);
        delta.fill(&old[same..], &new[same..]);
        delta
    }

    /// The one diff routine behind [`ResultDelta::diff`] and
    /// [`ResultDelta::report`]: appends to `added` the entries of `new`
    /// that `old` lacks and to `removed` those of `old` that `new` lacks,
    /// both best first, in one merge pass. A side that spills to the heap
    /// reserves room for every entry that may still follow, so it
    /// allocates once.
    #[inline]
    fn fill(&mut self, old: &[Scored], new: &[Scored]) {
        debug_assert!(old.windows(2).all(|w| w[0] > w[1]));
        debug_assert!(new.windows(2).all(|w| w[0] > w[1]));
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < new.len() {
            match new[j].cmp(&old[i]) {
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Greater => {
                    self.added.push_within(new[j], new.len() - j - 1);
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    self.removed.push_within(old[i], old.len() - i - 1);
                    i += 1;
                }
            }
        }
        self.added.extend_from_slice(&new[j..]);
        self.removed.extend_from_slice(&old[i..]);
    }

    /// The reporting step every engine ends a cycle with for a query whose
    /// result may have moved: diffs `current` against the query's
    /// last-reported result `reported`, and when they differ appends the
    /// delta to `out` — built in place there, by the routine behind
    /// [`ResultDelta::diff`] — and refreshes `reported` in place (a copy of
    /// what follows the common prefix into the buffer it already owns).
    pub fn report(
        query: QueryId,
        reported: &mut Vec<Scored>,
        current: &[Scored],
        out: &mut Vec<ResultDelta>,
    ) {
        let same = common_prefix(reported, current);
        if same == reported.len() && same == current.len() {
            return;
        }
        out.push(ResultDelta {
            query,
            added: DeltaList::new(),
            removed: DeltaList::new(),
        });
        if let Some(delta) = out.last_mut() {
            delta.fill(&reported[same..], &current[same..]);
            debug_assert!(!delta.is_empty(), "lists that differ after a prefix");
        }
        reported.truncate(same);
        reported.extend_from_slice(&current[same..]);
    }
}

/// Length of the longest common prefix of two best-first result lists,
/// compared by tuple id alone: a tuple's score never changes.
#[inline]
fn common_prefix(old: &[Scored], new: &[Scored]) -> usize {
    let same = old
        .iter()
        .zip(new)
        .take_while(|(a, b)| a.id == b.id)
        .count();
    debug_assert_eq!(old[..same], new[..same]);
    same
}

/// A best-first list of at most `k` scored tuples.
///
/// The [`Default`] value is a hollow placeholder (`k = 0`, no buffers) used
/// only as the swap-out value when an engine recycles a query's previous
/// result list into a recomputation (`std::mem::take`); it is never
/// offered to.
#[derive(Clone, Debug, Default)]
pub struct TopList {
    k: usize,
    entries: Vec<Scored>,
    /// Evicted/rejected boundary candidates collected by the computation
    /// module when tie tracking is enabled (see `compute`).
    pub(crate) pool: Vec<Scored>,
    track_ties: bool,
}

impl TopList {
    /// Creates an empty list with capacity `k ≥ 1`.
    pub fn new(k: usize) -> TopList {
        debug_assert!(k > 0);
        TopList {
            k,
            entries: Vec::with_capacity(k),
            pool: Vec::new(),
            track_ties: false,
        }
    }

    /// Creates a list that additionally collects candidates displaced at
    /// the k-th boundary (needed by SMA's skyband seeding under ties).
    pub(crate) fn with_tie_tracking(k: usize) -> TopList {
        let mut t = TopList::new(k);
        t.track_ties = true;
        t
    }

    /// Re-initialises the list for a fresh computation, keeping the entry
    /// and pool buffers (the engines recompute thousands of queries per
    /// tick; recycling the old result's allocation keeps that loop free of
    /// `malloc`).
    pub fn reset(&mut self, k: usize, track_ties: bool) {
        debug_assert!(k > 0);
        self.k = k;
        self.track_ties = track_ties;
        self.entries.clear();
        self.pool.clear();
        self.entries.reserve(k);
    }

    /// Result size bound.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Current number of entries (≤ k).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the list holds `k` entries.
    #[inline]
    pub(crate) fn is_full(&self) -> bool {
        self.entries.len() >= self.k
    }

    /// The entries, best first.
    #[inline]
    pub fn as_slice(&self) -> &[Scored] {
        &self.entries
    }

    /// The k-th (worst retained) entry when full.
    #[inline]
    pub fn kth(&self) -> Option<Scored> {
        self.is_full().then(|| self.entries[self.k - 1])
    }

    /// The score below which a tuple cannot affect the result
    /// (`q.top_score`): the k-th score when full, −∞ otherwise.
    #[inline]
    pub fn threshold(&self) -> f64 {
        self.kth().map_or(f64::NEG_INFINITY, |s| s.score.get())
    }

    /// Whether a tuple id is present (O(k) scan).
    pub fn contains(&self, id: TupleId) -> bool {
        self.entries.iter().any(|e| e.id == id)
    }

    /// Offers a candidate; inserts it if it belongs in the top-k, evicting
    /// the current k-th if full. Returns `true` when the list changed.
    pub(crate) fn offer(&mut self, s: Scored) -> bool {
        if self.is_full() {
            let worst = self.entries[self.k - 1];
            if s <= worst {
                // Rejected at the boundary: remember exact score ties for
                // skyband seeding.
                if self.track_ties && s.score == worst.score {
                    self.pool.push(s);
                }
                return false;
            }
            let pos = self.entries.partition_point(|e| *e > s);
            self.entries.insert(pos, s);
            if let Some(evicted) = self.entries.pop() {
                if self.track_ties {
                    self.pool.push(evicted);
                    self.prune_pool();
                }
            }
            true
        } else {
            let pos = self.entries.partition_point(|e| *e > s);
            self.entries.insert(pos, s);
            true
        }
    }

    /// Removes an entry by id; returns `true` if present.
    pub fn remove(&mut self, id: TupleId) -> bool {
        match self.entries.iter().position(|e| e.id == id) {
            Some(pos) => {
                self.entries.remove(pos);
                true
            }
            None => false,
        }
    }

    /// Clears entries (and the tie pool).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.pool.clear();
    }

    /// Appends the boundary ties — candidates outside the top-k whose score
    /// equals the k-th score — to `out`, best first (only meaningful with
    /// tie tracking). A traversal offers each tuple once, so the appended
    /// run is strictly descending; following [`TopList::as_slice`] in one
    /// buffer it continues that best-first list, which is the seed a
    /// skyband rebuild wants.
    pub fn append_boundary_ties(&self, out: &mut Vec<Scored>) {
        let Some(kth) = self.kth() else {
            return;
        };
        let start = out.len();
        out.extend(self.pool.iter().filter(|s| s.score == kth.score));
        out[start..].sort_unstable_by(|a, b| b.cmp(a));
        debug_assert!(out[start..].windows(2).all(|w| w[0] > w[1]));
    }

    /// Keeps the tie pool from growing past O(k) by discarding candidates
    /// that can no longer tie the k-th score.
    fn prune_pool(&mut self) {
        if self.pool.len() > 4 * self.k + 16 {
            let kth_score: OrderedF64 = self.entries[self.k - 1].score;
            self.pool.retain(|s| s.score >= kth_score);
        }
    }
}

impl HeapBytes for TopList {
    fn heap_bytes(&self) -> usize {
        self.entries.heap_bytes() + self.pool.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn s(score: f64, id: u64) -> Scored {
        Scored::new(score, TupleId(id))
    }

    fn ties_of(t: &TopList) -> Vec<Scored> {
        let mut ties = Vec::new();
        t.append_boundary_ties(&mut ties);
        ties
    }

    #[test]
    fn delta_diff_cases() {
        let q = QueryId(1);
        // Identical lists → empty delta.
        let a = [s(0.9, 0), s(0.5, 1)];
        let d = ResultDelta::diff(q, &a, &a);
        assert!(d.is_empty());

        // Replacement in the middle.
        let b = [s(0.9, 0), s(0.7, 2)];
        let d = ResultDelta::diff(q, &a, &b);
        assert_eq!(d.added, vec![s(0.7, 2)]);
        assert_eq!(d.removed, vec![s(0.5, 1)]);

        // Growth from empty and shrink to empty.
        let d = ResultDelta::diff(q, &[], &a);
        assert_eq!(d.added, a.to_vec());
        assert!(d.removed.is_empty());
        let d = ResultDelta::diff(q, &a, &[]);
        assert_eq!(d.removed, a.to_vec());

        // Same score, different tuple (tie replacement by age).
        let c = [s(0.9, 0), s(0.5, 3)];
        let d = ResultDelta::diff(q, &a, &c);
        assert_eq!(d.added, vec![s(0.5, 3)]);
        assert_eq!(d.removed, vec![s(0.5, 1)]);
    }

    #[test]
    fn apply_inverts_diff() {
        let q = QueryId(0);
        let old = vec![s(0.9, 0), s(0.5, 1), s(0.3, 2)];
        let new = vec![s(0.9, 0), s(0.7, 4), s(0.5, 3)];
        let delta = ResultDelta::diff(q, &old, &new);
        let mut mirror = old.clone();
        delta.apply(&mut mirror);
        assert_eq!(mirror, new);

        // Idempotent: re-applying after a resync changes nothing.
        delta.apply(&mut mirror);
        assert_eq!(mirror, new);

        // From empty and to empty.
        let mut mirror = Vec::new();
        ResultDelta::diff(q, &[], &new).apply(&mut mirror);
        assert_eq!(mirror, new);
        ResultDelta::diff(q, &new, &[]).apply(&mut mirror);
        assert!(mirror.is_empty());
    }

    /// The inline → heap spill sits between three and four entries; both
    /// representations must behave as the same list.
    #[test]
    fn delta_list_spill_boundary() {
        let q = QueryId(7);
        for n in [0usize, 1, 3, 4, 9] {
            let old: Vec<Scored> = (0..n)
                .map(|i| s(0.9 - i as f64 / 100.0, i as u64))
                .collect();
            let new: Vec<Scored> = (0..n)
                .map(|i| s(0.5 - i as f64 / 100.0, (n + i) as u64))
                .collect();
            // Disjoint lists: `n` entries on each side of the delta.
            let delta = ResultDelta::diff(q, &old, &new);
            assert_eq!(delta.added, new, "n = {n}");
            assert_eq!(delta.removed, old, "n = {n}");
            assert_eq!(delta.added.len(), n);
            assert_eq!(delta.is_empty(), n == 0);
            let mut mirror = old.clone();
            delta.apply(&mut mirror);
            assert_eq!(mirror, new, "diff/apply round trip at n = {n}");

            // Clone, equality against Vec and slice, and the Vec
            // conversion agree whichever side of the spill they sit on.
            let copy = delta.clone();
            assert_eq!(copy, delta);
            assert_eq!(DeltaList::from(new.clone()), delta.added);
            assert_eq!(delta.added[..], new[..]);
            assert_eq!((&delta.added).into_iter().count(), n);
            assert_eq!(format!("{:?}", delta.added), format!("{new:?}"));
        }

        // Pushing across the boundary keeps order and earlier entries.
        let mut list = DeltaList::default();
        for i in 0..5u64 {
            list.push(s(1.0 - i as f64 / 10.0, i));
            assert_eq!(list.len(), i as usize + 1);
            assert_eq!(list[0], s(1.0, 0));
            assert_eq!(list.last(), Some(&s(1.0 - i as f64 / 10.0, i)));
        }
        assert_ne!(list, DeltaList::new());
        // A short list converted from a `Vec` equals the pushed one.
        let short = vec![s(1.0, 0), s(0.9, 1)];
        assert_eq!(DeltaList::from(short)[..], list[..2]);
    }

    #[test]
    fn report_refreshes_the_baseline_only_on_change() {
        let q = QueryId(3);
        let mut reported = vec![s(0.9, 0), s(0.5, 1)];
        let mut out = Vec::new();
        ResultDelta::report(q, &mut reported, &[s(0.9, 0), s(0.5, 1)], &mut out);
        assert!(out.is_empty(), "unchanged result reports nothing");
        let current = [s(0.9, 0), s(0.7, 2)];
        ResultDelta::report(q, &mut reported, &current, &mut out);
        assert_eq!(out, vec![ResultDelta::diff(q, &[s(0.5, 1)], &[s(0.7, 2)])]);
        assert_eq!(reported, current);
        ResultDelta::report(q, &mut reported, &current, &mut out);
        assert_eq!(out.len(), 1, "reported once");
    }

    #[test]
    fn keeps_best_k() {
        let mut t = TopList::new(2);
        assert!(t.offer(s(0.3, 0)));
        assert!(t.offer(s(0.5, 1)));
        assert!(t.is_full());
        assert!(t.offer(s(0.4, 2)), "displaces the 0.3");
        assert!(!t.offer(s(0.2, 3)));
        let scores: Vec<f64> = t.as_slice().iter().map(|e| e.score.get()).collect();
        assert_eq!(scores, vec![0.5, 0.4]);
        assert_eq!(t.threshold(), 0.4);
    }

    #[test]
    fn threshold_is_neg_infinity_until_full() {
        let mut t = TopList::new(3);
        assert_eq!(t.threshold(), f64::NEG_INFINITY);
        t.offer(s(0.9, 0));
        assert_eq!(t.threshold(), f64::NEG_INFINITY);
        assert_eq!(t.kth(), None);
    }

    #[test]
    fn tie_goes_to_older() {
        let mut t = TopList::new(1);
        t.offer(s(0.5, 0));
        assert!(!t.offer(s(0.5, 1)), "newer tuple loses the tie");
        assert_eq!(t.as_slice()[0].id, TupleId(0));
    }

    #[test]
    fn remove_by_id() {
        let mut t = TopList::new(3);
        t.offer(s(0.1, 0));
        t.offer(s(0.2, 1));
        assert!(t.remove(TupleId(0)));
        assert!(!t.remove(TupleId(0)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn boundary_tie_collection() {
        let mut t = TopList::with_tie_tracking(2);
        t.offer(s(0.9, 0));
        t.offer(s(0.5, 1));
        t.offer(s(0.5, 2)); // rejected, ties the k-th
        t.offer(s(0.5, 3)); // rejected, ties the k-th
        t.offer(s(0.2, 4)); // rejected, no tie
        let ties = ties_of(&t);
        let ids: Vec<u64> = ties.iter().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![2, 3], "ties sorted best-first (older first)");
    }

    #[test]
    fn eviction_lands_in_pool_when_tracking() {
        let mut t = TopList::with_tie_tracking(1);
        t.offer(s(0.5, 0));
        t.offer(s(0.5, 1)); // rejected tie
        t.offer(s(0.7, 2)); // evicts the 0.5/id0
                            // Boundary ties are relative to the *new* k-th (0.7): none.
        assert!(ties_of(&t).is_empty());
        // But if another 0.7 arrives it is captured.
        t.offer(s(0.7, 3));
        assert_eq!(ties_of(&t).len(), 1);
    }

    #[test]
    fn pool_is_pruned() {
        let mut t = TopList::with_tie_tracking(1);
        // Monotonically improving offers: every one evicts its predecessor
        // into the pool, which must not grow without bound.
        for i in 0..200u64 {
            t.offer(s(i as f64 / 1000.0, i));
        }
        assert!(t.pool.len() <= 4 + 16, "pool pruned, was {}", t.pool.len());
        assert!(ties_of(&t).is_empty());
    }

    /// A side's heap buffer, if it spilled.
    fn spilled(list: &DeltaList) -> Option<&Vec<Scored>> {
        match &list.0 {
            Repr::Inline { .. } => None,
            Repr::Heap(v) => Some(v),
        }
    }

    proptest! {
        /// `report` leaves the same delta in `out` and the same `reported`
        /// as `diff` followed by a copy, and `diff` is the set difference
        /// of its two lists, best first. Both lists share `prefix` entries
        /// of a best-first pool, then take their own subsets of the rest:
        /// equal lists, shared prefixes of every length, disjoint lists,
        /// an empty side and sides longer than `INLINE` all occur, and
        /// four score levels give equal scores to distinct ids.
        #[test]
        fn report_is_diff_then_copy(
            pool in prop::collection::vec((0u32..4, any::<bool>(), any::<bool>()), 0..24),
            prefix in 0usize..25,
        ) {
            let mut entries: Vec<(Scored, bool, bool)> = pool
                .iter()
                .enumerate()
                .map(|(i, &(level, in_old, in_new))| (s(level as f64 / 4.0, i as u64), in_old, in_new))
                .collect();
            entries.sort_by_key(|e| std::cmp::Reverse(e.0));
            let prefix = prefix.min(entries.len());
            let pick = |side: fn(&(Scored, bool, bool)) -> bool| -> Vec<Scored> {
                entries
                    .iter()
                    .enumerate()
                    .filter(|(i, e)| *i < prefix || side(e))
                    .map(|(_, e)| e.0)
                    .collect()
            };
            let old = pick(|e| e.1);
            let new = pick(|e| e.2);

            let q = QueryId(9);
            let delta = ResultDelta::diff(q, &old, &new);
            let lacks = |a: &[Scored], b: &[Scored]| -> Vec<Scored> {
                a.iter().filter(|e| !b.contains(e)).copied().collect()
            };
            prop_assert_eq!(&delta.added[..], &lacks(&new, &old)[..]);
            prop_assert_eq!(&delta.removed[..], &lacks(&old, &new)[..]);
            prop_assert_eq!(delta.is_empty(), old == new);
            for (side, source) in [(&delta.added, &new), (&delta.removed, &old)] {
                if let Some(v) = spilled(side) {
                    prop_assert!(v.len() > INLINE && v.capacity() <= source.len());
                }
            }

            let sentinel = ResultDelta::diff(QueryId(1), &[], &[s(0.5, 99)]);
            let mut out = vec![sentinel.clone()];
            let mut reported = old.clone();
            reported.reserve(new.len());
            let capacity = reported.capacity();
            ResultDelta::report(q, &mut reported, &new, &mut out);
            if delta.is_empty() {
                prop_assert_eq!(&out, &vec![sentinel]);
            } else {
                prop_assert_eq!(&out, &vec![sentinel, delta]);
            }
            prop_assert_eq!(&reported, &new);
            prop_assert_eq!(reported.capacity(), capacity);
        }
    }
}
