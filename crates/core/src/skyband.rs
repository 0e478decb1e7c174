//! k-skyband maintenance in the 2-dimensional *(score, expiry-time)* space
//! (paper §3.1 and §5).
//!
//! A tuple belongs to some current-or-future top-k result **iff** fewer than
//! `k` tuples *dominate* it (paper §3.1). With the workspace-wide candidate
//! order (`Scored`: score descending, ties won by the older tuple), tuple
//! `b` dominates `a` exactly when `b` arrives after `a` — hence expires
//! later, windows being FIFO — *and* `b` ranks strictly higher. Equal-score
//! tuples never dominate each other: the older one outranks the newer while
//! both are valid, and the newer outlives the older, so both may appear in
//! results. (The paper assumes distinct scores, where this reduces to
//! `score(b) ≥ score(a)`.)
//!
//! [`Skyband`] maintains exactly the book-keeping SMA needs:
//!
//! * entries ordered by descending `Scored` — the first `k` *are* the
//!   current top-k result, so no separate result list is stored;
//! * a *dominance counter* (DC) per entry: the number of newer entries
//!   that ever ranked above it. An entry whose DC reaches `k` is dropped
//!   (it can never appear in any result again);
//! * expiry of the oldest entry, which — provably (paper footnote 5) — is
//!   in the current top-k and dominates nobody, so no counters change.
//!
//! Counters never need decrementing: a dominator always expires after the
//! entries it dominates.
//!
//! # One merge per cycle
//!
//! The paper updates the band once per arriving tuple (Figure 11 lines
//! 4–11). Here a cycle's admitted arrivals are first [*staged*]: appended
//! unsorted behind the sorted entries, inside the spare capacity the
//! band's vector already owns, invisible to every reader. One [*merge*]
//! then sorts the staged batch best-first and makes a single top-to-bottom
//! sweep over band ∪ batch, deriving every counter from the entries that
//! rank above it:
//!
//! * an old entry gains one per batch entry above it that is newer (all of
//!   them, when it is older than the whole batch — the usual case);
//! * a batch entry starts at the number of newer entries above it, batch
//!   or old;
//! * an entry reaching `k` is dropped but still counts as a dominator of
//!   everything below it.
//!
//! That is exact in-band dominance with no precondition on the order in
//! which the batch was staged, and it equals what per-tuple insertion in
//! ascending id order (the order in which no dominator is ever missed)
//! would leave behind. The same sweep serves all three updates:
//! [`Skyband::insert`] is its one-element case (done in place), the cycle
//! merge is the general case, and [`Skyband::rebuild`] is the merge of a
//! fresh candidate list into an empty band. The only undercount left: a
//! band whose spare capacity runs out mid-cycle merges early, and an
//! arrival dropped by that early merge cannot be counted against arrivals
//! staged later in the same cycle — which can only keep an entry longer
//! than strictly necessary, never evict a future result.
//!
//! Storage is two parallel arrays (`Vec<Scored>` + `Vec<u32>` counters)
//! rather than an array of structs: the scored column is contiguous, so a
//! monitor that stores its result *inside* the skyband (the engine
//! labelled TMA is an SMA-style band at `k_max` depth and answers top-k
//! queries from its prefix)
//! can hand out `&[Scored]` result slices without copying.
//!
//! The dominance parameter need not equal the result size: maintaining a
//! band with parameter `k_max > k` (see [`tuned_kmax`]) keeps `k_max`-ish
//! candidates alive so that result expiries are absorbed from the band and
//! a from-scratch recomputation is needed only when the band itself drops
//! below `k` — the refill policy the paper's §8 borrows from the TSL
//! baseline.
//!
//! [*staged*]: Skyband::stage
//! [*merge*]: Skyband::merge

use tkm_common::{HeapBytes, Result, Scored, TkmError, TupleId};

/// The paper's fine-tuned `k_max` table (§8: "we also fine-tune the value
/// of kmax … the optimal values (4, 10, 20, 30, 70, 120) for the values
/// (1, 5, 10, 20, 50, 100) of k"); other `k` interpolate as
/// `k + max(3, k/2)`.
pub fn tuned_kmax(k: usize) -> usize {
    match k {
        1 => 4,
        5 => 10,
        10 => 20,
        20 => 30,
        50 => 70,
        100 => 120,
        _ => k + (k / 2).max(3),
    }
}

/// Output buffers of [`Skyband::merge`], owned by whoever drives the merges
/// (one pair per maintenance stage, not per band) and reused across calls:
/// it never holds more than one band's worth of entries.
#[derive(Debug, Default)]
pub struct MergeScratch {
    scored: Vec<Scored>,
    dcs: Vec<u32>,
}

impl HeapBytes for MergeScratch {
    fn heap_bytes(&self) -> usize {
        self.scored.heap_bytes() + self.dcs.heap_bytes()
    }
}

/// Number of `entries` that arrived after `id`.
#[inline]
fn newer_than(entries: &[Scored], id: TupleId) -> u32 {
    entries.iter().filter(|e| e.id > id).count() as u32
}

/// The one dominance-counting routine: a single top-to-bottom sweep over
/// `old ∪ batch` (both best-first).
///
/// Old entries ranking above the whole batch are untouched by it; the
/// sweep skips them and returns their number as the first component, then
/// appends everything below — surviving old entries and stored batch
/// entries, in rank order, with their counters — to `out`/`out_dcs`. The
/// second component is the number of batch entries stored.
///
/// The newest old id seen so far decides whether any old entry above a
/// batch entry can be newer than it; only then (a batch staged after a
/// mid-cycle merge, or a caller feeding ids out of order) is the explicit
/// scan over the old prefix paid.
fn sweep(
    k: u32,
    old: &[Scored],
    old_dcs: &[u32],
    batch: &[Scored],
    out: &mut Vec<Scored>,
    out_dcs: &mut Vec<u32>,
) -> (usize, usize) {
    debug_assert!(
        batch.windows(2).all(|w| w[0] > w[1]),
        "batch must be strictly descending"
    );
    let Some(best) = batch.first() else {
        return (old.len(), 0);
    };
    let oldest_in_batch = batch.iter().fold(best.id, |m, b| m.min(b.id));
    let mut newest_old = TupleId(0);
    let mut i = 0;
    while i < old.len() && old[i] > *best {
        newest_old = newest_old.max(old[i].id);
        i += 1;
    }
    let kept = i;
    let mut j = 0;
    let mut stored = 0;
    while i < old.len() || j < batch.len() {
        if j == batch.len() || (i < old.len() && old[i] > batch[j]) {
            // An old entry: one more dominator per newer batch entry
            // above it — all `j` of them when it predates the batch.
            let e = old[i];
            let above = if e.id < oldest_in_batch {
                j as u32
            } else {
                newer_than(&batch[..j], e.id)
            };
            let dc = old_dcs[i] + above;
            newest_old = newest_old.max(e.id);
            i += 1;
            if dc < k {
                out.push(e);
                out_dcs.push(dc);
            }
        } else {
            // A batch entry: its dominators are the newer entries above
            // it, dropped ones included.
            let b = batch[j];
            let mut dc = newer_than(&batch[..j], b.id);
            if newest_old > b.id {
                dc += newer_than(&old[..i], b.id);
            }
            j += 1;
            if dc < k {
                out.push(b);
                out_dcs.push(dc);
                stored += 1;
            }
        }
    }
    (kept, stored)
}

/// A k-skyband over the (score, expiry-time) space.
///
/// ```
/// use tkm_common::{Scored, TupleId};
/// use tkm_core::skyband::Skyband;
///
/// let mut band = Skyband::new(2).unwrap();
/// band.insert(Scored::new(0.9, TupleId(0)));
/// band.insert(Scored::new(0.5, TupleId(1)));
/// band.insert(Scored::new(0.7, TupleId(2)));
/// // The first k entries are the current top-k…
/// assert_eq!(band.top_scored()[0].id, TupleId(0));
/// assert_eq!(band.top_scored()[1].id, TupleId(2));
/// // …and future results are already queued: when the leader expires,
/// // the band answers without recomputation.
/// band.expire(TupleId(0));
/// assert_eq!(band.top_scored()[0].id, TupleId(2));
/// assert_eq!(band.top_scored()[1].id, TupleId(1));
/// ```
#[derive(Debug)]
pub struct Skyband {
    k: usize,
    /// The first `dcs.len()` entries are the band, in descending order
    /// (best first); whatever follows is this cycle's staged arrivals,
    /// unsorted, awaiting [`Skyband::merge`].
    scored: Vec<Scored>,
    /// Dominance counters of the band entries; its length *is* the band's.
    dcs: Vec<u32>,
    /// Lower bound on every entry's id, staged ones included
    /// (conservative: removals may leave it stale-low). Expiry replay
    /// probes every query listed in the expiring tuple's cell, and almost
    /// all of those probes miss — this bound turns a miss into one
    /// comparison instead of an O(len) scan.
    min_id: TupleId,
}

impl Skyband {
    /// Creates an empty k-skyband.
    pub fn new(k: usize) -> Result<Skyband> {
        if k == 0 {
            return Err(TkmError::InvalidParameter(
                "Skyband: k must be positive".into(),
            ));
        }
        Ok(Skyband {
            k,
            scored: Vec::with_capacity(k + k / 2 + 1),
            dcs: Vec::with_capacity(k + k / 2 + 1),
            min_id: TupleId(u64::MAX),
        })
    }

    /// The dominance parameter `k` of this skyband.
    #[inline]
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// Number of entries currently kept (usually slightly more than `k` —
    /// Table 2 of the paper).
    #[inline]
    pub fn len(&self) -> usize {
        self.dcs.len()
    }

    /// Whether the skyband holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dcs.is_empty()
    }

    /// Whether fewer than `k` entries remain — the condition that forces
    /// SMA to recompute from scratch (paper Figure 11, lines 20–22).
    #[cfg(test)]
    #[inline]
    fn is_deficient(&self) -> bool {
        self.len() < self.k
    }

    /// Whether no staged arrival awaits [`Skyband::merge`] — true at every
    /// reader outside the arrival pass of a cycle.
    #[inline]
    fn is_merged(&self) -> bool {
        self.scored.len() == self.dcs.len()
    }

    /// All scored entries, best first (contiguous).
    #[inline]
    pub fn scored(&self) -> &[Scored] {
        &self.scored[..self.dcs.len()]
    }

    /// The staged arrivals awaiting [`Skyband::merge`], in staging order.
    #[cfg(test)]
    pub(crate) fn staged(&self) -> &[Scored] {
        &self.scored[self.dcs.len()..]
    }

    /// The dominance counters, parallel to [`Skyband::scored`].
    #[cfg(test)]
    #[inline]
    fn dcs(&self) -> &[u32] {
        &self.dcs
    }

    /// The current top-k result: the first `min(k, len)` scored entries,
    /// as a borrowable contiguous slice.
    #[inline]
    pub fn top_scored(&self) -> &[Scored] {
        self.prefix(self.k)
    }

    /// The first `min(n, len)` scored entries — the top-n prefix of a band
    /// whose dominance parameter exceeds the result size (`n ≤ k`).
    #[inline]
    pub(crate) fn prefix(&self, n: usize) -> &[Scored] {
        debug_assert!(n <= self.k, "prefix size must not exceed the band's k");
        debug_assert!(self.is_merged(), "staged arrivals outlived their cycle");
        &self.scored[..n.min(self.len())]
    }

    /// Score/id of the k-th best entry if the skyband has `k` of them.
    #[cfg(test)]
    #[inline]
    fn kth(&self) -> Option<Scored> {
        debug_assert!(self.is_merged(), "staged arrivals outlived their cycle");
        (self.len() >= self.k).then(|| self.scored[self.k - 1])
    }

    /// Whether a tuple id is currently in the skyband (O(len) scan over the
    /// ~k entries).
    #[cfg(test)]
    fn contains(&self, id: TupleId) -> bool {
        self.scored().iter().any(|e| e.id == id)
    }

    /// Rebuilds from a fresh best-first candidate list: the merge of the
    /// list into an empty band, so the DC of an entry is the number of
    /// earlier (better) candidates that arrived later.
    ///
    /// The input is typically the top-k list of the computation module,
    /// optionally extended with candidates tying the k-th score (SMA needs
    /// those: a tie-loser can enter a future result). Every dominator of a
    /// listed candidate ranks above it and therefore appears earlier in the
    /// list, so the DCs are exact; candidates with ≥ k dominators are not
    /// stored (they can never appear in a result) but still count as
    /// dominators of later candidates.
    pub fn rebuild(&mut self, top: &[Scored]) {
        debug_assert!(self.is_merged(), "staged arrivals outlived their cycle");
        self.clear();
        self.min_id = top.iter().fold(self.min_id, |m, s| m.min(s.id));
        sweep(
            self.k as u32,
            &[],
            &[],
            top,
            &mut self.scored,
            &mut self.dcs,
        );
    }

    /// Inserts an arrived tuple — the one-element merge, done in place.
    /// Increments the dominance counter of every entry it dominates
    /// (strictly lower-ranked *and* older), drops entries whose counter
    /// reaches `k`, and starts the newcomer at the number of newer entries
    /// ranking above it. Returns the insertion rank (0 = new best) when
    /// the tuple was stored, `None` when it already had `k` dominators and
    /// was dropped on arrival. O(len).
    ///
    /// Feeding a cycle's arrivals through `insert` one at a time is exact
    /// in ascending id order; in any other order a dominator evicted
    /// before the tuple it dominates is inserted goes uncounted (sound,
    /// see the crate docs). [`Skyband::stage`] + [`Skyband::merge`] have
    /// no such order dependence.
    pub fn insert(&mut self, s: Scored) -> Option<usize> {
        debug_assert!(self.is_merged(), "insert into a band with staged arrivals");
        debug_assert!(
            self.scored.iter().all(|e| e.id != s.id),
            "an id is inserted at most once"
        );
        self.min_id = self.min_id.min(s.id);
        let k = self.k as u32;
        let n = self.dcs.len();
        // Rank and in-band dominators (higher-ranked *and* newer) in one
        // scan from the top.
        let mut pos = 0;
        let mut dc = 0;
        while pos < n && self.scored[pos] > s {
            dc += u32::from(self.scored[pos].id > s.id);
            pos += 1;
        }
        // Everything below: older entries gain a dominator, survivors
        // shift down by one behind the newcomer. The entry to write next
        // rides in `carry`, so each slot is read once and written once
        // (when `s` was dropped on arrival nothing rides along and the
        // pass is a plain compaction). Same-cycle arrivals with larger
        // ids that rank below `s` are *not* dominated (they outlive `s`)
        // and keep their counter.
        let stored = dc < k;
        let mut carry = (s, dc);
        let mut write = pos;
        for read in pos..n {
            let e = self.scored[read];
            let d = self.dcs[read] + u32::from(e.id < s.id);
            if d < k {
                let out = if stored {
                    std::mem::replace(&mut carry, (e, d))
                } else {
                    (e, d)
                };
                self.scored[write] = out.0;
                self.dcs[write] = out.1;
                write += 1;
            }
        }
        self.scored.truncate(write);
        self.dcs.truncate(write);
        if stored {
            self.scored.push(carry.0);
            self.dcs.push(carry.1);
        }
        stored.then_some(pos)
    }

    /// Stages an admitted arrival behind the band, to be folded in by the
    /// next [`Skyband::merge`]; until then no reader sees it. Staging only
    /// ever uses capacity the band already owns: when none is left the
    /// staged batch is merged first, and an arrival meeting a band that
    /// fills its capacity on its own takes the one-element path
    /// ([`Skyband::insert`]), which grows the band only if the arrival is
    /// stored. Returns how many arrivals such a forced merge stored (0
    /// when `s` was simply staged).
    pub fn stage(&mut self, s: Scored, scratch: &mut MergeScratch) -> usize {
        let mut stored = 0;
        if self.scored.len() == self.scored.capacity() {
            stored = self.merge(scratch);
            if self.scored.len() == self.scored.capacity() {
                return stored + usize::from(self.insert(s).is_some());
            }
        }
        debug_assert!(
            self.scored.iter().all(|e| e.id != s.id),
            "an id is inserted at most once"
        );
        self.min_id = self.min_id.min(s.id);
        self.scored.push(s);
        stored
    }

    /// Folds the staged arrivals into the band in one sweep (crate docs)
    /// and returns how many of them were stored. Every staged arrival,
    /// stored or not, counts as a dominator of the older entries ranking
    /// below it; entries reaching `k` dominators are dropped. The arrivals
    /// may have been staged in any order.
    pub fn merge(&mut self, scratch: &mut MergeScratch) -> usize {
        let n = self.dcs.len();
        match self.scored.len() - n {
            0 => return 0,
            1 => {
                let s = self.scored[n];
                self.scored.truncate(n);
                return usize::from(self.insert(s).is_some());
            }
            _ => {}
        }
        let (old, batch) = self.scored.split_at_mut(n);
        batch.sort_unstable_by(|a, b| b.cmp(a));
        scratch.scored.clear();
        scratch.dcs.clear();
        let (kept, stored) = sweep(
            self.k as u32,
            old,
            &self.dcs,
            batch,
            &mut scratch.scored,
            &mut scratch.dcs,
        );
        // At most band + batch entries come back, so the copy stays
        // inside the capacity the staged entries occupied.
        self.scored.truncate(kept);
        self.scored.extend_from_slice(&scratch.scored);
        self.dcs.truncate(kept);
        self.dcs.extend_from_slice(&scratch.dcs);
        stored
    }

    /// Removes an expiring tuple. An expiring member dominates nobody that
    /// outlives it (everything it dominates is older and thus expires
    /// first), so no counters change. Returns the position the tuple held
    /// (0 = best) when it was present.
    pub fn expire(&mut self, id: TupleId) -> Option<usize> {
        debug_assert!(self.is_merged(), "staged arrivals outlived their cycle");
        if id < self.min_id {
            // Older than everything ever retained: cannot be present.
            return None;
        }
        let pos = self.scored.iter().position(|e| e.id == id)?;
        // Footnote 5: at most k−1 in-band dominators plus the
        // still-present older entries (same-cycle batch expiries
        // may be processed in any order) can rank above it.
        debug_assert!(
            self.scored[..pos].iter().filter(|e| e.id > id).count() < self.k,
            "an expiring skyband member must be in the top-k (footnote 5)"
        );
        self.scored.remove(pos);
        self.dcs.remove(pos);
        Some(pos)
    }

    /// Removes every entry older than `cutoff` (id `< cutoff`) in one
    /// pass. Windows expire strictly in arrival (id) order, so after a
    /// synchronized expiry wave the live window is exactly the ids
    /// `>= cutoff` — one sweep per band replaces the per-tuple
    /// [`Skyband::expire`] replay that a wave would otherwise turn
    /// quadratic (every expired tuple probed against every covering
    /// query). No counters change, for the same reason as in `expire`.
    /// Returns the smallest position among the removed entries (0 = best;
    /// `None` when nothing was removed).
    ///
    /// The pass starts at the first expired entry and compacts what
    /// follows without a branch per entry: every entry is written to the
    /// next free slot, which advances only past a survivor.
    pub fn expire_before(&mut self, cutoff: TupleId) -> Option<usize> {
        debug_assert!(self.is_merged(), "staged arrivals outlived their cycle");
        if self.min_id >= cutoff {
            // Every retained entry is at least as new as the cutoff.
            return None;
        }
        // Everything below the cutoff goes, so it becomes the new presence
        // lower bound.
        self.min_id = cutoff;
        let n = self.dcs.len();
        let (scored, dcs) = (&mut self.scored[..n], &mut self.dcs[..n]);
        let first = scored.iter().position(|e| e.id < cutoff)?;
        let mut write = first;
        for read in first + 1..n {
            let e = scored[read];
            scored[write] = e;
            dcs[write] = dcs[read];
            write += usize::from(e.id >= cutoff);
        }
        self.scored.truncate(write);
        self.dcs.truncate(write);
        Some(first)
    }

    /// Removes every entry, staged ones included.
    pub(crate) fn clear(&mut self) {
        self.scored.clear();
        self.dcs.clear();
        self.min_id = TupleId(u64::MAX);
    }

    /// Validates internal invariants (tests/debugging).
    #[cfg(test)]
    fn check_invariants(&self) {
        // Opt-in invariant checker; aborting on breach is its contract.
        assert_eq!(
            self.scored.len(),
            self.dcs.len(),
            "parallel arrays (no staged arrival outside a cycle)"
        );
        for w in self.scored.windows(2) {
            assert!(w[0] > w[1], "entries must be strictly descending");
        }
        for &dc in &self.dcs {
            assert!((dc as usize) < self.k, "DC must stay below k");
        }
        // An entry's counter is at least its number of in-band dominators
        // (out-of-band dominators — entries since dropped — may add more).
        for (i, e) in self.scored.iter().enumerate() {
            let in_band = self.scored[..i].iter().filter(|d| d.id > e.id).count();
            assert!(
                self.dcs[i] as usize >= in_band,
                "DC below in-band dominator count"
            );
        }
    }
}

/// The paper's `O(d + 3k)` per query: id, score and dominance counter
/// per entry, at capacity.
impl HeapBytes for Skyband {
    fn heap_bytes(&self) -> usize {
        self.scored.heap_bytes() + self.dcs.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn s(score: f64, id: u64) -> Scored {
        Scored::new(score, TupleId(id))
    }

    fn band_pairs(sky: &Skyband) -> Vec<(u64, u32)> {
        sky.scored()
            .iter()
            .zip(sky.dcs())
            .map(|(e, &dc)| (e.id.0, dc))
            .collect()
    }

    #[test]
    fn k_must_be_positive() {
        assert!(Skyband::new(0).is_err());
    }

    #[test]
    fn tuned_kmax_matches_paper_table() {
        for (k, kmax) in [(1, 4), (5, 10), (10, 20), (20, 30), (50, 70), (100, 120)] {
            assert_eq!(tuned_kmax(k), kmax);
        }
        // Interpolated values stay sane: strictly above k, monotone-ish.
        for k in [2usize, 3, 7, 15, 33, 64, 200] {
            assert!(tuned_kmax(k) > k);
            assert!(tuned_kmax(k) <= 2 * k + 3);
        }
    }

    /// The running example of Figure 10, with arrival ids assigned in
    /// expiry order (p3 expires first, then p2, p7, p5; p9 arrives last and
    /// outlives everyone) and scores p2 > p9 > p3 > p5 > p7.
    #[test]
    fn figure_10_example() {
        let p3 = s(0.6, 0);
        let p2 = s(0.9, 1);
        let p7 = s(0.3, 2);
        let p5 = s(0.5, 3);
        let p9 = s(0.8, 4);

        let mut sky = Skyband::new(2).unwrap();
        for p in [p3, p2, p7, p5] {
            sky.insert(p);
        }
        sky.check_invariants();
        // Figure 10(a): band {p2(0), p3(1), p5(0), p7(1)}, top-2 {p2, p3}.
        assert_eq!(band_pairs(&sky), vec![(1, 0), (0, 1), (3, 0), (2, 1)]);
        let top: Vec<u64> = sky.top_scored().iter().map(|e| e.id.0).collect();
        assert_eq!(top, vec![1, 0], "top-2 = {{p2, p3}}");

        // p9 arrives: p3 and p7 hit DC = 2 and leave; p5 survives at DC 1.
        sky.insert(p9);
        sky.check_invariants();
        assert_eq!(
            band_pairs(&sky),
            vec![(1, 0), (4, 0), (3, 1)],
            "band = {{p2, p9, p5}}"
        );
        let top: Vec<u64> = sky.top_scored().iter().map(|e| e.id.0).collect();
        assert_eq!(top, vec![1, 4], "new top-2 = {{p2, p9}}");

        // p3 expires first — it already left the band; then p2 expires and
        // the result becomes {p9, p5} as in the paper.
        assert_eq!(sky.expire(TupleId(0)), None);
        assert_eq!(sky.expire(TupleId(1)), Some(0));
        let top: Vec<u64> = sky.top_scored().iter().map(|e| e.id.0).collect();
        assert_eq!(top, vec![4, 3]);
    }

    #[test]
    fn rebuild_derives_dominance_counters() {
        let mut sky = Skyband::new(4).unwrap();
        // Best-first list; arrival ids deliberately shuffled.
        sky.rebuild(&[s(0.9, 7), s(0.8, 2), s(0.7, 9), s(0.6, 1)]);
        // id7: nothing processed before it           → 0
        // id2: {7} arrived later                     → 1
        // id9: neither 7 nor 2 arrived later than 9  → 0
        // id1: {7, 2, 9} all arrived later           → 3
        assert_eq!(sky.dcs(), &[0, 1, 0, 3]);
        sky.check_invariants();
    }

    #[test]
    fn rebuild_accepts_fewer_than_k() {
        let mut sky = Skyband::new(5).unwrap();
        sky.rebuild(&[s(0.9, 1), s(0.5, 0)]);
        assert_eq!(sky.len(), 2);
        assert!(sky.is_deficient());
        assert_eq!(sky.kth(), None);
        assert_eq!(sky.top_scored().len(), 2);
    }

    #[test]
    fn insert_evicts_at_k_dominators() {
        let mut sky = Skyband::new(1).unwrap();
        sky.rebuild(&[s(0.5, 0)]);
        // A better, newer tuple replaces the old top immediately (k = 1).
        assert_eq!(sky.insert(s(0.6, 1)), Some(0));
        assert_eq!(sky.len(), 1);
        assert_eq!(sky.top_scored()[0].id, TupleId(1));
        // Worse, newer tuples are dominated by nothing *newer* — kept as
        // future results.
        assert_eq!(sky.insert(s(0.4, 2)), Some(1));
        sky.insert(s(0.3, 3));
        assert_eq!(sky.len(), 3);
        // A newer better tuple sweeps them all out.
        sky.insert(s(0.9, 4));
        assert_eq!(sky.len(), 1);
        assert_eq!(sky.top_scored()[0].id, TupleId(4));
        // An arrival that is already dominated k times is dropped on
        // arrival and reports `None`.
        assert_eq!(sky.insert(s(0.2, 0)), None);
        assert_eq!(sky.len(), 1);
        sky.check_invariants();
    }

    #[test]
    fn equal_scores_never_dominate() {
        let mut sky = Skyband::new(1).unwrap();
        sky.rebuild(&[s(0.5, 0)]);
        sky.insert(s(0.5, 1));
        // The older tuple outranks the newer while valid; the newer
        // outlives it. Both appear in some top-1 result, so both stay.
        assert_eq!(sky.len(), 2);
        let top: Vec<u64> = sky.top_scored().iter().map(|e| e.id.0).collect();
        assert_eq!(top, vec![0], "older equal-score tuple is the result now");
        assert_eq!(sky.expire(TupleId(0)), Some(0));
        let top: Vec<u64> = sky.top_scored().iter().map(|e| e.id.0).collect();
        assert_eq!(top, vec![1], "newer takes over after expiry");
    }

    /// Same-cycle arrivals may be inserted in any order (cell-grouped
    /// event replay delivers them per cell): the resulting band must match
    /// the id-ordered outcome.
    #[test]
    fn out_of_order_inserts_within_a_cycle() {
        let mut in_order = Skyband::new(2).unwrap();
        let mut shuffled = Skyband::new(2).unwrap();
        let batch = [s(0.7, 10), s(0.9, 11), s(0.4, 12), s(0.8, 13)];
        for p in batch {
            in_order.insert(p);
        }
        for p in [batch[1], batch[3], batch[0], batch[2]] {
            shuffled.insert(p);
        }
        in_order.check_invariants();
        shuffled.check_invariants();
        assert_eq!(in_order.scored(), shuffled.scored());
        assert_eq!(in_order.dcs(), shuffled.dcs());
        // Batch expiry may also drain in any order.
        assert!(shuffled.expire(TupleId(13)).is_some());
        assert!(shuffled.expire(TupleId(11)).is_some());
        let top: Vec<u64> = shuffled.top_scored().iter().map(|e| e.id.0).collect();
        assert_eq!(top, vec![12]);
    }

    /// A band with dominance parameter `k_max > k` serves exact top-k
    /// results from its prefix — the SMA-style band at `tuned_kmax` depth
    /// that the engine labelled TMA runs.
    #[test]
    fn prefix_of_wider_band_is_exact_topk() {
        let k = 2;
        let mut sky = Skyband::new(tuned_kmax(k)).unwrap();
        let mut valid: Vec<Scored> = Vec::new();
        for (i, score) in [9, 3, 7, 5, 8, 1, 6, 4, 2, 9].iter().enumerate() {
            let cand = s(*score as f64 / 10.0, i as u64);
            sky.insert(cand);
            valid.push(cand);
            if i % 3 == 2 {
                let victim = valid.remove(0);
                sky.expire(victim.id);
            }
            let mut want = valid.clone();
            want.sort_by(|a, b| b.cmp(a));
            want.truncate(k);
            assert_eq!(sky.prefix(k), &want[..], "step {i}");
        }
    }

    #[test]
    fn expire_non_member_is_noop() {
        let mut sky = Skyband::new(2).unwrap();
        sky.rebuild(&[s(0.9, 5), s(0.8, 6)]);
        assert_eq!(sky.expire(TupleId(4)), None);
        assert_eq!(sky.len(), 2);
    }

    #[test]
    fn deficiency_detection() {
        let mut sky = Skyband::new(2).unwrap();
        sky.rebuild(&[s(0.9, 0), s(0.8, 1)]);
        assert!(!sky.is_deficient());
        assert_eq!(sky.kth(), Some(s(0.8, 1)));
        sky.expire(TupleId(0));
        assert!(sky.is_deficient());
        assert_eq!(sky.kth(), None);
    }

    #[test]
    fn clear_empties() {
        let mut sky = Skyband::new(2).unwrap();
        sky.insert(s(0.5, 0));
        sky.clear();
        assert!(sky.is_empty());
    }

    /// Stages `batch` (in the given order) into `band` and merges once;
    /// feeds the same arrivals one at a time, in ascending id order — the
    /// order in which no dominator is ever missed — into `reference`, an
    /// identically built twin. Without a mid-cycle merge the two must end
    /// up identical and the stored count must equal the batch ids present.
    /// A band that ran out of spare capacity merged early, and an arrival
    /// dropped by that early merge cannot be counted against later ones,
    /// so it gets the weaker (still sufficient) contract: same result, a
    /// superset of the reference's entries, no counter above the
    /// reference's. Returns whether the merge-on-full path fired.
    fn merge_vs_reference(band: &mut Skyband, reference: &mut Skyband, batch: &[Scored]) -> bool {
        let mut scratch = MergeScratch::default();
        let mut forced = false;
        let mut stored = 0;
        for &b in batch {
            forced |= band.scored.len() == band.scored.capacity();
            stored += band.stage(b, &mut scratch);
        }
        stored += band.merge(&mut scratch);
        band.check_invariants();

        let mut ascending = batch.to_vec();
        ascending.sort_by_key(|b| b.id);
        for &b in &ascending {
            reference.insert(b);
        }
        reference.check_invariants();

        assert_eq!(band.top_scored(), reference.top_scored(), "result");
        if forced {
            for (e, dc) in reference.scored().iter().zip(reference.dcs()) {
                let pos = band.scored().iter().position(|x| x == e);
                let pos = pos.expect("reference entry missing from the merged band");
                assert!(band.dcs()[pos] <= *dc, "counter above the reference's");
            }
        } else {
            assert_eq!(band.scored(), reference.scored());
            assert_eq!(band.dcs(), reference.dcs());
            let present = batch.iter().filter(|b| band.contains(b.id)).count();
            assert_eq!(stored, present, "stored count");
        }
        forced
    }

    /// A pair of identically built bands.
    fn twins(k: usize, build: impl Fn(&mut Skyband)) -> (Skyband, Skyband) {
        let mut a = Skyband::new(k).unwrap();
        let mut b = Skyband::new(k).unwrap();
        build(&mut a);
        build(&mut b);
        (a, b)
    }

    /// A band of `n` mutually non-dominating entries (rank order = arrival
    /// order) scoring 0.20, 0.19, …: they are all kept whatever `k` is, so
    /// this is how a test gets a band with capacity to spare.
    fn roomy(sky: &mut Skyband, n: u64) {
        let seed: Vec<Scored> = (0..n).map(|i| s(0.2 - i as f64 / 100.0, i)).collect();
        sky.rebuild(&seed);
        assert_eq!(sky.len(), n as usize);
    }

    /// Figure 10 fed as one batch, in arrival order and shuffled.
    #[test]
    fn figure_10_as_one_batch() {
        let fig = [s(0.6, 0), s(0.9, 1), s(0.3, 2), s(0.5, 3), s(0.8, 4)];
        for order in [[0, 1, 2, 3, 4], [4, 2, 0, 3, 1]] {
            let (mut sky, mut reference) = twins(2, |b| {
                roomy(b, 12);
                b.expire_before(TupleId(12));
            });
            let batch: Vec<Scored> = order
                .iter()
                .map(|&i| Scored::new(fig[i].score.get(), TupleId(fig[i].id.0 + 12)))
                .collect();
            assert!(!merge_vs_reference(&mut sky, &mut reference, &batch));
            assert_eq!(band_pairs(&sky), vec![(13, 0), (16, 0), (15, 1)]);
        }
    }

    /// The named corners of the merge: empty and one-element batches, a
    /// batch larger than `k`, one that dominates the whole band, ties on
    /// score inside the batch and against the band, and `k = 1` — each on
    /// a roomy band (exact contract) and on one with no room to spare
    /// (merge-on-full fires mid-cycle).
    #[test]
    fn merge_named_cases() {
        for k in [1usize, 3] {
            let fresh = |scores: &[f64]| -> Vec<Scored> {
                scores
                    .iter()
                    .enumerate()
                    .map(|(i, &sc)| s(sc, 100 + i as u64))
                    .collect()
            };
            let cases = [
                fresh(&[]),
                fresh(&[0.15]),
                fresh(&[0.5, 0.1, 0.3, 0.05, 0.4, 0.2, 0.15]),
                fresh(&[0.9, 0.8, 0.7, 0.6, 0.95]),
                fresh(&[0.17, 0.17, 0.2, 0.17, 0.19, 0.2]),
            ];
            for batch in &cases {
                let (mut sky, mut reference) = twins(k, |b| {
                    roomy(b, 16);
                    b.expire_before(TupleId(8));
                });
                let forced = merge_vs_reference(&mut sky, &mut reference, batch);
                assert!(!forced, "eight spare slots hold every named batch");

                let (mut sky, mut reference) = twins(k, |b| roomy(b, (k + k / 2 + 1) as u64));
                let forced = merge_vs_reference(&mut sky, &mut reference, batch);
                assert_eq!(forced, !batch.is_empty(), "no spare capacity at all");
            }
        }
    }

    /// Staging lives in capacity the band already owns: a flood of 10·k
    /// admitted arrivals through stage/merge never leaves the band larger
    /// than per-arrival insertion would, and nothing stays staged.
    #[test]
    fn staging_never_grows_a_band() {
        let k = 4;
        let mut state = 0x5eed_u64;
        let mut flood: Vec<Scored> = (0..10 * k as u64)
            .map(|id| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                s((state >> 40) as f64 / (1u64 << 24) as f64, id)
            })
            .collect();
        for shuffled in [false, true] {
            if shuffled {
                flood.sort_by_key(|e| e.id.0.wrapping_mul(0x9E37_79B9) % 41);
            }
            let mut staged = Skyband::new(k).unwrap();
            let mut twin = Skyband::new(k).unwrap();
            let mut scratch = MergeScratch::default();
            for &e in &flood {
                staged.stage(e, &mut scratch);
                twin.insert(e);
                assert!(staged.heap_bytes() <= twin.heap_bytes());
            }
            staged.merge(&mut scratch);
            staged.check_invariants();
            assert!(staged.heap_bytes() <= twin.heap_bytes());
            assert_eq!(staged.top_scored(), twin.top_scored());
            assert!(scratch.scored.len() <= staged.scored.capacity());
        }
    }

    /// Naive model: the k-skyband of a set of valid tuples is the set with
    /// fewer than k strict dominators (newer arrival, strictly better
    /// `Scored` — which given distinct ids means strictly higher score).
    fn naive_skyband(tuples: &[Scored], k: usize) -> Vec<TupleId> {
        let mut out: Vec<Scored> = tuples
            .iter()
            .filter(|p| {
                tuples
                    .iter()
                    .filter(|q| q.id > p.id && q.score > p.score)
                    .count()
                    < k
            })
            .copied()
            .collect();
        out.sort_by(|a, b| b.cmp(a));
        out.into_iter().map(|sc| sc.id).collect()
    }

    proptest! {
        /// Streaming inserts + FIFO expiries match the naive k-skyband of
        /// the valid tuples at every step. Discrete scores force plenty of
        /// ties through the tie-break logic.
        #[test]
        fn matches_naive_skyband(
            scores in prop::collection::vec(0u32..50, 1..60),
            k in 1usize..6,
            expire_every in 2usize..5,
        ) {
            let mut sky = Skyband::new(k).unwrap();
            let mut valid: Vec<Scored> = Vec::new();
            for (i, sc) in scores.iter().enumerate() {
                let cand = Scored::new(*sc as f64 / 50.0, TupleId(i as u64));
                sky.insert(cand);
                valid.push(cand);
                if i % expire_every == 0 && !valid.is_empty() {
                    let victim = valid.remove(0);
                    sky.expire(victim.id);
                }
                sky.check_invariants();
                let got: Vec<TupleId> =
                    sky.scored().iter().map(|e| e.id).collect();
                let want = naive_skyband(&valid, k);
                prop_assert_eq!(got, want);
            }
        }

        /// The first k entries of the skyband equal the brute-force top-k
        /// of the valid tuples at every step.
        #[test]
        fn top_prefix_is_true_topk(
            scores in prop::collection::vec(0u32..50, 1..60),
            k in 1usize..6,
        ) {
            let mut sky = Skyband::new(k).unwrap();
            let mut valid: Vec<Scored> = Vec::new();
            for (i, sc) in scores.iter().enumerate() {
                let cand = Scored::new(*sc as f64 / 50.0, TupleId(i as u64));
                sky.insert(cand);
                valid.push(cand);
                if i % 2 == 0 {
                    let victim = valid.remove(0);
                    sky.expire(victim.id);
                }
                let mut want = valid.clone();
                want.sort_by(|a, b| b.cmp(a));
                want.truncate(k);
                let got: Vec<Scored> = sky.top_scored().to_vec();
                prop_assert_eq!(got, want);
            }
        }
        /// Differential: stage×n + one merge ≡ the per-arrival reference
        /// (`merge_vs_reference`), on bands built by inserts, expiries and
        /// rebuilds. `room` first grows the band's capacity so that big
        /// batches fit the spare room (exact contract); without it most
        /// batches overflow and exercise merge-on-full. Twelve score
        /// levels force ties; `stale` batch entries take ids *older* than
        /// some band entries, which a mid-cycle merge produces for real.
        #[test]
        fn merge_equals_per_arrival_reference(
            k in 1usize..6,
            room in 0u64..40,
            ops in prop::collection::vec((0u32..8, 0u32..12), 0..40),
            batch in prop::collection::vec((0u32..12, 0u32..1000, 0u32..4), 0..24),
        ) {
            // Band ids are even, so every odd id stays free for `stale`
            // batch entries.
            let first = 2 * room;
            let build = |sky: &mut Skyband| -> u64 {
                let mut next = first;
                if room > 0 {
                    roomy(sky, room);
                    sky.expire_before(TupleId(next));
                }
                let mut valid: Vec<Scored> = Vec::new();
                for &(kind, level) in &ops {
                    match kind {
                        0..=4 => {
                            let e = Scored::new(level as f64 / 12.0, TupleId(next));
                            next += 2;
                            sky.insert(e);
                            valid.push(e);
                        }
                        5 if !valid.is_empty() => {
                            let cut = level as usize % valid.len();
                            sky.expire_before(valid[cut].id);
                            valid.drain(..cut);
                        }
                        6 if !valid.is_empty() => {
                            sky.expire(valid.remove(0).id);
                        }
                        7 => {
                            let mut top = valid.clone();
                            top.sort_by(|a, b| b.cmp(a));
                            top.truncate(k + level as usize % 4);
                            sky.rebuild(&top);
                        }
                        _ => {}
                    }
                }
                sky.check_invariants();
                next
            };
            let mut sky = Skyband::new(k).unwrap();
            let mut reference = Skyband::new(k).unwrap();
            let next = build(&mut sky);
            prop_assert_eq!(build(&mut reference), next);

            let mut arrivals: Vec<(u32, Scored)> = batch
                .iter()
                .enumerate()
                .map(|(i, &(level, order, stale))| {
                    let i = i as u64;
                    let id = match next.checked_sub(1 + 2 * i) {
                        Some(odd) if stale == 0 => odd,
                        _ => next + 2 * i,
                    };
                    (order, Scored::new(level as f64 / 12.0, TupleId(id)))
                })
                .collect();
            arrivals.sort_by_key(|&(order, _)| order);
            let arrivals: Vec<Scored> = arrivals.into_iter().map(|(_, e)| e).collect();
            merge_vs_reference(&mut sky, &mut reference, &arrivals);
        }

        /// `expire_before` ≡ per-id `expire` of every entry below the
        /// cutoff, oldest first: same entries and counters left, the same
        /// first (smallest) position returned, and the presence bound
        /// raised to the cutoff. Bands are built by inserts, rebuilds and
        /// per-id expiries over ids with gaps; every cutoff from below the
        /// oldest entry to above the newest is tried, and the empty band.
        #[test]
        fn expire_before_equals_per_id_expire(
            k in 1usize..6,
            ops in prop::collection::vec((0u32..8, 0u32..12, 1u64..4), 0..40),
        ) {
            let build = |sky: &mut Skyband| -> u64 {
                let mut next = 3;
                let mut valid: Vec<Scored> = Vec::new();
                for &(kind, level, gap) in &ops {
                    match kind {
                        0..=5 => {
                            let e = s(level as f64 / 12.0, next);
                            next += gap;
                            sky.insert(e);
                            valid.push(e);
                        }
                        6 if !valid.is_empty() => {
                            sky.expire(valid.remove(0).id);
                        }
                        7 => {
                            let mut top = valid.clone();
                            top.sort_by(|a, b| b.cmp(a));
                            top.truncate(k + level as usize % 4);
                            sky.rebuild(&top);
                        }
                        _ => {}
                    }
                }
                next
            };
            let mut probe = Skyband::new(k).unwrap();
            let newest = build(&mut probe);
            for cutoff in 0..=newest + 1 {
                let mut sky = Skyband::new(k).unwrap();
                let mut reference = Skyband::new(k).unwrap();
                build(&mut sky);
                build(&mut reference);
                let min_id = sky.min_id;
                let first = sky.expire_before(TupleId(cutoff));
                sky.check_invariants();

                let mut expired: Vec<TupleId> = reference
                    .scored()
                    .iter()
                    .map(|e| e.id)
                    .filter(|&id| id < TupleId(cutoff))
                    .collect();
                expired.sort();
                let positions: Vec<usize> = expired
                    .iter()
                    .filter_map(|&id| reference.expire(id))
                    .collect();
                prop_assert_eq!(positions.len(), expired.len());
                prop_assert_eq!(first, positions.iter().copied().min());
                prop_assert_eq!(band_pairs(&sky), band_pairs(&reference));
                prop_assert_eq!(sky.min_id, min_id.max(TupleId(cutoff)));

                let mut empty = Skyband::new(k).unwrap();
                prop_assert_eq!(empty.expire_before(TupleId(cutoff)), None);
                prop_assert!(empty.is_empty());
            }
        }
    }
}
