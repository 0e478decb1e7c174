//! Materialised top-k′ views (Yi et al., used by TSL maintenance).
//!
//! Instead of exactly `k` results, a view holds `k′` entries with
//! `k ≤ k′ ≤ kmax`. Arrivals better than the current worst member are
//! inserted (the worst one leaves when the view is full at `kmax`);
//! expiries of members shrink the view; once `k′` drops below `k` the
//! maintenance layer refills it to `kmax` entries with a fresh TA run.
//! The slack `kmax − k` is what spaces the expensive refills apart.

use tkm_common::{HeapBytes, Result, Scored, TkmError, TupleId};

/// One query's materialised view of its best `k′` tuples.
#[derive(Debug)]
pub struct TopView {
    k: usize,
    kmax: usize,
    /// Entries in descending order, `len() = k′`.
    entries: Vec<Scored>,
}

impl TopView {
    /// Creates an empty view; requires `1 ≤ k ≤ kmax`.
    pub fn new(k: usize, kmax: usize) -> Result<TopView> {
        if k == 0 {
            return Err(TkmError::InvalidParameter(
                "TopView: k must be positive".into(),
            ));
        }
        if kmax < k {
            return Err(TkmError::InvalidParameter(format!(
                "TopView: kmax {kmax} < k {k}"
            )));
        }
        Ok(TopView {
            k,
            kmax,
            entries: Vec::with_capacity(kmax + 1),
        })
    }

    /// Result size `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// View capacity `kmax`.
    #[inline]
    pub fn kmax(&self) -> usize {
        self.kmax
    }

    /// Adjusts `kmax` (dynamic policy); never below `k`. Trims the view if
    /// it shrinks.
    pub fn set_kmax(&mut self, kmax: usize) {
        self.kmax = kmax.max(self.k);
        if self.entries.len() > self.kmax {
            self.entries.truncate(self.kmax);
        }
    }

    /// Current number of entries `k′`.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The reported result: the first `min(k, k′)` entries.
    #[inline]
    pub fn result(&self) -> &[Scored] {
        &self.entries[..self.k.min(self.entries.len())]
    }

    /// Whether the view must be refilled (`k′ < k`).
    #[inline]
    pub fn needs_refill(&self) -> bool {
        self.entries.len() < self.k
    }

    /// Handles an arriving tuple: inserted iff it outranks the current
    /// worst view member (or the view is not yet full at `kmax`); when full,
    /// the worst member is displaced. Returns `true` when the view changed.
    pub fn on_arrival(&mut self, s: Scored) -> bool {
        if self.entries.len() >= self.kmax {
            // Full view (kmax >= 1, so `last` exists): displace the worst.
            let Some(&worst) = self.entries.last() else {
                self.entries.push(s);
                return true;
            };
            if s <= worst {
                return false;
            }
            let pos = self.entries.partition_point(|e| *e > s);
            self.entries.insert(pos, s);
            self.entries.pop();
            true
        } else {
            // Below capacity the view can only have shrunk through
            // deletions from a full top-k′ state (or be freshly refilled to
            // kmax). In both cases it is exactly the top-k′ of the window,
            // so an arrival below the worst member still belongs to the new
            // top-(k′+1)… but Yi et al. deliberately do NOT grow the view
            // in that case: growing would re-admit arbitrary low scores and
            // the view would degenerate to the whole window. Matching [30],
            // only arrivals beating the k′-th member enter. The exception
            // is a view below `k` entries, which is refilled from scratch
            // by the caller anyway.
            let worst = match self.entries.last() {
                Some(w) => *w,
                None => {
                    self.entries.push(s);
                    return true;
                }
            };
            if s <= worst {
                return false;
            }
            let pos = self.entries.partition_point(|e| *e > s);
            self.entries.insert(pos, s);
            true
        }
    }

    /// Handles an expiring tuple: removed iff it is a view member.
    pub fn on_expiry(&mut self, id: TupleId) -> bool {
        match self.entries.iter().position(|e| e.id == id) {
            Some(pos) => {
                self.entries.remove(pos);
                true
            }
            None => false,
        }
    }

    /// Replaces the contents with a fresh TA result (best first, at most
    /// `kmax` entries).
    pub fn refill(&mut self, entries: &[Scored]) {
        debug_assert!(entries.len() <= self.kmax);
        debug_assert!(entries.windows(2).all(|w| w[0] > w[1]));
        self.entries.clear();
        self.entries.extend_from_slice(entries);
    }
}

impl HeapBytes for TopView {
    fn heap_bytes(&self) -> usize {
        self.entries.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn s(score: f64, id: u64) -> Scored {
        Scored::new(score, TupleId(id))
    }

    /// Reference semantics (Yi et al.): as long as no refill is pending,
    /// the view is exactly the top-k′ of the valid tuples, where k′ only
    /// changes through arrivals above the worst member (+1, capped at
    /// kmax) and member expiries (−1).
    #[test]
    fn view_is_exact_topk_prime() {
        proptest!(ProptestConfig::with_cases(128), |(
            k in 1usize..5,
            slack in 0usize..6,
            scores in prop::collection::vec(0u32..40, 1..80),
            window in 3usize..25,
        )| {
            let kmax = k + slack;
            let mut view = TopView::new(k, kmax).unwrap();
            let mut valid: Vec<Scored> = Vec::new();
            // Initial refill over an empty window.
            view.refill(&[]);
            for (i, sc) in scores.iter().enumerate() {
                let cand = Scored::new(*sc as f64 / 40.0, TupleId(i as u64));
                valid.push(cand);
                view.on_arrival(cand);
                if valid.len() > window {
                    let victim = valid.remove(0);
                    view.on_expiry(victim.id);
                }
                if view.needs_refill() {
                    // Maintenance layer: refill with the true top-kmax.
                    let mut all = valid.clone();
                    all.sort_by(|a, b| b.cmp(a));
                    all.truncate(kmax);
                    view.refill(&all);
                }
                // Invariant: the view is the exact top-k′ of the window.
                let kp = view.len();
                let mut want = valid.clone();
                want.sort_by(|a, b| b.cmp(a));
                want.truncate(kp);
                prop_assert_eq!(&view.entries[..], &want[..]);
                // And k′ stays within bounds after maintenance.
                prop_assert!(kp >= k.min(valid.len()));
                prop_assert!(kp <= kmax);
            }
        });
    }

    #[test]
    fn constructor_validation() {
        assert!(TopView::new(0, 5).is_err());
        assert!(TopView::new(5, 4).is_err());
        assert!(TopView::new(5, 5).is_ok());
    }

    #[test]
    fn arrival_displaces_worst_when_full() {
        let mut v = TopView::new(2, 3).unwrap();
        v.refill(&[s(0.9, 0), s(0.8, 1), s(0.7, 2)]);
        // Below the worst: ignored.
        assert!(!v.on_arrival(s(0.5, 3)));
        assert_eq!(v.len(), 3);
        // Beats the worst: inserted, worst leaves, k′ stays at kmax.
        assert!(v.on_arrival(s(0.85, 4)));
        let ids: Vec<u64> = v.entries.iter().map(|e| e.id.0).collect();
        assert_eq!(ids, vec![0, 4, 1]);
        assert_eq!(v.result().len(), 2);
    }

    #[test]
    fn expiry_shrinks_until_refill_needed() {
        let mut v = TopView::new(2, 4).unwrap();
        v.refill(&[s(0.9, 0), s(0.8, 1), s(0.7, 2), s(0.6, 3)]);
        assert!(!v.on_expiry(TupleId(9)), "non-member expiry ignored");
        assert!(v.on_expiry(TupleId(0)));
        assert!(v.on_expiry(TupleId(1)));
        assert!(!v.needs_refill(), "k′ = 2 = k still suffices");
        assert!(v.on_expiry(TupleId(2)));
        assert!(v.needs_refill(), "k′ = 1 < k = 2");
        v.refill(&[s(0.5, 4), s(0.4, 5), s(0.3, 6)]);
        assert_eq!(v.len(), 3);
        assert!(!v.needs_refill());
    }

    #[test]
    fn arrivals_after_shrink_only_enter_above_worst() {
        let mut v = TopView::new(1, 3).unwrap();
        v.refill(&[s(0.9, 0), s(0.8, 1), s(0.7, 2)]);
        v.on_expiry(TupleId(2)); // k′ = 2
                                 // Arrival below the (new) worst does not regrow the view.
        assert!(!v.on_arrival(s(0.1, 3)));
        assert_eq!(v.len(), 2);
        // Arrival above the worst enters and k′ grows back toward kmax.
        assert!(v.on_arrival(s(0.85, 4)));
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn tie_arrival_is_not_inserted() {
        // An arrival tying the worst member is *older-loses*: the newer
        // tuple ranks below the equal-score member, so it stays out.
        let mut v = TopView::new(1, 2).unwrap();
        v.refill(&[s(0.9, 0), s(0.5, 1)]);
        assert!(!v.on_arrival(s(0.5, 2)));
    }

    #[test]
    fn dynamic_kmax_adjustment() {
        let mut v = TopView::new(2, 6).unwrap();
        v.refill(&[s(0.9, 0), s(0.8, 1), s(0.7, 2), s(0.6, 3), s(0.5, 4)]);
        v.set_kmax(3);
        assert_eq!(v.len(), 3, "shrinking kmax trims the view");
        v.set_kmax(1);
        assert_eq!(v.kmax(), 2, "kmax never drops below k");
    }
}
