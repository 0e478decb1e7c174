//! Fagin's Threshold Algorithm (TA) over the per-dimension sorted lists.
//!
//! TA performs *sorted accesses* on the `d` lists in round-robin order; for
//! every newly encountered tuple it performs a *random access* (here: an
//! O(1) window lookup) to fetch the remaining attributes and compute the
//! full score. After each round the threshold `τ` — the score of the
//! hypothetical tuple assembled from the last value seen in every list — is
//! an upper bound on the score of every unseen tuple, so the search stops
//! once the current `kmax`-th best score is at least `τ`.
//!
//! To stay exact under score ties (which the workspace comparator breaks by
//! age), termination requires the `kmax`-th best score to *strictly* exceed
//! `τ`, or the lists to be exhausted; an unseen tuple tying `τ` could
//! otherwise outrank a tied result member by age.

use std::collections::BTreeSet;

use crate::tsl::lists::SortedLists;
use tkm_common::{FxHashSet, ScoreFn, Scored, TupleId, MAX_DIMS};
use tkm_window::Window;

/// Cumulative access counters of one TA invocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TaAccessStats {
    /// Entries consumed from the sorted lists.
    pub sorted_accesses: u64,
    /// Random (by-id) lookups for full score computation.
    pub random_accesses: u64,
}

/// Runs TA, returning the best `kmax` tuples (best first) together with the
/// access counts.
///
/// `window` provides random access by tuple id; `lists` must index exactly
/// the window's valid tuples.
///
/// ```
/// use tkm_common::{ScoreFn, Timestamp};
/// use tkm_core::tsl::{ta_search, SortedLists};
/// use tkm_window::{Window, WindowSpec};
///
/// let mut window = Window::new(2, WindowSpec::Count(8)).unwrap();
/// let mut lists = SortedLists::new(2).unwrap();
/// for p in [[0.9, 0.1], [0.3, 0.8], [0.7, 0.7]] {
///     let id = window.insert(&p, Timestamp(0)).unwrap();
///     lists.insert(id, &p);
/// }
/// let f = ScoreFn::linear(vec![1.0, 1.0]).unwrap();
/// let (top, stats) = ta_search(&lists, &window, &f, 1);
/// assert_eq!(top[0].score.get(), 1.4);
/// assert!(stats.random_accesses <= 3);
/// ```
pub fn ta_search(
    lists: &SortedLists,
    window: &Window,
    f: &ScoreFn,
    kmax: usize,
) -> (Vec<Scored>, TaAccessStats) {
    debug_assert_eq!(lists.dims(), f.dims());
    let dims = lists.dims();
    let mut stats = TaAccessStats::default();
    if kmax == 0 || lists.is_empty() {
        return (Vec::new(), stats);
    }

    let mut cursors: Vec<_> = (0..dims)
        .map(|dim| lists.sorted_access(dim, f.monotonicity(dim)))
        .collect();
    let mut seen: FxHashSet<TupleId> = FxHashSet::default();
    // Result accumulator: ascending BTreeSet, worst candidate first.
    let mut best: BTreeSet<Scored> = BTreeSet::new();
    let mut last = [0.0f64; MAX_DIMS];

    'rounds: loop {
        for (dim, cursor) in cursors.iter_mut().enumerate() {
            let Some((value, id)) = cursor.next() else {
                // Lists all have equal length, so one ending means every
                // tuple has been seen through some list.
                break 'rounds;
            };
            stats.sorted_accesses += 1;
            last[dim] = value;
            if seen.insert(id) {
                stats.random_accesses += 1;
                let Some(coords) = window.coords(id) else {
                    // Sorted lists only index valid tuples; a miss here
                    // means a stale list, which debug builds surface.
                    debug_assert!(false, "sorted list entry {id:?} not in window");
                    continue;
                };
                let cand = Scored::new(f.score(coords), id);
                if best.len() < kmax {
                    best.insert(cand);
                } else if best.first().is_some_and(|worst| cand > *worst) {
                    best.insert(cand);
                    best.pop_first();
                }
            }
        }
        // End of a round: check the stopping condition.
        if best.len() >= kmax {
            let threshold = f.score(&last[..dims]);
            if let Some(worst) = best.first() {
                if worst.score.get() > threshold {
                    break;
                }
            }
        }
    }
    let mut out: Vec<Scored> = best.into_iter().collect();
    out.reverse(); // best first
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tkm_common::Timestamp;
    use tkm_window::WindowSpec;

    /// Builds a window + lists over the given points.
    fn setup(points: &[[f64; 2]]) -> (Window, SortedLists) {
        let mut w = Window::new(2, WindowSpec::Count(points.len().max(1))).unwrap();
        let mut l = SortedLists::new(2).unwrap();
        for p in points {
            let id = w.insert(p, Timestamp(0)).unwrap();
            l.insert(id, p);
        }
        (w, l)
    }

    fn naive_topk(points: &[[f64; 2]], f: &ScoreFn, k: usize) -> Vec<Scored> {
        let mut all: Vec<Scored> = points
            .iter()
            .enumerate()
            .map(|(i, p)| Scored::new(f.score(p), TupleId(i as u64)))
            .collect();
        all.sort_by(|a, b| b.cmp(a));
        all.truncate(k);
        all
    }

    #[test]
    fn empty_inputs() {
        let (w, l) = setup(&[]);
        let f = ScoreFn::linear(vec![1.0, 1.0]).unwrap();
        let (res, stats) = ta_search(&l, &w, &f, 5);
        assert!(res.is_empty());
        assert_eq!(stats.sorted_accesses, 0);
        let (w, l) = setup(&[[0.5, 0.5]]);
        let (res, _) = ta_search(&l, &w, &f, 0);
        assert!(res.is_empty());
    }

    #[test]
    fn finds_exact_topk() {
        let points = [[0.9, 0.1], [0.2, 0.8], [0.5, 0.5], [0.95, 0.9], [0.1, 0.2]];
        let f = ScoreFn::linear(vec![1.0, 2.0]).unwrap();
        let (w, l) = setup(&points);
        let (res, stats) = ta_search(&l, &w, &f, 3);
        assert_eq!(res, naive_topk(&points, &f, 3));
        assert!(stats.random_accesses <= points.len() as u64);
    }

    #[test]
    fn early_termination_on_skewed_data() {
        // One dominant point and many poor ones: TA must stop well before
        // scanning everything.
        let mut points = vec![[0.99, 0.99]];
        for i in 0..200 {
            let v = 0.3 * (i as f64 / 200.0);
            points.push([v, v]);
        }
        let f = ScoreFn::linear(vec![1.0, 1.0]).unwrap();
        let (w, l) = setup(&points);
        let (res, stats) = ta_search(&l, &w, &f, 1);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].id, TupleId(0));
        assert!(
            stats.sorted_accesses < 50,
            "TA scanned {} entries on trivially skewed data",
            stats.sorted_accesses
        );
    }

    #[test]
    fn mixed_monotonicity() {
        // f = x1 - x2: best tuples have large x1, small x2.
        let points = [[0.9, 0.8], [0.6, 0.1], [0.3, 0.05], [0.99, 0.95]];
        let f = ScoreFn::linear(vec![1.0, -1.0]).unwrap();
        let (w, l) = setup(&points);
        let (res, _) = ta_search(&l, &w, &f, 2);
        assert_eq!(res, naive_topk(&points, &f, 2));
        assert_eq!(res[0].id, TupleId(1), "0.6 - 0.1 = 0.5 is the maximum");
    }

    #[test]
    fn kmax_larger_than_population() {
        let points = [[0.1, 0.2], [0.3, 0.4]];
        let f = ScoreFn::linear(vec![1.0, 1.0]).unwrap();
        let (w, l) = setup(&points);
        let (res, _) = ta_search(&l, &w, &f, 10);
        assert_eq!(res.len(), 2, "returns every tuple when kmax > N");
        assert_eq!(res, naive_topk(&points, &f, 2));
    }

    #[test]
    fn ties_resolved_by_age() {
        // Three tuples with identical scores: the two oldest win top-2.
        let points = [[0.5, 0.5], [0.6, 0.4], [0.4, 0.6], [0.1, 0.1]];
        let f = ScoreFn::linear(vec![1.0, 1.0]).unwrap();
        let (w, l) = setup(&points);
        let (res, _) = ta_search(&l, &w, &f, 2);
        assert_eq!(res, naive_topk(&points, &f, 2));
        assert_eq!(res[0].id, TupleId(0));
        assert_eq!(res[1].id, TupleId(1));
    }

    #[test]
    fn product_function() {
        let points = [[0.9, 0.2], [0.5, 0.5], [0.3, 0.9], [0.7, 0.6]];
        let f = ScoreFn::product(vec![0.1, 0.4]).unwrap();
        let (w, l) = setup(&points);
        let (res, _) = ta_search(&l, &w, &f, 2);
        assert_eq!(res, naive_topk(&points, &f, 2));
    }
}
