//! Per-dimension sorted lists (Figure 3 of the paper).
//!
//! One ordered index per attribute, each holding `(value, id)` pairs for
//! every valid tuple. TA walks a list from its preferred end (direction
//! chosen per query monotonicity); arrivals/expiries update all `d` lists —
//! the `O(r·d·log N)` per-cycle maintenance cost the paper attributes to
//! TSL.

use std::collections::BTreeSet;

use tkm_common::heap::btree_bytes;
use tkm_common::{HeapBytes, Monotonicity, OrderedF64, Result, TkmError, TupleId, MAX_DIMS};

/// `d` sorted lists over the valid tuples, one per dimension.
#[derive(Debug)]
pub struct SortedLists {
    lists: Vec<BTreeSet<(OrderedF64, TupleId)>>,
}

impl SortedLists {
    /// Creates empty lists for `dims` dimensions.
    pub fn new(dims: usize) -> Result<SortedLists> {
        if dims == 0 || dims > MAX_DIMS {
            return Err(TkmError::InvalidParameter(format!(
                "SortedLists: dimensionality {dims} outside [1, {MAX_DIMS}]"
            )));
        }
        Ok(SortedLists {
            lists: (0..dims).map(|_| BTreeSet::new()).collect(),
        })
    }

    /// Dimensionality.
    #[inline]
    pub(crate) fn dims(&self) -> usize {
        self.lists.len()
    }

    /// Number of tuples indexed (same in every list).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.lists[0].len()
    }

    /// Whether the lists are empty.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.lists[0].is_empty()
    }

    /// Indexes a tuple in all `d` lists.
    pub fn insert(&mut self, id: TupleId, coords: &[f64]) {
        debug_assert_eq!(coords.len(), self.dims());
        for (list, &x) in self.lists.iter_mut().zip(coords) {
            let fresh = list.insert((OrderedF64::new(x), id));
            debug_assert!(fresh, "tuple {id} already indexed");
        }
    }

    /// Removes a tuple from all `d` lists.
    pub(crate) fn remove(&mut self, id: TupleId, coords: &[f64]) {
        debug_assert_eq!(coords.len(), self.dims());
        for (list, &x) in self.lists.iter_mut().zip(coords) {
            let existed = list.remove(&(OrderedF64::new(x), id));
            debug_assert!(existed, "tuple {id} missing from sorted list");
        }
    }

    /// Iterates one dimension's list starting from the end preferred under
    /// `mono` (sorted access of TA): descending values for increasing
    /// dimensions, ascending for decreasing ones.
    pub(crate) fn sorted_access(
        &self,
        dim: usize,
        mono: Monotonicity,
    ) -> Box<dyn Iterator<Item = (f64, TupleId)> + '_> {
        let list = &self.lists[dim];
        match mono {
            Monotonicity::Increasing => Box::new(list.iter().rev().map(|(v, id)| (v.get(), *id))),
            Monotonicity::Decreasing => Box::new(list.iter().map(|(v, id)| (v.get(), *id))),
        }
    }
}

/// The list array plus the `d` trees' nodes at the fill this engine's
/// churn leaves them with (uniformly spread values in, oldest id out).
/// Under a live-bytes allocator one tree holds 28.3–30.1 bytes an entry
/// after 30–300 cycles at N = 10³…10⁶ and 27.0–27.8 freshly filled (≈ 7.6
/// entries a node, the ln 2 fill of random insertion); 7 entries a node is
/// 29.1. `tests/space_accounting.rs` holds the engine's total to ±5 % of
/// its live heap.
impl HeapBytes for SortedLists {
    fn heap_bytes(&self) -> usize {
        const ENTRIES_PER_NODE: f64 = 7.0;
        self.lists.heap_bytes()
            + self
                .lists
                .iter()
                .map(|l| btree_bytes::<(OrderedF64, TupleId), ()>(l.len(), ENTRIES_PER_NODE))
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_dims() {
        assert!(SortedLists::new(0).is_err());
        assert!(SortedLists::new(MAX_DIMS + 1).is_err());
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut l = SortedLists::new(2).unwrap();
        l.insert(TupleId(0), &[0.3, 0.9]);
        l.insert(TupleId(1), &[0.7, 0.1]);
        assert_eq!(l.len(), 2);
        l.remove(TupleId(0), &[0.3, 0.9]);
        assert_eq!(l.len(), 1);
        let remaining: Vec<(f64, TupleId)> = l.sorted_access(0, Monotonicity::Increasing).collect();
        assert_eq!(remaining, vec![(0.7, TupleId(1))]);
    }

    #[test]
    fn sorted_access_directions() {
        let mut l = SortedLists::new(1).unwrap();
        l.insert(TupleId(0), &[0.5]);
        l.insert(TupleId(1), &[0.2]);
        l.insert(TupleId(2), &[0.8]);
        let desc: Vec<f64> = l
            .sorted_access(0, Monotonicity::Increasing)
            .map(|(v, _)| v)
            .collect();
        assert_eq!(desc, vec![0.8, 0.5, 0.2]);
        let asc: Vec<f64> = l
            .sorted_access(0, Monotonicity::Decreasing)
            .map(|(v, _)| v)
            .collect();
        assert_eq!(asc, vec![0.2, 0.5, 0.8]);
    }

    #[test]
    fn duplicate_values_disambiguated_by_id() {
        let mut l = SortedLists::new(1).unwrap();
        l.insert(TupleId(0), &[0.5]);
        l.insert(TupleId(1), &[0.5]);
        assert_eq!(l.len(), 2);
        l.remove(TupleId(0), &[0.5]);
        let rest: Vec<TupleId> = l
            .sorted_access(0, Monotonicity::Increasing)
            .map(|(_, id)| id)
            .collect();
        assert_eq!(rest, vec![TupleId(1)]);
    }
}
