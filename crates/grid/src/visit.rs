//! Reusable per-traversal visited markers.
//!
//! The top-k computation module and the influence-list clean-up walks must
//! en-heap / en-list every cell at most once per traversal. Clearing a
//! boolean array of `m^d` cells for every query would dominate the cost of
//! small traversals, so we use the classic generation-stamp trick: a `u32`
//! per cell plus an epoch counter; bumping the epoch invalidates all marks
//! in O(1).

use crate::grid::CellId;
use tkm_common::HeapBytes;

/// Visited markers over the cells of one grid, reusable across traversals.
#[derive(Debug)]
pub struct VisitStamps {
    stamps: Vec<u32>,
    epoch: u32,
}

impl VisitStamps {
    /// Creates markers for a grid with `num_cells` cells.
    pub fn new(num_cells: usize) -> VisitStamps {
        VisitStamps {
            stamps: vec![0; num_cells],
            epoch: 0,
        }
    }

    /// Starts a new traversal, invalidating all previous marks.
    pub fn begin(&mut self) {
        if self.epoch == u32::MAX {
            // Epoch wrap: physically reset once every 2^32 traversals.
            self.stamps.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Marks a cell; returns `true` if it was not yet marked in this
    /// traversal.
    #[inline]
    pub fn mark(&mut self, cell: CellId) -> bool {
        let slot = &mut self.stamps[cell.0 as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }

    /// Whether the cell is marked in the current traversal.
    #[inline]
    pub fn is_marked(&self, cell: CellId) -> bool {
        self.stamps[cell.0 as usize] == self.epoch
    }

    /// Number of cells covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// Whether the marker set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }
}

impl HeapBytes for VisitStamps {
    fn heap_bytes(&self) -> usize {
        self.stamps.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_once_per_epoch() {
        let mut v = VisitStamps::new(10);
        v.begin();
        assert!(v.mark(CellId(3)));
        assert!(!v.mark(CellId(3)));
        assert!(v.is_marked(CellId(3)));
        assert!(!v.is_marked(CellId(4)));

        v.begin();
        assert!(!v.is_marked(CellId(3)), "new epoch clears marks");
        assert!(v.mark(CellId(3)));
    }

    #[test]
    fn epoch_wrap_resets_physically() {
        let mut v = VisitStamps::new(4);
        v.epoch = u32::MAX - 1;
        v.begin(); // epoch = MAX
        assert!(v.mark(CellId(0)));
        v.begin(); // wrap: fill(0), epoch = 1
        assert_eq!(v.epoch, 1);
        assert!(v.mark(CellId(0)), "stamp from before the wrap is invalid");
    }
}
