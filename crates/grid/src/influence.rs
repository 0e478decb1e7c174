//! Per-cell influence lists, stored *beside* the grid rather than inside it.
//!
//! The paper attaches an influence list to every grid cell. Keeping those
//! lists out of the cell storage ([`crate::cell`]) — in a parallel table
//! indexed by [`CellId`] — preserves the same O(1) search/insert/delete
//! while making the grid itself immutable during query maintenance: the
//! maintenance stage owns the `InfluenceTable` for its queries and only
//! ever *reads* the grid (point lists + geometry).
//!
//! The lists hold **dense query slots** (`QuerySlot`, 4 bytes) rather than
//! `QueryId`s, and each cell stores them as a sorted small-vector: up to
//! [`INLINE_CAP`] slots live inline in the table itself, longer lists
//! spill to a heap `Vec`. The replay hot path iterates a cell's list as
//! one contiguous scan — no hash-set probing, no pointer chase for the
//! common short lists — while membership tests stay O(log n) via binary
//! search.
//!
//! Spilled lists that shrink back keep their allocation as long as it is
//! small ([`RETAIN_CAP`]): influence regions breathe with the stream, and
//! the same boundary cells flip between empty and occupied constantly, so
//! freeing eagerly would realloc every few ticks. Only lists whose
//! capacity outgrew `RETAIN_CAP` are returned to the allocator when they
//! fit inline again; retained capacity is counted by
//! the table's [`HeapBytes`] impl.
//!
//! Beside the lists the table keeps one **listed bit** per cell, set
//! exactly while the cell's list is non-empty ([`InfluenceTable::is_listed`]).
//! `insert` and `remove` maintain it, so it never drifts from the list,
//! retained buffer or not. It answers the question every event of a cycle
//! asks first — does any query list this cell? — from 1 bit a cell
//! instead of the 16-byte list: 2.6 KB on a 12⁴ grid, which stays in L1
//! where the lists (332 KB) do not.

use crate::grid::CellId;
use tkm_common::{HeapBytes, QuerySlot};

/// Slots stored inline (inside the table's cell array) before a list
/// spills to the heap. Three slots keep the whole per-cell variant at 16
/// bytes — the empty-table footprint is what every event probe walks, so
/// it is kept as small as the inline optimisation allows.
pub const INLINE_CAP: usize = 3;

/// Hysteresis threshold for [`InfluenceTable::remove`]: a spilled list
/// that shrinks to inline size keeps its heap buffer unless its capacity
/// exceeds this many slots.
pub const RETAIN_CAP: usize = 64;

/// One cell's influence list: a sorted set of dense query slots.
#[derive(Debug)]
enum CellList {
    /// At most [`INLINE_CAP`] slots, stored in place (sorted ascending).
    Inline {
        len: u8,
        ids: [QuerySlot; INLINE_CAP],
    },
    /// Spilled to the heap (sorted ascending). Boxed so the variant stays
    /// 16 bytes wide (a bare `Vec` would widen every cell to 32); long
    /// lists pay one extra pointer hop, short ones never leave the table.
    #[allow(clippy::box_collection)]
    Spilled(Box<Vec<QuerySlot>>),
}

/// Every cell pays this footprint even when empty; keep it one sixteenth
/// of a cache line.
const _: () = assert!(std::mem::size_of::<CellList>() == 16);

impl CellList {
    const EMPTY: CellList = CellList::Inline {
        len: 0,
        ids: [QuerySlot(0); INLINE_CAP],
    };

    #[inline]
    fn as_slice(&self) -> &[QuerySlot] {
        match self {
            CellList::Inline { len, ids } => &ids[..*len as usize],
            CellList::Spilled(v) => v,
        }
    }

    fn insert(&mut self, q: QuerySlot) -> bool {
        match self {
            CellList::Inline { len, ids } => {
                let n = *len as usize;
                let Err(pos) = ids[..n].binary_search(&q) else {
                    return false;
                };
                if n < INLINE_CAP {
                    ids.copy_within(pos..n, pos + 1);
                    ids[pos] = q;
                    *len += 1;
                } else {
                    // Spill: move the inline slots plus the newcomer to the
                    // heap, preserving sorted order.
                    let mut v = Vec::with_capacity(INLINE_CAP * 2 + 2);
                    v.extend_from_slice(&ids[..pos]);
                    v.push(q);
                    v.extend_from_slice(&ids[pos..]);
                    *self = CellList::Spilled(Box::new(v));
                }
                true
            }
            CellList::Spilled(v) => {
                let Err(pos) = v.binary_search(&q) else {
                    return false;
                };
                v.insert(pos, q);
                true
            }
        }
    }

    fn remove(&mut self, q: QuerySlot) -> bool {
        match self {
            CellList::Inline { len, ids } => {
                let n = *len as usize;
                let Ok(pos) = ids[..n].binary_search(&q) else {
                    return false;
                };
                ids.copy_within(pos + 1..n, pos);
                *len -= 1;
                true
            }
            CellList::Spilled(v) => {
                let Ok(pos) = v.binary_search(&q) else {
                    return false;
                };
                v.remove(pos);
                // Hysteresis: keep the buffer for the next re-expansion
                // unless it grew genuinely large.
                if v.len() <= INLINE_CAP && v.capacity() > RETAIN_CAP {
                    let mut ids = [QuerySlot(0); INLINE_CAP];
                    ids[..v.len()].copy_from_slice(v);
                    *self = CellList::Inline {
                        len: v.len() as u8,
                        ids,
                    };
                }
                true
            }
        }
    }
}

impl HeapBytes for CellList {
    fn heap_bytes(&self) -> usize {
        match self {
            CellList::Inline { .. } => 0,
            CellList::Spilled(v) => v.heap_bytes(),
        }
    }
}

/// Influence lists for every cell of one grid, owned by one maintenance
/// domain (one engine's maintenance stage).
#[derive(Debug)]
pub struct InfluenceTable {
    cells: Vec<CellList>,
    /// Bit `c % 64` of word `c / 64` is set while cell `c`'s list is
    /// non-empty.
    listed: Vec<u64>,
}

impl InfluenceTable {
    /// Creates an empty table covering a grid with `num_cells` cells.
    pub fn new(num_cells: usize) -> InfluenceTable {
        let mut cells = Vec::with_capacity(num_cells);
        cells.resize_with(num_cells, || CellList::EMPTY);
        InfluenceTable {
            cells,
            listed: vec![0; num_cells.div_ceil(64)],
        }
    }

    /// Number of cells covered (must match the grid).
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Registers a query slot in the cell's influence list; returns
    /// `false` if already present.
    pub fn insert(&mut self, cell: CellId, q: QuerySlot) -> bool {
        let c = cell.0 as usize;
        let added = self.cells[c].insert(q);
        if added {
            self.listed[c / 64] |= 1 << (c % 64);
        }
        added
    }

    /// Deregisters a query slot from the cell; returns `true` if it was
    /// present. Shrunk lists retain their allocation below the
    /// [`RETAIN_CAP`] hysteresis threshold (boundary cells flip between
    /// empty and occupied every few ticks under a sliding window).
    pub fn remove(&mut self, cell: CellId, q: QuerySlot) -> bool {
        let c = cell.0 as usize;
        let removed = self.cells[c].remove(q);
        if removed && self.cells[c].as_slice().is_empty() {
            self.listed[c / 64] &= !(1 << (c % 64));
        }
        removed
    }

    /// Whether any query is registered in this cell: its list is
    /// non-empty. Reads the cell's listed bit, not its list.
    #[inline]
    pub fn is_listed(&self, cell: CellId) -> bool {
        let c = cell.0 as usize;
        self.listed[c / 64] >> (c % 64) & 1 != 0
    }

    /// Whether the query slot is registered in this cell.
    #[inline]
    pub fn contains(&self, cell: CellId, q: QuerySlot) -> bool {
        self.as_slice(cell).binary_search(&q).is_ok()
    }

    /// Number of queries influenced by this cell.
    #[inline]
    pub fn cell_len(&self, cell: CellId) -> usize {
        self.as_slice(cell).len()
    }

    /// The cell's influence list as a sorted contiguous slice — the
    /// replay hot path iterates this directly.
    #[inline]
    pub fn as_slice(&self, cell: CellId) -> &[QuerySlot] {
        self.cells[cell.0 as usize].as_slice()
    }

    /// Iterates the query slots registered in one cell (ascending).
    pub fn iter(&self, cell: CellId) -> impl Iterator<Item = QuerySlot> + '_ {
        self.as_slice(cell).iter().copied()
    }

    /// Total number of (cell, query) entries across all cells.
    pub fn total_entries(&self) -> usize {
        self.cells.iter().map(|s| s.as_slice().len()).sum()
    }
}

/// The cell array, the listed bits and the spilled lists, including
/// capacity retained by the remove hysteresis.
impl HeapBytes for InfluenceTable {
    fn heap_bytes(&self) -> usize {
        self.cells.heap_bytes()
            + self.listed.heap_bytes()
            + self.cells.iter().map(CellList::heap_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut t = InfluenceTable::new(4);
        assert_eq!(t.num_cells(), 4);
        assert_eq!(t.cell_len(CellId(1)), 0);
        assert!(t.insert(CellId(1), QuerySlot(7)));
        assert!(!t.insert(CellId(1), QuerySlot(7)), "duplicate registration");
        assert!(t.insert(CellId(1), QuerySlot(8)));
        assert!(t.insert(CellId(3), QuerySlot(7)));
        assert!(t.contains(CellId(1), QuerySlot(7)));
        assert!(!t.contains(CellId(0), QuerySlot(7)));
        assert_eq!(t.cell_len(CellId(1)), 2);
        assert_eq!(t.total_entries(), 3);
        let ids: Vec<u32> = t.iter(CellId(1)).map(|q| q.0).collect();
        assert_eq!(ids, vec![7, 8], "sorted contiguous scan");
        assert!(t.remove(CellId(1), QuerySlot(7)));
        assert!(!t.remove(CellId(1), QuerySlot(7)));
        assert!(t.remove(CellId(1), QuerySlot(8)));
        assert_eq!(t.cell_len(CellId(1)), 0);
    }

    #[test]
    fn lists_stay_sorted_across_spill() {
        let mut t = InfluenceTable::new(1);
        // Insert out of order, past the inline capacity.
        for q in [9u32, 3, 7, 1, 5, 8, 2, 6, 0, 4] {
            assert!(t.insert(CellId(0), QuerySlot(q)));
        }
        let ids: Vec<u32> = t.iter(CellId(0)).map(|q| q.0).collect();
        assert_eq!(ids, (0..10).collect::<Vec<u32>>());
        assert_eq!(t.as_slice(CellId(0)).len(), 10);
        for q in 0..10 {
            assert!(t.contains(CellId(0), QuerySlot(q)));
        }
        assert!(!t.contains(CellId(0), QuerySlot(10)));
        // Removing from the middle keeps order.
        assert!(t.remove(CellId(0), QuerySlot(4)));
        let ids: Vec<u32> = t.iter(CellId(0)).map(|q| q.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn inline_lists_need_no_heap() {
        let mut t = InfluenceTable::new(64);
        let empty = t.heap_bytes();
        for cell in 0..64u32 {
            for q in 0..INLINE_CAP as u32 {
                t.insert(CellId(cell), QuerySlot(q));
            }
        }
        assert_eq!(
            t.heap_bytes(),
            empty,
            "up to {INLINE_CAP} slots per cell stay inline"
        );
    }

    /// Satellite regression: a spilled list that shrinks back keeps its
    /// buffer (no realloc churn on flip-flopping boundary cells), and the
    /// retained capacity is visible in `heap_bytes`.
    #[test]
    fn remove_hysteresis_retains_small_buffers() {
        let mut t = InfluenceTable::new(1);
        for q in 0..(INLINE_CAP as u32 + 2) {
            t.insert(CellId(0), QuerySlot(q));
        }
        let spilled = t.heap_bytes();
        assert!(spilled > InfluenceTable::new(1).heap_bytes(), "heap in use");
        for q in 0..(INLINE_CAP as u32 + 2) {
            t.remove(CellId(0), QuerySlot(q));
        }
        assert_eq!(t.cell_len(CellId(0)), 0);
        assert_eq!(
            t.heap_bytes(),
            spilled,
            "small buffer retained after emptying (hysteresis)"
        );
        // Re-inserting after the flip reuses the retained buffer.
        assert!(t.insert(CellId(0), QuerySlot(3)));
        assert_eq!(t.heap_bytes(), spilled);
    }

    /// The hysteresis is bounded: buffers that outgrew `RETAIN_CAP` are
    /// freed once the list fits inline again.
    #[test]
    fn remove_hysteresis_frees_large_buffers() {
        let mut t = InfluenceTable::new(1);
        let n = RETAIN_CAP as u32 * 2;
        for q in 0..n {
            t.insert(CellId(0), QuerySlot(q));
        }
        let spilled = t.heap_bytes();
        for q in 0..n {
            t.remove(CellId(0), QuerySlot(q));
        }
        assert!(
            t.heap_bytes() < spilled,
            "oversized buffer freed when back to inline size"
        );
        assert_eq!(
            t.heap_bytes(),
            InfluenceTable::new(1).heap_bytes(),
            "list is inline again"
        );
    }

    #[test]
    fn empty_table_is_flat() {
        let t = InfluenceTable::new(1 << 12);
        assert_eq!(
            t.heap_bytes(),
            (1 << 12) * std::mem::size_of::<CellList>() + (1 << 12) / 64 * 8,
            "no per-cell heap allocation while empty: the lists and the bit words"
        );
    }

    /// After every insert and remove, each cell's listed bit says whether
    /// its list is non-empty: through spills past `INLINE_CAP` and back,
    /// duplicate inserts and absent removes, lists emptied with their
    /// small buffer retained, and a list above `RETAIN_CAP` whose buffer
    /// is freed when it shrinks back.
    #[test]
    fn listed_bit_never_drifts_from_the_list() {
        // Three bit words, the last one partly used.
        let cells = 130u32;
        let mut t = InfluenceTable::new(cells as usize);
        let flat = t.heap_bytes();
        let check = |t: &InfluenceTable, step: &str| {
            for c in (0..cells).map(CellId) {
                assert_eq!(
                    t.is_listed(c),
                    !t.as_slice(c).is_empty(),
                    "{c:?} after {step}"
                );
            }
        };
        check(&t, "new");
        // Seeded churn of eight slots: lists spill and shrink back.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut spilled = false;
        for step in 0..4000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let cell = CellId((state >> 33) as u32 % cells);
            let q = QuerySlot((state >> 20) as u32 % 8);
            if state >> 63 == 0 {
                t.insert(cell, q);
            } else {
                t.remove(cell, q);
            }
            spilled |= t.cell_len(cell) > INLINE_CAP;
            check(&t, &format!("churn step {step}"));
        }
        assert!(spilled, "some list spilled past INLINE_CAP");
        // Emptied lists keep their small buffers and clear their bits.
        for c in (0..cells).map(CellId) {
            for q in (0..8).map(QuerySlot) {
                t.remove(c, q);
                check(&t, &format!("emptying {c:?}"));
            }
        }
        assert_eq!(t.total_entries(), 0);
        assert!(t.heap_bytes() > flat, "small buffers retained");
        // One list grows past RETAIN_CAP, then its buffer is freed.
        let big = CellId(cells - 1);
        let retained = t.heap_bytes();
        let n = RETAIN_CAP as u32 * 2;
        for q in (0..n).map(QuerySlot) {
            t.insert(big, q);
            check(&t, &format!("growing {q:?}"));
        }
        for q in (0..n).map(QuerySlot) {
            t.remove(big, q);
            check(&t, &format!("shrinking {q:?}"));
        }
        assert!(matches!(t.cells[big.0 as usize], CellList::Inline { .. }));
        assert!(t.heap_bytes() <= retained, "large buffer freed");
    }
}
