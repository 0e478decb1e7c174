//! Cell storage: every cell's points as a chain of fixed-size chunks in
//! one arena owned by the grid.
//!
//! Influence lists live *outside* the cells (see
//! [`crate::influence::InfluenceTable`]) so that the grid stays immutable
//! during query maintenance and can be shared read-only across maintenance
//! shards.
//!
//! §4.1 gives each cell a FIFO point list with O(1) append at the tail and
//! O(1) removal at the head, and every stream tuple pays both whatever the
//! queries do. The storage is built for that write side:
//!
//! * one dense array of 16-byte **cell heads** (`head` / `tail` chunk,
//!   offset of the oldest point in the head chunk, fill of the tail chunk,
//!   length);
//! * two parallel **point arenas**, ids and packed coordinates, cut into
//!   chunks of [`CHUNK_POINTS`] points, with one `next` link per chunk;
//! * a **free list** threaded through the same links.
//!
//! A push is head → one id store + `d` coordinate stores, taking a chunk
//! off the free list when the tail is full. A removal is head → offset
//! bump, handing an exhausted chunk back. No cell owns a heap object,
//! nothing is compacted, and a stored point never moves; the arena grows
//! in bounded steps (an eighth at a time) until the window is full and
//! keeps its high-water mark from then on.
//!
//! Reads go through [`CellPoints`], a `Copy` view that yields the cell's
//! points as `(ids, coords)` slices chunk by chunk, oldest first: the
//! scoring kernels see the same two contiguous blocks as before, in runs
//! of at most [`CHUNK_POINTS`] points, at the price of one link hop per
//! chunk. Cells are written far more often than read (every tuple is
//! pushed and popped once; recomputation scans a few hundred points a
//! tick), which is why the layout favours the writer.
//!
//! [`CHUNK_POINTS`] is 4 by a measurement that predates the default grid
//! sized for its window (tables in `docs/ARCHITECTURE.md`). On the
//! benchmark's ingest-bound workload 4, 8 and 16 ran at the same speed —
//! the write side is bound by the cold lines it touches, not by chunk
//! turnover. On the sparse, maintenance-bound ones, then on the paper's
//! 12⁴-cell grid at half a point per cell, every chunk was mostly
//! air, and the bigger the chunk the more of the cache the arena takes
//! from the per-query state: 8 costs 2–4 % of throughput there and 16
//! also holds *more* memory than the per-cell `Vec`s did, while 4 runs
//! within 1 % of them and holds the least on every workload. The price is
//! on the read side of dense cells, which is rare and ungated: scanning
//! 48-point d = 4 cells costs 2.8 ns a point against 1.5 over one
//! contiguous block (when the sizes were compared: +50 % at 4, +25 % at
//! 8, +15 % at 16). The kernels' four-point lanes make 4 the smallest
//! size worth having. Fitted grids now hold about 20 points a cell on
//! every shape, so the choice is due to be measured again (ROADMAP
//! item 4).
//!
//! The two deletion disciplines share the storage:
//!
//! * **FIFO** (sliding windows): only a cell's oldest point may leave;
//!   anything else is [`TkmError::UnknownTuple`].
//! * **Hash** (explicit-deletion update streams, §7): one grid-level
//!   id → (cell, position) map finds the victim, the cell's *oldest* point
//!   is moved into the hole and the front is popped — a singly linked
//!   chain pops only at its head, so filling from the front lets both
//!   modes share both primitives. Order inside a Hash cell is therefore
//!   arbitrary, as it was under swap-remove.

use std::collections::hash_map::Entry;

use tkm_common::{FxHashMap, Result, TkmError, TupleId};

/// How a cell deletes from its point chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellMode {
    /// Pop-front only — sliding windows, where per-cell insertions and
    /// deletions both happen in arrival order (O(1) each, §4.1).
    Fifo,
    /// Id-indexed removal — explicit-deletion update streams (§7), where
    /// deletions strike anywhere in the cell.
    Hash,
}

/// Points per arena chunk.
pub const CHUNK_POINTS: usize = 4;

/// "No chunk": an empty cell's `head`/`tail`, the end of a chain and of
/// the free list.
const NIL: u32 = u32::MAX;

/// Smallest arena growth step, in chunks (larger arenas grow by an eighth).
const GROW_MIN: usize = 64;

/// Where a Hash-mode point lives: its cell and its arena position
/// (`chunk · CHUNK_POINTS + offset`).
type Slot = (u32, u32);

/// One cell's chain: 16 bytes, four to a cache line.
#[derive(Clone, Copy, Debug)]
struct CellHead {
    /// Chunk holding the oldest point.
    head: u32,
    /// Chunk holding the newest point.
    tail: u32,
    /// Live points in the cell.
    len: u32,
    /// Offset of the oldest point inside `head`.
    head_off: u16,
    /// Points written to `tail`.
    tail_fill: u16,
}

/// An empty cell owns no chunk; its "full" tail makes the first push take
/// one through the same branch a full tail chunk does.
const EMPTY: CellHead = CellHead {
    head: NIL,
    tail: NIL,
    len: 0,
    head_off: 0,
    tail_fill: CHUNK_POINTS as u16,
};

/// The point storage of a whole grid.
#[derive(Debug)]
pub(crate) struct PointArena {
    mode: CellMode,
    dims: usize,
    heads: Vec<CellHead>,
    /// Tuple ids, [`CHUNK_POINTS`] per chunk.
    ids: Vec<TupleId>,
    /// Packed coordinates, `dims` per point, parallel to `ids`.
    coords: Vec<f64>,
    /// Per chunk: the next (newer) chunk of its cell, or the next free one.
    next: Vec<u32>,
    /// First free chunk.
    free: u32,
    /// Hash mode only: where each stored id lives.
    index: FxHashMap<TupleId, Slot>,
}

impl PointArena {
    pub(crate) fn new(mode: CellMode, dims: usize, cells: usize) -> PointArena {
        PointArena {
            mode,
            dims,
            heads: vec![EMPTY; cells],
            ids: Vec::new(),
            coords: Vec::new(),
            next: Vec::new(),
            free: NIL,
            index: FxHashMap::default(),
        }
    }

    /// Appends a point to `cell` (the newest position).
    #[inline]
    pub(crate) fn push(&mut self, cell: usize, id: TupleId, coords: &[f64]) {
        debug_assert_eq!(coords.len(), self.dims);
        let mut h = self.heads[cell];
        if h.tail_fill as usize == CHUNK_POINTS {
            if self.free == NIL {
                // Bounded arena growth step; none once the window is full.
                self.grow();
            }
            let chunk = self.free;
            self.free = self.next[chunk as usize];
            self.next[chunk as usize] = NIL;
            if h.tail == NIL {
                h.head = chunk;
                h.head_off = 0;
            } else {
                self.next[h.tail as usize] = chunk;
            }
            h.tail = chunk;
            h.tail_fill = 0;
        }
        let pos = h.tail as usize * CHUNK_POINTS + h.tail_fill as usize;
        self.ids[pos] = id;
        let base = pos * self.dims;
        // Element-wise stores: `copy_from_slice` lowers to a memcpy call
        // for runtime-length slices, which costs more than d stores for
        // the tiny d of a point.
        for (slot, &c) in self.coords[base..base + self.dims].iter_mut().zip(coords) {
            *slot = c;
        }
        h.tail_fill += 1;
        h.len += 1;
        self.heads[cell] = h;
        if self.mode == CellMode::Hash {
            let prev = self.index.insert(id, (cell as u32, pos as u32));
            debug_assert!(prev.is_none(), "duplicate insert of {id:?}");
        }
    }

    /// Removes `id` from `cell`: the cell's oldest point in FIFO mode, any
    /// of its points in Hash mode. Anything else is
    /// [`TkmError::UnknownTuple`] and changes nothing.
    #[inline]
    pub(crate) fn remove(&mut self, cell: usize, id: TupleId) -> Result<()> {
        let mut h = self.heads[cell];
        if h.len == 0 {
            return Err(TkmError::UnknownTuple(id));
        }
        let front = h.head as usize * CHUNK_POINTS + h.head_off as usize;
        match self.mode {
            CellMode::Fifo => {
                if self.ids[front] != id {
                    return Err(TkmError::UnknownTuple(id));
                }
            }
            CellMode::Hash => {
                let pos = match self.index.entry(id) {
                    Entry::Occupied(e) if e.get().0 == cell as u32 => e.remove().1 as usize,
                    _ => return Err(TkmError::UnknownTuple(id)),
                };
                if pos != front {
                    let moved = self.ids[front];
                    self.ids[pos] = moved;
                    let d = self.dims;
                    self.coords.copy_within(front * d..(front + 1) * d, pos * d);
                    self.index.insert(moved, (cell as u32, pos as u32));
                }
            }
        }
        h.len -= 1;
        h.head_off += 1;
        if h.len == 0 {
            // The last point of a cell sits in its only chunk.
            self.release(h.head);
            h = EMPTY;
        } else if h.head_off as usize == CHUNK_POINTS {
            let exhausted = h.head;
            h.head = self.next[exhausted as usize];
            h.head_off = 0;
            self.release(exhausted);
        }
        self.heads[cell] = h;
        Ok(())
    }

    /// The cell a stored id lives in — Hash mode only (a FIFO arena keeps
    /// no index and answers `None`).
    #[inline]
    pub(crate) fn cell_of(&self, id: TupleId) -> Option<usize> {
        self.index.get(&id).map(|slot| slot.0 as usize)
    }

    #[inline]
    fn release(&mut self, chunk: u32) {
        self.next[chunk as usize] = self.free;
        self.free = chunk;
    }

    /// Adds an eighth more chunks (at least [`GROW_MIN`]) to an arena whose
    /// free list ran dry, so the chunks held never exceed 1.125 × the most
    /// ever in use plus one minimal step. The new chunks go on the free
    /// list in address order.
    #[cold]
    fn grow(&mut self) {
        let held = self.next.len();
        let step = (held / 8).max(GROW_MIN);
        let chunks = held + step;
        // Chunk indices and Hash positions are u32; wrapping would corrupt stored points.
        assert!(
            chunks <= NIL as usize / CHUNK_POINTS,
            "point arena exceeds the u32 position space"
        );
        let points = chunks * CHUNK_POINTS;
        self.ids.reserve_exact(step * CHUNK_POINTS);
        self.ids.resize(points, TupleId(0));
        self.coords.reserve_exact(step * CHUNK_POINTS * self.dims);
        self.coords.resize(points * self.dims, 0.0);
        self.next.reserve_exact(step);
        self.next.extend((held + 1..chunks).map(|c| c as u32));
        self.next.push(self.free);
        self.free = held as u32;
    }

    #[inline]
    pub(crate) fn num_cells(&self) -> usize {
        self.heads.len()
    }

    #[inline]
    pub(crate) fn points(&self, cell: usize) -> CellPoints<'_> {
        self.view(self.heads[cell])
    }

    /// The view of the chain `head` describes, its first pair sliced.
    #[inline]
    fn view(&self, head: CellHead) -> CellPoints<'_> {
        let (ids, coords) = if head.len == 0 {
            (&[][..], &[][..])
        } else {
            self.slices(head.head, head.head_off as usize, head.len as usize)
        };
        CellPoints {
            arena: self,
            head,
            ids,
            coords,
        }
    }

    /// The points of `chunk` from offset `off` on, at most `left` of them.
    #[inline]
    fn slices(&self, chunk: u32, off: usize, left: usize) -> (&[TupleId], &[f64]) {
        let n = (CHUNK_POINTS - off).min(left);
        let start = chunk as usize * CHUNK_POINTS + off;
        let d = self.dims;
        (
            &self.ids[start..start + n],
            &self.coords[start * d..(start + n) * d],
        )
    }

    /// Chunks the arena holds (in cells or on the free list).
    pub(crate) fn chunks_held(&self) -> usize {
        self.next.len()
    }

    /// Chunks currently linked into cells (walks the free list).
    pub(crate) fn chunks_in_use(&self) -> usize {
        let mut free = 0;
        let mut chunk = self.free;
        while chunk != NIL {
            free += 1;
            chunk = self.next[chunk as usize];
        }
        self.next.len() - free
    }

    /// Heap bytes retained: the cell heads, both point arenas and the
    /// chunk links at capacity, plus the Hash-mode index at its bucket
    /// array size.
    pub(crate) fn space_bytes(&self) -> usize {
        self.heads.capacity() * std::mem::size_of::<CellHead>()
            + self.ids.capacity() * std::mem::size_of::<TupleId>()
            + self.coords.capacity() * std::mem::size_of::<f64>()
            + self.next.capacity() * std::mem::size_of::<u32>()
            + hash_index_bytes(self.index.capacity())
    }
}

/// Read view of one cell's points (or of a suffix of them): oldest first
/// in FIFO grids, arbitrary order in Hash grids. The view slices its first
/// chunk out of the arena when it is made, so a site that scans one view
/// for many queries pays that once.
#[derive(Clone, Copy, Debug)]
pub struct CellPoints<'a> {
    arena: &'a PointArena,
    head: CellHead,
    /// The live points of the head chunk.
    ids: &'a [TupleId],
    coords: &'a [f64],
}

impl<'a> CellPoints<'a> {
    /// Number of points in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.head.len as usize
    }

    /// Whether the view holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head.len == 0
    }

    /// The points as `(ids, packed coords)` slice pairs, one per chunk, at
    /// most [`CHUNK_POINTS`] points apiece and `dims` coordinates per id.
    #[inline]
    pub fn chunks(&self) -> Chunks<'a> {
        Chunks {
            arena: self.arena,
            ids: self.ids,
            coords: self.coords,
            chunk: self.head.head,
            left: self.len() - self.ids.len(),
        }
    }

    /// Iterates `(id, coords)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, &'a [f64])> + 'a {
        let dims = self.arena.dims;
        self.chunks()
            .flat_map(move |(ids, coords)| ids.iter().copied().zip(coords.chunks_exact(dims)))
    }

    /// The view of the `n` newest points: O(1) when they sit in the tail
    /// chunk, one walk of the chain from the head otherwise.
    #[inline]
    pub fn tail(&self, n: usize) -> CellPoints<'a> {
        debug_assert!(n <= self.len());
        let mut head = self.head;
        head.len = n as u32;
        if n <= head.tail_fill as usize {
            head.head = head.tail;
            head.head_off = head.tail_fill - n as u16;
        } else {
            let skip = self.head.head_off as usize + self.len() - n;
            for _ in 0..skip / CHUNK_POINTS {
                head.head = self.arena.next[head.head as usize];
            }
            head.head_off = (skip % CHUNK_POINTS) as u16;
        }
        self.arena.view(head)
    }
}

/// Chunk-by-chunk iterator of a [`CellPoints`] view.
#[derive(Clone, Debug)]
pub struct Chunks<'a> {
    arena: &'a PointArena,
    /// The pair `next` yields (empty once exhausted).
    ids: &'a [TupleId],
    coords: &'a [f64],
    /// The chunk that pair lies in, and the points beyond it.
    chunk: u32,
    left: usize,
}

impl<'a> Iterator for Chunks<'a> {
    type Item = (&'a [TupleId], &'a [f64]);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.ids.is_empty() {
            return None;
        }
        let item = (self.ids, self.coords);
        if self.left > 0 {
            self.chunk = self.arena.next[self.chunk as usize];
            (self.ids, self.coords) = self.arena.slices(self.chunk, 0, self.left);
            self.left -= self.ids.len();
        } else {
            (self.ids, self.coords) = (&[], &[]);
        }
        Some(item)
    }
}

/// Heap footprint of a hashbrown-style table with the given *usable*
/// capacity: the bucket array is sized to the next power of two above
/// `capacity / 0.875` (the 7/8 load factor), and each bucket pays its
/// `(TupleId, Slot)` entry plus one control byte.
pub(crate) fn hash_index_bytes(capacity: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    let buckets = (capacity * 8 / 7 + 1).next_power_of_two();
    buckets * (std::mem::size_of::<(TupleId, Slot)>() + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    type Model = Vec<VecDeque<(TupleId, Vec<f64>)>>;

    /// Coordinates derived from the id, so a misplaced point shows.
    fn coords_of(id: u64, dims: usize) -> Vec<f64> {
        (0..dims)
            .map(|d| (id * 7 + d as u64) as f64 / 1024.0)
            .collect()
    }

    fn push(arena: &mut PointArena, model: &mut Model, cell: usize, id: u64) {
        let coords = coords_of(id, arena.dims);
        arena.push(cell, TupleId(id), &coords);
        model[cell].push_back((TupleId(id), coords));
    }

    /// Chunks a chain of `len` points starting at `head_off` occupies.
    fn chunks_of(head_off: usize, len: usize) -> usize {
        (head_off + len).div_ceil(CHUNK_POINTS)
    }

    /// Everything observable about the arena against the model: per-cell
    /// order through `iter` and through the concatenated `chunks()`, slice
    /// shapes, every `tail(n)`, chunk accounting and exact space.
    fn assert_matches(arena: &PointArena, model: &Model, most_in_use: &mut usize) {
        let d = arena.dims;
        let mut in_use = 0;
        for (cell, want) in model.iter().enumerate() {
            let view = arena.points(cell);
            assert_eq!((view.len(), view.is_empty()), (want.len(), want.is_empty()));
            let got: Vec<(TupleId, Vec<f64>)> =
                view.iter().map(|(id, c)| (id, c.to_vec())).collect();
            assert_eq!(got, Vec::from(want.clone()), "cell {cell}");
            let (mut ids, mut coords) = (Vec::new(), Vec::new());
            for (chunk_ids, chunk_coords) in view.chunks() {
                assert!(!chunk_ids.is_empty() && chunk_ids.len() <= CHUNK_POINTS);
                assert_eq!(chunk_coords.len(), chunk_ids.len() * d);
                ids.extend_from_slice(chunk_ids);
                coords.extend_from_slice(chunk_coords);
            }
            assert_eq!(ids, want.iter().map(|p| p.0).collect::<Vec<_>>());
            assert_eq!(
                coords,
                want.iter().flat_map(|p| p.1.clone()).collect::<Vec<_>>()
            );
            for n in 0..=want.len() {
                let tail: Vec<TupleId> = view.tail(n).iter().map(|(id, _)| id).collect();
                let suffix: Vec<TupleId> = want.iter().skip(want.len() - n).map(|p| p.0).collect();
                assert_eq!(tail, suffix, "cell {cell} tail({n})");
            }
            let h = arena.heads[cell];
            in_use += if want.is_empty() {
                assert_eq!((h.head, h.tail), (NIL, NIL), "an empty cell owns no chunk");
                0
            } else {
                chunks_of(h.head_off as usize, want.len())
            };
        }
        assert_eq!(arena.chunks_in_use(), in_use);
        *most_in_use = (*most_in_use).max(in_use);
        let held = arena.chunks_held();
        assert!(
            held <= *most_in_use + *most_in_use / 8 + GROW_MIN,
            "{held} chunks held for a high-water mark of {most_in_use}"
        );
        assert_eq!(
            (arena.ids.len(), arena.coords.len()),
            (held * CHUNK_POINTS, held * CHUNK_POINTS * d)
        );
        assert_eq!(
            arena.space_bytes(),
            model.len() * 16
                + arena.ids.capacity() * 8
                + arena.coords.capacity() * 8
                + arena.next.capacity() * 4
                + hash_index_bytes(arena.index.capacity())
        );
        match arena.mode {
            CellMode::Fifo => assert_eq!(arena.index.capacity(), 0),
            CellMode::Hash => {
                assert_eq!(
                    arena.index.len(),
                    model.iter().map(VecDeque::len).sum::<usize>()
                )
            }
        }
    }

    #[test]
    fn fifo_point_list_enforces_order() {
        let mut a = PointArena::new(CellMode::Fifo, 2, 1);
        a.push(0, TupleId(1), &[0.1, 0.2]);
        a.push(0, TupleId(5), &[0.3, 0.4]);
        assert_eq!(a.points(0).len(), 2);
        // Removing a non-front id is an engine bug and must be caught.
        assert!(a.remove(0, TupleId(5)).is_err());
        assert!(a.remove(0, TupleId(1)).is_ok());
        let left: Vec<(TupleId, &[f64])> = a.points(0).iter().collect();
        assert_eq!(left, [(TupleId(5), &[0.3, 0.4][..])]);
        assert!(a.remove(0, TupleId(5)).is_ok());
        assert!(a.points(0).is_empty());
    }

    #[test]
    fn hash_point_list_random_removal() {
        let mut a = PointArena::new(CellMode::Hash, 1, 2);
        for i in 0..5 {
            a.push(0, TupleId(i), &[i as f64 / 10.0]);
        }
        assert!(a.remove(0, TupleId(3)).is_ok());
        assert!(a.remove(0, TupleId(3)).is_err());
        // Stored, but in another cell.
        assert_eq!(
            a.remove(1, TupleId(4)),
            Err(TkmError::UnknownTuple(TupleId(4)))
        );
        assert_eq!(a.points(0).len(), 4);
        assert_eq!(
            (a.cell_of(TupleId(4)), a.cell_of(TupleId(3))),
            (Some(0), None)
        );
        let mut pts: Vec<(u64, f64)> = a.points(0).iter().map(|(t, c)| (t.0, c[0])).collect();
        pts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(pts, vec![(0, 0.0), (1, 0.1), (2, 0.2), (4, 0.4)]);
    }

    /// The id and coordinate arenas must stay aligned when the front point
    /// is moved into a hole, across chunk boundaries.
    #[test]
    fn hash_swap_remove_keeps_blocks_aligned() {
        let mut a = PointArena::new(CellMode::Hash, 2, 1);
        for i in 0..20u64 {
            a.push(0, TupleId(i), &[i as f64 / 32.0, i as f64 / 64.0]);
        }
        // Remove in an arbitrary (non-FIFO) order.
        for victim in [14u64, 0, 19, 5, 1, 8, 9, 10, 11] {
            assert!(a.remove(0, TupleId(victim)).is_ok());
        }
        assert_eq!(a.points(0).len(), 11);
        for (id, coords) in a.points(0).iter() {
            assert_eq!(coords, &[id.0 as f64 / 32.0, id.0 as f64 / 64.0]);
        }
    }

    /// Cells holding exactly C−1, C, C+1 and 2C+1 points, filled and then
    /// drained one point at a time: the chunk shapes and every suffix view
    /// are checked at each length, with the head offset at every value.
    #[test]
    fn chunk_boundary_sizes() {
        const C: usize = CHUNK_POINTS;
        for mode in [CellMode::Fifo, CellMode::Hash] {
            let sizes = [C - 1, C, C + 1, 2 * C + 1];
            let mut a = PointArena::new(mode, 3, sizes.len());
            let mut model: Model = vec![VecDeque::new(); sizes.len()];
            let mut most = 0;
            let mut id = 0;
            for (cell, &size) in sizes.iter().enumerate() {
                for _ in 0..size {
                    push(&mut a, &mut model, cell, id);
                    id += 1;
                }
                let shape: Vec<usize> = a.points(cell).chunks().map(|(ids, _)| ids.len()).collect();
                let want: Vec<usize> = (0..size.div_ceil(C)).map(|i| C.min(size - i * C)).collect();
                assert_eq!(shape, want, "{mode:?} size {size}");
            }
            assert_matches(&a, &model, &mut most);
            for cell in 0..sizes.len() {
                while let Some((front, _)) = model[cell].pop_front() {
                    assert_eq!(a.remove(cell, front), Ok(()));
                    assert_matches(&a, &model, &mut most);
                }
            }
            assert_eq!(a.chunks_in_use(), 0);
        }
    }

    /// What the per-cell `Vec` pair needed compaction for: a cell that
    /// keeps 4 of 4096 points alive retains no more than it ever held at
    /// once, a drained arena has every chunk back on the free list, and a
    /// refill to the same population reuses them without growing.
    #[test]
    fn freed_chunks_are_reused() {
        let mut a = PointArena::new(CellMode::Fifo, 2, 40);
        assert_eq!(std::mem::size_of::<CellHead>(), 16);
        assert_eq!(a.space_bytes(), 40 * 16, "an empty grid holds heads only");
        for i in 0..4096u64 {
            a.push(0, TupleId(i), &[0.5, 0.5]);
            if i >= 4 {
                a.remove(0, TupleId(i - 4)).unwrap();
            }
        }
        let ids: Vec<u64> = a.points(0).iter().map(|(t, _)| t.0).collect();
        assert_eq!(ids, vec![4092, 4093, 4094, 4095]);
        assert_eq!((a.chunks_held(), a.chunks_in_use()), (GROW_MIN, 1));
        for i in 4092..4096 {
            a.remove(0, TupleId(i)).unwrap();
        }

        // 40 cells × 3 chunks (the last one point short): 120 chunks, two
        // growth steps.
        let points = 40 * (3 * CHUNK_POINTS as u64 - 1);
        let fill = |a: &mut PointArena, base: u64| {
            for i in 0..points {
                a.push((i % 40) as usize, TupleId(base + i), &[0.1, 0.9]);
            }
        };
        fill(&mut a, 5000);
        let (held, space) = (a.chunks_held(), a.space_bytes());
        assert_eq!((held, a.chunks_in_use()), (2 * GROW_MIN, 120));
        for i in 0..points {
            a.remove((i % 40) as usize, TupleId(5000 + i)).unwrap();
        }
        assert_eq!(a.chunks_in_use(), 0, "drained: every chunk is free again");
        fill(&mut a, 6000);
        assert_eq!((a.chunks_held(), a.space_bytes()), (held, space));
    }

    /// No waves, without a clock. At a tenth of the benchmark's `ingest`
    /// shape (d = 4, 12⁴ cells, N = 100k, r = 1k) and after one window
    /// generation of warm-up — partly consumed head chunks only appear
    /// then — two further generations of push r / pop r cycles grow the
    /// arena by less than 1 % and leave every stored point where it was
    /// written: nothing regrows, nothing is compacted.
    #[test]
    fn steady_state_neither_grows_nor_copies() {
        let (dims, cells, n, r) = (4, 20_736usize, 100_000u64, 1_000u64);
        let mut a = PointArena::new(CellMode::Fifo, dims, cells);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next_cell = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % cells as u64) as usize
        };
        // Byte offsets into the two arenas (growth may move an arena as a
        // whole; only a copy *inside* it would change an offset).
        let at = |a: &PointArena, ids: &[TupleId], coords: &[f64]| {
            (
                ids.as_ptr() as usize - a.ids.as_ptr() as usize,
                coords.as_ptr() as usize - a.coords.as_ptr() as usize,
            )
        };
        let mut resident: VecDeque<(usize, (usize, usize))> = VecDeque::new();
        let mut id = 0u64;
        let mut cycle = |a: &mut PointArena, pops: u64| {
            for _ in 0..r {
                let cell = next_cell();
                a.push(cell, TupleId(id), &[0.25; 4]);
                let (ids, coords) = a.points(cell).tail(1).chunks().next().unwrap();
                resident.push_back((cell, at(a, ids, coords)));
                id += 1;
            }
            for _ in 0..pops {
                let (cell, written_at) = resident.pop_front().unwrap();
                let (ids, coords) = a.points(cell).chunks().next().unwrap();
                assert_eq!(at(a, ids, coords), written_at, "a stored point moved");
                a.remove(cell, ids[0]).unwrap();
            }
        };
        let generation = n / r;
        let (mut warm, mut most_in_use) = (0, 0);
        for i in 0..4 * generation {
            // Fill, one generation of warm-up, two measured.
            cycle(&mut a, if i < generation { 0 } else { r });
            most_in_use = most_in_use.max(a.chunks_in_use());
            if i + 1 == 2 * generation {
                warm = a.chunks_held();
            }
        }
        let held = a.chunks_held();
        assert!(
            (held - warm) * 100 < warm,
            "arena grew from {warm} to {held} chunks in steady state"
        );
        assert!(
            held <= most_in_use + most_in_use / 8 + GROW_MIN,
            "{held} chunks held for a high-water mark of {most_in_use}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Seeded push / pop-front / (Hash) remove-anywhere sequences
        /// against a `VecDeque` model, checked in full after every step.
        /// Refused removals — a non-front id in a FIFO cell, an id that is
        /// missing or lives in another cell in a Hash one — must leave no
        /// trace.
        #[test]
        fn storage_matches_model(
            hash in any::<bool>(),
            dims in 1usize..5,
            ops in prop::collection::vec((0u32..5, 0usize..4, 0usize..64), 1..160),
        ) {
            let mode = if hash { CellMode::Hash } else { CellMode::Fifo };
            let mut a = PointArena::new(mode, dims, 4);
            let mut model: Model = vec![VecDeque::new(); 4];
            let mut most = 0;
            let mut next_id = 0u64;
            for (op, cell, pick) in ops {
                let len = model[cell].len();
                match op {
                    0..=2 => {
                        push(&mut a, &mut model, cell, next_id);
                        next_id += 1;
                    }
                    3 if len > 0 => {
                        let (front, _) = model[cell].pop_front().unwrap();
                        prop_assert_eq!(a.remove(cell, front), Ok(()));
                    }
                    4 if hash && len > 0 => {
                        let (victim, _) = model[cell].swap_remove_front(pick % len).unwrap();
                        prop_assert_eq!(a.remove(cell, victim), Ok(()));
                    }
                    _ => {
                        // Refused: not the front (FIFO), elsewhere or
                        // nowhere (both modes).
                        let mut bad = vec![TupleId(next_id + pick as u64)];
                        bad.extend(model[(cell + 1) % 4].front().map(|p| p.0));
                        if !hash && len > 1 {
                            bad.push(model[cell][1 + pick % (len - 1)].0);
                        }
                        for id in bad {
                            prop_assert_eq!(a.remove(cell, id), Err(TkmError::UnknownTuple(id)));
                        }
                    }
                }
                assert_matches(&a, &model, &mut most);
            }
        }
    }
}
