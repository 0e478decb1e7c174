//! Dense per-engine query registry (slot map).
//!
//! The per-event inner loops of the maintenance engines resolve query
//! state once per influence-list entry. Keying that state by [`QueryId`]
//! forces an `O(log Q)` map probe per entry — pure bookkeeping overhead on
//! the hottest path in the system. `QueryRegistry` instead stores query
//! state in a dense `Vec` of slots with a free list: the influence lists
//! carry 4-byte [`QuerySlot`] indices, and the replay loop turns an entry
//! into `&mut` state with a single bounds-checked index. The
//! `QueryId → QuerySlot` hash map is consulted only at the edges —
//! register, remove, and result lookup — never per event.
//!
//! Slots are recycled: terminating a query pushes its slot onto the free
//! list and the next registration reuses it. Every influence-list entry of
//! a slot must therefore be swept *before* the slot is freed, or a
//! recycled slot would alias the dead query's entries to the newcomer. A
//! registry's one holder, the query table of `crate::influence`, does both
//! in one call; its recycling tests and the differential churn suite pin
//! this.

use tkm_common::{FxHashMap, HeapBytes, QueryId, QuerySlot, Result, TkmError};

#[derive(Debug)]
struct Entry<T> {
    id: QueryId,
    state: T,
}

/// A slot map from dense [`QuerySlot`] indices to per-query state, with a
/// [`QueryId`] side index for the non-hot-path lookups.
#[derive(Debug)]
pub struct QueryRegistry<T> {
    slots: Vec<Option<Entry<T>>>,
    free: Vec<QuerySlot>,
    index: FxHashMap<QueryId, QuerySlot>,
}

impl<T> Default for QueryRegistry<T> {
    fn default() -> Self {
        QueryRegistry::new()
    }
}

impl<T> QueryRegistry<T> {
    /// Creates an empty registry.
    pub fn new() -> QueryRegistry<T> {
        QueryRegistry {
            slots: Vec::new(),
            free: Vec::new(),
            index: FxHashMap::default(),
        }
    }

    /// Number of live queries.
    #[inline]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no query is registered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `id` is registered.
    #[inline]
    pub fn contains(&self, id: QueryId) -> bool {
        self.index.contains_key(&id)
    }

    /// Registers `id` with its state, reusing a free slot if one exists.
    /// Fails with [`TkmError::DuplicateQuery`] when `id` is already live.
    pub fn insert(&mut self, id: QueryId, state: T) -> Result<QuerySlot> {
        if self.index.contains_key(&id) {
            return Err(TkmError::DuplicateQuery(id));
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot.index()].is_none(), "free slot occupied");
                self.slots[slot.index()] = Some(Entry { id, state });
                slot
            }
            None => {
                let slot = QuerySlot(u32::try_from(self.slots.len()).map_err(|_| {
                    TkmError::InvalidParameter("QueryRegistry: more than u32::MAX queries".into())
                })?);
                self.slots.push(Some(Entry { id, state }));
                slot
            }
        };
        self.index.insert(id, slot);
        Ok(slot)
    }

    /// Terminates `id`, freeing its slot for reuse, and returns the slot
    /// together with the removed state.
    pub fn remove(&mut self, id: QueryId) -> Result<(QuerySlot, T)> {
        let slot = self.index.remove(&id).ok_or(TkmError::UnknownQuery(id))?;
        let entry = self.slots[slot.index()]
            .take()
            .ok_or_else(|| TkmError::Internal(format!("query {id:?} maps to a freed slot")))?;
        self.free.push(slot);
        Ok((slot, entry.state))
    }

    /// The slot of a live query.
    #[inline]
    pub(crate) fn slot_of(&self, id: QueryId) -> Option<QuerySlot> {
        self.index.get(&id).copied()
    }

    /// State of a live query by id (edge path: one hash probe).
    pub fn get(&self, id: QueryId) -> Option<&T> {
        let slot = self.slot_of(id)?;
        self.slots[slot.index()].as_ref().map(|e| &e.state)
    }

    /// Mutable state of a live query by id (edge path).
    pub fn get_mut(&mut self, id: QueryId) -> Option<&mut T> {
        let slot = self.slot_of(id)?;
        self.slots[slot.index()].as_mut().map(|e| &mut e.state)
    }

    /// Hot path: resolves a slot (from an influence list) to the query's
    /// id and mutable state with a single `Vec` index.
    ///
    /// Panics if the slot is dead — influence lists are swept before a
    /// slot is freed, so a dead slot here is an engine invariant breach.
    #[inline]
    pub(crate) fn slot_mut(&mut self, slot: QuerySlot) -> (QueryId, &mut T) {
        #[expect(
            clippy::expect_used,
            reason = "documented panic contract; a dead slot here is an engine invariant breach"
        )]
        let e = self.slots[slot.index()]
            .as_mut()
            .expect("influence lists are swept");
        (e.id, &mut e.state)
    }

    /// Iterates live `(QueryId, &state)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (QueryId, &T)> {
        self.slots.iter().flatten().map(|e| (e.id, &e.state))
    }

    /// Iterates live states mutably, in slot order.
    pub(crate) fn states_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().flatten().map(|e| &mut e.state)
    }

    /// Iterates live `(QuerySlot, QueryId, &mut state)` triples in slot
    /// order (the expiry sweep at the window's cutoff visits every band
    /// without going through the influence lists).
    pub(crate) fn slots_mut(&mut self) -> impl Iterator<Item = (QuerySlot, QueryId, &mut T)> {
        self.slots.iter_mut().enumerate().filter_map(|(i, s)| {
            s.as_mut()
                .map(|e| (QuerySlot(i as u32), e.id, &mut e.state))
        })
    }

    /// Live query ids in slot order.
    pub fn ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        self.slots.iter().flatten().map(|e| e.id)
    }
}

/// Every slot at capacity, live or free (each holds a `T` inline), the
/// free list, the id index and the heap every live `T` owns.
impl<T: HeapBytes> HeapBytes for QueryRegistry<T> {
    fn heap_bytes(&self) -> usize {
        self.slots.heap_bytes()
            + self.free.heap_bytes()
            + self.index.heap_bytes()
            + self
                .iter()
                .map(|(_, state)| state.heap_bytes())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_lookup_remove() {
        let mut r: QueryRegistry<&'static str> = QueryRegistry::new();
        assert!(r.is_empty());
        let s0 = r.insert(QueryId(10), "a").unwrap();
        let s1 = r.insert(QueryId(20), "b").unwrap();
        assert_eq!((s0, s1), (QuerySlot(0), QuerySlot(1)));
        assert_eq!(r.len(), 2);
        assert!(r.contains(QueryId(10)));
        assert_eq!(r.get(QueryId(20)), Some(&"b"));
        assert_eq!(r.slot_mut(s0), (QueryId(10), &mut "a"));
        assert_eq!(r.slot_mut(s1).0, QueryId(20));
        assert!(matches!(
            r.insert(QueryId(10), "dup"),
            Err(TkmError::DuplicateQuery(_))
        ));
        let (slot, state) = r.remove(QueryId(10)).unwrap();
        assert_eq!((slot, state), (QuerySlot(0), "a"));
        assert!(matches!(
            r.remove(QueryId(10)),
            Err(TkmError::UnknownQuery(_))
        ));
        assert_eq!(r.get(QueryId(10)), None);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn slots_are_recycled_lifo() {
        let mut r: QueryRegistry<u64> = QueryRegistry::new();
        for i in 0..4u64 {
            r.insert(QueryId(i), i).unwrap();
        }
        r.remove(QueryId(1)).unwrap();
        r.remove(QueryId(3)).unwrap();
        // LIFO reuse: last freed slot first.
        assert_eq!(r.insert(QueryId(9), 9).unwrap(), QuerySlot(3));
        assert_eq!(r.insert(QueryId(8), 8).unwrap(), QuerySlot(1));
        // A recycled slot resolves to the *new* query.
        assert_eq!(r.slot_mut(QuerySlot(1)), (QueryId(8), &mut 8));
        let ids: Vec<u64> = r.ids().map(|q| q.0).collect();
        assert_eq!(ids, vec![0, 8, 2, 9], "slot order");
    }

    #[test]
    #[should_panic(expected = "influence lists are swept")]
    fn dead_slot_access_panics() {
        let mut r: QueryRegistry<u8> = QueryRegistry::new();
        let slot = r.insert(QueryId(0), 1).unwrap();
        r.remove(QueryId(0)).unwrap();
        let _ = r.slot_mut(slot);
    }

    #[test]
    fn iteration_skips_dead_slots() {
        let mut r: QueryRegistry<u8> = QueryRegistry::new();
        for i in 0..5u64 {
            r.insert(QueryId(i), i as u8).unwrap();
        }
        r.remove(QueryId(2)).unwrap();
        let got: Vec<(u64, u8)> = r.iter().map(|(id, s)| (id.0, *s)).collect();
        assert_eq!(got, vec![(0, 0), (1, 1), (3, 3), (4, 4)]);
    }

    /// The heap a live state owns is counted with the registry's own; a
    /// removed one's is not.
    #[test]
    fn heap_bytes_counts_live_states() {
        let mut r: QueryRegistry<Vec<u64>> = QueryRegistry::new();
        r.insert(QueryId(0), Vec::with_capacity(10)).unwrap();
        r.insert(QueryId(1), Vec::with_capacity(3)).unwrap();
        let own = r.slots.heap_bytes() + r.free.heap_bytes() + r.index.heap_bytes();
        assert_eq!(r.heap_bytes(), own + 13 * 8);
        r.remove(QueryId(0)).unwrap();
        let own = r.slots.heap_bytes() + r.free.heap_bytes() + r.index.heap_bytes();
        assert_eq!(r.heap_bytes(), own + 3 * 8);
    }
}
