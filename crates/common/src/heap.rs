//! How a value's bytes are counted: the one convention behind every
//! `space_bytes` figure.
//!
//! A value reports the heap it owns through [`HeapBytes::heap_bytes`] and
//! never its inline struct: those bytes are its owner's, inside the
//! owner's own struct or buffer. So a type's `heap_bytes` is the sum of
//! its fields' and nothing else, and only a *root* — an engine that lives
//! on its own, boxed behind a server — reports a `space_bytes` that adds
//! its own struct's size to its `heap_bytes`, once. No owner ever
//! subtracts a member's size, and a member cannot be counted twice.
//!
//! A container's impl counts the buffer it allocates, at capacity; the
//! heap its elements own is the owner's to add.

use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::mem::size_of;

/// The heap a value owns, without its inline struct (module docs).
pub trait HeapBytes {
    /// Bytes of heap owned, at capacity.
    fn heap_bytes(&self) -> usize;
}

impl<T> HeapBytes for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * size_of::<T>()
    }
}

impl<T> HeapBytes for VecDeque<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * size_of::<T>()
    }
}

impl<T> HeapBytes for BinaryHeap<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * size_of::<T>()
    }
}

impl<T> HeapBytes for Box<[T]> {
    fn heap_bytes(&self) -> usize {
        self.len() * size_of::<T>()
    }
}

impl<K, V, S> HeapBytes for HashMap<K, V, S> {
    fn heap_bytes(&self) -> usize {
        hash_table_bytes::<(K, V)>(self.capacity())
    }
}

impl<T, S> HeapBytes for HashSet<T, S> {
    fn heap_bytes(&self) -> usize {
        hash_table_bytes::<T>(self.capacity())
    }
}

/// The one allocation of a `std` hash table whose `capacity()` is
/// `capacity`: a power-of-two bucket array, each bucket one `T` and one
/// control byte, plus a 16-byte control group mirrored at the end. The
/// capacity is one bucket short of the array below 8 buckets and 7/8 of
/// it from 8 up. A removal may leave a tombstone that `capacity()` stops
/// reporting until the next rehash, hence the rounding up: exact while
/// tombstones hold less than half the table. `tests/space_accounting.rs`
/// holds this to a live-bytes allocator.
fn hash_table_bytes<T>(capacity: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    let buckets = (capacity * 8 / 7).max(capacity + 1).next_power_of_two();
    buckets * (size_of::<T>() + 1) + 16
}

/// The [`btree_bytes`] fill of keys inserted in ascending order, such as
/// issued query ids: a node split at its right edge keeps 6 of its 11
/// entries.
pub const ASCENDING_FILL: f64 = 6.0;

/// The nodes of a `std` B-tree (`BTreeMap<K, V>`; `BTreeSet<K>` is
/// `V = ()`) of `len` entries whose nodes hold `per_node` entries on
/// average. A node has room for 11 keys and 11 values beside a parent
/// pointer and two `u16`s; one node in `per_node + 1` is an internal one
/// and carries 12 child pointers more. `std` exposes no node count, so the
/// caller states the fill its insertion order produces: ≈ 7 for random
/// keys (the ln 2 fill), [`ASCENDING_FILL`] for ascending ones. Up to 11
/// entries the root is the only node, a leaf, however few it holds; from
/// 12 on a root stands over at least two leaves. `tests/space_accounting.rs`
/// holds each caller's total to a live-bytes allocator.
pub fn btree_bytes<K, V>(len: usize, per_node: f64) -> usize {
    let pointer = size_of::<usize>();
    let leaf = (pointer + 4 + 11 * (size_of::<K>() + size_of::<V>())).next_multiple_of(pointer);
    if len <= 11 {
        return if len == 0 { 0 } else { leaf };
    }
    let node = leaf as f64 + (12 * pointer) as f64 / (per_node + 1.0);
    ((len as f64 / per_node).max(3.0) * node) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_containers_own_nothing() {
        assert_eq!(Vec::<u64>::new().heap_bytes(), 0);
        assert_eq!(VecDeque::<u16>::new().heap_bytes(), 0);
        assert_eq!(BinaryHeap::<u32>::new().heap_bytes(), 0);
        assert_eq!(Box::<[f64]>::default().heap_bytes(), 0);
        assert_eq!(crate::FxHashMap::<u64, u32>::default().heap_bytes(), 0);
        assert_eq!(crate::FxHashSet::<u64>::default().heap_bytes(), 0);
    }
}
