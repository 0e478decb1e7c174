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
