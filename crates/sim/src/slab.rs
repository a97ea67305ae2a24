//! Index-addressed slab arenas for hot-path object storage.
//!
//! Events used to carry their payloads inline in fat enums, so every
//! bucket drain or heap sift of an event moved the whole payload. A
//! [`Slab`] decouples *ordering* from *storage*: payloads park in a flat
//! `Vec` and the ordering structures shuffle 4-byte indices instead. A
//! payload is moved exactly twice — once in at [`Slab::insert`], once out
//! at [`Slab::take`] — no matter how many times its index is resorted.
//!
//! The cluster (`gm::cluster`) parks each event's payload with the node
//! that owns it (host calls, arriving packets, timer tags) plus its packet
//! hand-offs, so an event is a node id and a `u32`. Those thin events ride
//! inline in the event queue's entries, and the queue's timing wheel keeps
//! its bucketed entries in one slab of its own: each bucket is a list
//! linked through slab indices, so the wheel's storage follows the number
//! of pending events.
//!
//! Freed slots are recycled through an internal free list, so a steady-state
//! simulation reaches a fixed footprint and stops allocating entirely — the
//! property the exact allocation pins in `crates/bench/tests/counts.rs`
//! hold. Indices are plain `u32`s; each `gm::Ev` variant that carries one
//! names the slab it indexes.

use std::fmt;

/// A vector-backed arena with O(1) insert/take and index stability.
///
/// Slots are `Option<T>` so reclamation needs no `unsafe`; the free list
/// makes insertion O(1) amortized with zero allocation at steady state.
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// An empty slab with room for `cap` values before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
        }
    }

    /// Store `value`, returning its index. Recycles a freed slot when one is
    /// available; only grows the backing vector otherwise.
    pub fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                debug_assert!(
                    self.slots[idx as usize].is_none(),
                    "free-list slot occupied"
                );
                self.slots[idx as usize] = Some(value);
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("slab exceeds u32 indices");
                self.slots.push(Some(value));
                idx
            }
        }
    }

    /// Remove and return the value at `idx`, releasing the slot.
    ///
    /// Panics if the slot is vacant — an index used twice is a logic bug the
    /// caller must hear about, not silently absorb.
    pub fn take(&mut self, idx: u32) -> T {
        let value = self.slots[idx as usize]
            .take()
            .expect("slab slot already vacated");
        self.free.push(idx);
        value
    }

    /// Borrow the value at `idx` (panics if vacant).
    pub fn get(&self, idx: u32) -> &T {
        self.slots[idx as usize]
            .as_ref()
            .expect("slab slot vacated")
    }

    /// Mutably borrow the value at `idx` (panics if vacant).
    pub fn get_mut(&mut self, idx: u32) -> &mut T {
        self.slots[idx as usize]
            .as_mut()
            .expect("slab slot vacated")
    }

    /// Number of live (occupied) slots.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether no slots are occupied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity of the backing vector (occupied + recyclable slots).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Drop every value and recycle all slots, keeping the backing storage.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }
}

impl<T: fmt::Debug> fmt::Debug for Slab<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Slab")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_take_roundtrip() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(*s.get(a), "a");
        assert_eq!(s.take(a), "a");
        assert_eq!(s.len(), 1);
        assert_eq!(s.take(b), "b");
        assert!(s.is_empty());
    }

    #[test]
    fn freed_slots_are_recycled() {
        let mut s = Slab::new();
        let a = s.insert(1u64);
        let b = s.insert(2);
        s.take(a);
        let c = s.insert(3);
        assert_eq!(c, a, "freed slot must be reused before growth");
        assert_eq!(s.capacity(), 2);
        assert_eq!(*s.get(b), 2);
        assert_eq!(*s.get(c), 3);
    }

    #[test]
    #[should_panic(expected = "already vacated")]
    fn double_take_panics() {
        let mut s = Slab::new();
        let a = s.insert(5u8);
        s.take(a);
        s.take(a);
    }

    #[test]
    fn steady_state_stops_growing() {
        let mut s = Slab::with_capacity(4);
        for round in 0..1000u32 {
            let ids: Vec<u32> = (0..4).map(|i| s.insert(round * 4 + i)).collect();
            for id in ids {
                s.take(id);
            }
        }
        assert!(
            s.capacity() <= 4,
            "steady-state churn must not grow the slab"
        );
    }
}
