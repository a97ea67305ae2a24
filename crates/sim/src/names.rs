//! Process-wide tables of interned names.
//!
//! A probe record names its probe point, label and phase, and a gauge point
//! its gauge, by a `u16` handle into a [`NameTable`] instead of holding the
//! descriptors themselves: the table is append-only, so a handle names one
//! entry for the life of the process, a bare record resolves its entry
//! without its sink, and two records hold the same handle exactly when
//! their entries are equal.
//!
//! Interning takes a lock; resolving a handle takes none, so analyses that
//! read every record of a stream resolve each one at the cost of two loads.

use std::sync::{Mutex, OnceLock, PoisonError};

/// Handles per block of a [`NameTable`], and blocks per table: 2^16
/// handles in all.
const BLOCK: usize = 256;

/// One block of entries, each set once.
type Block<T> = [OnceLock<T>; BLOCK];

/// An append-only table of entries, indexed by `u16` handles. Every update
/// sets one slot and then bumps the count, so a table poisoned by a
/// panicking thread is still whole.
pub(crate) struct NameTable<T: 'static> {
    /// How many handles have been handed out; held while interning, so
    /// appends happen one at a time.
    len: Mutex<usize>,
    /// The entries: handle `h` is slot `h % BLOCK` of block `h / BLOCK`,
    /// each block allocated with its first handle.
    blocks: [OnceLock<Box<Block<T>>>; BLOCK],
    /// What the entries are, for the overflow panic.
    what: &'static str,
}

impl<T: Copy + PartialEq> NameTable<T> {
    /// An empty table of `what` (e.g. `"gauge names"`).
    pub(crate) const fn new(what: &'static str) -> NameTable<T> {
        NameTable {
            len: Mutex::new(0),
            blocks: [const { OnceLock::new() }; BLOCK],
            what,
        }
    }

    /// The handle of `entry`, appending it on first sight.
    pub(crate) fn intern(&self, entry: T) -> u16 {
        let mut len = self.len.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(h) = (0..*len).find(|&h| self.get(h) == entry) {
            return handle(h);
        }
        let h = *len;
        assert!(
            h < BLOCK * BLOCK,
            "a process interns at most 65,536 distinct {}",
            self.what
        );
        self.blocks[h / BLOCK].get_or_init(|| Box::new([const { OnceLock::new() }; BLOCK]))
            [h % BLOCK]
            .get_or_init(|| entry);
        *len += 1;
        handle(h)
    }

    /// The entry `handle` stands for.
    #[inline]
    pub(crate) fn resolve(&self, handle: u16) -> T {
        self.get(usize::from(handle))
    }

    /// The entry at index `h`, which a handle handed out names.
    #[inline]
    fn get(&self, h: usize) -> T {
        *self.blocks[h / BLOCK]
            .get()
            .and_then(|block| block[h % BLOCK].get())
            .expect("a handle names an interned entry")
    }

    /// How many entries have been interned so far.
    fn len(&self) -> usize {
        *self.len.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Every entry interned so far, indexed by handle.
    pub(crate) fn snapshot(&self) -> Vec<T> {
        (0..self.len()).map(|h| self.get(h)).collect()
    }
}

impl NameTable<&'static str> {
    /// Each handle's rank in name order, indexed by handle: comparing ranks
    /// orders records by name without reading a string. The names are
    /// distinct, and so are their ranks.
    pub(crate) fn ranks(&self) -> Vec<u16> {
        let mut by_name: Vec<u16> = (0..self.len()).map(handle).collect();
        by_name.sort_unstable_by_key(|&h| self.resolve(h));
        let mut rank = vec![0u16; by_name.len()];
        for (r, &h) in by_name.iter().enumerate() {
            rank[usize::from(h)] = handle(r);
        }
        rank
    }
}

/// Index `h` as a handle; the table holds at most 2^16 entries.
fn handle(h: usize) -> u16 {
    u16::try_from(h).expect("handles fit in u16")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_names_share_a_handle_and_ranks_follow_the_names() {
        static TABLE: NameTable<&'static str> = NameTable::new("test names");
        let z = TABLE.intern("zeta");
        let a = TABLE.intern("alpha");
        let copy: &'static str = String::from("zeta").leak();
        assert_eq!(TABLE.intern(copy), z, "names compare by content");
        assert_eq!(TABLE.resolve(a), "alpha");
        let m = TABLE.intern("mu");
        let rank = TABLE.ranks();
        let r = |h: u16| rank[usize::from(h)];
        assert!(r(a) < r(m) && r(m) < r(z));
        assert_eq!(TABLE.snapshot(), vec!["zeta", "alpha", "mu"]);
    }

    #[test]
    fn handles_past_the_first_block_resolve() {
        static TABLE: NameTable<u32> = NameTable::new("test numbers");
        for i in 0..600u32 {
            assert_eq!(TABLE.intern(i * 7), u16::try_from(i).expect("fits"));
        }
        assert_eq!(TABLE.intern(7 * 300), 300, "a second sight finds the first");
        assert_eq!(TABLE.resolve(599), 599 * 7);
        assert_eq!(TABLE.snapshot().len(), 600);
    }
}
