//! Process-wide tables of interned names.
//!
//! Probe labels and gauge names are `&'static str`s, 16 bytes each. A
//! record holds a `u16` handle into a [`NameTable`] instead: the table is
//! append-only, so a handle names one string for the life of the process,
//! a bare record resolves its name without its sink, and two records hold
//! the same handle exactly when their names are equal.

use std::sync::{PoisonError, RwLock};

/// An append-only table of names, indexed by `u16` handles. Every update
/// is one push, so a table poisoned by a panicking thread is still whole.
pub(crate) struct NameTable {
    names: RwLock<Vec<&'static str>>,
    /// What the names are, for the overflow panic.
    what: &'static str,
}

impl NameTable {
    /// An empty table of `what` (e.g. `"probe labels"`).
    pub(crate) const fn new(what: &'static str) -> NameTable {
        NameTable {
            names: RwLock::new(Vec::new()),
            what,
        }
    }

    /// The handle of `name`, appending it on first sight.
    pub(crate) fn intern(&self, name: &'static str) -> u16 {
        let mut names = self.names.write().unwrap_or_else(PoisonError::into_inner);
        let i = match names.iter().position(|&n| n == name) {
            Some(i) => i,
            None => {
                names.push(name);
                names.len() - 1
            }
        };
        u16::try_from(i)
            .unwrap_or_else(|_| panic!("a process interns at most 65,536 distinct {}", self.what))
    }

    /// The name `handle` stands for.
    pub(crate) fn resolve(&self, handle: u16) -> &'static str {
        self.names.read().unwrap_or_else(PoisonError::into_inner)[usize::from(handle)]
    }

    /// Every name interned so far, indexed by handle: one lock for a loop
    /// that reads many records.
    pub(crate) fn snapshot(&self) -> Vec<&'static str> {
        self.names
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Each handle's rank in name order, indexed by handle: comparing ranks
    /// orders records by name without reading a string. The names are
    /// distinct, and so are their ranks.
    pub(crate) fn ranks(&self) -> Vec<u16> {
        let names = self.names.read().unwrap_or_else(PoisonError::into_inner);
        let mut by_name: Vec<u16> = (0..names.len())
            .map(|i| u16::try_from(i).expect("handles fit in u16"))
            .collect();
        by_name.sort_unstable_by_key(|&h| names[usize::from(h)]);
        let mut rank = vec![0u16; names.len()];
        for (r, &h) in by_name.iter().enumerate() {
            rank[usize::from(h)] = u16::try_from(r).expect("ranks fit in u16");
        }
        rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_names_share_a_handle_and_ranks_follow_the_names() {
        static TABLE: NameTable = NameTable::new("test names");
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
}
