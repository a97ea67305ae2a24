//! In-place canonical merge of per-shard record rings.
//!
//! [`ProbeSink::merge_canonical`](crate::ProbeSink::merge_canonical) and
//! [`SeriesSink::merge_canonical`](crate::SeriesSink::merge_canonical) both
//! turn one ring per shard into one stream in canonical order. They share
//! the two steps here, and neither allocates per record: no second record
//! buffer, no sort key and no stable-sort scratch is ever live beside the
//! rings.
//!
//! * [`concat_rings`] keeps the first ring's buffer, rotates it oldest
//!   first in place, and appends the other rings' records;
//! * [`sort_in_place`] writes each record's position in that stream into
//!   its own `seq`, sorts the records themselves on a key that ends in
//!   `seq`, and renumbers `seq`.
//!
//! The position makes every key unique, so an unstable sort gives exactly
//! the order a stable sort on the leading fields would: records that tie
//! keep their ring order, and the rings keep their shard order.

/// Concatenate ring buffers into one stream, each ring oldest first.
/// `rings` yields `(buffer, head)` pairs, `head` being the slot of the
/// ring's oldest record; the first buffer is reused for the result.
pub(crate) fn concat_rings<T: Copy>(rings: impl IntoIterator<Item = (Vec<T>, usize)>) -> Vec<T> {
    let mut rings = rings.into_iter();
    let Some((mut out, head)) = rings.next() else {
        return Vec::new();
    };
    out.rotate_left(head);
    for (ring, head) in rings {
        let (newest, oldest) = ring.split_at(head);
        out.reserve(ring.len());
        out.extend_from_slice(oldest);
        out.extend_from_slice(newest);
    }
    out
}

/// Sort `records` into canonical order in place and renumber them: write
/// each record's position into its `seq`, `sort_unstable` on `key` (which
/// must end in `seq`, so that ties keep their order), then number the
/// records 0, 1, 2, ... in their new order.
pub(crate) fn sort_in_place<T, K: Ord>(
    records: &mut [T],
    seq: impl Fn(&mut T) -> &mut u64,
    key: impl FnMut(&T) -> K,
) {
    for (i, r) in records.iter_mut().enumerate() {
        *seq(r) = i as u64;
    }
    records.sort_unstable_by_key(key);
    for (i, r) in records.iter_mut().enumerate() {
        *seq(r) = i as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rings_concatenate_oldest_first() {
        // Ring A wrapped with its oldest record in slot 2; ring B did not.
        let a = (vec![4, 5, 2, 3], 2);
        let b = (vec![7, 8, 9], 0);
        let c = (vec![12, 10, 11], 1);
        assert_eq!(
            concat_rings([a, b, c]),
            vec![2, 3, 4, 5, 7, 8, 9, 10, 11, 12]
        );
        assert!(concat_rings(std::iter::empty::<(Vec<u8>, usize)>()).is_empty());
    }

    #[test]
    fn sorting_in_place_is_a_stable_sort_that_renumbers() {
        // (key, seq, tag): the seqs are stale, as a shard's own are.
        let mut records = [
            (3, 9, 'a'),
            (1, 0, 'b'),
            (3, 0, 'c'),
            (0, 5, 'd'),
            (1, 1, 'e'),
            (2, 2, 'f'),
        ];
        let mut oracle = records;
        oracle.sort_by_key(|r| r.0);
        for (i, r) in oracle.iter_mut().enumerate() {
            r.1 = i as u64;
        }
        sort_in_place(&mut records, |r| &mut r.1, |r| (r.0, r.1));
        assert_eq!(records, oracle);
    }
}
