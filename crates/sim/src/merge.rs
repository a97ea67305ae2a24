//! In-place canonical merge of per-shard record buffers.
//!
//! [`ProbeSink::merge_canonical`](crate::ProbeSink::merge_canonical) and
//! [`SeriesSink::merge_canonical`](crate::SeriesSink::merge_canonical) both
//! turn one buffer per shard into one stream in canonical order. They share
//! the two steps here, and neither allocates per record: no second record
//! buffer, no sort key and no stable-sort scratch is ever live beside the
//! buffers.
//!
//! * [`concat`] appends the other buffers' records to the first buffer;
//! * [`sort_in_place`] writes each record's position in that stream into
//!   its own `seq`, sorts the records themselves on their time and a key
//!   that ends in `seq`, and renumbers `seq`.
//!
//! The position makes every key unique, so an unstable sort gives exactly
//! the order a stable sort on the leading fields would: records that tie
//! keep their recording order, and the buffers keep their shard order.
//!
//! One buffer, recorded as the clock ran, is already in time order: only
//! records that share an instant, recorded by different nodes, may be out
//! of canonical order. [`sort_in_place`] checks the order in the pass that
//! writes the positions and then sorts each instant on its own. Several
//! buffers, or one with a record dated before an earlier one, are sorted
//! whole.

use crate::time::SimTime;

/// Concatenate record buffers into one stream, in order; the first buffer
/// is reused for the result.
pub(crate) fn concat<T: Copy>(buffers: impl IntoIterator<Item = Vec<T>>) -> Vec<T> {
    let mut buffers = buffers.into_iter();
    let mut out = buffers.next().unwrap_or_default();
    for buffer in buffers {
        out.extend_from_slice(&buffer);
    }
    out
}

/// Sort `records` into canonical order, by `time` and then `key`, in place
/// and renumber them. Each record's position is written into its `seq`
/// first, and `key` must end in `seq`, so that ties keep their order.
///
/// If the positions come out in time order, each run of equal-time records
/// is sorted on `key` alone; otherwise the whole stream is sorted on
/// `(time, key)`. Either way `sort_unstable` does the sorting, so nothing
/// is allocated. Finally the records are numbered 0, 1, 2, ... in their new
/// order.
pub(crate) fn sort_in_place<T, K: Ord>(
    records: &mut [T],
    seq: impl Fn(&mut T) -> &mut u32,
    time: impl Fn(&T) -> SimTime,
    mut key: impl FnMut(&T) -> K,
) {
    let len = u32::try_from(records.len()).expect("a merged stream holds under 2^32 records");
    let mut in_time_order = true;
    let mut last = SimTime::ZERO;
    for (i, r) in (0..len).zip(records.iter_mut()) {
        *seq(r) = i;
        let t = time(r);
        in_time_order &= last <= t;
        last = t;
    }
    if in_time_order {
        for instant in records.chunk_by_mut(|a, b| time(a) == time(b)) {
            instant.sort_unstable_by_key(&mut key);
        }
    } else {
        records.sort_unstable_by_key(|r| (time(r), key(r)));
    }
    for (i, r) in (0..len).zip(records.iter_mut()) {
        *seq(r) = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn sorting_in_place_is_a_stable_sort_that_renumbers() {
        // (time, node, seq, tag): the seqs are stale, as a shard's own are.
        // The first stream is in time order, the second is not.
        let in_order = [
            (0, 5, 9, 'a'),
            (1, 3, 0, 'b'),
            (1, 1, 0, 'c'),
            (1, 3, 5, 'd'),
            (2, 0, 1, 'e'),
            (4, 2, 2, 'f'),
            (4, 1, 7, 'g'),
        ];
        let mut shuffled = in_order;
        shuffled.swap(1, 5);
        for mut records in [in_order, shuffled] {
            let mut oracle = records;
            oracle.sort_by_key(|r| (r.0, r.1));
            for (i, r) in (0..).zip(oracle.iter_mut()) {
                r.2 = i;
            }
            sort_in_place(&mut records, |r| &mut r.2, |r| at(r.0), |r| (r.1, r.2));
            assert_eq!(records, oracle);
        }
    }
}
