//! In-place canonical merge of per-shard record buffers.
//!
//! [`ProbeSink::merge_canonical`](crate::ProbeSink::merge_canonical) and
//! [`SeriesSink::merge_canonical`](crate::SeriesSink::merge_canonical) both
//! turn one buffer per shard into one stream in canonical order: by time,
//! then by a key (the node, and for gauge points the gauge's name rank),
//! with records that tie keeping their shard order and, within a shard,
//! their recording order. They share the two steps here, and neither
//! allocates: no second record buffer, no sort key and no sort scratch is
//! ever live beside the buffers.
//!
//! A shard records as its clock runs, so each buffer is already in time
//! order (checked by a `debug_assert!`): only records that share an
//! instant, recorded by different nodes, may be out of canonical order.
//!
//! * [`sort_instants`] stable-sorts each buffer's runs of equal-time
//!   records on the key, by binary insertion;
//! * [`merge_into_first`] merges the sorted buffers backward into the
//!   first buffer, grown to hold them all, ties going to the lower buffer.
//!
//! One buffer needs only the first step.

use crate::time::SimTime;

/// Sort a time-ordered buffer into canonical order in place: each run of
/// equal-time records is sorted on `key`, stably, so records that tie keep
/// their recording order.
///
/// A run already in key order, as most are, costs one compare a record;
/// any other is sorted by binary insertion, which moves records with
/// `rotate_right` and allocates nothing.
pub(crate) fn sort_instants<T, K: Ord>(
    records: &mut [T],
    time: impl Fn(&T) -> SimTime,
    key: impl Fn(&T) -> K,
) {
    debug_assert!(
        records.is_sorted_by_key(&time),
        "a shard's record buffer is in time order"
    );
    for instant in records.chunk_by_mut(|a, b| time(a) == time(b)) {
        for i in 1..instant.len() {
            let k = key(&instant[i]);
            if key(&instant[i - 1]) <= k {
                continue;
            }
            // After every record whose key is not greater: stable.
            let at = instant[..i].partition_point(|r| key(r) <= k);
            instant[at..=i].rotate_right(1);
        }
    }
}

/// Merge the buffers of `shards`, each in canonical order (see
/// [`sort_instants`]), into one canonical stream, in place in the first
/// buffer, which is taken out of its shard and returned; the others are
/// left empty.
///
/// The first buffer grows to hold every record, and the merge fills it
/// from the back: each step moves the record with the greatest
/// `(time, key)` among the buffers' last records, on a tie the one of the
/// highest shard, so that in the stream ties go to the lower shard first.
/// The first buffer's own records are read below the write position, so
/// none is overwritten before it is moved.
pub(crate) fn merge_into_first<S, T: Copy, K: Ord>(
    shards: &mut [S],
    buffer: impl Fn(&mut S) -> &mut Vec<T>,
    time: impl Fn(&T) -> SimTime,
    key: impl Fn(&T) -> K,
) -> Vec<T> {
    let Some((first, rest)) = shards.split_first_mut() else {
        return Vec::new();
    };
    let mut out = std::mem::take(buffer(first));
    let Some(fill) = rest.iter_mut().find_map(|s| buffer(s).last().copied()) else {
        return out;
    };
    debug_assert!(
        rest.iter_mut()
            .all(|s| buffer(s).is_sorted_by_key(|r| (time(r), key(r)))),
        "each shard's buffer is in canonical order"
    );
    // The first buffer's records not yet moved are `out[..mine]`, and `w`
    // is one past the next slot to fill: `w - mine` records are left in the
    // other buffers.
    let mut mine = out.len();
    let mut w = mine + rest.iter_mut().map(|s| buffer(s).len()).sum::<usize>();
    out.resize(w, fill);
    while w > mine {
        w -= 1;
        // `None` is the first buffer, which wins only a strict compare.
        let mut best: Option<usize> = None;
        let mut best_key = mine.checked_sub(1).map(|i| (time(&out[i]), key(&out[i])));
        for (i, s) in rest.iter_mut().enumerate() {
            if let Some(last) = buffer(s).last() {
                let k = (time(last), key(last));
                if best_key.as_ref().is_none_or(|b| k >= *b) {
                    best_key = Some(k);
                    best = Some(i);
                }
            }
        }
        out[w] = match best {
            None => {
                mine -= 1;
                out[mine]
            }
            Some(i) => buffer(&mut rest[i])
                .pop()
                .expect("the chosen buffer holds a record"),
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// `(time, node, tag)` records, each buffer in time order: the oracle
    /// is their concatenation, stably sorted on `(time, node)`.
    #[test]
    fn sorting_instants_then_merging_is_a_stable_sort_of_the_concatenation() {
        let buffers = vec![
            vec![
                (0, 5, 'a'),
                (1, 3, 'b'),
                (1, 1, 'c'),
                (1, 3, 'd'),
                (4, 2, 'e'),
            ],
            vec![(1, 3, 'f'), (1, 0, 'g'), (2, 0, 'h'), (4, 1, 'i')],
            vec![],
            vec![(0, 5, 'j'), (4, 2, 'k'), (9, 9, 'l')],
        ];
        let mut oracle: Vec<(u64, u32, char)> = buffers.concat();
        oracle.sort_by_key(|r| (r.0, r.1));
        let mut shards = buffers;
        for b in &mut shards {
            sort_instants(b, |r| at(r.0), |r| r.1);
        }
        let merged = merge_into_first(&mut shards, |b| b, |r| at(r.0), |r| r.1);
        assert_eq!(merged, oracle);
        assert!(shards.iter().all(Vec::is_empty));
    }

    #[test]
    fn one_buffer_is_sorted_within_its_instants() {
        let mut shards = vec![vec![
            (1, 3, 'a'),
            (1, 1, 'b'),
            (1, 3, 'c'),
            (1, 0, 'd'),
            (2, 9, 'e'),
        ]];
        sort_instants(&mut shards[0], |r| at(r.0), |r| r.1);
        let merged = merge_into_first(&mut shards, |b| b, |r| at(r.0), |r| r.1);
        assert_eq!(
            merged,
            vec![
                (1, 0, 'd'),
                (1, 1, 'b'),
                (1, 3, 'a'),
                (1, 3, 'c'),
                (2, 9, 'e')
            ]
        );
    }
}
