//! In-place canonical merge of per-shard record rings.
//!
//! [`ProbeSink::merge_canonical`](crate::ProbeSink::merge_canonical) and
//! [`SeriesSink::merge_canonical`](crate::SeriesSink::merge_canonical) both
//! turn one ring per shard into one stream in canonical order. They share
//! the two steps here, so no second record buffer and no stable-sort
//! scratch is ever live beside the rings:
//!
//! * [`concat_rings`] keeps the first ring's buffer, rotates it oldest
//!   first in place, and appends the other rings' records;
//! * [`sort_by_keys`] sorts one compact key per record instead of the
//!   records, then moves each record once along the permutation's cycles.
//!
//! Every key ends in the record's [`position`] in the concatenated stream,
//! so keys are unique and an unstable sort of them gives exactly the order
//! a stable sort on the leading fields would.

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

/// A record's position in a concatenated stream, as the last field of its
/// sort key. Ring capacities come from the command line, so the narrowing
/// is checked.
pub(crate) fn position(i: usize) -> u32 {
    u32::try_from(i).expect("a merged record stream holds at most 2^32 records")
}

/// Sort `keys` (one per record, each ending in its record's [`position`])
/// and reorder `records` to match: slot `i` receives the record at
/// `pos(&keys[i])`. Each permutation cycle is walked once with one record
/// held aside, so the scratch is the keys plus one flag per record.
pub(crate) fn sort_by_keys<T: Copy, K: Ord>(
    records: &mut [T],
    keys: &mut [K],
    pos: impl Fn(&K) -> u32,
) {
    debug_assert_eq!(records.len(), keys.len());
    keys.sort_unstable();
    let mut placed = vec![false; records.len()];
    for start in 0..records.len() {
        if placed[start] {
            continue;
        }
        let held = records[start];
        let mut dst = start;
        loop {
            placed[dst] = true;
            let src = pos(&keys[dst]) as usize;
            if src == start {
                records[dst] = held;
                break;
            }
            records[dst] = records[src];
            dst = src;
        }
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
    fn sorting_keys_is_a_stable_sort_of_the_records() {
        let mut records = [(3, 'a'), (1, 'b'), (3, 'c'), (0, 'd'), (1, 'e'), (2, 'f')];
        let mut oracle = records;
        oracle.sort_by_key(|r| r.0);
        let mut keys: Vec<(u32, u32)> = records
            .iter()
            .enumerate()
            .map(|(i, r)| (r.0, position(i)))
            .collect();
        sort_by_keys(&mut records, &mut keys, |k| k.1);
        assert_eq!(records, oracle);
    }
}
