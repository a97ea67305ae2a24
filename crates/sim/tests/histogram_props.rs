//! Differential property test of `LogHistogram`, whose bucket array holds
//! only the octaves from its smallest sample's to its largest's.
//!
//! The oracle is the dense layout it replaces: every bucket allocated up
//! front, with the same log-linear bucketing and the same percentile rule.
//! The dense array here spans all 60 octaves of the `u64` range (1,920
//! buckets). Inputs are one to five parts of samples, some empty, drawn
//! from 0, values under 32 ns (where buckets are exact), realistic
//! latencies, any value and values near `u64::MAX`; each part is recorded
//! into its own histogram, in drawn order or largest first (so that every
//! sample falls below the octaves held so far), and the parts are merged
//! in a random order and in every order: disjoint, overlapping and empty
//! ranges meet in each.

use gm_sim::LogHistogram;
use proptest::collection::vec;
use proptest::prelude::*;

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Every bucket of the `u64` range: the linear octave below 32 ns, then
/// one per shift from 0 to 58.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// The dense reference: fixed buckets, recorded and read exactly as the
/// original fixed-size `LogHistogram` did.
struct Dense {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Dense {
    fn new() -> Dense {
        Dense {
            counts: vec![0; BUCKETS],
            total: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    fn bucket_of(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros();
        let shift = msb - SUB_BITS;
        ((shift as usize + 1) * SUB) + ((ns >> shift) as usize & (SUB - 1))
    }

    fn upper_bound(idx: usize) -> u64 {
        if idx < SUB {
            return idx as u64;
        }
        let shift = (idx / SUB - 1) as u32;
        let base = ((SUB + idx % SUB) as u64) << shift;
        base + ((1u64 << shift) - 1)
    }

    fn record_ns(&mut self, ns: u64) {
        self.counts[Self::bucket_of(ns)] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
    }

    fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let permille = (p * 10.0).round() as u64;
        let rank = (self.total * permille).div_ceil(1000).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::upper_bound(i).min(self.max_ns) as f64 / 1_000.0;
            }
        }
        self.max_ns as f64 / 1_000.0
    }

    fn mean_us(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            (self.sum_ns / self.total as u128) as f64 / 1_000.0
        }
    }

    fn max_us(&self) -> f64 {
        self.max_ns as f64 / 1_000.0
    }
}

/// One sample: 0, under 32 ns, a latency up to 10 ms, any value, or one
/// within 2^20 of `u64::MAX`.
fn sample() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        0u64..32,
        32u64..10_000_000,
        any::<u64>(),
        (u64::MAX - (1 << 20))..=u64::MAX,
    ]
}

/// Every readout the workload report takes, as bits.
fn readout_of(count: u64, pct: impl Fn(f64) -> f64, mean: f64, max: f64) -> Vec<u64> {
    let mut out = vec![count, mean.to_bits(), max.to_bits()];
    out.extend([50.0, 99.0, 99.9, 100.0].map(|p| pct(p).to_bits()));
    out
}

fn readout(h: &LogHistogram) -> Vec<u64> {
    readout_of(h.count(), |p| h.percentile(p), h.mean_us(), h.max_us())
}

/// Every ordering of `0..n`.
fn orders(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for order in orders(n - 1) {
        for at in 0..=order.len() {
            let mut o = order.clone();
            o.insert(at, n - 1);
            out.push(o);
        }
    }
    out
}

/// The dense readout of every sample of `parts`.
fn dense_readout(parts: &[Vec<u64>]) -> Vec<u64> {
    let mut dense = Dense::new();
    for &ns in parts.iter().flatten() {
        dense.record_ns(ns);
    }
    readout_of(
        dense.total,
        |p| dense.percentile(p),
        dense.mean_us(),
        dense.max_us(),
    )
}

/// Each part in its own histogram, recorded largest sample first, then
/// merged in every order, into an empty histogram and onto the first part.
fn check_every_merge_order(parts: &[Vec<u64>]) {
    let want = dense_readout(parts);
    let hists: Vec<LogHistogram> = parts
        .iter()
        .map(|part| {
            let mut part = part.clone();
            part.sort_unstable_by(|a, b| b.cmp(a));
            let mut h = LogHistogram::new();
            part.iter().for_each(|&ns| h.record_ns(ns));
            h
        })
        .collect();
    for order in orders(hists.len()) {
        let mut merged = LogHistogram::new();
        for &i in &order {
            merged.merge_from(&hists[i]);
        }
        assert_eq!(readout(&merged), want, "into an empty one, order {order:?}");
        let mut onto = hists[order[0]].clone();
        for &i in &order[1..] {
            onto.merge_from(&hists[i]);
        }
        assert_eq!(readout(&onto), want, "onto the first, order {order:?}");
    }
}

/// Disjoint ranges (a few ns, about a second, the top octave), an
/// overlapping one and an empty one, merged in every order.
#[test]
fn disjoint_overlapping_and_empty_ranges_merge_in_every_order() {
    check_every_merge_order(&[
        vec![0, 3, 31],
        vec![999_999_999, 1 << 30],
        vec![],
        vec![40, 1 << 29, u64::MAX],
    ]);
    check_every_merge_order(&[vec![u64::MAX], vec![0], vec![1 << 40, 1 << 40]]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn merges_in_every_order_match_the_dense_layout(
        parts in vec(vec(sample(), 0..30), 1..4),
    ) {
        check_every_merge_order(&parts);
    }

    #[test]
    fn sized_histogram_matches_the_dense_layout(
        parts in vec(vec(sample(), 0..40), 1..6),
        order_keys in vec(any::<u64>(), 6),
    ) {
        let mut dense = Dense::new();
        for &ns in parts.iter().flatten() {
            dense.record_ns(ns);
        }
        let want = readout_of(
            dense.total,
            |p| dense.percentile(p),
            dense.mean_us(),
            dense.max_us(),
        );

        let hists: Vec<LogHistogram> = parts
            .iter()
            .map(|part| {
                let mut h = LogHistogram::new();
                part.iter().for_each(|&ns| h.record_ns(ns));
                h
            })
            .collect();
        let mut order: Vec<usize> = (0..hists.len()).collect();
        order.sort_by_key(|&i| order_keys[i]);

        // Into an empty histogram, in the drawn order.
        let mut merged = LogHistogram::new();
        for &i in &order {
            merged.merge_from(&hists[i]);
        }
        prop_assert_eq!(readout(&merged), want.clone());

        // Onto the first part in the drawn order, then an empty one on top.
        let mut onto = hists[order[0]].clone();
        for &i in &order[1..] {
            onto.merge_from(&hists[i]);
        }
        onto.merge_from(&LogHistogram::new());
        prop_assert_eq!(readout(&onto), want);
    }
}
