//! Measurement collectors used by the protocol layers and the bench harness.

use crate::time::SimDuration;

/// Streaming mean / variance / min / max (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty collector.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Record a duration sample in microseconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_micros_f64());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (0 for n < 2).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Minimum sample (0 if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another collector's samples into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Fixed-bucket histogram of microsecond values, for latency distributions.
#[derive(Debug, Clone)]
pub struct Histogram {
    bucket_width_us: f64,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    max: f64,
}

impl Histogram {
    /// `n_buckets` buckets of `bucket_width_us` microseconds each.
    pub fn new(bucket_width_us: f64, n_buckets: usize) -> Self {
        assert!(bucket_width_us > 0.0 && n_buckets > 0);
        Histogram {
            bucket_width_us,
            buckets: vec![0; n_buckets],
            overflow: 0,
            count: 0,
            max: 0.0,
        }
    }

    /// Record a sample in microseconds.
    pub fn record(&mut self, us: f64) {
        self.count += 1;
        self.max = self.max.max(us);
        let idx = (us / self.bucket_width_us) as usize;
        match self.buckets.get_mut(idx) {
            Some(b) => *b += 1,
            None => self.overflow += 1,
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples beyond the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Approximate p-th percentile (0 < p <= 100) via bucket upper bounds.
    /// Percentiles landing in the overflow region report the exact maximum
    /// sample instead.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p));
        if self.count == 0 {
            return 0.0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return (i as f64 + 1.0) * self.bucket_width_us;
            }
        }
        self.max
    }

    /// Largest recorded sample.
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Sub-buckets per octave in [`LogHistogram`] (2^5 = 32 ⇒ every bucket's
/// upper bound is within ~3% of the samples it holds).
const LOG_SUB_BITS: u32 = 5;
const LOG_SUB: usize = 1 << LOG_SUB_BITS;

/// Deterministic streaming histogram of nanosecond durations with
/// logarithmic buckets (HDR-style: 32 linear sub-buckets per power of two,
/// bounding relative error at ~3%).
///
/// Unlike [`OnlineStats`] it supports arbitrary percentiles, and unlike
/// [`Histogram`] its range covers every `u64` nanosecond value. Its `u64`
/// buckets are sized to the samples it holds: an empty histogram allocates
/// nothing, and the bucket array grows a whole octave at a time to the one
/// holding the largest sample (832 buckets cover anything under a second;
/// the full range needs 1,920). All bookkeeping is integer, so recording
/// and merging are order-independent: merging per-node histograms in any
/// order yields bit-identical percentiles — the property that keeps sharded
/// workload reports byte-stable.
#[derive(Debug, Clone, Default)]
pub struct LogHistogram {
    /// Counts of buckets `0..len`; every bucket past the end is empty.
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl LogHistogram {
    /// Empty histogram (allocates nothing).
    pub fn new() -> Self {
        LogHistogram::default()
    }

    fn bucket_of(ns: u64) -> usize {
        if ns < LOG_SUB as u64 {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros();
        let shift = msb - LOG_SUB_BITS;
        ((shift as usize + 1) * LOG_SUB) + ((ns >> shift) as usize & (LOG_SUB - 1))
    }

    /// Inclusive upper bound of bucket `idx`, in nanoseconds.
    fn upper_bound(idx: usize) -> u64 {
        if idx < LOG_SUB {
            return idx as u64;
        }
        let shift = (idx / LOG_SUB - 1) as u32;
        let base = ((LOG_SUB + idx % LOG_SUB) as u64) << shift;
        base + ((1u64 << shift) - 1)
    }

    /// Record one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        self.record_ns(d.as_nanos());
    }

    /// Grow the bucket array to at least `len` buckets, rounded up to a
    /// whole octave, with no spare capacity past it.
    fn grow_to(&mut self, len: usize) {
        let len = len.next_multiple_of(LOG_SUB);
        if len > self.counts.len() {
            self.counts.reserve_exact(len - self.counts.len());
            self.counts.resize(len, 0);
        }
    }

    /// Record one nanosecond sample.
    pub fn record_ns(&mut self, ns: u64) {
        let bucket = Self::bucket_of(ns);
        if bucket >= self.counts.len() {
            self.grow_to(bucket + 1);
        }
        self.counts[bucket] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Fold another histogram into this one (bucket-wise addition; the
    /// result is independent of merge order).
    pub fn merge_from(&mut self, other: &LogHistogram) {
        self.grow_to(other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded sample in microseconds (0 if empty).
    pub fn max_us(&self) -> f64 {
        self.max_ns as f64 / 1_000.0
    }

    /// Mean sample in microseconds (0 if empty).
    pub fn mean_us(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            (self.sum_ns / self.total as u128) as f64 / 1_000.0
        }
    }

    /// The `p`-th percentile (`0 < p <= 100`) in microseconds: the upper
    /// bound of the bucket holding the sample of that rank (the top bucket
    /// reports the exact maximum). Deterministic: the rank is computed in
    /// integer arithmetic from permille of `p`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.total == 0 {
            return 0.0;
        }
        // Permille rank, rounding the target rank up (ceil) so p99.9 of 1000
        // samples is the 999th order statistic.
        let permille = (p * 10.0).round() as u64;
        let rank = (self.total * permille).div_ceil(1000).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let ub = Self::upper_bound(i).min(self.max_ns);
                return ub as f64 / 1_000.0;
            }
        }
        self.max_ns as f64 / 1_000.0
    }
}

/// Simple monotonic counter set keyed by static names (protocol counters).
#[derive(Debug, Clone, Default)]
pub struct Counters {
    entries: Vec<(&'static str, u64)>,
}

impl Counters {
    /// Empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to counter `name`, creating it at zero if absent.
    ///
    /// Keys are `&'static str`, so the same counter is almost always named
    /// by the same string constant — pointer identity short-circuits the
    /// byte comparison on the hot path.
    pub fn add(&mut self, name: &'static str, n: u64) {
        for e in &mut self.entries {
            if std::ptr::eq(e.0, name) || e.0 == name {
                e.1 += n;
                return;
            }
        }
        self.entries.push((name, n));
    }

    /// Increment counter `name` by one.
    pub fn bump(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Current value of `name` (0 if never touched). Like [`add`](Self::add),
    /// pointer identity short-circuits the byte comparison.
    pub fn get(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .find(|e| std::ptr::eq(e.0, name) || e.0 == name)
            .map_or(0, |e| e.1)
    }

    /// Iterate over `(name, value)` pairs in creation order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.entries.iter().copied()
    }

    /// Add every counter of `other` into `self` (shard-merge). The result is
    /// order-canonicalized by name so a merged set serializes identically no
    /// matter how creation order differed across shards.
    pub fn merge_from(&mut self, other: &Counters) {
        for (name, v) in other.iter() {
            self.add(name, v);
        }
        self.entries.sort_by_key(|e| e.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.138089935299395).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn merge_matches_pooled() {
        let xs: Vec<f64> = (0..50).map(|i| (i * 7 % 13) as f64).collect();
        let mut all = OnlineStats::new();
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for (i, &x) in xs.iter().enumerate() {
            all.record(x);
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.stddev() - all.stddev()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new(1.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        assert_eq!(h.count(), 100);
        assert!((h.percentile(50.0) - 50.0).abs() < 1.01);
        assert!((h.percentile(99.0) - 99.0).abs() < 1.01);
        h.record(1e9);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.max(), 1e9);
        // A percentile that lands in the overflow reports the max sample.
        assert_eq!(h.percentile(100.0), 1e9);
    }

    #[test]
    fn log_histogram_buckets_are_a_partition() {
        // Every nanosecond value maps to exactly one bucket whose bounds
        // contain it, and bucket indices are monotone in the value.
        let mut prev = 0usize;
        let samples = [
            0u64, 1, 31, 32, 33, 63, 64, 1_000, 999_983, 1 << 40, u64::MAX / 2, 1 << 63, u64::MAX,
        ];
        for ns in samples {
            let b = LogHistogram::bucket_of(ns);
            assert!(ns <= LogHistogram::upper_bound(b), "{ns} above its bucket");
            assert!(b >= prev, "bucket index regressed at {ns}");
            prev = b;
        }
    }

    #[test]
    fn log_histogram_percentiles_are_monotone_and_tight() {
        let mut h = LogHistogram::new();
        for us in 1..=1000u64 {
            h.record_ns(us * 1_000);
        }
        assert_eq!(h.count(), 1000);
        let (p50, p99, p999) = (h.percentile(50.0), h.percentile(99.0), h.percentile(99.9));
        assert!(p50 <= p99 && p99 <= p999, "{p50} {p99} {p999}");
        // ~3% relative error from the 32-sub-bucket octaves.
        assert!((p50 - 500.0).abs() / 500.0 < 0.04, "p50 {p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.04, "p99 {p99}");
        assert!((p999 - 999.0).abs() / 999.0 < 0.04, "p999 {p999}");
        assert_eq!(h.percentile(100.0), 1000.0);
        assert_eq!(h.max_us(), 1000.0);
    }

    #[test]
    fn log_histogram_is_sized_to_its_samples() {
        let mut h = LogHistogram::new();
        assert_eq!(h.counts.capacity(), 0, "an empty histogram allocates nothing");
        h.merge_from(&LogHistogram::new());
        assert_eq!(h.counts.capacity(), 0, "merging an empty one allocates nothing");
        h.record_ns(999_999_999);
        assert_eq!(h.counts.len(), 832, "a sample under a second needs 26 octaves");
        assert_eq!(h.counts.capacity(), 832, "no spare capacity");
        h.record_ns(5);
        assert_eq!(h.counts.len(), 832, "a smaller sample does not grow it");
        let mut top = LogHistogram::new();
        top.record_ns(u64::MAX);
        assert_eq!(top.counts.len(), 1920, "the full range is 60 octaves");
        h.merge_from(&top);
        assert_eq!(h.counts.len(), 1920);
        assert_eq!(h.percentile(100.0), u64::MAX as f64 / 1_000.0);
    }

    #[test]
    fn log_histogram_merge_is_order_independent() {
        let (mut a, mut b) = (LogHistogram::new(), LogHistogram::new());
        for i in 0..500u64 {
            a.record_ns(i * 37 + 5);
            b.record_ns(i * 91 + 1);
        }
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        for p in [10.0, 50.0, 99.0, 99.9] {
            assert_eq!(ab.percentile(p).to_bits(), ba.percentile(p).to_bits());
        }
        assert_eq!(ab.count(), 1000);
        assert_eq!(ab.mean_us().to_bits(), ba.mean_us().to_bits());
    }

    #[test]
    fn counters() {
        let mut c = Counters::new();
        c.bump("tx");
        c.add("tx", 4);
        c.bump("rx");
        assert_eq!(c.get("tx"), 5);
        assert_eq!(c.get("rx"), 1);
        assert_eq!(c.get("nope"), 0);
        let all: Vec<_> = c.iter().collect();
        assert_eq!(all, vec![("tx", 5), ("rx", 1)]);
    }
}
