//! Medians and quartiles of per-pass samples.
//!
//! The quartiles follow Python's `statistics.quantiles(data, n=4)` (its
//! default "exclusive" method), so a spread computed here matches one
//! computed over the same samples with the standard library there.

/// Median, first and third quartile, and sample count of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The median (the mean of the middle pair for an even count).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// The distance between the quartiles as a share of the median (0 when
    /// the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Summarize `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = match n {
        0 => return None,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    };
    let (q1, q3) = if n == 1 {
        (v[0], v[0])
    } else {
        (exclusive_quartile(&v, 1), exclusive_quartile(&v, 3))
    };
    Some(Summary { median, q1, q3, n })
}

/// Quartile `i` (1 or 3) of sorted `v` (at least 2 samples), interpolated
/// at position `i * (n + 1) / 4` and clamped to the data, as Python does.
/// Written as a step from `v[j - 1]` so equal samples give that value
/// exactly.
fn exclusive_quartile(v: &[f64], i: usize) -> f64 {
    let n = v.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    v[j - 1] + (v[j] - v[j - 1]) * delta / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&[7.0, 1.0, 10.0, 4.0, 2.0, 9.0, 3.0, 5.0, 8.0, 6.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summarize(&[5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
    }

    #[test]
    fn equal_samples_give_that_value_exactly() {
        let s = summarize(&[14.079; 2]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (14.079, 14.079, 14.079));
    }

    #[test]
    fn single_and_empty() {
        let s = summarize(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(s.spread(), 0.0);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }
}
