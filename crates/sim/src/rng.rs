//! Deterministic random-number streams.
//!
//! Every stochastic element of a simulation (fault injection, skew draws,
//! workload generation) pulls from a [`DetRng`] derived from a master seed
//! plus a stream label, so independent components consume independent streams
//! and results never depend on event interleaving.
//!
//! The generator is xoshiro256++ (rand 0.8's 64-bit `SmallRng`), seeded
//! through the PCG32 expansion of `rand_core` 0.6's `seed_from_u64`, and
//! the samplers are rand 0.8's, so every stream draws the same bits it
//! drew through those crates. The `known_answers` test pins them.

/// A labelled deterministic RNG stream.
///
/// ```
/// use gm_sim::DetRng;
///
/// let mut a = DetRng::new(7, "faults");
/// let mut b = DetRng::new(7, "faults");
/// assert_eq!(a.next_u64(), b.next_u64()); // same (seed, label) => same stream
/// let mut c = DetRng::new(7, "skew");
/// assert_ne!(a.next_u64(), c.next_u64()); // labels separate the streams
/// ```
pub struct DetRng {
    /// xoshiro256++ state.
    s: [u64; 4],
}

impl DetRng {
    /// Derive a stream from `(seed, label)`. The same pair always yields the
    /// same sequence; distinct labels yield statistically independent ones.
    pub fn new(seed: u64, label: &str) -> Self {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for &b in label.as_bytes() {
            h = h.wrapping_add(b as u64);
            h = splitmix64(h);
        }
        DetRng::seeded(splitmix64(h))
    }

    /// Derive a numbered substream (e.g. one per node).
    pub fn substream(seed: u64, label: &str, index: u64) -> Self {
        DetRng::new(
            splitmix64(seed.wrapping_add(index.wrapping_mul(0xA24B_AED4_963E_E407))),
            label,
        )
    }

    /// The state that `rand_core` 0.6's `seed_from_u64` builds: eight
    /// PCG32 outputs, two to a word, the first in the low half.
    fn seeded(mut state: u64) -> Self {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut pcg32 = || {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            u64::from(xorshifted.rotate_right((state >> 59) as u32))
        };
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = pcg32() | pcg32() << 32;
        }
        if s == [0; 4] {
            // xoshiro never leaves the all-zero state. No seed is known to
            // reach it (that takes eight zero PCG32 outputs in a row); one
            // that did would start from these words instead.
            s = [
                0x9E37_79B9_7F4A_7C15,
                0xBF58_476D_1CE4_E5B9,
                0x94D0_49BB_1331_11EB,
                0x2545_F491_4F6C_DD1D,
            ];
        }
        DetRng { s }
    }

    /// Uniform in [0, 1).
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in [0, n). Panics if n == 0.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) samples an empty range");
        self.under(n)
    }

    /// Uniform integer in [lo, hi] inclusive.
    #[inline]
    pub fn range_inclusive(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(
            lo <= hi,
            "range_inclusive({lo}, {hi}) samples an empty range"
        );
        match hi.wrapping_sub(lo).wrapping_add(1) as u64 {
            // The range is all of `i64`.
            0 => self.next_u64() as i64,
            range => lo.wrapping_add(self.under(range) as i64),
        }
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        p > 0.0 && self.unit() < p
    }

    /// A raw u64 draw: one xoshiro256++ step.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in [0, range) for `range > 0`: the high word of a widening
    /// multiply, rejecting a draw whose low word exceeds the zone, one less
    /// than `range` shifted up to the top bit (rand 0.8's
    /// `UniformInt::sample_single`).
    #[inline]
    fn under(&mut self, range: u64) -> u64 {
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let wide = u128::from(self.next_u64()) * u128::from(range);
            if wide as u64 <= zone {
                return (wide >> 64) as u64;
            }
        }
    }
}

/// SplitMix64 finalizer: a fast, well-mixed 64-bit hash step.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_label_same_stream() {
        let mut a = DetRng::new(42, "faults");
        let mut b = DetRng::new(42, "faults");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_differ() {
        let mut a = DetRng::new(42, "faults");
        let mut b = DetRng::new(42, "skew");
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should be independent");
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1, "x");
        let mut b = DetRng::new(2, "x");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn substreams_differ() {
        let mut a = DetRng::substream(7, "node", 0);
        let mut b = DetRng::substream(7, "node", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn unit_in_range() {
        let mut r = DetRng::new(3, "u");
        for _ in 0..1000 {
            let x = r.unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(3, "c");
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn below_bounds() {
        let mut r = DetRng::new(9, "b");
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn range_inclusive_covers_negative() {
        let mut r = DetRng::new(9, "ri");
        let mut seen_neg = false;
        let mut seen_pos = false;
        for _ in 0..1000 {
            let v = r.range_inclusive(-5, 5);
            assert!((-5..=5).contains(&v));
            seen_neg |= v < 0;
            seen_pos |= v > 0;
        }
        assert!(seen_neg && seen_pos);
    }

    /// Exact draws of every method. They pin the generator bit for bit:
    /// the label hash, the PCG32 seed expansion, the xoshiro256++ step, the
    /// 53-bit `unit`, and the widening-multiply samplers with their
    /// rejection loops and full-range case.
    #[test]
    fn known_answers() {
        let mut r = DetRng::new(1, "faults");
        let got: [u64; 4] = std::array::from_fn(|_| r.next_u64());
        assert_eq!(
            got,
            [
                0x15ce_e4af_108b_fb8c,
                0x1e5c_0f57_1afe_0fe0,
                0x4a34_4a3a_2e64_8e32,
                0xa328_3f69_ae18_18d9
            ]
        );
        let mut r = DetRng::new(0, "");
        assert_eq!(
            [r.next_u64(), r.next_u64()],
            [0xdbef_408b_3c44_17e3, 0x3116_29d1_d62a_58f6]
        );
        let mut r = DetRng::substream(7, "node", 3);
        assert_eq!(
            [r.next_u64(), r.next_u64()],
            [0x04fa_5de4_df9c_293c, 0xaa5e_04a0_ad78_a201]
        );

        let mut r = DetRng::new(2, "unit");
        let got: [u64; 4] = std::array::from_fn(|_| r.unit().to_bits());
        assert_eq!(
            got,
            [
                0x3fec_09c9_da3a_3111,
                0x3feb_08bc_aebb_e5ad,
                0x3fca_527f_6fc8_c40c,
                0x3fc3_ea89_5f75_6b60
            ]
        );

        // Ten `below` draws take 19 raw ones: n = 1 and n = 2^63 + 1 each
        // reject about half of all raw draws.
        let mut r = DetRng::new(3, "below");
        let big = (1 << 63) + 1;
        let got = [1, 2, 7, 1000, u64::MAX, big, big, big, big, big].map(|n| r.below(n));
        assert_eq!(
            got,
            [
                0,
                1,
                3,
                709,
                14_741_954_166_691_187_542,
                8_523_438_850_783_249_359,
                796_661_604_071_308_616,
                2_583_909_962_511_612_107,
                6_945_354_994_305_143_944,
                6_550_959_963_480_750_264,
            ]
        );
        assert_eq!(r.next_u64(), nth_raw(3, "below", 19));

        // Ten `range_inclusive` draws take 14 raw ones; the full `i64`
        // range takes exactly one each.
        let mut r = DetRng::new(4, "range");
        let got = [
            (-5, 5),
            (0, 0),
            (i64::MIN, i64::MAX),
            (i64::MIN, i64::MAX),
            (i64::MIN, -1),
            (-1, i64::MAX),
            (-1, i64::MAX),
            (-1, i64::MAX),
            (10, 12),
            (10, 12),
        ]
        .map(|(lo, hi)| r.range_inclusive(lo, hi));
        assert_eq!(
            got,
            [
                1,
                0,
                7_546_606_791_459_162_657,
                -1_092_177_066_477_589_938,
                -3_236_730_643_060_337_225,
                1_669_275_513_060_971_314,
                9_187_543_378_710_596_871,
                6_788_488_122_895_789_709,
                11,
                12,
            ]
        );
        assert_eq!(r.next_u64(), nth_raw(4, "range", 14));

        let mut r = DetRng::new(5, "chance");
        let hits: Vec<usize> = (0..16).filter(|_| r.chance(0.3)).collect();
        assert_eq!(hits, [9, 12, 14]);
        // `chance(0.0)` takes no draw.
        let mut r = DetRng::new(5, "chance");
        assert!(!r.chance(0.0));
        assert_eq!(r.next_u64(), nth_raw(5, "chance", 0));
    }

    /// The `n`-th raw draw (from 0) of the stream `(seed, label)`.
    fn nth_raw(seed: u64, label: &str, n: usize) -> u64 {
        let mut r = DetRng::new(seed, label);
        for _ in 0..n {
            r.next_u64();
        }
        r.next_u64()
    }
}
