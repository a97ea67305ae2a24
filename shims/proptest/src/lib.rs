//! In-tree offline shim for the subset of `proptest` this workspace uses:
//! the `proptest!` macro, range/tuple/`prop_map`/`prop_oneof!` strategies,
//! `collection::{vec, btree_set}`, `any`, and the `prop_assert*` family. See
//! README "Offline builds".
//!
//! Differences from real proptest, deliberately accepted for a sandboxed
//! test environment:
//!
//! * **No shrinking** — a failing case reports its deterministic case index
//!   and re-runs identically (seeds derive from the test's module path), so
//!   failures are reproducible even though they are not minimized.
//! * `prop_assert!`/`prop_assert_eq!` panic instead of returning `Err`, which
//!   is equivalent under this runner.

use std::collections::BTreeSet;
use std::marker::PhantomData;

/// Runner configuration (mirror of `proptest::test_runner::Config`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Deterministic per-case RNG (xoshiro256++ seeded from the test name and
/// case index, so every run draws identical inputs).
pub struct TestRng {
    s: [u64; 4],
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TestRng {
    /// RNG for case `case` of the property named `name`.
    pub fn for_case(name: &str, case: u64) -> TestRng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in name.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        let mut seed = splitmix(h ^ case.wrapping_mul(0xA24B_AED4_963E_E407));
        let mut s = [0u64; 4];
        for slot in &mut s {
            seed = splitmix(seed);
            *slot = seed;
        }
        TestRng { s }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Widening-multiply mapping; bias is negligible for test generation.
        (((self.next_u64() as u128) * (n as u128)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A generator of random values (mirror of `proptest::strategy::Strategy`;
/// generation only, no shrink tree).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Object-safe strategy view, used by [`Union`] / `prop_oneof!`.
pub trait DynStrategy<V> {
    /// Draw one value.
    fn sample_dyn(&self, rng: &mut TestRng) -> V;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn sample_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.sample(rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Always yields a clone of the given value.
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among boxed strategies (`prop_oneof!`).
pub struct Union<V> {
    arms: Vec<Box<dyn DynStrategy<V>>>,
}

impl<V> Union<V> {
    /// Choose uniformly among `arms`.
    pub fn new(arms: Vec<Box<dyn DynStrategy<V>>>) -> Union<V> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

/// Box a strategy for use as a [`Union`] arm, pinning the union's value type
/// to this arm's value type (used by `prop_oneof!`).
pub fn boxed_arm<S: Strategy + 'static>(s: S) -> Box<dyn DynStrategy<S::Value>> {
    Box::new(s)
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].sample_dyn(rng)
    }
}

macro_rules! int_strategy {
    ($($ty:ty),*) => { $(
        impl Strategy for core::ops::Range<$ty> {
            type Value = $ty;
            fn sample(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $ty
            }
        }
        impl Strategy for core::ops::RangeInclusive<$ty> {
            type Value = $ty;
            fn sample(&self, rng: &mut TestRng) -> $ty {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + rng.below(span) as i128) as $ty
            }
        }
    )* };
}
int_strategy!(u8, u16, u32, u64, i8, i16, i32, i64, usize, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit() * (self.end - self.start)
    }
}

impl Strategy for core::ops::Range<f32> {
    type Value = f32;
    fn sample(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (rng.unit() as f32) * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($n:tt $s:ident),+))*) => { $(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.sample(rng),)+)
            }
        }
    )* };
}
tuple_strategy! {
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

/// Types with a canonical whole-domain strategy (mirror of `Arbitrary`).
pub trait ArbitraryValue {
    /// Draw one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arb_int {
    ($($ty:ty),*) => { $(
        impl ArbitraryValue for $ty {
            fn arbitrary(rng: &mut TestRng) -> $ty {
                rng.next_u64() as $ty
            }
        }
    )* };
}
arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ArbitraryValue for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl ArbitraryValue for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.unit()
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: ArbitraryValue> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The whole-domain strategy for `T`.
pub fn any<T: ArbitraryValue>() -> Any<T> {
    Any(PhantomData)
}

/// Collection size specification accepted by [`collection`] strategies.
#[derive(Clone, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // exclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { lo: n, hi: n + 1 }
    }
}
impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}
impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> SizeRange {
        SizeRange {
            lo: *r.start(),
            hi: *r.end() + 1,
        }
    }
}

/// Collection strategies (mirror of `proptest::collection`).
pub mod collection {
    use super::*;

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A vector of values from `element`, length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet<S::Value>` with a target size drawn from `size`.
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A set of distinct values from `element`; like proptest, may yield
    /// fewer than the target size if the element domain is small.
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let target = self.size.lo + rng.below(span.max(1)) as usize;
            let mut set = BTreeSet::new();
            let mut attempts = 0usize;
            while set.len() < target && attempts < target * 20 + 20 {
                set.insert(self.element.sample(rng));
                attempts += 1;
            }
            set
        }
    }
}

/// Everything a property-test file needs (mirror of `proptest::prelude`).
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest, Any,
        ArbitraryValue, DynStrategy, Just, ProptestConfig, SizeRange, Strategy, TestRng, Union,
    };
}

/// Assert inside a property (panics on failure under this shim).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Skip the current case when a generated input is uninteresting. Must
/// appear at the top level of a `proptest!` body (it early-returns from the
/// case closure, like real proptest's `Err(Reject)`).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return;
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return;
        }
    };
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($first:expr $(, $rest:expr)* $(,)?) => {{
        let mut __arms = vec![$crate::boxed_arm($first)];
        $( __arms.push($crate::boxed_arm($rest)); )*
        $crate::Union::new(__arms)
    }};
}

/// Define property tests (mirror of `proptest::proptest!`).
///
/// Each case's inputs derive deterministically from the test's module path,
/// name and case index, so failures reproduce exactly on re-run.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let __cases = __config.cases;
                let __test_name = concat!(module_path!(), "::", stringify!($name));
                for __case in 0..__cases {
                    let mut __rng = $crate::TestRng::for_case(__test_name, __case as u64);
                    let __run = || {
                        $( let $pat = $crate::Strategy::sample(&($strat), &mut __rng); )+
                        $body
                    };
                    if let Err(__panic) = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(__run),
                    ) {
                        eprintln!(
                            "proptest shim: {} failed at case {}/{} \
                             (deterministic; rerunning reproduces it)",
                            __test_name,
                            __case + 1,
                            __cases,
                        );
                        ::std::panic::resume_unwind(__panic);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn ranges_sample_in_bounds() {
        let mut rng = TestRng::for_case("t", 0);
        for _ in 0..1000 {
            let v = (3u32..10).sample(&mut rng);
            assert!((3..10).contains(&v));
            let w = (5i64..=9).sample(&mut rng);
            assert!((5..=9).contains(&w));
            let f = (-2.0f64..3.0).sample(&mut rng);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn vec_and_set_sizes() {
        let mut rng = TestRng::for_case("sizes", 1);
        for _ in 0..200 {
            let v = crate::collection::vec(0u32..100, 2..5).sample(&mut rng);
            assert!((2..5).contains(&v.len()));
            let s: BTreeSet<u32> = crate::collection::btree_set(0u32..1000, 1..8).sample(&mut rng);
            assert!(s.len() < 8);
        }
    }

    #[test]
    fn deterministic_per_case() {
        let mut a = TestRng::for_case("same", 3);
        let mut b = TestRng::for_case("same", 3);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = TestRng::for_case("same", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn macro_works(x in 0u64..50, (a, b) in (0u32..10, 1u32..10), v in crate::collection::vec(any::<u8>(), 0..4)) {
            prop_assert!(x < 50);
            prop_assume!(a != 100); // never rejects
            prop_assert!(b >= 1 && a < 10);
            prop_assert_eq!(v.len(), v.len());
        }

        #[test]
        fn oneof_and_map(choice in prop_oneof![Just(1u32), Just(2u32), (5u32..8).prop_map(|x| x * 10)]) {
            prop_assert!(choice == 1 || choice == 2 || (50..80).contains(&choice));
        }
    }
}
