//! # proptest (in-tree substitute)
//!
//! A deliberately small, zero-dependency stand-in for the external
//! [`proptest`](https://crates.io/crates/proptest) crate, covering
//! exactly the API surface this workspace's property tests use — so
//! `tests/proptests.rs` in `hydra-sim`, `hydra-wire`, and `hydra-tcp`
//! run offline and in CI with no feature gate and no registry access.
//!
//! Supported surface:
//!
//! * the [`proptest!`] macro (multiple `#[test] fn name(arg in strategy,
//!   …) { … }` items, optional `#![proptest_config(…)]` header);
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`];
//! * [`any::<T>()`] for the integer primitives, `bool`, and arrays;
//! * integer / `f64` range strategies (`1usize..200`, `0.0f64..1.0`);
//! * tuple strategies (2–8 elements), [`Strategy::prop_map`], and
//!   [`collection::vec`].
//!
//! Deliberately **not** supported: shrinking, persistence of failing
//! cases, and `Strategy`'s combinator zoo. Generation is a plain
//! deterministic pass: every test draws its cases from a SplitMix64
//! stream seeded by the test's name (stable across runs and platforms),
//! or by `PROPTEST_SEED=<u64>` when set — a failure message names the
//! seed, the case index, and the values' `Debug` rendering, which
//! replaces shrinking well enough at this scale.
//!
//! **Layer**: test-only, depended on by nothing but `dev-dependencies`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::marker::PhantomData;
use std::ops::Range;

// ---------------------------------------------------------------------
// Deterministic RNG
// ---------------------------------------------------------------------

/// A SplitMix64 generator: tiny, fast, and plenty for test-case
/// generation (not cryptographic).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> TestRng {
        TestRng { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..bound` (`bound` ≥ 1), via the multiply-shift
    /// reduction.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound >= 1);
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// A source of generated values (the substitute's whole notion of
/// "strategy": generate, no shrink tree).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f` (e.g. raw bytes → `MacAddr`).
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The [`Strategy::prop_map`] adapter.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Types with a canonical full-range generator (the substitute's
/// `Arbitrary`).
pub trait Arbitrary {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            #[allow(clippy::cast_possible_truncation)]
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(rng: &mut TestRng) -> [T; N] {
        std::array::from_fn(|_| T::arbitrary(rng))
    }
}

/// The [`any`] strategy (full range of `T`).
#[derive(Debug, Clone)]
pub struct Any<T>(PhantomData<T>);

/// Full-range strategy for `T` (`any::<u8>()`, `any::<[u8; 6]>()`, …).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let width = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(width) as i128) as $t
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Generates `Vec`s of `element` with a length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    /// The [`vec()`] strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.clone().generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

/// Per-`proptest!` configuration (only `cases` is honoured).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Cases generated per test.
    cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

/// A failed `prop_assert*` (carried as an error so the harness can
/// report the case index and seed before panicking).
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Creates a failure with a message.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Drives one `proptest!`-generated test: derives the base seed and
/// hands out one RNG stream per case.
#[derive(Debug)]
pub struct TestRunner {
    cases: u32,
    seed: u64,
}

impl TestRunner {
    /// Creates a runner for the named test. The base seed is
    /// `PROPTEST_SEED` (when set and parseable as `u64`) or an FNV-1a
    /// fold of the test name — deterministic across runs, distinct
    /// across tests.
    pub fn new(config: &ProptestConfig, name: &str) -> TestRunner {
        let seed = std::env::var("PROPTEST_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        });
        TestRunner { cases: config.cases, seed }
    }

    /// Cases to run.
    pub fn cases(&self) -> u32 {
        self.cases
    }

    /// The base seed (named in failure messages).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The RNG stream for one case.
    pub fn rng_for(&self, case: u32) -> TestRng {
        // Decorrelate successive cases: one extra mixing draw.
        let mut rng = TestRng::new(self.seed ^ (u64::from(case).wrapping_mul(0xA076_1D64_78BD_642F)));
        let _ = rng.next_u64();
        rng
    }
}

/// Everything the property tests import (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig, Strategy,
        TestCaseError,
    };
}

// ---------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------

/// Declares property tests: each item is an ordinary `#[test]` fn whose
/// arguments are drawn from strategies, run for the configured number
/// of cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let runner = $crate::TestRunner::new(&config, stringify!($name));
            for case in 0..runner.cases() {
                let mut rng = runner.rng_for(case);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let result: ::core::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    ::core::result::Result::Ok(())
                })();
                if let ::core::result::Result::Err(e) = result {
                    ::core::panic!(
                        "proptest {} failed at case {}/{}: {}\n(base seed {}; set PROPTEST_SEED={} to reproduce)",
                        stringify!($name), case, runner.cases(), e, runner.seed(), runner.seed()
                    );
                }
            }
        }
    )*};
}

/// Asserts a condition inside a `proptest!` body (reports the failing
/// case instead of unwinding mid-generation).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a `proptest!` body, showing both values.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l != *r {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`", l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if *l != *r {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: `{:?}`\n right: `{:?}`", format!($($fmt)+), l, r
            )));
        }
    }};
}

/// Asserts inequality inside a `proptest!` body, showing the value.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `(left != right)`\n  both: `{:?}`", l
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  both: `{:?}`", format!($($fmt)+), l
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn rng_is_deterministic_and_below_is_bounded() {
        let mut a = TestRng::new(42);
        let mut b = TestRng::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        for bound in [1u64, 2, 7, 1000, u64::MAX] {
            for _ in 0..64 {
                assert!(a.below(bound) < bound);
            }
        }
        for _ in 0..64 {
            let u = a.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn range_strategies_stay_in_range() {
        let mut rng = TestRng::new(7);
        for _ in 0..200 {
            let v = (3usize..10).generate(&mut rng);
            assert!((3..10).contains(&v));
            let f = (0.25f64..0.75).generate(&mut rng);
            assert!((0.25..0.75).contains(&f));
            let i = (-5i32..5).generate(&mut rng);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn vec_and_tuple_and_map_compose() {
        let mut rng = TestRng::new(9);
        let strat = collection::vec((any::<u8>(), 1usize..4), 2..6).prop_map(|v| v.len());
        for _ in 0..100 {
            let n = strat.generate(&mut rng);
            assert!((2..6).contains(&n));
        }
        let arr = any::<[u8; 6]>().generate(&mut rng);
        assert_eq!(arr.len(), 6);
    }

    // The macro surface itself, exercised end to end.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_generates_and_asserts(x in 1u64..1000, v in collection::vec(any::<u8>(), 0..17)) {
            prop_assert!((1..1000).contains(&x));
            prop_assert!(v.len() < 17, "len was {}", v.len());
            prop_assert_eq!(x, x);
            prop_assert_ne!(x, x + 1);
        }

        #[test]
        fn second_test_in_one_block(b in any::<bool>()) {
            let doubled = u8::from(b) * 2;
            prop_assert!(doubled == 0 || doubled == 2);
        }
    }

    #[test]
    fn failures_name_the_case_and_seed() {
        // A deliberately failing body, driven by hand: the error path
        // returns Err rather than panicking mid-body.
        let run = || -> Result<(), TestCaseError> {
            let x = 1u32;
            prop_assert_eq!(x, 2u32, "x must equal two");
            Ok(())
        };
        let err = run().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("x must equal two") && msg.contains('1') && msg.contains('2'), "{msg}");
    }
}
