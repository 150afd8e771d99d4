//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset this workspace's property tests use: integer-range
//! and tuple strategies, `collection::{vec, btree_set}`, `prop_map`, the
//! [`proptest!`] macro (with an optional `#![proptest_config(..)]` header),
//! [`ProptestConfig::with_cases`], and the `prop_assert!` family.
//!
//! Cases are generated from a deterministic per-test seed, so failures
//! reproduce exactly. There is no shrinking: a failing case reports the
//! case index and panics.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Deterministic generator backing all strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Builds a generator for `test_name`, case `case`.
    pub fn for_case(test_name: &str, case: u32) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over the test name
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng {
            state: h ^ ((case as u64) << 32 | 0x9E37_79B9),
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A generator of values of type `Self::Value`.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { strategy: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    strategy: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.strategy.sample(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128 % span) as i128;
                (self.start as i128 + off) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = (rng.next_u64() as u128 % span) as i128;
                (lo as i128 + off) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A 0, B 1);
    (A 0, B 1, C 2);
    (A 0, B 1, C 2, D 3);
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};
    use std::collections::BTreeSet;

    /// Strategy for `Vec`s with length drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    /// Generates `Vec`s of `element` values with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.clone().sample(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet`s with cardinality drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    /// Generates `BTreeSet`s of `element` values with a target cardinality
    /// in `size`. Like real proptest, duplicates are retried (bounded), so
    /// the set can come out smaller than the target on tiny domains.
    pub fn btree_set<S>(element: S, size: core::ops::Range<usize>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.clone().sample(rng);
            let mut set = BTreeSet::new();
            let mut attempts = 0usize;
            while set.len() < target && attempts < target * 64 + 64 {
                set.insert(self.element.sample(rng));
                attempts += 1;
            }
            set
        }
    }
}

/// Failure of a single generated case.
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Fails the current case with `reason`.
    pub fn fail(reason: impl std::fmt::Display) -> Self {
        TestCaseError(reason.to_string())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Per-block configuration (`#![proptest_config(..)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless the operands compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($a), stringify!($b), a, b
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), a, b
            )));
        }
    }};
}

/// Fails the current case if the operands compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        if *a == *b {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($a), stringify!($b), a
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if *a == *b {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  both: {:?}",
                format!($($fmt)+), a
            )));
        }
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ..) { .. }`
/// becomes a `#[test]` that runs the body over `config.cases` generated
/// inputs.
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
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut rng = $crate::TestRng::for_case(stringify!($name), case);
                $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                let result: ::core::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    ::core::result::Result::Ok(())
                })();
                if let ::core::result::Result::Err(msg) = result {
                    panic!("proptest case {case}/{} failed:\n{msg}", config.cases);
                }
            }
        }
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
}

pub mod prelude {
    //! Glob-import surface matching `proptest::prelude::*`.
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
        TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRng;

    #[test]
    fn samples_are_deterministic_per_case() {
        let draw = || {
            let mut rng = TestRng::for_case("t", 3);
            crate::collection::vec(0u64..100, 1..20).sample(&mut rng)
        };
        assert_eq!(draw(), draw());
    }

    #[test]
    fn btree_set_respects_bounds() {
        let mut rng = TestRng::for_case("s", 0);
        for _ in 0..100 {
            let s = crate::collection::btree_set((1i64..1023, 1i64..1023), 1..50).sample(&mut rng);
            assert!(!s.is_empty() && s.len() < 50);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        fn macro_generates_inputs(
            xs in crate::collection::vec(0u32..10, 0..30),
            k in 1usize..5,
        ) {
            prop_assert!(xs.len() < 30);
            prop_assert!(k >= 1 && k < 5);
            for x in &xs {
                prop_assert!(*x < 10, "x = {x} out of range");
            }
            prop_assert_eq!(k, k);
            prop_assert_ne!(k, k + 1);
        }

        fn mapped_strategy_applies_function(
            n in (0u64..50).prop_map(|v| v * 2),
        ) {
            prop_assert!(n % 2 == 0 && n < 100);
        }
    }
}
