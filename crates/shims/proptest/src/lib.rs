//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace ships
//! the slice of the proptest API its test suites use: the [`proptest!`]
//! macro (with an optional `#![proptest_config(..)]` header), range / tuple /
//! `prop::collection::vec` / `prop::sample::select` / `prop::bool::ANY`
//! strategies, `.prop_map`, and the `prop_assert!` family.
//!
//! Differences from real proptest, by design:
//!
//! * **no shrinking** — a failing case reports its exact inputs instead of a
//!   minimized counterexample;
//! * **deterministic generation** — each test function derives its RNG seed
//!   from its own name, so a failure reproduces on every run and in CI;
//! * the number of cases honours `ProptestConfig::with_cases` and the
//!   `PROPTEST_CASES` environment variable (env wins), defaulting to 64.

use std::fmt;

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Unlike real proptest there is no intermediate value tree: a strategy
    /// generates final values directly and nothing shrinks.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f` (mirror of
        /// `Strategy::prop_map`).
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// A strategy that always yields a clone of its payload.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    impl<T: ::rand::SampleUniform> Strategy for ::std::ops::Range<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            rng.sample_range(self.start, T::one_below(self.end))
        }
    }

    impl<T: ::rand::SampleUniform> Strategy for ::std::ops::RangeInclusive<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            rng.sample_range(*self.start(), *self.end())
        }
    }

    macro_rules! impl_strategy_for_tuple {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case, reason = "the tuple's type parameters double as its bindings")]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_strategy_for_tuple!(A);
    impl_strategy_for_tuple!(A, B);
    impl_strategy_for_tuple!(A, B, C);
    impl_strategy_for_tuple!(A, B, C, D);
    impl_strategy_for_tuple!(A, B, C, D, E);
    impl_strategy_for_tuple!(A, B, C, D, E, F);
}

pub mod test_runner {
    //! Deterministic case generation and failure plumbing.

    use std::fmt;

    /// Number of cases to run when neither the config header nor the
    /// `PROPTEST_CASES` environment variable says otherwise.
    pub const DEFAULT_CASES: u32 = 64;

    /// Per-suite configuration (mirror of `proptest::test_runner::Config`).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// How many random cases each test runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running exactly `cases` cases (unless overridden by the
        /// `PROPTEST_CASES` environment variable).
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }

        /// The case count after applying the environment override.
        pub fn effective_cases(&self) -> u32 {
            match std::env::var("PROPTEST_CASES") {
                Ok(v) => v.parse().unwrap_or(self.cases),
                Err(_) => self.cases,
            }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: DEFAULT_CASES,
            }
        }
    }

    /// A failed property (mirror of `TestCaseError::Fail`).
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        msg: String,
    }

    impl TestCaseError {
        /// Builds a failure with the given explanation.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError { msg: msg.into() }
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.msg)
        }
    }

    /// The generator handed to strategies. Deterministic: seeded from the
    /// test's identity so failures reproduce run-over-run.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        #[expect(
            clippy::disallowed_types,
            reason = "the test runner's own seeded generator"
        )]
        inner: ::rand::rngs::SmallRng,
    }

    impl TestRng {
        /// RNG for the named test. Same name, same stream, every run.
        #[expect(
            clippy::disallowed_types,
            reason = "seeded from the test's file and name, never from entropy"
        )]
        pub fn for_test(file: &str, name: &str) -> Self {
            // FNV-1a over file + name.
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for b in file.bytes().chain([0u8]).chain(name.bytes()) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01B3);
            }
            TestRng {
                inner: <::rand::rngs::SmallRng as ::rand::SeedableRng>::seed_from_u64(h),
            }
        }

        /// Uniform sample from the inclusive range `[lo, hi]`.
        pub fn sample_range<T: ::rand::SampleUniform>(&mut self, lo: T, hi: T) -> T {
            T::sample_inclusive(&mut self.inner, lo, hi)
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            ::rand::Rng::next_u64(&mut self.inner)
        }
    }
}

pub mod bool {
    //! Boolean strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The type of [`ANY`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// Generates `true` and `false` with equal probability.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive bounds on a generated collection's length (mirror of
    /// `proptest::collection::SizeRange`).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates a `Vec` whose length lies in `size` and whose elements come
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.sample_range(self.size.min, self.size.max);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    //! Sampling strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy returned by [`select`].
    #[derive(Debug, Clone)]
    pub struct Select<T: Clone> {
        items: Vec<T>,
    }

    /// Picks uniformly among the given items.
    ///
    /// # Panics
    /// Panics (at generation time) if `items` is empty.
    pub fn select<T: Clone>(items: Vec<T>) -> Select<T> {
        Select { items }
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            assert!(!self.items.is_empty(), "select requires at least one item");
            let i = rng.sample_range(0usize, self.items.len() - 1);
            self.items[i].clone()
        }
    }
}

pub mod num {
    //! Numeric strategy aliases (ranges already implement
    //! [`crate::strategy::Strategy`] directly; this module exists for path
    //! compatibility).
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.

    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// Mirror of the `prop` module alias exposed by the real prelude.
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
        pub use crate::num;
        pub use crate::sample;
        pub use crate::strategy;
    }
}

#[doc(hidden)]
pub fn __format_failure(
    test: &str,
    case: u32,
    inputs: &dyn fmt::Debug,
    err: &test_runner::TestCaseError,
) -> String {
    format!("proptest '{test}' failed at case {case}\n  inputs: {inputs:?}\n  cause: {err}")
}

/// Defines property tests.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     #[test]
///     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let cases = config.effective_cases();
                let mut rng =
                    $crate::test_runner::TestRng::for_test(file!(), stringify!($name));
                for case in 0..cases {
                    $(let $arg =
                        $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    let inputs = format!(
                        concat!($("  ", stringify!($arg), " = {:?}\n",)+),
                        $(&$arg,)+
                    );
                    let outcome: ::std::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > = (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "proptest '{}' failed at case {}/{}\ninputs:\n{}cause: {}",
                            stringify!($name), case, cases, inputs, e,
                        );
                    }
                }
            }
        )*
    };
}

/// Fails the current case unless `cond` holds (mirror of proptest's
/// `prop_assert!`). Must be used inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "{}\n  left: {:?}\n right: {:?}",
            format!($($fmt)+), l, r
        );
    }};
}

/// Fails the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 5u64..10, y in 0.0f64..1.0) {
            prop_assert!((5..10).contains(&x));
            prop_assert!((0.0..1.0).contains(&y));
        }

        #[test]
        fn vec_lengths_respected(v in prop::collection::vec(0u8..3, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&b| b < 3));
        }

        #[test]
        fn select_picks_members(
            s in prop::sample::select(vec!["a", "b", "c"]),
            flag in prop::bool::ANY,
        ) {
            prop_assert!(["a", "b", "c"].contains(&s));
            let _ = flag;
        }

        #[test]
        fn prop_map_applies(
            pair in (0u64..10, 0u64..10).prop_map(|(a, b)| a + b),
        ) {
            prop_assert!(pair < 20);
        }

        #[test]
        fn trailing_comma_and_eq(a in 1usize..4,) {
            prop_assert_eq!(a * 2 / 2, a);
            prop_assert_ne!(a, 0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let strat = crate::collection::vec(0u64..1000, 5..20);
        let a: Vec<u64> = {
            let mut rng = TestRng::for_test("f", "t");
            strat.generate(&mut rng)
        };
        let b: Vec<u64> = {
            let mut rng = TestRng::for_test("f", "t");
            strat.generate(&mut rng)
        };
        assert_eq!(a, b);
    }

    #[test]
    fn env_var_overrides_cases() {
        let cfg = crate::test_runner::ProptestConfig::with_cases(7);
        assert_eq!(cfg.cases, 7);
        // Note: other tests in this binary read PROPTEST_CASES too, but any
        // case count keeps them valid, so the temporary override is benign.
        std::env::set_var("PROPTEST_CASES", "11");
        assert_eq!(cfg.effective_cases(), 11, "env var must win");
        std::env::set_var("PROPTEST_CASES", "not-a-number");
        assert_eq!(cfg.effective_cases(), 7, "garbage falls back to config");
        std::env::remove_var("PROPTEST_CASES");
        assert_eq!(cfg.effective_cases(), 7, "unset falls back to config");
    }
}
