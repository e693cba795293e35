//! Offline shim for the subset of `proptest` used by this workspace.
//!
//! The build container has no crates.io access, so the workspace
//! vendors a miniature property-testing harness with the same surface
//! syntax as upstream proptest:
//!
//! * the [`proptest!`] macro (with optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]` header);
//! * strategies: integer ranges (`0usize..7`, `1..=9`), tuples of
//!   strategies, [`collection::vec`], [`collection::btree_set`],
//!   [`strategy::Just`], and [`strategy::Strategy::prop_map`];
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`],
//!   [`prop_assume!`].
//!
//! Differences from upstream: no shrinking (a failing case reports its
//! case number and seed, not a minimised input), and case generation is
//! deterministic per test name — repeated runs see the same inputs
//! unless `PROPTEST_CASES` changes the count. For a reproduction
//! repository whose properties are expected to *hold*, deterministic
//! coverage matters more than minimisation.

pub mod strategy;
pub mod test_runner;

/// `proptest::collection` — strategies over containers.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeSet;
    use std::ops::Range;

    /// Strategy producing `Vec`s with length drawn from `size` and
    /// elements drawn from `element`.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A `Vec` strategy (upstream `proptest::collection::vec`).
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.below(self.size.start, self.size.end);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy producing `BTreeSet`s with *target* size drawn from
    /// `size`; like upstream, collisions may make the set smaller.
    #[derive(Clone, Debug)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// A `BTreeSet` strategy (upstream `proptest::collection::btree_set`).
    pub fn btree_set<S>(element: S, size: Range<usize>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        assert!(size.start < size.end, "empty size range");
        BTreeSetStrategy { element, size }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = rng.below(self.size.start, self.size.end);
            let mut set = BTreeSet::new();
            // Bounded retries so sparse domains cannot loop forever.
            for _ in 0..target.saturating_mul(8).max(8) {
                if set.len() >= target {
                    break;
                }
                set.insert(self.element.generate(rng));
            }
            if set.is_empty() && self.size.start > 0 {
                set.insert(self.element.generate(rng));
            }
            set
        }
    }
}

/// Everything test files import via `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// The entry-point macro: a block of `#[test] fn name(arg in strategy,
/// ...) { body }` items, optionally preceded by
/// `#![proptest_config(expr)]`.
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

/// Internal expansion of [`proptest!`]; not part of the public API.
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
      )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let cases = config.effective_cases();
                let mut failures: Option<String> = None;
                for case in 0..cases {
                    let mut rng = $crate::test_runner::TestRng::for_case(
                        stringify!($name), case,
                    );
                    $(
                        let $arg =
                            $crate::strategy::Strategy::generate(&($strat), &mut rng);
                    )*
                    // Rendered before the body, which may consume the
                    // inputs by value.
                    let inputs_rendered: ::std::string::String =
                        [$(format!("{} = {:?}", stringify!($arg), &$arg)),*]
                            .join(", ");
                    let run = || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        #[allow(unreachable_code)]
                        Ok(())
                    };
                    match run() {
                        Ok(()) => {}
                        Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                        Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                            failures = Some(format!(
                                "property `{}` failed at case {case}/{cases}: {msg}\n  inputs: {inputs_rendered}",
                                stringify!($name),
                            ));
                            break;
                        }
                    }
                }
                if let Some(msg) = failures {
                    panic!("{msg}");
                }
            }
        )*
    };
}

/// `prop_assert!(cond)` / `prop_assert!(cond, fmt, ...)` — fail the
/// current case (without panicking across generator state).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(
                    format!("assertion failed: {}", stringify!($cond)),
                ),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)+)),
            );
        }
    };
}

/// `prop_assert_eq!(a, b)` with optional message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)+);
    }};
}

/// `prop_assert_ne!(a, b)` with optional message.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left), stringify!($right), l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, $($fmt)+);
    }};
}

/// `prop_assume!(cond)` — silently discard the current case when the
/// precondition fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Reject(
                    stringify!($cond).to_string(),
                ),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Reject(format!($($fmt)+)),
            );
        }
    };
}
