//! Minimal deterministic property-test generator with the `proptest` API
//! surface this workspace's property tests use, under that crate's name
//! so the test files read `use proptest::prelude::*` as they always did.
//!
//! Generation is random-sampling only (a fixed-seed xorshift and 256
//! cases per property unless `#![proptest_config(ProptestConfig::with_cases(n))]`
//! says otherwise) — no shrinking, no persistence, so a
//! `*.proptest-regressions` file is not replayed: a case worth keeping is
//! pinned as a plain `#[test]` beside the property.  A failing property
//! panics with the regular assert message.

use std::ops::{Range, RangeInclusive};

/// Fixed-seed xorshift64*; deterministic across runs.
pub struct TestRng(u64);

impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng(seed | 1)
    }
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }
}

/// A value generator; the `gen`-only subset of proptest's `Strategy`.
pub trait Strategy {
    type Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    fn prop_filter_map<U, F: Fn(Self::Value) -> Option<U>>(
        self,
        _whence: &'static str,
        f: F,
    ) -> FilterMap<Self, F>
    where
        Self: Sized,
    {
        FilterMap { inner: self, f }
    }
}

pub struct Map<S, F> {
    inner: S,
    f: F,
}
impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

pub struct FilterMap<S, F> {
    inner: S,
    f: F,
}
impl<S: Strategy, U, F: Fn(S::Value) -> Option<U>> Strategy for FilterMap<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        for _ in 0..1000 {
            if let Some(v) = (self.f)(self.inner.generate(rng)) {
                return v;
            }
        }
        panic!("prop_filter_map rejected 1000 consecutive samples");
    }
}

impl<T, S: Strategy<Value = T> + ?Sized> Strategy for Box<S> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end);
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + (rng.next_u64() % (span + 1)) as $t
            }
        }
    )*};
}
int_ranges!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + unit * (self.end - self.start)
    }
}

/// Literal string strategies: proptest treats `&str` as a regex.  The
/// only pattern the workspace uses is a character-class repetition like
/// `"[a-z.]{0,32}"`, which this parses just well enough.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (class, max) = parse_class_repeat(self)
            .unwrap_or_else(|| panic!("proptest: unsupported regex {self:?}"));
        let len = rng.below(max + 1);
        (0..len).map(|_| class[rng.below(class.len())] as char).collect()
    }
}

fn parse_class_repeat(pat: &str) -> Option<(Vec<u8>, usize)> {
    let rest = pat.strip_prefix('[')?;
    let (class_s, rest) = rest.split_once(']')?;
    let rest = rest.strip_prefix('{')?;
    let counts = rest.strip_suffix('}')?;
    let max: usize = counts.rsplit(',').next()?.trim().parse().ok()?;
    let cs: Vec<char> = class_s.chars().collect();
    let mut class = Vec::new();
    let mut i = 0;
    while i < cs.len() {
        if i + 2 < cs.len() && cs[i + 1] == '-' {
            for b in (cs[i] as u8)..=(cs[i + 2] as u8) {
                class.push(b);
            }
            i += 3;
        } else {
            class.push(cs[i] as u8);
            i += 1;
        }
    }
    Some((class, max))
}

pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

pub trait Arbitrary {
    fn arbitrary(rng: &mut TestRng) -> Self;
}
impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arb_int!(u8, u16, u32, u64, usize);
impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! tuple_strategy {
    ($($s:ident/$v:ident),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($v,)+) = self;
                ($($v.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A / a, B / b);
tuple_strategy!(A / a, B / b, C / c);
tuple_strategy!(A / a, B / b, C / c, D / d);
tuple_strategy!(A / a, B / b, C / c, D / d, E / e);
tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F / f);
tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F / f, G / g);
tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F / f, G / g, H / h);

pub mod collection {
    use super::*;
    use std::collections::HashSet;
    use std::hash::Hash;

    pub struct VecStrategy<S> {
        elem: S,
        count: Range<usize>,
    }
    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.count.start + rng.below(self.count.end - self.count.start);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
    pub fn vec<S: Strategy>(elem: S, count: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, count }
    }

    pub struct HashSetStrategy<S>(VecStrategy<S>);
    impl<S: Strategy<Value: Eq + Hash>> Strategy for HashSetStrategy<S> {
        type Value = HashSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> HashSet<S::Value> {
            // Repeated draws shrink the set, but not below the range.
            let mut set: HashSet<_> = self.0.generate(rng).into_iter().collect();
            while set.len() < self.0.count.start {
                set.insert(self.0.elem.generate(rng));
            }
            set
        }
    }
    pub fn hash_set<S: Strategy<Value: Eq + Hash>>(
        elem: S,
        count: Range<usize>,
    ) -> HashSetStrategy<S> {
        HashSetStrategy(vec(elem, count))
    }
}

pub mod option {
    use super::*;

    pub struct OptionStrategy<S>(S);
    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 3 == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
    pub fn of<S: Strategy>(s: S) -> OptionStrategy<S> {
        OptionStrategy(s)
    }
}

pub mod sample {
    use super::*;

    /// A deferred index into a collection of then-unknown length.
    #[derive(Debug, Clone, Copy)]
    pub struct Index(u64);
    impl Index {
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }
    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Index {
            Index(rng.next_u64())
        }
    }
}

/// Always yields a clone of its value.
pub struct Just<T: Clone>(pub T);
impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

pub struct OneOf<T>(pub Vec<Box<dyn Strategy<Value = T>>>);
impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0[rng.below(self.0.len())].generate(rng)
    }
}

#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {{
        $crate::OneOf(vec![$(Box::new($s) as Box<dyn $crate::Strategy<Value = _>>),+])
    }};
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Why a case failed, for a body that returns `Err` instead of panicking.
#[derive(Debug)]
pub struct TestCaseError(pub String);

/// The `cases` knob of proptest's config, which is all the workspace sets.
pub struct ProptestConfig {
    pub cases: u32,
}
impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cases ($cfg.cases) $($rest)*);
    };
    (@cases ($cases:expr) $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut __rng = $crate::TestRng::new(0x5EED_0000 ^ stringify!($name).len() as u64);
                for __case in 0..$cases {
                    $(let $pat = $crate::Strategy::generate(&$strat, &mut __rng);)+
                    // As in proptest, a property's body returns a `Result`,
                    // so `return Ok(())` ends one case early.
                    #[allow(unreachable_code, clippy::redundant_closure_call)]
                    let __outcome: ::core::result::Result<(), $crate::TestCaseError> = (|| {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                    if let ::core::result::Result::Err(e) = __outcome {
                        panic!("case {__case}: {}", e.0);
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cases (256u32) $($rest)*);
    };
}

pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_oneof, proptest, Arbitrary, Just, ProptestConfig,
        Strategy, TestCaseError,
    };
    pub mod prop {
        pub use crate::{collection, option, sample};
    }
}
