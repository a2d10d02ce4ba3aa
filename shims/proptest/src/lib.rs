//! Offline stand-in for `proptest`.
//!
//! The workspace's property tests use a modest slice of proptest's API:
//! strategies over integer ranges, tuples, `Just`, `any`,
//! `prop::collection::vec`, simple regex-class string patterns,
//! `prop_oneof!`, the `prop_map`/`prop_filter` adaptors, and the
//! `proptest!` test macro with an optional `#![proptest_config(...)]`.
//! This crate reimplements exactly that surface on a deterministic
//! xorshift RNG (seeded from the test name), so failures are reproducible
//! run-to-run. There is no shrinking: a failing case prints its generated
//! inputs and panics.

pub mod test_runner {
    /// Configuration accepted by `#![proptest_config(...)]`.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of random cases each test executes.
        pub cases: u32,
    }

    impl Default for Config {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    /// Deterministic xorshift64* generator.
    pub struct TestRng(u64);

    impl TestRng {
        pub fn from_seed(seed: u64) -> Self {
            // Avoid the all-zero fixed point.
            Self(seed | 0x9e37_79b9_7f4a_7c15)
        }

        /// Seeds from a test name via FNV-1a so every test gets a distinct
        /// but stable stream.
        pub fn from_seed_str(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            Self::from_seed(h)
        }

        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        /// Uniform-ish draw in `[0, span)`; the modulo bias is irrelevant at
        /// the spans property tests use.
        pub fn below(&mut self, span: u64) -> u64 {
            debug_assert!(span > 0);
            self.next_u64() % span
        }
    }
}

pub mod strategy {
    use super::test_runner::TestRng;
    use std::rc::Rc;

    /// A generator of values. Unlike real proptest there is no value tree
    /// or shrinking; `generate` draws one concrete value.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                whence,
                f,
            }
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
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

    #[derive(Debug, Clone)]
    pub struct Filter<S, F> {
        inner: S,
        whence: &'static str,
        f: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..10_000 {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!("prop_filter '{}' rejected 10000 candidates", self.whence);
        }
    }

    macro_rules! int_range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo + 1) as u64;
                    (lo + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    int_range_strategies!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

    macro_rules! tuple_strategies {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategies! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
    }

    /// Uniform choice between boxed alternative strategies — the engine
    /// behind `prop_oneof!`. Arms are reference-counted so unions stay
    /// `Clone` (tests clone composed strategies freely).
    pub struct Union<V> {
        arms: Vec<Rc<dyn Strategy<Value = V>>>,
    }

    impl<V> Clone for Union<V> {
        fn clone(&self) -> Self {
            Self {
                arms: self.arms.clone(),
            }
        }
    }

    impl<V> Union<V> {
        pub fn new(arms: Vec<Rc<dyn Strategy<Value = V>>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Self { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    /// Helper used by `prop_oneof!` to coerce each arm to a trait object.
    pub fn union_arm<S: Strategy + 'static>(s: S) -> Rc<dyn Strategy<Value = S::Value>> {
        Rc::new(s)
    }

    /// Pattern strategies: a `&str` is interpreted as a tiny regex subset —
    /// a single character class with an optional `{m,n}` repetition, e.g.
    /// `"[ -~\n]{0,300}"`. That is the only shape the workspace's tests
    /// use; anything else panics loudly rather than misgenerating.
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let (ranges, min, max) = parse_class_pattern(self);
            let len = min + rng.below((max - min + 1) as u64) as usize;
            let total: u32 = ranges.iter().map(|(a, b)| *b as u32 - *a as u32 + 1).sum();
            let mut out = String::with_capacity(len);
            for _ in 0..len {
                let mut pick = rng.below(total as u64) as u32;
                for (a, b) in &ranges {
                    let size = *b as u32 - *a as u32 + 1;
                    if pick < size {
                        out.push(char::from_u32(*a as u32 + pick).expect("valid char"));
                        break;
                    }
                    pick -= size;
                }
            }
            out
        }
    }

    /// Parses `[class]{m,n}` into (char ranges, m, n).
    fn parse_class_pattern(pat: &str) -> (Vec<(char, char)>, usize, usize) {
        let bad = || {
            panic!(
                "proptest shim: unsupported string pattern {pat:?} (expected \"[class]{{m,n}}\")"
            )
        };
        let mut chars = pat.chars().peekable();
        if chars.next() != Some('[') {
            bad();
        }
        let mut items: Vec<char> = Vec::new();
        let mut ranges: Vec<(char, char)> = Vec::new();
        loop {
            let c = match chars.next() {
                Some(']') => break,
                Some('\\') => match chars.next() {
                    Some('n') => '\n',
                    Some('t') => '\t',
                    Some('r') => '\r',
                    Some(c @ ('\\' | ']' | '[' | '-' | '^')) => c,
                    _ => return bad(),
                },
                Some(c) => c,
                None => return bad(),
            };
            if chars.peek() == Some(&'-') {
                let mut look = chars.clone();
                look.next(); // consume '-'
                match look.peek() {
                    Some(&']') | None => items.push(c), // trailing literal '-'
                    _ => {
                        chars.next(); // '-'
                        let hi = match chars.next() {
                            Some('\\') => match chars.next() {
                                Some('n') => '\n',
                                Some(c2 @ ('\\' | ']' | '[' | '-')) => c2,
                                _ => return bad(),
                            },
                            Some(c2) => c2,
                            None => return bad(),
                        };
                        ranges.push((c, hi));
                        continue;
                    }
                }
            } else {
                items.push(c);
            }
        }
        for c in items {
            ranges.push((c, c));
        }
        // Optional {m,n} / {m} repetition; default is exactly one.
        let rest: String = chars.collect();
        let (min, max) = if rest.is_empty() {
            (1, 1)
        } else if rest.starts_with('{') && rest.ends_with('}') {
            let body = &rest[1..rest.len() - 1];
            if let Some((a, b)) = body.split_once(',') {
                match (a.trim().parse(), b.trim().parse()) {
                    (Ok(a), Ok(b)) => (a, b),
                    _ => return bad(),
                }
            } else {
                match body.trim().parse() {
                    Ok(m) => (m, m),
                    _ => return bad(),
                }
            }
        } else {
            return bad();
        };
        if ranges.is_empty() || min > max {
            bad();
        }
        (ranges, min, max)
    }
}

pub mod arbitrary {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::marker::PhantomData;

    pub trait Arbitrary {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! arbitrary_ints {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arbitrary_ints!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// `any::<T>()` — the full-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Size specification for [`vec()`]: a range or an exact count.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        pub min: usize,
        pub max: usize, // inclusive
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            Self {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { min: n, max: n }
        }
    }

    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len =
                self.size.min + rng.below((self.size.max - self.size.min + 1) as u64) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }

    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }
}

/// The proptest test macro: runs each embedded `fn` as a `#[test]`
/// repeating its body over `config.cases` generated inputs. Failing cases
/// print the generated inputs before propagating the panic (no shrinking).
#[macro_export]
macro_rules! proptest {
    (@run ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $cfg;
            let mut rng = $crate::test_runner::TestRng::from_seed_str(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let case_desc = {
                    let mut d = String::new();
                    $(d.push_str(&format!(
                        "  {} = {:?}\n", stringify!($arg), &$arg
                    ));)+
                    d
                };
                let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    move || { $body }
                ));
                if let Err(panic) = outcome {
                    eprintln!(
                        "proptest shim: {} failed on case {}/{} with inputs:\n{}",
                        stringify!($name), case + 1, config.cases, case_desc
                    );
                    ::std::panic::resume_unwind(panic);
                }
            }
        }
    )*};
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::test_runner::Config::default()) $($rest)*);
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::union_arm($arm)),+])
    };
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Mirrors real proptest's `prelude::prop` module alias, giving tests
    /// the `prop::collection::vec(...)` path.
    pub use crate as prop;
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Pick {
        Small(i64),
        Fixed,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(a in -4i64..=4, b in 2u32..5, c in 0usize..16) {
            prop_assert!((-4..=4).contains(&a));
            prop_assert!((2..5).contains(&b));
            prop_assert!(c < 16);
        }

        #[test]
        fn combinators_compose(
            v in prop::collection::vec((0i64..10, Just(2i32)), 1..6),
            p in prop_oneof![(1i64..4).prop_map(Pick::Small), Just(Pick::Fixed)],
            s in "[a-c]{2,5}",
            x in any::<i32>(),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 6);
            prop_assert!(v.iter().all(|(a, b)| (0..10).contains(a) && *b == 2));
            match p {
                Pick::Small(k) => prop_assert!((1..4).contains(&k)),
                Pick::Fixed => {}
            }
            prop_assert!((2..=5).contains(&s.len()));
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
            let _ = x;
        }
    }

    #[test]
    fn filter_retries_until_accepted() {
        let strat = (0i64..100).prop_filter("even", |v| v % 2 == 0);
        let mut rng = crate::test_runner::TestRng::from_seed(7);
        for _ in 0..50 {
            assert_eq!(crate::strategy::Strategy::generate(&strat, &mut rng) % 2, 0);
        }
    }

    #[test]
    fn pattern_with_escapes_and_printables() {
        let mut rng = crate::test_runner::TestRng::from_seed(3);
        let s = crate::strategy::Strategy::generate(&"[ -~\\n]{0,300}", &mut rng);
        assert!(s.len() <= 300);
        assert!(s.chars().all(|c| c == '\n' || (' '..='~').contains(&c)));
    }
}
