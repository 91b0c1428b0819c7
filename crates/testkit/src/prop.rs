//! A minimal deterministic property-testing harness.
//!
//! Replaces `proptest` for this workspace. A property is a function from
//! a generated input to `Result<(), String>`; the harness runs it over
//! `cases` deterministic inputs, and on failure **greedily shrinks** the
//! input (repeatedly taking the first simpler candidate that still fails)
//! before panicking with the minimal input, the failing seed, and the
//! exact environment variables that rerun the failure:
//!
//! ```text
//! property 'split_partitions_rect' failed (case 13, seed 0x3c6ef372fe94f82a)
//! minimal input: ((0, 0, 3, 0), 2)
//! error: assertion failed: total == r.volume()
//! rerun: IL_TESTKIT_SEED=0x3c6ef372fe94f82a cargo test -p <crate> split_partitions_rect
//! ```
//!
//! * `IL_TESTKIT_SEED` — base seed (hex with `0x` prefix, or decimal).
//!   Defaults to a stable hash of the property name, so every run of a
//!   given suite explores the same sequence.
//! * `IL_TESTKIT_CASES` — number of cases per property (default 48).
//!
//! Generators implement [`Gen`]: `generate` draws a value from a
//! [`TestRng`], `shrink` proposes strictly simpler candidates. Tuples of
//! generators are generators (component-wise shrinking), and
//! [`vec_of`] shrinks both the length and the elements.

use crate::fnv::fnv1a;
use crate::rng::{SplitMix64, TestRng};
use std::fmt::Debug;
use std::ops::Range;

/// A value generator with optional shrinking.
pub trait Gen {
    /// The generated type.
    type Value: Clone + Debug;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Strictly simpler candidates for `v` (empty = fully shrunk). Every
    /// candidate must itself be a value this generator could produce.
    fn shrink(&self, _v: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

/// Harness configuration for one property.
#[derive(Clone, Debug)]
pub struct Config {
    /// Property name (used in messages and the default seed).
    pub name: String,
    /// Number of cases to run.
    pub cases: u64,
    /// Base seed; case `i` runs with `SplitMix64::mix(seed, i)`.
    pub seed: u64,
    /// Cap on total shrinking steps.
    pub max_shrink_steps: u32,
}

impl Config {
    /// Default configuration for `name`, honoring `IL_TESTKIT_SEED` and
    /// `IL_TESTKIT_CASES`.
    pub fn from_env(name: &str) -> Self {
        let seed = std::env::var("IL_TESTKIT_SEED")
            .ok()
            .and_then(|s| parse_u64(&s))
            .unwrap_or_else(|| fnv1a(name.as_bytes()));
        let cases = std::env::var("IL_TESTKIT_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(48);
        Config { name: name.to_string(), cases, seed, max_shrink_steps: 2000 }
    }

    /// Override the case count.
    pub fn with_cases(mut self, cases: u64) -> Self {
        self.cases = cases;
        self
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Run `prop` over `cases` generated inputs with the default config.
/// Panics (with seed, case index, and minimal shrunk input) on failure.
pub fn check<G, P>(name: &str, gen: &G, prop: P)
where
    G: Gen,
    P: Fn(&G::Value) -> Result<(), String>,
{
    check_with(Config::from_env(name), gen, prop)
}

/// [`check`] with an explicit configuration.
pub fn check_with<G, P>(config: Config, gen: &G, prop: P)
where
    G: Gen,
    P: Fn(&G::Value) -> Result<(), String>,
{
    for case in 0..config.cases {
        let case_seed = SplitMix64::mix(config.seed, case);
        let mut rng = TestRng::seed_from_u64(case_seed);
        let input = gen.generate(&mut rng);
        if let Err(err) = prop(&input) {
            let (minimal, minimal_err, steps) =
                shrink_failure(gen, &prop, input.clone(), err, config.max_shrink_steps);
            panic!(
                "property '{name}' failed (case {case}, seed {seed:#018x})\n\
                 minimal input: {minimal:?}\n\
                 original input: {input:?}\n\
                 error: {minimal_err}\n\
                 (shrunk in {steps} steps)\n\
                 rerun: IL_TESTKIT_SEED={seed:#x} IL_TESTKIT_CASES={cases} cargo test {name}",
                name = config.name,
                seed = config.seed,
                cases = config.cases,
            );
        }
    }
}

/// Greedy shrink: repeatedly replace the failing input with the first
/// shrink candidate that still fails, until none does or the step budget
/// runs out.
fn shrink_failure<G, P>(
    gen: &G,
    prop: &P,
    mut current: G::Value,
    mut current_err: String,
    budget: u32,
) -> (G::Value, String, u32)
where
    G: Gen,
    P: Fn(&G::Value) -> Result<(), String>,
{
    let mut steps = 0u32;
    'outer: while steps < budget {
        for candidate in gen.shrink(&current) {
            steps += 1;
            if steps >= budget {
                break 'outer;
            }
            if let Err(err) = prop(&candidate) {
                current = candidate;
                current_err = err;
                continue 'outer;
            }
        }
        break;
    }
    (current, current_err, steps)
}

/// Assert inside a property, returning an `Err` (so the harness can
/// shrink) instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{}): {}",
                stringify!($cond),
                file!(),
                line!(),
                format!($($fmt)*)
            ));
        }
    };
}

/// Equality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "assertion failed: `{} == {}` ({}:{})\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                file!(),
                line!(),
                a,
                b
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "assertion failed: `{} == {}` ({}:{}): {}\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                file!(),
                line!(),
                format!($($fmt)*),
                a,
                b
            ));
        }
    }};
}

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// Uniform `i64` in a half-open range, shrinking toward the low bound.
#[derive(Clone, Debug)]
pub struct I64Range {
    lo: i64,
    hi: i64,
}

/// `i64` values in `range`, shrinking toward `range.start`.
pub fn i64s(range: Range<i64>) -> I64Range {
    assert!(range.start < range.end, "empty range");
    I64Range { lo: range.start, hi: range.end }
}

impl Gen for I64Range {
    type Value = i64;

    fn generate(&self, rng: &mut TestRng) -> i64 {
        rng.gen_range_i64(self.lo, self.hi)
    }

    fn shrink(&self, v: &i64) -> Vec<i64> {
        // Toward lo: the bound itself, the midpoint, one step down.
        let mut out = Vec::new();
        for c in [self.lo, self.lo + (v - self.lo) / 2, v - 1] {
            if c < *v && c >= self.lo && !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }
}

/// Uniform `usize` in a half-open range, shrinking toward the low bound.
#[derive(Clone, Debug)]
pub struct UsizeRange {
    lo: usize,
    hi: usize,
}

/// `usize` values in `range`, shrinking toward `range.start`.
pub fn usizes(range: Range<usize>) -> UsizeRange {
    assert!(range.start < range.end, "empty range");
    UsizeRange { lo: range.start, hi: range.end }
}

impl Gen for UsizeRange {
    type Value = usize;

    fn generate(&self, rng: &mut TestRng) -> usize {
        rng.gen_range_usize(self.lo, self.hi)
    }

    fn shrink(&self, v: &usize) -> Vec<usize> {
        let mut out = Vec::new();
        for c in [self.lo, self.lo + (v - self.lo) / 2, v.saturating_sub(1)] {
            if c < *v && c >= self.lo && !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }
}

/// Uniform `f64` in a half-open range, shrinking toward the low bound.
#[derive(Clone, Debug)]
pub struct F64Range {
    lo: f64,
    hi: f64,
}

/// `f64` values in `range`, shrinking toward `range.start`.
pub fn f64s(range: Range<f64>) -> F64Range {
    assert!(range.start < range.end, "empty range");
    F64Range { lo: range.start, hi: range.end }
}

impl Gen for F64Range {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range_f64(self.lo, self.hi)
    }

    fn shrink(&self, v: &f64) -> Vec<f64> {
        let mid = self.lo + (v - self.lo) / 2.0;
        [self.lo, mid]
            .into_iter()
            .filter(|c| c < v)
            .collect()
    }
}

/// Uniform `bool`, shrinking `true` to `false`.
#[derive(Clone, Debug)]
pub struct AnyBool;

/// `bool` values; `true` shrinks to `false`.
pub fn bools() -> AnyBool {
    AnyBool
}

impl Gen for AnyBool {
    type Value = bool;

    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.gen_bool(0.5)
    }

    fn shrink(&self, v: &bool) -> Vec<bool> {
        if *v { vec![false] } else { Vec::new() }
    }
}

/// Always the same value (no shrinking).
#[derive(Clone, Debug)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Gen for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Vectors of `elem` with length in `len`, shrinking by dropping chunks,
/// dropping single elements, and shrinking individual elements.
#[derive(Clone, Debug)]
pub struct VecGen<G> {
    elem: G,
    min: usize,
    max: usize,
}

/// `Vec<G::Value>` with length in `len` (half-open).
pub fn vec_of<G: Gen>(elem: G, len: Range<usize>) -> VecGen<G> {
    assert!(len.start < len.end, "empty length range");
    VecGen { elem, min: len.start, max: len.end }
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<G::Value> {
        let n = rng.gen_range_usize(self.min, self.max);
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, v: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let mut out: Vec<Vec<G::Value>> = Vec::new();
        // Halve the vector (front and back halves).
        if v.len() / 2 >= self.min && v.len() > 1 {
            out.push(v[..v.len() / 2].to_vec());
            out.push(v[v.len() - v.len() / 2..].to_vec());
        }
        // Drop one element.
        if v.len() > self.min {
            for i in 0..v.len() {
                let mut smaller = v.clone();
                smaller.remove(i);
                out.push(smaller);
            }
        }
        // Shrink one element in place (first candidate per slot).
        for i in 0..v.len() {
            for cand in self.elem.shrink(&v[i]) {
                let mut copy = v.clone();
                copy[i] = cand;
                out.push(copy);
            }
        }
        out
    }
}

/// Choose uniformly among boxed generators of the same value type. No
/// shrinking across branches (a candidate must stay producible, and the
/// producing branch is not recorded).
pub struct OneOf<T> {
    gens: Vec<Box<dyn Gen<Value = T>>>,
}

/// Uniform choice among `gens`.
pub fn one_of<T: Clone + Debug>(gens: Vec<Box<dyn Gen<Value = T>>>) -> OneOf<T> {
    assert!(!gens.is_empty(), "one_of of nothing");
    OneOf { gens }
}

impl<T: Clone + Debug> Gen for OneOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let k = rng.gen_range_usize(0, self.gens.len());
        self.gens[k].generate(rng)
    }
}

/// Map a generator's output through `f` (shrinking is not preserved —
/// prefer generating primitives and mapping inside the property when
/// shrinking matters).
pub struct Mapped<G, F> {
    inner: G,
    f: F,
}

/// `f` applied to values of `inner`.
pub fn map<G, T, F>(inner: G, f: F) -> Mapped<G, F>
where
    G: Gen,
    T: Clone + Debug,
    F: Fn(G::Value) -> T,
{
    Mapped { inner, f }
}

impl<G, T, F> Gen for Mapped<G, F>
where
    G: Gen,
    T: Clone + Debug,
    F: Fn(G::Value) -> T,
{
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_tuple_gen {
    ($($g:ident : $idx:tt),+) => {
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&v.$idx) {
                        let mut copy = v.clone();
                        copy.$idx = cand;
                        out.push(copy);
                    }
                )+
                out
            }
        }
    };
}

impl_tuple_gen!(A: 0, B: 1);
impl_tuple_gen!(A: 0, B: 1, C: 2);
impl_tuple_gen!(A: 0, B: 1, C: 2, D: 3);
impl_tuple_gen!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_tuple_gen!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let seen = std::cell::Cell::new(0u64);
        check_with(
            Config::from_env("always_passes").with_cases(32),
            &i64s(0..100),
            |v| {
                seen.set(seen.get() + 1);
                prop_assert!(*v < 100);
                Ok(())
            },
        );
        assert_eq!(seen.get(), 32);
    }

    #[test]
    fn failure_is_shrunk_to_minimum() {
        // Property fails for v >= 10; minimal failing input is 10.
        let caught = std::panic::catch_unwind(|| {
            check_with(
                Config::from_env("shrinks_to_ten").with_cases(200),
                &i64s(0..1000),
                |v| {
                    prop_assert!(*v < 10, "got {v}");
                    Ok(())
                },
            );
        });
        let msg = match caught {
            Err(e) => *e.downcast::<String>().expect("panic payload"),
            Ok(()) => panic!("property should have failed"),
        };
        assert!(msg.contains("minimal input: 10"), "{msg}");
        assert!(msg.contains("IL_TESTKIT_SEED="), "{msg}");
        assert!(msg.contains("seed 0x"), "{msg}");
    }

    #[test]
    fn failure_is_deterministic_for_fixed_seed() {
        let run = || {
            std::panic::catch_unwind(|| {
                let mut config = Config::from_env("deterministic_failure");
                config.seed = 0xDEAD_BEEF;
                config.cases = 100;
                check_with(config, &vec_of(i64s(0..50), 1..10), |v| {
                    let sum: i64 = v.iter().sum();
                    prop_assert!(sum < 40, "sum {sum}");
                    Ok(())
                });
            })
            .err()
            .and_then(|e| e.downcast::<String>().ok())
            .map(|b| *b)
            .expect("should fail")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn vec_shrink_respects_min_len() {
        let gen = vec_of(i64s(0..5), 2..6);
        let v = vec![1, 2, 3];
        for cand in gen.shrink(&v) {
            assert!(cand.len() >= 2, "{cand:?}");
        }
    }

    #[test]
    fn tuple_shrink_is_componentwise() {
        let gen = (i64s(0..10), bools());
        let candidates = gen.shrink(&(7, true));
        assert!(candidates.contains(&(0, true)));
        assert!(candidates.contains(&(7, false)));
        // No candidate changes both components at once.
        for (n, b) in &candidates {
            assert!(*n == 7 || *b);
        }
    }

    #[test]
    fn one_of_draws_all_branches() {
        let gen = one_of::<i64>(vec![
            Box::new(Just(1i64)),
            Box::new(Just(2i64)),
            Box::new(i64s(10..20)),
        ]);
        let mut rng = TestRng::seed_from_u64(5);
        let mut saw = [false; 3];
        for _ in 0..200 {
            match gen.generate(&mut rng) {
                1 => saw[0] = true,
                2 => saw[1] = true,
                10..=19 => saw[2] = true,
                other => panic!("unexpected {other}"),
            }
        }
        assert_eq!(saw, [true; 3]);
    }

    #[test]
    fn mapped_generator_applies_function() {
        let gen = map(i64s(0..10), |v| v * 2);
        let mut rng = TestRng::seed_from_u64(9);
        for _ in 0..50 {
            let v = gen.generate(&mut rng);
            assert_eq!(v % 2, 0);
            assert!((0..20).contains(&v));
        }
    }

    #[test]
    fn seed_parse_forms() {
        assert_eq!(parse_u64("0xff"), Some(255));
        assert_eq!(parse_u64("255"), Some(255));
        assert_eq!(parse_u64("0Xff"), Some(255));
        assert_eq!(parse_u64("zzz"), None);
    }
}
