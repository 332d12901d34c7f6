#![warn(missing_docs)]

//! Mini property-testing harness for the HotC workspace.
//!
//! A std-only, deterministic replacement for the slice of `proptest` the
//! repo actually used: seeded random case generation, a fixed case count,
//! and failure-seed reporting. A property is a closure over a [`Gen`] that
//! draws its inputs and asserts with the ordinary `assert!` family:
//!
//! ```
//! testkit::check(64, |g| {
//!     let mut xs = g.vec(0..100, |g| g.i64_in(-50..50));
//!     xs.sort_unstable();
//!     for w in xs.windows(2) {
//!         assert!(w[0] <= w[1]);
//!     }
//! });
//! ```
//!
//! Every case runs from its own 64-bit seed derived from a fixed base, so a
//! run is reproducible bit-for-bit on any machine. When a case panics the
//! harness prints the case seed and re-raises the panic; re-running the test
//! with `TESTKIT_SEED=<that seed>` replays exactly the failing case.
//! `TESTKIT_CASES=<n>` scales every `check` in the process (CI can turn it
//! down for smoke runs or up for soak runs).

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Base for deriving per-case seeds; an arbitrary odd constant.
const BASE_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 step, also used to expand case seeds into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `prop` against `cases` generated inputs (the workspace default is
/// 64, mirroring the old `ProptestConfig::with_cases(64)`).
///
/// Panics (failing the enclosing `#[test]`) on the first case whose property
/// panics, after printing the case's replay seed.
pub fn check(cases: u64, mut prop: impl FnMut(&mut Gen)) {
    if let Some(seed) = env_u64("TESTKIT_SEED") {
        let mut g = Gen::from_seed(seed);
        prop(&mut g);
        return;
    }
    let cases = env_u64("TESTKIT_CASES").unwrap_or(cases).max(1);
    for case in 0..cases {
        let mut base = BASE_SEED.wrapping_add(case);
        let seed = splitmix64(&mut base);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut g = Gen::from_seed(seed);
            prop(&mut g);
        }));
        if let Err(payload) = result {
            eprintln!(
                "testkit: property failed on case {case}/{cases} (seed {seed:#018x}); \
                 rerun with TESTKIT_SEED={seed:#018x} to replay it"
            );
            resume_unwind(payload);
        }
    }
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => panic!("testkit: {name}={raw:?} is not a u64"),
    }
}

/// Deterministic input generator handed to each property case.
///
/// The core is xoshiro256++ seeded via SplitMix64 — the same construction as
/// `simclock::SimRng`, duplicated here so `testkit` stays dependency-free
/// and usable from every crate's dev-dependencies without cycles.
#[derive(Clone, Debug)]
pub struct Gen {
    s: [u64; 4],
}

impl Gen {
    /// Creates a generator for one case.
    pub(crate) fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        Gen {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit output (xoshiro256++).
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

    /// Uniform `u64` in `range`. Panics on an empty range.
    pub fn u64_in(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "u64_in: empty range {range:?}");
        let width = range.end - range.start;
        range.start + ((self.next_u64() as u128 * width as u128) >> 64) as u64
    }

    /// Uniform `i64` in `range`. Panics on an empty range.
    pub fn i64_in(&mut self, range: Range<i64>) -> i64 {
        assert!(range.start < range.end, "i64_in: empty range {range:?}");
        let width = range.end.wrapping_sub(range.start) as u64;
        range.start.wrapping_add(self.u64_in(0..width) as i64)
    }

    /// Uniform `usize` in `range`.
    pub fn usize_in(&mut self, range: Range<usize>) -> usize {
        self.u64_in(range.start as u64..range.end as u64) as usize
    }

    /// Uniform `u32` in `range`.
    pub fn u32_in(&mut self, range: Range<u32>) -> u32 {
        self.u64_in(range.start as u64..range.end as u64) as u32
    }

    /// Uniform `u16` in `range`.
    pub fn u16_in(&mut self, range: Range<u16>) -> u16 {
        self.u64_in(range.start as u64..range.end as u64) as u16
    }

    /// Uniform `u8` in `range`.
    pub fn u8_in(&mut self, range: Range<u8>) -> u8 {
        self.u64_in(range.start as u64..range.end as u64) as u8
    }

    /// Uniform `f64` in `[range.start, range.end)`.
    pub fn f64_in(&mut self, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "f64_in: empty range {range:?}");
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        range.start + unit * (range.end - range.start)
    }

    /// Fair coin flip.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A vector whose length is drawn from `len` and whose elements come
    /// from `element`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut element: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = if len.start == len.end {
            len.start
        } else {
            self.usize_in(len)
        };
        (0..n).map(|_| element(self)).collect()
    }

    /// Picks a uniformly random element — the replacement for `prop_oneof`
    /// over constants.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick: empty slice");
        &items[self.usize_in(0..items.len())]
    }

    /// A random string of length drawn from `len` over the characters of
    /// `alphabet` — the replacement for simple regex strategies like
    /// `"[A-Z]{1,4}"` (spelled `g.string("ABC…Z", 1..5)`).
    pub fn string(&mut self, alphabet: &str, len: Range<usize>) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        assert!(!chars.is_empty(), "string: empty alphabet");
        let n = if len.start == len.end {
            len.start
        } else {
            self.usize_in(len)
        };
        (0..n).map(|_| *self.pick(&chars)).collect()
    }
}

/// Uppercase ASCII alphabet, for the common `[A-Z]` string strategy.
pub const UPPER: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
/// Lowercase ASCII letters plus digits, for `[a-z0-9]` strategies.
pub const LOWER_DIGITS: &str = "abcdefghijklmnopqrstuvwxyz0123456789";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws() {
        let mut a = Gen::from_seed(1);
        let mut b = Gen::from_seed(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_are_respected() {
        let mut g = Gen::from_seed(2);
        for _ in 0..10_000 {
            assert!((5..17).contains(&g.u64_in(5..17)));
            assert!((-10..10).contains(&g.i64_in(-10..10)));
            let f = g.f64_in(-2.5..2.5);
            assert!((-2.5..2.5).contains(&f));
        }
        assert_eq!(g.u8_in(3..4), 3);
    }

    #[test]
    fn vec_length_in_range() {
        let mut g = Gen::from_seed(3);
        for _ in 0..1_000 {
            let v = g.vec(2..7, |g| g.bool());
            assert!((2..7).contains(&v.len()));
        }
        assert_eq!(g.vec(4..4, |g| g.next_u64()).len(), 4);
        assert!(g.vec(0..1, |g| g.next_u64()).is_empty());
    }

    #[test]
    fn string_uses_alphabet() {
        let mut g = Gen::from_seed(4);
        for _ in 0..500 {
            let s = g.string(UPPER, 1..5);
            assert!((1..5).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_uppercase()));
        }
    }

    #[test]
    fn pick_covers_all_items() {
        let mut g = Gen::from_seed(5);
        let items = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..200 {
            seen[*g.pick(&items) - 1] = true;
        }
        assert_eq!(seen, [true, true, true]);
    }

    #[test]
    fn check_runs_all_cases() {
        let count = std::cell::Cell::new(0u64);
        check(16, |_| count.set(count.get() + 1));
        assert_eq!(count.get(), 16);
    }

    #[test]
    fn check_reports_failure_by_panicking() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            check(8, |g| {
                // Fails on the first case drawing a large value.
                assert!(g.u64_in(0..100) < 1);
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn cases_get_distinct_seeds() {
        let mut firsts = Vec::new();
        check(8, |g| firsts.push(g.next_u64()));
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 8, "each case must draw a distinct stream");
    }
}
