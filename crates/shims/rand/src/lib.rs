//! A minimal, dependency-free stand-in for the [`rand`] crate.
//!
//! This workspace builds in hermetic environments with no access to a
//! crates.io registry, so the handful of `rand` APIs the workload
//! generators use are provided here behind the same names
//! ([`rngs::StdRng`], [`SeedableRng::seed_from_u64`], [`Rng::gen`],
//! [`Rng::gen_range`], [`Rng::gen_bool`]). The generator is a
//! deterministic xoshiro256** seeded through SplitMix64 — the same
//! construction as `pei_engine::SimRng` — so workload inputs stay
//! bit-reproducible for a given seed.
//!
//! **The streams differ from upstream `rand`'s `StdRng` (ChaCha12).**
//! Absolute experiment numbers therefore differ from runs made against
//! the real crate, but every determinism property the repository relies
//! on (same seed ⇒ same input ⇒ same tables, see EXPERIMENTS.md) holds
//! identically.
//!
//! [`rand`]: https://crates.io/crates/rand
//!
//! # Examples
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::{Rng, SeedableRng};
//!
//! let mut a = StdRng::seed_from_u64(7);
//! let mut b = StdRng::seed_from_u64(7);
//! assert_eq!(a.gen::<u64>(), b.gen::<u64>());
//! assert!(a.gen_range(0..10u32) < 10);
//! assert!((0.0..1.0).contains(&a.gen_range(0.0f64..1.0)));
//! ```

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Types that can be seeded from a 64-bit value (subset of `rand`'s
/// trait of the same name).
pub trait SeedableRng: Sized {
    /// Creates a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A value uniformly samplable from an `Rng` (the role of `rand`'s
/// `Standard` distribution).
pub trait Standard: Sized {
    /// Draws one uniformly distributed value.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_uint {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_uint!(u8, u16, u32, u64, usize);

impl Standard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// A half-open or inclusive range a value can be drawn from uniformly
/// (the role of `rand`'s `SampleRange`).
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draws one value from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Uniform integer in `[0, width)` via 128-bit multiply-shift (Lemire).
fn bounded<R: Rng + ?Sized>(rng: &mut R, width: u64) -> u64 {
    ((rng.next_u64() as u128 * width as u128) >> 64) as u64
}

macro_rules! impl_range_uint {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let width = (self.end - self.start) as u64;
                self.start + bounded(rng, width) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                if lo == 0 && hi as u128 == <$t>::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                let width = (hi - lo) as u64 + 1;
                lo + bounded(rng, width) as $t
            }
        }
    )*};
}
impl_range_uint!(u8, u16, u32, u64, usize);

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (self.end - self.start) * f64::sample(rng)
    }
}

impl SampleRange for Range<f32> {
    type Output = f32;
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (self.end - self.start) * f32::sample(rng)
    }
}

/// The generator interface (subset of `rand::Rng`).
pub trait Rng {
    /// Next raw 64-bit value; everything else derives from this.
    fn next_u64(&mut self) -> u64;

    /// A uniformly distributed value of type `T`.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// A uniform value in `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<S: SampleRange>(&mut self, range: S) -> S::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        f64::sample(self) < p
    }
}

/// Concrete generators (subset of `rand::rngs`).
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256**
    /// with SplitMix64 seeding. Unlike upstream `rand`, the stream is
    /// stable across releases — experiment outputs depend only on seeds.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        /// Moves the generator `steps` draws ahead, to the state `steps`
        /// calls of [`Rng::next_u64`] would leave, in O(log `steps`)
        /// work. (Upstream `rand` has no such method; `rand_pcg` calls
        /// its counterpart `advance`.)
        ///
        /// The state update is linear over GF(2), so `steps` updates are
        /// one 256×256 bit-matrix power, built by repeated squaring.
        pub fn advance(&mut self, mut steps: u64) {
            if steps == 0 {
                return;
            }
            let mut power = Linear::update();
            loop {
                if steps & 1 == 1 {
                    self.s = power.apply(&self.s);
                }
                steps >>= 1;
                if steps == 0 {
                    return;
                }
                power = power.square();
            }
        }
    }

    /// xoshiro256**'s state update, without its output.
    #[inline(always)]
    fn update(s: &mut [u64; 4]) {
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
    }

    /// A GF(2)-linear map on generator states, kept as a table per
    /// 4-bit group of the input: entry `[g][x]` is the image of the
    /// state whose only set bits are `x` placed at bits `4g..4g + 4`.
    struct Linear(Box<[[[u64; 4]; 16]; 64]>);

    impl Linear {
        /// The map whose image of the state with only bit `j` set is
        /// `columns[j]`.
        fn from_columns(columns: &[[u64; 4]; 256]) -> Linear {
            let mut tables = Box::new([[[0; 4]; 16]; 64]);
            for (table, columns) in tables.iter_mut().zip(columns.chunks(4)) {
                for x in 1..16usize {
                    let low = x & x.wrapping_neg();
                    let column = columns[low.trailing_zeros() as usize];
                    table[x] = std::array::from_fn(|w| table[x ^ low][w] ^ column[w]);
                }
            }
            Linear(tables)
        }

        /// One state update.
        fn update() -> Linear {
            Linear::from_columns(&std::array::from_fn(|j| {
                let mut s = [0; 4];
                s[j / 64] = 1 << (j % 64);
                update(&mut s);
                s
            }))
        }

        /// The map applied to `s`.
        fn apply(&self, s: &[u64; 4]) -> [u64; 4] {
            let mut out = [0; 4];
            for (g, table) in self.0.iter().enumerate() {
                let image = &table[(s[g / 16] >> (g % 16 * 4) & 15) as usize];
                for (o, i) in out.iter_mut().zip(image) {
                    *o ^= i;
                }
            }
            out
        }

        /// The map applied twice.
        fn square(&self) -> Linear {
            Linear::from_columns(&std::array::from_fn(|j| {
                self.apply(&self.0[j / 4][1 << (j % 4)])
            }))
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            update(&mut self.s);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respected() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(r.gen_range(0..10u32) < 10);
            let v = r.gen_range(5..=7usize);
            assert!((5..=7).contains(&v));
            let f = r.gen_range(-2.0f64..3.0);
            assert!((-2.0..3.0).contains(&f));
            let g = r.gen_range(-10.0f32..10.0);
            assert!((-10.0..10.0).contains(&g));
            let big = r.gen_range(1..u64::MAX);
            assert!(big >= 1);
        }
    }

    #[test]
    fn full_u64_inclusive_range() {
        let mut r = StdRng::seed_from_u64(9);
        // Must not overflow width arithmetic.
        let _ = r.gen_range(0..=u64::MAX);
    }

    #[test]
    fn gen_bool_probability_roughly_holds() {
        let mut r = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.1)).count();
        assert!((700..1300).contains(&hits), "hits = {hits}");
        assert!((0..10_000).all(|_| !r.gen_bool(0.0)));
        assert!((0..10_000).all(|_| r.gen_bool(1.0)));
    }

    /// Jumping `k` draws ahead leaves the state of `k` sequential draws.
    #[test]
    fn advance_matches_sequential_draws() {
        for k in [0u64, 1, 2, 64, (1 << 20) + 3] {
            let mut jumped = StdRng::seed_from_u64(24301);
            jumped.advance(k);
            let mut stepped = StdRng::seed_from_u64(24301);
            for _ in 0..k {
                stepped.next_u64();
            }
            assert_eq!(jumped, stepped, "k = {k}");
            assert_eq!(jumped.next_u64(), stepped.next_u64(), "k = {k}");
        }
    }

    #[test]
    fn mean_of_unit_f64_near_half() {
        let mut r = StdRng::seed_from_u64(5);
        let sum: f64 = (0..10_000).map(|_| r.gen::<f64>()).sum();
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
