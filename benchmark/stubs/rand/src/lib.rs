//! Offline stand-in for the part of the `rand` 0.8 API this repository
//! uses: `RngCore`, `SeedableRng`, `Rng::{gen, gen_range, gen_bool}` and
//! `rngs::SmallRng`.
//!
//! The build sandbox has no crates.io registry, so the benchmark package
//! patches `rand` to this crate. The generator and the samplers follow
//! the algorithms `rand` 0.8 documents for 64-bit targets (xoshiro256++
//! seeded through SplitMix64, widening-multiply integer ranges, 53-bit
//! floats), but nothing here claims stream compatibility with the
//! published crate: simulated statistics recorded by the benchmark are
//! comparable only between builds that use this same file.

use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Error type of [`RngCore::try_fill_bytes`]; the generators here never
/// fail.
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("random number generator failure")
    }
}

impl std::error::Error for Error {}

/// The core of a random number generator.
pub trait RngCore {
    /// Next random `u32`.
    fn next_u32(&mut self) -> u32;
    /// Next random `u64`.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
    /// Fills `dest` with random bytes, reporting generator failure.
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    /// Seed type, a byte array.
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64`, expanding it with SplitMix64.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Types [`Rng::gen`] can produce (the `Standard` distribution).
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($ty:ty => $next:ident),*) => {$(
        impl Standard for $ty {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> $ty {
                rng.$next() as $ty
            }
        }
    )*};
}
standard_int!(u8 => next_u32, u16 => next_u32, u32 => next_u32, u64 => next_u64,
              usize => next_u64, i32 => next_u32, i64 => next_u64);

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        (rng.next_u32() as i32) < 0
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform integer in `low + [0, span)` by widening multiply with
/// rejection; `span == 0` means the full 64-bit range.
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    if span == 0 {
        return rng.next_u64();
    }
    let zone = (span << span.leading_zeros()).wrapping_sub(1);
    loop {
        let wide = u128::from(rng.next_u64()) * u128::from(span);
        if (wide as u64) <= zone {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! range_int {
    ($($ty:ty),*) => {$(
        impl SampleRange<$ty> for Range<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(below(rng, span) as $ty)
            }
        }
        impl SampleRange<$ty> for RangeInclusive<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (low, high) = self.into_inner();
                assert!(low <= high, "cannot sample empty range");
                let span = (high.wrapping_sub(low) as u64).wrapping_add(1);
                low.wrapping_add(below(rng, span) as $ty)
            }
        }
    )*};
}
range_int!(u8, u16, u32, u64, usize);

macro_rules! range_float {
    ($ty:ty, $next:ident, $discard:expr, $one_exp:expr) => {
        impl SampleRange<$ty> for Range<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (low, high) = (self.start, self.end);
                assert!(low < high, "cannot sample empty range");
                let mut scale = high - low;
                assert!(scale.is_finite(), "range overflow");
                loop {
                    // A float in [1, 2) built from the top mantissa bits.
                    let one_two = <$ty>::from_bits((rng.$next() >> $discard) | $one_exp);
                    let res = (one_two - 1.0) * scale + low;
                    if res < high {
                        return res;
                    }
                    // Rounding landed on `high`: shrink the scale one ulp.
                    scale = <$ty>::from_bits(scale.to_bits() - 1);
                }
            }
        }
    };
}
range_float!(f64, next_u64, 12, 1023u64 << 52);
range_float!(f32, next_u32, 9, 127u32 << 23);

/// Convenience sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A value of the `Standard` distribution.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform value in `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside range [0, 1]");
        if p == 1.0 {
            return true;
        }
        // 2^64 as f64; the product truncates into the u64 range.
        let p_int = (p * 18_446_744_073_709_551_616.0) as u64;
        self.next_u64() < p_int
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, non-cryptographic generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> SmallRng {
            if seed.iter().all(|&b| b == 0) {
                // The all-zero state is a fixed point of xoshiro.
                return SmallRng::seed_from_u64(0);
            }
            let mut s = [0u64; 4];
            for (word, chunk) in s.iter_mut().zip(seed.chunks_exact(8)) {
                *word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        #[inline]
        fn next_u64(&mut self) -> u64 {
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

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let bytes = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::*;

    #[test]
    fn same_seed_same_stream_and_seeds_differ() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let mut c = SmallRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_and_unit_floats_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let u: f64 = r.gen();
            assert!((0.0..1.0).contains(&u));
            let v = r.gen_range(2.5..3.5);
            assert!((2.5..3.5).contains(&v));
            let k = r.gen_range(10u64..13);
            assert!((10..13).contains(&k));
            let j = r.gen_range(0usize..=2);
            assert!(j <= 2);
        }
    }

    #[test]
    fn integer_range_is_roughly_uniform_and_bool_tracks_p() {
        let mut r = SmallRng::seed_from_u64(2);
        let mut hits = [0u32; 5];
        let n = 50_000;
        for _ in 0..n {
            hits[r.gen_range(0usize..5)] += 1;
        }
        for h in hits {
            assert!(
                (h as f64 - n as f64 / 5.0).abs() < n as f64 * 0.01,
                "{hits:?}"
            );
        }
        let yes = (0..n).filter(|_| r.gen_bool(0.25)).count();
        assert!((yes as f64 / n as f64 - 0.25).abs() < 0.01);
        assert!(r.gen_bool(1.0));
        assert!(!r.gen_bool(0.0));
    }

    #[test]
    fn fill_bytes_covers_ragged_tail() {
        let mut r = SmallRng::seed_from_u64(3);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
