//! Deterministic random-number streams.
//!
//! Every stochastic decision in the simulator (radio loss, MAC backoff,
//! mobility waypoints, workload arrivals) draws from a [`SimRng`] derived
//! from the world seed, so a simulation with a given seed is exactly
//! reproducible.

/// A deterministic RNG stream.
///
/// Streams are created by [`SimRng::from_seed_and_stream`], which mixes a
/// global seed with a stream label so that independent components receive
/// decorrelated but reproducible streams. The generator (xoshiro256++)
/// and the samplers are this module's own, so every digest in the tree is
/// a function of this file alone; `tests::stream_is_pinned` holds the
/// stream bit for bit.
///
/// # Examples
///
/// ```
/// use siphoc_simnet::rng::SimRng;
///
/// let mut a = SimRng::from_seed_and_stream(42, 1);
/// let mut b = SimRng::from_seed_and_stream(42, 1);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

/// One SplitMix64 output step over `z`.
fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Derives a stream from a global seed and a stream label.
    pub fn from_seed_and_stream(seed: u64, stream: u64) -> SimRng {
        // SplitMix64 finalizer decorrelates adjacent (seed, stream) pairs.
        let mut state = splitmix(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // Four SplitMix64 steps expand the mixed word into the state.
        let mut s = [0u64; 4];
        for word in &mut s {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            *word = splitmix(state);
        }
        // The all-zero fixed point of xoshiro cannot be seeded: the
        // SplitMix64 step is a bijection and its four inputs differ, so at
        // most one word is zero.
        SimRng { s }
    }

    /// Returns the next `u64`.
    #[inline]
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

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "empty range");
        if lo == hi {
            return lo;
        }
        let mut scale = hi - lo;
        assert!(scale.is_finite(), "range overflow");
        loop {
            // A float in [1, 2) built from the top 52 bits.
            let one_two = f64::from_bits((self.next_u64() >> 12) | (1023u64 << 52));
            let res = (one_two - 1.0) * scale + lo;
            if res < hi {
                return res;
            }
            // Rounding landed on `hi`: shrink the scale one ulp.
            scale = f64::from_bits(scale.to_bits() - 1);
        }
    }

    /// Returns a uniform `u64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        // Widening multiply; reject the low products that would bias.
        let span = hi - lo;
        let zone = (span << span.leading_zeros()).wrapping_sub(1);
        loop {
            let wide = u128::from(self.next_u64()) * u128::from(span);
            if (wide as u64) <= zone {
                return lo + (wide >> 64) as u64;
            }
        }
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            // 2^64 as f64; the product truncates into the u64 range.
            self.next_u64() < (p * 18_446_744_073_709_551_616.0) as u64
        }
    }

    /// Samples an exponentially distributed span with the given mean, in
    /// seconds. Used for Poisson arrival processes in workloads.
    ///
    /// # Panics
    ///
    /// Panics if `mean_secs` is not positive.
    pub fn exp_secs(&mut self, mean_secs: f64) -> f64 {
        assert!(mean_secs > 0.0, "mean must be positive");
        let u = self.range_f64(f64::MIN_POSITIVE, 1.0);
        -mean_secs * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured before the generator moved in-tree (PR 23), from the
    /// `rand` stand-in every golden digest was recorded with.
    #[test]
    fn stream_is_pinned() {
        let mut r = SimRng::from_seed_and_stream(7, 3);
        let first: [u64; 4] = std::array::from_fn(|_| r.next_u64());
        assert_eq!(
            first,
            [
                0x46bf_8c6e_2f6a_8a74,
                0x2029_5b36_1ce8_ecf5,
                0xf956_51be_8cfb_90ca,
                0xaee5_824c_f0aa_6b77,
            ]
        );
        assert_eq!(r.unit().to_bits(), 0x3f9f_24ca_18ad_4a60);
        assert_eq!(r.range_f64(2.5, 3.5).to_bits(), 0x4009_824e_1a05_6eb8);
        assert_eq!(r.range_u64(10, 13), 10);
        assert!(!r.chance(0.25));
        assert_eq!(r.exp_secs(2.0).to_bits(), 0x3ffd_043d_772f_f512);
        assert_eq!(r.next_u64(), 0x74f9_0d28_7324_0d66);
    }

    #[test]
    fn same_seed_same_stream_is_identical() {
        let mut a = SimRng::from_seed_and_stream(7, 3);
        let mut b = SimRng::from_seed_and_stream(7, 3);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = SimRng::from_seed_and_stream(7, 3);
        let mut b = SimRng::from_seed_and_stream(7, 4);
        let matches = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::from_seed_and_stream(1, 1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn exp_secs_has_roughly_correct_mean() {
        let mut r = SimRng::from_seed_and_stream(9, 9);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exp_secs(2.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean} too far from 2.0");
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = SimRng::from_seed_and_stream(5, 5);
        for _ in 0..1000 {
            let v = r.range_f64(1.0, 2.0);
            assert!((1.0..2.0).contains(&v));
            let u = r.range_u64(10, 20);
            assert!((10..20).contains(&u));
        }
    }
}
