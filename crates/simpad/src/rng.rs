//! Reproducible random-number streams.
//!
//! SIMPAD selects query parameters "at random" (paper §5).  To keep experiment
//! runs reproducible and independent of each other, every model component
//! draws from its own [`RngStream`], derived from a master seed plus a stream
//! identifier — the classic CSIM "stream" idiom.

/// A named, seeded random stream.
///
/// Implemented as a self-contained xoshiro256++ generator (seeded through
/// SplitMix64) so the simulator has no external RNG dependency and sequences
/// are stable across toolchain upgrades.
#[derive(Debug, Clone)]
pub(crate) struct RngStream {
    state: [u64; 4],
}

impl RngStream {
    /// Creates stream number `stream` of the family identified by `seed`.
    ///
    /// Different `(seed, stream)` pairs produce statistically independent
    /// sequences; the same pair always produces the same sequence.
    #[must_use]
    pub(crate) fn new(seed: u64, stream: u64) -> Self {
        // SplitMix64-style mixing so that consecutive stream ids do not yield
        // correlated generator states.
        let mut z =
            seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
        let mut next_word = move || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut w = z;
            w = (w ^ (w >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            w = (w ^ (w >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            w ^ (w >> 31)
        };
        RngStream {
            state: [next_word(), next_word(), next_word(), next_word()],
        }
    }

    /// Next raw 64-bit value (xoshiro256++).
    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        // Canonical xoshiro256++ transition: s1/s0 mix in the already-updated
        // s2/s3 words (s1 ^= s2 ^ s0, s0 ^= s3 ^ s1).
        let s2x = s2 ^ s0;
        let s3x = s3 ^ s1;
        let s1n = s1 ^ s2x;
        let s0n = s0 ^ s3x;
        self.state = [s0n, s1n, s2x ^ t, s3x.rotate_left(45)];
        result
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub(crate) fn uniform_index(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "uniform_index bound must be positive");
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let x = self.next_u64();
            if x < zone {
                return x % bound;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_and_stream_reproduce() {
        let mut a = RngStream::new(42, 7);
        let mut b = RngStream::new(42, 7);
        let xs: Vec<u64> = (0..100).map(|_| a.uniform_index(1000)).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.uniform_index(1000)).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_streams_differ() {
        let mut a = RngStream::new(42, 0);
        let mut b = RngStream::new(42, 1);
        let xs: Vec<u64> = (0..50).map(|_| a.uniform_index(1_000_000)).collect();
        let ys: Vec<u64> = (0..50).map(|_| b.uniform_index(1_000_000)).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn uniform_index_respects_bound() {
        let mut r = RngStream::new(1, 1);
        for _ in 0..1_000 {
            assert!(r.uniform_index(17) < 17);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_rejected() {
        RngStream::new(0, 0).uniform_index(0);
    }
}
