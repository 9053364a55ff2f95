//! Deterministic stand-in for the tiny subset of the `rand` crate API the
//! workspace uses (`StdRng::from_seed` + `gen_range` over `f64`/`i64`
//! ranges). The build environment has no network access, so the real
//! crate cannot be fetched; input generation only needs *reproducible*
//! pseudo-randomness, not cryptographic quality, and every consumer
//! checks results against the reference oracle rather than golden
//! values, so the exact stream does not matter.
//!
//! The generator is xoshiro256++ (public domain, Blackman & Vigna),
//! seeded through the same `[u8; 32]` interface as `rand::rngs::StdRng`.

#![forbid(unsafe_code)]

/// Seedable generator trait (mirrors `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// The seed type.
    type Seed;

    /// Construct from a fixed seed.
    fn from_seed(seed: Self::Seed) -> Self;
}

/// Range sampling trait (mirrors the used part of `rand::Rng`).
pub trait Rng {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Sample uniformly from `range` (half-open, like `rand`).
    ///
    /// # Panics
    /// Panics on an empty range.
    fn gen_range<T: SampleRange>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample(self, range)
    }
}

/// Types samplable from a half-open range.
pub trait SampleRange: Sized {
    /// Sample uniformly from `range` using `rng`.
    fn sample<R: Rng + ?Sized>(rng: &mut R, range: std::ops::Range<Self>) -> Self;
}

impl SampleRange for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R, range: std::ops::Range<f64>) -> f64 {
        assert!(range.start < range.end, "empty range");
        // 53 uniform mantissa bits in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        range.start + unit * (range.end - range.start)
    }
}

impl SampleRange for i64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R, range: std::ops::Range<i64>) -> i64 {
        assert!(range.start < range.end, "empty range");
        let span = range.end.wrapping_sub(range.start) as u64;
        // Modulo bias is ~span/2^64 — irrelevant for test-input spans.
        range.start.wrapping_add((rng.next_u64() % span) as i64)
    }
}

impl SampleRange for i32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R, range: std::ops::Range<i32>) -> i32 {
        i64::sample(rng, range.start as i64..range.end as i64) as i32
    }
}

impl SampleRange for usize {
    fn sample<R: Rng + ?Sized>(rng: &mut R, range: std::ops::Range<usize>) -> usize {
        i64::sample(rng, range.start as i64..range.end as i64) as usize
    }
}

/// The `rand::rngs` module shape.
pub mod rngs {
    /// xoshiro256++ behind the `StdRng` name.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl super::SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> StdRng {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().unwrap());
            }
            // An all-zero state would be a fixed point; splitmix the seed
            // words so any seed (including zeros) produces a sound state.
            let mut sm =
                s[0] ^ s[1].rotate_left(17) ^ s[2].rotate_left(31) ^ s[3] ^ 0x9e3779b97f4a7c15;
            for w in &mut s {
                sm = sm.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                *w ^= z ^ (z >> 31) | 1;
            }
            StdRng { s }
        }
    }

    impl super::Rng for StdRng {
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
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::from_seed([7; 32]);
        let mut b = StdRng::from_seed([7; 32]);
        let mut c = StdRng::from_seed([8; 32]);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_are_respected() {
        let mut r = StdRng::from_seed([0; 32]);
        for _ in 0..1000 {
            let f = r.gen_range(-2.5..7.5);
            assert!((-2.5..7.5).contains(&f));
            let i = r.gen_range(0..256_i64);
            assert!((0..256).contains(&i));
        }
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut r = StdRng::from_seed([0; 32]);
        let vals: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert!(vals.iter().any(|&v| v != 0));
        assert_ne!(vals[0], vals[1]);
    }
}
