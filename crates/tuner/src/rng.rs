//! A minimal deterministic PRNG (SplitMix64) for the random-sampling phase.
//!
//! The tuner only needs reproducible, well-mixed draws from small integer
//! ranges; SplitMix64 (Steele et al., OOPSLA 2014) passes BigCrush and needs
//! no external dependency.

/// SplitMix64 state.
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator (any seed is fine, including 0).
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, n)` (Lemire's multiply-shift reduction; the
    /// bias for the `n` used here — parameter-space cardinalities — is
    /// far below anything a tuner could observe).
    pub fn gen_range(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<u64> = (0..8).map(|_| SplitMix64::new(42).next_u64()).collect();
        assert!(a.iter().all(|v| *v == a[0]));
        let mut r1 = SplitMix64::new(7);
        let mut r2 = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(r1.next_u64(), r2.next_u64());
        }
    }

    #[test]
    fn gen_range_in_bounds_and_covers() {
        let mut r = SplitMix64::new(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.gen_range(10);
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|s| *s), "all buckets hit: {seen:?}");
    }
}
