//! The benchmark's own generator for request sampling, relabelling and
//! shuffles: splitmix64. Kept here so that edits to `crates/compat/rand`
//! cannot move a request list or a pinned digest.

/// Splitmix64 (Steele, Lea, Flood 2014).
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive. The modulo bias is below
    /// 2⁻⁴⁰ for every `n` the benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Log-uniform rank in `[0, n)`: rank `r` is drawn with probability
    /// proportional to `ln((r + 2) / (r + 1))`, a Zipf-like skew towards the
    /// first entries.
    pub fn log_uniform(&mut self, n: usize) -> usize {
        let rank = ((n as f64 + 1.0).ln() * self.next_f64()).exp() as usize;
        rank.clamp(1, n) - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector() {
        // First outputs of splitmix64 seeded with 1234567 (from the
        // reference C implementation).
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn draws_stay_in_range_and_log_uniform_is_skewed() {
        let mut rng = SplitMix64::new(7);
        let mut counts = [0usize; 16];
        for _ in 0..20_000 {
            counts[rng.log_uniform(16)] += 1;
            assert!(rng.below(5) < 5);
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
        assert!(counts.iter().all(|c| *c > 0));
        assert!(counts[0] > 3 * counts[15]);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        SplitMix64::new(3).shuffle(&mut a);
        SplitMix64::new(3).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..100).collect::<Vec<_>>());
        a.sort_unstable();
        assert_eq!(a, (0..100).collect::<Vec<_>>());
    }
}
