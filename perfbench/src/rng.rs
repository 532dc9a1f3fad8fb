//! SplitMix64: a tiny, seedable generator, so every workload input is
//! a pure function of the `--seed` argument.

/// A SplitMix64 stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// A stream for item `index` of the stream family `seed`: lets a
    /// generator produce item `i` without producing items `0..i`.
    #[must_use]
    pub fn for_item(seed: u64, index: u64) -> Self {
        let mut base = Self(seed ^ 0x5851_f42d_4c95_7f2d);
        let salt = base.next_u64();
        Self(salt.wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`
    /// events per second.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
