//! Deterministic load generation: a SplitMix64 stream and a Zipf sampler.
//!
//! The serve harness must replay byte-identical load under a seed so the
//! robust and ablation runs (and CI reruns) see the *same* request
//! sequence. Both pieces here are dependency-free and fully determined by
//! their inputs.

use otf_gc::chaos::splitmix64_next;

/// The SplitMix64 generator (Steele et al.): the chaos engine's
/// [`splitmix64_next`] over a state of its own, so the load stream and the
/// fault streams never interleave draws.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded with `seed` (any value, including 0, is fine).
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64_next(&mut self.state)
    }

    /// A uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A Zipf(`exponent`) sampler over ranks `0..n`: rank 0 is the hottest.
/// Session popularity in the serve workload follows this — a handful of
/// hot sessions dominate while a long tail trickles.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks (`n > 0`) with the given exponent
    /// (`0.0` = uniform; larger = more skewed).
    pub fn new(n: usize, exponent: f64) -> Zipf {
        assert!(n > 0, "zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(exponent);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws a rank in `0..n` using one uniform from `rng`.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        match self.cdf.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) | Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_replays_the_same_stream() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn zipf_ranks_are_in_bounds_and_skewed_toward_rank_zero() {
        let zipf = Zipf::new(64, 1.1);
        let mut rng = SplitMix64::new(7);
        let mut counts = [0u32; 64];
        for _ in 0..20_000 {
            let r = zipf.sample(&mut rng);
            assert!(r < 64);
            counts[r] += 1;
        }
        assert!(
            counts[0] > counts[32] && counts[0] > counts[63],
            "rank 0 is hottest: {} vs {} vs {}",
            counts[0],
            counts[32],
            counts[63]
        );
        let head: u32 = counts[..8].iter().sum();
        assert!(
            head > 20_000 / 3,
            "the head holds a disproportionate share: {head}"
        );
    }

    #[test]
    fn zipf_exponent_zero_is_roughly_uniform() {
        let zipf = Zipf::new(16, 0.0);
        let mut rng = SplitMix64::new(11);
        let mut counts = [0u32; 16];
        for _ in 0..16_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for (rank, &c) in counts.iter().enumerate() {
            assert!(
                (500..1500).contains(&c),
                "rank {rank} count {c} far from uniform 1000"
            );
        }
    }
}
