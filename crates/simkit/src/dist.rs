//! File popularity for the workload generator.
//!
//! A few files absorb most opens (shared headers, fonts); [`Zipf`] draws
//! a popularity rank for them. Sizes and think times are drawn inline by
//! the generator straight from [`SimRng`].

use crate::rng::SimRng;

/// Zipf distribution over ranks `1..=n` with exponent `s`.
///
/// Uses a precomputed cumulative table; sampling is a binary search.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero ranks");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draws a rank in `0..n` (0 is the most popular).
    pub fn sample_rank(&self, rng: &mut SimRng) -> usize {
        let u = rng.f64();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("NaN in CDF"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_head_dominates() {
        let z = Zipf::new(1000, 1.0);
        let mut r = SimRng::seed_from_u64(0xDEC0DE);
        let n = 100_000;
        let head = (0..n).filter(|_| z.sample_rank(&mut r) < 10).count();
        let frac = head as f64 / n as f64;
        // With s=1 and n=1000, the top 10 ranks carry ~39% of the mass.
        assert!((0.35..0.45).contains(&frac), "head fraction {frac}");
    }
}
