//! Probability distributions, implemented from scratch.
//!
//! Only `rand`'s uniform primitives are consumed; every shaped distribution
//! (log-normal, Pareto, Zipf, …) is derived here via standard
//! transforms so the workload models have no opaque dependencies.

mod normal;
mod pareto;
mod zipf;

pub use normal::LogNormal;
pub use pareto::BoundedPareto;
pub use zipf::Zipf;

use rand::Rng;

/// Uniform draw in `[0, 1)` built from 53 random bits — the single primitive
/// every shaped distribution in this module is derived from.
#[inline]
pub fn u01(rng: &mut dyn Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A real-valued distribution that can be sampled.
pub trait Dist {
    /// Draw one sample.
    fn sample(&self, rng: &mut dyn Rng) -> f64;

    /// Draw `n` samples into a vector.
    fn sample_n(&self, rng: &mut dyn Rng, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Log-uniform over `[lo, hi)` (both positive): the logarithm is uniform.
/// Its mean is `(hi - lo) / ln(hi / lo)`.
#[derive(Debug, Clone, Copy)]
pub struct LogUniform {
    ln_lo: f64,
    ln_hi: f64,
}

impl LogUniform {
    /// Log-uniform over `[lo, hi)`; requires `0 < lo < hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo > 0.0 && lo < hi, "log-uniform requires 0 < lo < hi");
        LogUniform { ln_lo: lo.ln(), ln_hi: hi.ln() }
    }

    /// Analytic mean.
    pub fn mean(&self) -> f64 {
        (self.ln_hi.exp() - self.ln_lo.exp()) / (self.ln_hi - self.ln_lo)
    }
}

impl Dist for LogUniform {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        (self.ln_lo + (self.ln_hi - self.ln_lo) * u01(rng)).exp()
    }
}

/// Discrete power law on integers `{lo, …, hi}` with weight `k^-exponent`.
/// Used for per-file weekly request counts of unpopular files.
#[derive(Debug, Clone)]
pub struct DiscretePowerLaw {
    lo: u64,
    cumulative: Vec<f64>,
}

impl DiscretePowerLaw {
    /// Support `{lo, …, hi}` inclusive with P(k) ∝ k^-exponent.
    pub fn new(lo: u64, hi: u64, exponent: f64) -> Self {
        assert!(lo >= 1 && hi >= lo, "support must be 1 <= lo <= hi");
        let mut cumulative = Vec::with_capacity((hi - lo + 1) as usize);
        let mut acc = 0.0;
        for k in lo..=hi {
            acc += (k as f64).powf(-exponent);
            cumulative.push(acc);
        }
        let total = acc;
        for c in &mut cumulative {
            *c /= total;
        }
        DiscretePowerLaw { lo, cumulative }
    }

    /// Draw an integer from the support.
    pub fn sample_int(&self, rng: &mut dyn Rng) -> u64 {
        let u = u01(rng);
        let idx = self.cumulative.partition_point(|&c| c < u);
        self.lo + idx.min(self.cumulative.len() - 1) as u64
    }

    /// Analytic mean of the distribution.
    pub fn mean(&self) -> f64 {
        let mut prev = 0.0;
        let mut mean = 0.0;
        for (i, &c) in self.cumulative.iter().enumerate() {
            mean += (self.lo + i as u64) as f64 * (c - prev);
            prev = c;
        }
        mean
    }
}

impl Dist for DiscretePowerLaw {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        self.sample_int(rng) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let mut rng = rng();
        let xs: Vec<f64> = (0..20_000).map(|_| 2.0 + 2.0 * u01(&mut rng)).collect();
        assert!(xs.iter().all(|&x| (2.0..4.0).contains(&x)));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 3.0).abs() < 0.02);
    }

    #[test]
    fn log_uniform_mean_matches_analytic() {
        let d = LogUniform::new(7.0, 84.0);
        let xs = d.sample_n(&mut rng(), 100_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - d.mean()).abs() / d.mean() < 0.02, "{mean} vs {}", d.mean());
        // The paper's "popular" class: counts in [7, 84), mean ≈ 31.
        assert!((d.mean() - 31.0).abs() < 1.0);
    }

    #[test]
    fn discrete_power_law_support_and_mean() {
        let d = DiscretePowerLaw::new(1, 6, 0.8);
        let mut rng = rng();
        let mut counts = [0u64; 7];
        for _ in 0..50_000 {
            let k = d.sample_int(&mut rng);
            assert!((1..=6).contains(&k));
            counts[k as usize] += 1;
        }
        // Monotone decreasing frequency.
        for k in 1..6 {
            assert!(counts[k] > counts[k + 1], "{counts:?}");
        }
        let emp_mean =
            counts.iter().enumerate().map(|(k, &c)| k as f64 * c as f64).sum::<f64>() / 50_000.0;
        assert!((emp_mean - d.mean()).abs() < 0.05);
    }
}
