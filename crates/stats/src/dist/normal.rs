//! The log-normal distribution, drawn via the Marsaglia polar method.

use super::{u01, Dist};
use rand::Rng;

/// One standard-normal draw (Marsaglia polar, single value per call; the
/// spare is discarded to keep the sampler stateless and `Copy`).
fn standard_normal_draw(rng: &mut dyn Rng) -> f64 {
    loop {
        let u = 2.0 * u01(rng) - 1.0;
        let v = 2.0 * u01(rng) - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Log-normal: `exp(mu + sigma · Z)` for a standard normal `Z`.
///
/// Parameterized by its *median* (`exp(mu)`) because the paper reports
/// medians; `mean = median × exp(sigma²/2)`.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// From the underlying normal parameters.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite(), "sigma must be finite and >= 0");
        LogNormal { mu, sigma }
    }

    /// From the distribution's median and log-space sigma.
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive");
        LogNormal::new(median.ln(), sigma)
    }

    /// The median, `exp(mu)`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// The mean, `exp(mu + sigma²/2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    /// P(X < x) via the error-function approximation below.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = (x.ln() - self.mu) / self.sigma.max(1e-300);
        standard_normal_cdf(z)
    }
}

impl Dist for LogNormal {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        (self.mu + self.sigma * standard_normal_draw(rng)).exp()
    }
}

/// Φ(z) via Abramowitz–Stegun 7.1.26 (|error| < 1.5e-7), enough for the
/// calibration assertions in this workspace.
pub fn standard_normal_cdf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.3275911 * x.abs());
    let erf = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    let erf = if x < 0.0 { -erf } else { erf };
    0.5 * (1.0 + erf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(2);
        let xs: Vec<f64> =
            (0..100_000).map(|_| 10.0 + 3.0 * standard_normal_draw(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn lognormal_median_and_mean() {
        let d = LogNormal::from_median(115.0, 1.35);
        assert!((d.median() - 115.0).abs() < 1e-9);
        let mut rng = StdRng::seed_from_u64(3);
        let mut xs = d.sample_n(&mut rng, 200_000);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[xs.len() / 2];
        assert!((med - 115.0).abs() / 115.0 < 0.03, "median {med}");
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - d.mean()).abs() / d.mean() < 0.05, "mean {mean} vs {}", d.mean());
    }

    #[test]
    fn cdf_matches_samples() {
        let d = LogNormal::from_median(100.0, 0.9);
        let mut rng = StdRng::seed_from_u64(4);
        let xs = d.sample_n(&mut rng, 100_000);
        for threshold in [30.0, 100.0, 300.0] {
            let emp = xs.iter().filter(|&&x| x < threshold).count() as f64 / xs.len() as f64;
            assert!((emp - d.cdf(threshold)).abs() < 0.01, "at {threshold}: {emp}");
        }
    }

    #[test]
    fn phi_reference_values() {
        assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((standard_normal_cdf(1.0) - 0.8413447).abs() < 1e-5);
        assert!((standard_normal_cdf(-1.96) - 0.0249979).abs() < 1e-5);
    }

    #[test]
    fn zero_sigma_is_constant() {
        let d = LogNormal::from_median(42.0, 0.0);
        let mut rng = StdRng::seed_from_u64(5);
        assert!((d.sample(&mut rng) - 42.0).abs() < 1e-12);
    }
}
