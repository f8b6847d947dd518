//! Last-mile access bandwidth.

use odx_stats::dist::{Dist, LogNormal};
use rand::Rng;

/// Per-user access (download) bandwidth model.
///
/// The paper doesn't publish the raw access-bandwidth distribution, but pins
/// it down indirectly:
///
/// * 10.8 % of fetch processes are limited by access bandwidth below
///   125 KBps (§4.2) — so ~11 % of the population sits under the HD
///   threshold;
/// * the median and average fetch speeds are 287 / 504 KBps, and fetch speed
///   is essentially `min(access, privileged-path rate)` — so the body of the
///   distribution sits in the few-hundred-KBps range;
/// * the maximum observed fetch is 6.1 MBps, just under the 6.25 MBps cloud
///   cap — so a small tail of users has far more than the cap.
///
/// A log-normal with median 410 KBps and σ = 0.97 satisfies all three
/// (P(X < 125) ≈ 10.8 %), clamped to a sane range.
#[derive(Debug, Clone, Copy)]
pub struct AccessModel {
    dist: LogNormal,
    min_kbps: f64,
    max_kbps: f64,
}

impl Default for AccessModel {
    fn default() -> Self {
        AccessModel {
            dist: LogNormal::from_median(410.0, 0.97),
            // Dial-up-ish floor to fiber-ish ceiling (100 Mbps).
            min_kbps: 16.0,
            max_kbps: 12_500.0,
        }
    }
}

impl AccessModel {
    /// A model with explicit parameters (for sweeps and tests).
    pub fn new(median_kbps: f64, sigma: f64, min_kbps: f64, max_kbps: f64) -> Self {
        assert!(min_kbps > 0.0 && min_kbps < max_kbps, "bad clamp range");
        AccessModel { dist: LogNormal::from_median(median_kbps, sigma), min_kbps, max_kbps }
    }

    /// Sample one user's access bandwidth (KBps).
    pub fn sample(&self, rng: &mut dyn Rng) -> f64 {
        self.dist.sample(rng).clamp(self.min_kbps, self.max_kbps)
    }

    /// The model's median (KBps).
    pub fn median(&self) -> f64 {
        self.dist.median()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HD_THRESHOLD_KBPS;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn below_hd_fraction_matches_paper() {
        let m = AccessModel::default();
        // §4.2: 10.8 % of fetches limited by access bandwidth < 125 KBps.
        let analytic = m.dist.cdf(HD_THRESHOLD_KBPS);
        assert!((analytic - 0.108).abs() < 0.01, "{analytic}");
        let mut rng = StdRng::seed_from_u64(21);
        let n = 200_000;
        let below =
            (0..n).filter(|_| m.sample(&mut rng) < HD_THRESHOLD_KBPS).count() as f64 / n as f64;
        assert!((below - 0.108).abs() < 0.01, "sampled {below}");
    }

    #[test]
    fn samples_respect_clamps() {
        let m = AccessModel::default();
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..10_000 {
            let x = m.sample(&mut rng);
            assert!((16.0..=12_500.0).contains(&x));
        }
    }

    #[test]
    fn a_tail_exceeds_the_cloud_cap() {
        let m = AccessModel::default();
        let mut rng = StdRng::seed_from_u64(23);
        let fast = (0..200_000).filter(|_| m.sample(&mut rng) > 6250.0).count();
        assert!(fast > 0, "some users must out-provision the cloud fetch cap");
        assert!((fast as f64) < 2000.0, "...but only a small tail: {fast}");
    }

    #[test]
    fn median_is_parameter() {
        assert!((AccessModel::default().median() - 410.0).abs() < 1e-9);
    }
}
