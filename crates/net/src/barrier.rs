//! The ISP barrier: throughput collapse on cross-ISP paths.

use odx_stats::dist::{Dist, LogNormal};
use rand::Rng;

/// Cross-ISP path throughput model.
///
/// China's AS topology is a handful of giant per-ISP ASes over nationwide
/// backbones; peering between them is thin, so data crossing ISP boundaries
/// slows dramatically (§2.1, "ISP barrier"). Xuanfeng works around it with
/// same-ISP uploading servers; when that fails (user outside the four
/// majors, or the same-ISP servers are saturated) the transfer crosses the
/// barrier.
///
/// The model: a cross-ISP path contributes an independent capacity sample,
/// log-normal with median 70 KBps — low enough that nearly every
/// barrier-crossing fetch lands under the 125 KBps HD threshold, matching
/// the paper's attribution of that whole population (9.6 %) to Bottleneck 1.
#[derive(Debug, Clone, Copy)]
pub struct BarrierModel {
    dist: LogNormal,
    max_kbps: f64,
}

impl Default for BarrierModel {
    fn default() -> Self {
        BarrierModel { dist: LogNormal::from_median(70.0, 0.55), max_kbps: 400.0 }
    }
}

impl BarrierModel {
    /// A model with explicit parameters.
    pub fn new(median_kbps: f64, sigma: f64, max_kbps: f64) -> Self {
        BarrierModel { dist: LogNormal::from_median(median_kbps, sigma), max_kbps }
    }

    /// Sample the capacity of one cross-ISP path (KBps).
    pub fn sample(&self, rng: &mut dyn Rng) -> f64 {
        self.dist.sample(rng).min(self.max_kbps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HD_THRESHOLD_KBPS;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn barrier_paths_mostly_below_hd_threshold() {
        let m = BarrierModel::default();
        // §4.2 counts the entire barrier-crossing population as impeded.
        let analytic = m.dist.cdf(HD_THRESHOLD_KBPS);
        assert!(analytic > 0.80, "{analytic}");
        let mut rng = StdRng::seed_from_u64(24);
        let below = (0..100_000).filter(|_| m.sample(&mut rng) < HD_THRESHOLD_KBPS).count() as f64
            / 100_000.0;
        assert!(below > 0.80, "sampled {below}");
    }

    #[test]
    fn capped_at_max() {
        let m = BarrierModel::default();
        let mut rng = StdRng::seed_from_u64(25);
        for _ in 0..10_000 {
            assert!(m.sample(&mut rng) <= 400.0);
        }
    }

    #[test]
    fn barrier_is_much_slower_than_privileged() {
        // The privileged path allows up to 6250 KBps; a barrier path's
        // median is two orders of magnitude lower.
        let m = BarrierModel::default();
        let mut rng = StdRng::seed_from_u64(26);
        let xs: Vec<f64> = (0..10_000).map(|_| m.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(mean < 150.0, "{mean}");
    }
}
