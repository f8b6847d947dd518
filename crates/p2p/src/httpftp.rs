//! HTTP/FTP data-source model.

use odx_stats::dist::{u01, Dist, LogNormal};
use rand::Rng;

use crate::{FailureCause, SourceOutcome};

/// Calibration constants for [`HttpFtpModel`].
#[derive(Debug, Clone, Copy)]
pub struct HttpFtpConfig {
    /// Failure probability floor (well-run servers).
    pub fail_p_min: f64,
    /// Failure probability ceiling (obscure servers hosting rare files:
    /// closed, moved, or refusing ranged/resumable downloads).
    pub fail_p_max: f64,
    /// Popularity pivot: below this weekly request count servers get flaky.
    pub fail_pivot: f64,
    /// Logistic width in log-popularity space.
    pub fail_width: f64,
    /// Median serving rate (KBps). Servers are faster and more predictable
    /// than swarms (§3: "HTTP and FTP servers are usually stable with more
    /// predictable performance").
    pub rate_median_kbps: f64,
    /// Log-space sigma of the serving rate (tighter than swarms).
    pub rate_sigma: f64,
    /// Hard cap (KBps).
    pub rate_cap_kbps: f64,
}

impl Default for HttpFtpConfig {
    fn default() -> Self {
        HttpFtpConfig {
            fail_p_min: 0.03,
            fail_p_max: 0.26,
            fail_pivot: 4.5,
            fail_width: 0.5,
            rate_median_kbps: 150.0,
            rate_sigma: 0.9,
            rate_cap_kbps: odx_net::ADSL_PAYLOAD_KBPS,
        }
    }
}

/// Stochastic model of HTTP/FTP origins.
#[derive(Debug, Clone, Copy, Default)]
pub struct HttpFtpModel {
    cfg: HttpFtpConfig,
}

impl HttpFtpModel {
    /// Model with explicit configuration.
    pub fn new(cfg: HttpFtpConfig) -> Self {
        HttpFtpModel { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HttpFtpConfig {
        &self.cfg
    }

    /// Per-attempt failure probability (server gone / won't resume).
    pub fn failure_probability(&self, weekly_requests: f64) -> f64 {
        let w = weekly_requests.max(1.0);
        let x = (self.cfg.fail_pivot.ln() - w.ln()) / self.cfg.fail_width;
        let sigmoid = 1.0 / (1.0 + (-x).exp());
        self.cfg.fail_p_min + (self.cfg.fail_p_max - self.cfg.fail_p_min) * sigmoid
    }

    /// One download attempt from the origin server.
    pub fn attempt(&self, weekly_requests: f64, rng: &mut dyn Rng) -> SourceOutcome {
        self.attempt_decayed(weekly_requests, 0, 1.0, rng)
    }

    /// Retry-aware attempt: each prior failure multiplies the failure
    /// probability by `retry_decay` (servers come back, mirrors appear).
    pub fn attempt_decayed(
        &self,
        weekly_requests: f64,
        prior_failures: u32,
        retry_decay: f64,
        rng: &mut dyn Rng,
    ) -> SourceOutcome {
        let p = self.failure_probability(weekly_requests)
            * retry_decay.powi(prior_failures.min(30) as i32);
        if u01(rng) < p {
            return SourceOutcome::Failed { cause: FailureCause::PoorConnection };
        }
        let dist = LogNormal::from_median(self.cfg.rate_median_kbps, self.cfg.rate_sigma);
        SourceOutcome::Serving { rate_kbps: dist.sample(rng).min(self.cfg.rate_cap_kbps) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn failure_decreases_with_popularity() {
        let m = HttpFtpModel::default();
        assert!(m.failure_probability(1.0) > m.failure_probability(10.0));
        assert!(m.failure_probability(10.0) > m.failure_probability(500.0));
        assert!(m.failure_probability(500.0) >= 0.03);
    }

    #[test]
    fn servers_fail_less_than_cold_swarms() {
        // §5.2: only 10 % of AP failures are HTTP/FTP vs 86 % seeds, while
        // HTTP/FTP carries 13 % of requests and P2P 87 %. Per-request HTTP
        // failure must therefore be well below per-request swarm failure on
        // the same (unpopular) files.
        let http = HttpFtpModel::default();
        let swarm = crate::SwarmModel::default();
        for w in [1.0, 2.0, 4.0] {
            assert!(http.failure_probability(w) < 0.5 * swarm.failure_probability(w));
        }
    }

    #[test]
    fn rates_are_faster_and_tighter_than_swarms() {
        let m = HttpFtpModel::default();
        let mut rng = StdRng::seed_from_u64(33);
        let mut rates: Vec<f64> = Vec::new();
        for _ in 0..20_000 {
            if let SourceOutcome::Serving { rate_kbps } = m.attempt(3.0, &mut rng) {
                rates.push(rate_kbps);
            }
        }
        rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = rates[rates.len() / 2];
        assert!((120.0..200.0).contains(&median), "median {median}");
        assert!(rates.iter().all(|&r| r <= 2370.0));
    }

    #[test]
    fn attempt_failure_ratio_matches_probability() {
        let m = HttpFtpModel::default();
        let mut rng = StdRng::seed_from_u64(34);
        let n = 40_000;
        let failures = (0..n)
            .filter(|_| matches!(m.attempt(2.0, &mut rng), SourceOutcome::Failed { .. }))
            .count();
        let ratio = failures as f64 / n as f64;
        assert!((ratio - m.failure_probability(2.0)).abs() < 0.01);
    }
}
