//! The P2P swarm model: availability and per-leecher throughput.

use odx_stats::dist::{u01, Dist, LogNormal};
use rand::Rng;

use crate::{FailureCause, SourceOutcome};

/// Calibration constants for [`SwarmModel`].
#[derive(Debug, Clone, Copy)]
pub struct SwarmConfig {
    /// Maximum per-attempt failure probability (files nobody requests).
    pub fail_p_max: f64,
    /// Floor failure probability (even hot swarms occasionally stall out).
    pub fail_p_min: f64,
    /// Popularity pivot of the availability logistic (weekly requests at
    /// which failure probability is halfway between max and min).
    pub fail_pivot: f64,
    /// Logistic width in log-popularity space; smaller = sharper transition
    /// between "dead tail" and "healthy swarm".
    pub fail_width: f64,
    /// Median per-leecher rate of a barely-alive swarm (KBps).
    pub rate_base_median_kbps: f64,
    /// Popularity exponent of the rate median: median × (1 + w/pivot)^exp.
    pub rate_pop_exponent: f64,
    /// Popularity scale for the rate boost.
    pub rate_pop_pivot: f64,
    /// Log-space sigma of the per-leecher rate.
    pub rate_sigma: f64,
    /// Hard cap on any single download's source rate (KBps). 2.37 MBps — the
    /// highest speed either the cloud's VMs or the APs ever observed on their
    /// 20 Mbps links.
    pub rate_cap_kbps: f64,
    /// Median *deliverable capacity* of a seed-abundant (highly popular)
    /// swarm toward one end-user peer (KBps). This is the bandwidth
    /// multiplier effect of refs 64 and 66: with plentiful seeds the swarm
    /// can usually saturate a residential access link, so the user's own
    /// line — not the swarm — ends up the bottleneck (callers take the min
    /// with the access rate).
    pub direct_hot_median_kbps: f64,
    /// Log-space sigma for the direct-download rate.
    pub direct_hot_sigma: f64,
    /// Weekly-request threshold above which a file counts as highly popular
    /// (the paper's 84 requests/week).
    pub highly_popular_threshold: f64,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        SwarmConfig {
            fail_p_max: 0.72,
            fail_p_min: 0.008,
            fail_pivot: 4.5,
            fail_width: 0.35,
            rate_base_median_kbps: 28.0,
            rate_pop_exponent: 0.35,
            rate_pop_pivot: 84.0,
            rate_sigma: 1.2,
            rate_cap_kbps: odx_net::ADSL_PAYLOAD_KBPS,
            direct_hot_median_kbps: 800.0,
            direct_hot_sigma: 0.8,
            highly_popular_threshold: 84.0,
        }
    }
}

/// Stochastic model of BitTorrent/eMule swarms keyed by file popularity.
///
/// The paper's mechanism: a file's swarm population tracks its request rate,
/// so files requested < 7 times/week frequently have zero seeds (the
/// "insufficient seeds" failure), while per-leecher throughput grows only
/// mildly with popularity — seeds and leechers scale together, so the
/// seed-upload/leecher ratio stays within the same order of magnitude. The
/// observable result is the paper's pair of near-identical pre-download speed
/// CDFs for the cloud and the APs (Figs 8 and 13).
#[derive(Debug, Clone, Copy, Default)]
pub struct SwarmModel {
    cfg: SwarmConfig,
}

impl SwarmModel {
    /// Model with explicit configuration.
    pub fn new(cfg: SwarmConfig) -> Self {
        SwarmModel { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SwarmConfig {
        &self.cfg
    }

    /// Per-attempt failure probability for a file requested `weekly_requests`
    /// times per week: a logistic in log-popularity between `fail_p_max` and
    /// `fail_p_min`.
    pub fn failure_probability(&self, weekly_requests: f64) -> f64 {
        let w = weekly_requests.max(1.0);
        let x = (self.cfg.fail_pivot.ln() - w.ln()) / self.cfg.fail_width;
        let sigmoid = 1.0 / (1.0 + (-x).exp());
        self.cfg.fail_p_min + (self.cfg.fail_p_max - self.cfg.fail_p_min) * sigmoid
    }

    /// Median per-leecher (proxy-side) rate for a swarm of this popularity.
    pub fn rate_median(&self, weekly_requests: f64) -> f64 {
        let boost = (1.0 + weekly_requests.max(0.0) / self.cfg.rate_pop_pivot)
            .powf(self.cfg.rate_pop_exponent);
        self.cfg.rate_base_median_kbps * boost
    }

    /// One pre-download attempt by a *proxy* (cloud VM or smart AP):
    /// either a sustained rate or an insufficient-seeds failure.
    pub fn proxy_attempt(&self, weekly_requests: f64, rng: &mut dyn Rng) -> SourceOutcome {
        self.proxy_attempt_decayed(weekly_requests, 0, 1.0, rng)
    }

    /// A retry-aware proxy attempt: each prior failed attempt multiplies the
    /// failure probability by `retry_decay` (< 1), modeling seed churn — a
    /// swarm dead at one instant may revive later, which is how the cloud's
    /// repeated attempts across requests slowly drain the failure pool.
    pub fn proxy_attempt_decayed(
        &self,
        weekly_requests: f64,
        prior_failures: u32,
        retry_decay: f64,
        rng: &mut dyn Rng,
    ) -> SourceOutcome {
        let p = self.failure_probability(weekly_requests)
            * retry_decay.powi(prior_failures.min(30) as i32);
        if u01(rng) < p {
            return SourceOutcome::Failed { cause: FailureCause::InsufficientSeeds };
        }
        let dist = LogNormal::from_median(self.rate_median(weekly_requests), self.cfg.rate_sigma);
        let rate = dist.sample(rng).min(self.cfg.rate_cap_kbps);
        SourceOutcome::Serving { rate_kbps: rate }
    }

    /// One *direct* download attempt by an end-user peer. For seed-abundant
    /// (highly popular) swarms the bandwidth-multiplier effect applies and
    /// rates approach user access speeds; otherwise it behaves like a proxy
    /// attempt. ODR only redirects highly popular P2P files here.
    pub fn direct_attempt(&self, weekly_requests: f64, rng: &mut dyn Rng) -> SourceOutcome {
        if weekly_requests <= self.cfg.highly_popular_threshold {
            return self.proxy_attempt(weekly_requests, rng);
        }
        if u01(rng) < self.failure_probability(weekly_requests) {
            return SourceOutcome::Failed { cause: FailureCause::InsufficientSeeds };
        }
        let dist =
            LogNormal::from_median(self.cfg.direct_hot_median_kbps, self.cfg.direct_hot_sigma);
        SourceOutcome::Serving { rate_kbps: dist.sample(rng).min(self.cfg.rate_cap_kbps) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> SwarmModel {
        SwarmModel::default()
    }

    #[test]
    fn failure_probability_is_monotone_decreasing() {
        let m = model();
        let mut prev = 1.0;
        for w in [1.0, 2.0, 4.0, 7.0, 20.0, 84.0, 1000.0] {
            let p = m.failure_probability(w);
            assert!(p < prev, "p({w}) = {p} should be < {prev}");
            assert!((0.0..=1.0).contains(&p));
            prev = p;
        }
    }

    #[test]
    fn unpopular_failure_ratio_matches_paper() {
        // §5.2: smart APs fail on ≈ 42 % of unpopular files (w < 7), the
        // request-weighted average over the unpopular class. Approximate the
        // class with the trace crate's count distribution (power law on 1..6,
        // exponent 0.8) weighted by request count.
        let m = model();
        let weights: Vec<f64> = (1..=6).map(|k| (k as f64).powf(-0.8) * k as f64).collect();
        let total: f64 = weights.iter().sum();
        let avg: f64 =
            (1..=6).map(|k| m.failure_probability(k as f64) * weights[k - 1]).sum::<f64>() / total;
        // Swarm-only failure sits a touch above 42 % so that the blended
        // P2P+HTTP class failure lands on 42 % (HTTP fails less).
        assert!((avg - 0.45).abs() < 0.04, "unpopular swarm failure {avg}");
    }

    #[test]
    fn popular_files_rarely_fail() {
        let m = model();
        assert!(m.failure_probability(31.0) < 0.05, "{}", m.failure_probability(31.0));
        assert!(m.failure_probability(336.0) < 0.015);
    }

    #[test]
    fn proxy_rates_match_fig8_shape() {
        // Unpopular-file proxy attempts should have a median in the 25–40
        // KBps range and a heavy tail — the shape of the cloud's
        // pre-downloading CDF (Fig 8), which is dominated by cache misses
        // (i.e. unpopular files).
        let m = model();
        let mut rng = StdRng::seed_from_u64(30);
        let mut rates: Vec<f64> = Vec::new();
        for _ in 0..40_000 {
            if let SourceOutcome::Serving { rate_kbps } = m.proxy_attempt(2.8, &mut rng) {
                rates.push(rate_kbps);
            }
        }
        rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = rates[rates.len() / 2];
        assert!((25.0..45.0).contains(&median), "median {median}");
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        assert!(mean > 1.8 * median, "heavy tail expected: mean {mean} vs median {median}");
        assert!(rates.last().unwrap() <= &2370.0);
    }

    #[test]
    fn direct_attempts_on_hot_swarms_are_fast() {
        // §4.2 / refs 64 and 66: highly popular files download directly "with
        // as good or greater performance than what the cloud provides"
        // (cloud fetch median = 287 KBps).
        let m = model();
        let mut rng = StdRng::seed_from_u64(31);
        let mut rates: Vec<f64> = Vec::new();
        for _ in 0..20_000 {
            if let SourceOutcome::Serving { rate_kbps } = m.direct_attempt(336.0, &mut rng) {
                rates.push(rate_kbps);
            }
        }
        rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = rates[rates.len() / 2];
        assert!(median > 287.0, "direct hot median {median} should beat cloud fetch median");
    }

    #[test]
    fn direct_attempt_on_cold_swarm_degrades_to_proxy_behaviour() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(32);
        let mut failures = 0;
        let n = 20_000;
        for _ in 0..n {
            if matches!(m.direct_attempt(2.0, &mut rng), SourceOutcome::Failed { .. }) {
                failures += 1;
            }
        }
        let ratio = failures as f64 / n as f64;
        let expected = m.failure_probability(2.0);
        assert!((ratio - expected).abs() < 0.02, "{ratio} vs {expected}");
    }

    #[test]
    fn rate_median_grows_mildly_with_popularity() {
        let m = model();
        let cold = m.rate_median(1.0);
        let hot = m.rate_median(336.0);
        assert!(hot > cold);
        // Mild: under an order of magnitude across the whole range — the
        // reason Fig 13's AP speeds look like Fig 8's cloud speeds.
        assert!(hot / cold < 5.0, "{hot} / {cold}");
    }
}
