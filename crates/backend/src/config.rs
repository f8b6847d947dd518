//! Shared backend tuning knobs — the single home of the evaluation-layer
//! magic numbers that previously lived inline in `odx-odr`'s replay.

use odx_stats::dist::u01;
use rand::Rng;

/// Tuning knobs shared by every proxy backend.
///
/// These are the §6.2 evaluation-environment constants; `odx-odr` re-exports
/// this struct as `ReplayConfig` for compatibility. Scenario presets override
/// individual fields (see [`crate::ScenarioRegistry`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendConfig {
    /// Probability that residual network dynamics degrade a fetch — what is
    /// left of Bottleneck 1 after redirection (§6.2: "the remainder (9 %)
    /// is mostly due to the intrinsic dynamics of the Internet").
    pub dynamics_probability: f64,
    /// Warm-cache pivot: a file with `w` weekly requests is already cached
    /// with probability `w/(w+pivot)`. Lower than the week replay's pivot:
    /// the production pool has accumulated content for years, not one week.
    pub warm_cache_pivot: f64,
    /// Failure-probability decay per failed attempt (same as the cloud).
    pub retry_decay: f64,
    /// Fleet-level retry factor: the production cloud schedules a request
    /// across many pre-downloader VMs (and keeps trying until the 1-hour
    /// stagnation rule) before reporting a user-visible failure, so its
    /// per-request failure probability sits below a single attempt's.
    pub cloud_retry_factor: f64,
    /// Payload cap of the evaluation environment's ADSL lines (KBps):
    /// Fig 17's 2.37 MBps maximum.
    pub line_payload_kbps: f64,
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig {
            dynamics_probability: 0.09,
            warm_cache_pivot: 2.5,
            retry_decay: 0.97,
            cloud_retry_factor: 0.75,
            line_payload_kbps: odx_net::ADSL_PAYLOAD_KBPS,
        }
    }
}

/// Apply the residual-Internet-dynamics draw to a fetch rate.
///
/// With probability `p`, the transfer is degraded to a uniform 5–50 % of
/// its rate (two `u01` draws: the trigger, then the severity — callers rely
/// on this exact draw order for replay determinism). Returns whether the
/// degradation fired.
pub fn apply_dynamics(rate: &mut f64, p: f64, rng: &mut dyn Rng) -> bool {
    if u01(rng) < p {
        *rate *= 0.05 + 0.45 * u01(rng);
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odx_sim::RngFactory;

    #[test]
    fn defaults_match_the_section_6_2_environment() {
        let cfg = BackendConfig::default();
        assert_eq!(cfg.dynamics_probability, 0.09);
        assert_eq!(cfg.warm_cache_pivot, 2.5);
        assert_eq!(cfg.retry_decay, 0.97);
        assert_eq!(cfg.cloud_retry_factor, 0.75);
        assert_eq!(cfg.line_payload_kbps, 2370.0);
    }

    #[test]
    fn dynamics_degrade_into_the_5_to_50_percent_band() {
        let rngs = RngFactory::new(11);
        let mut rng = rngs.stream("dyn");
        let mut fired = 0usize;
        for _ in 0..4000 {
            let mut rate = 1000.0;
            if apply_dynamics(&mut rate, 0.09, &mut rng) {
                fired += 1;
                assert!((50.0 - 1e-9..=500.0 + 1e-9).contains(&rate), "degraded to {rate}");
            } else {
                assert_eq!(rate, 1000.0);
            }
        }
        let share = fired as f64 / 4000.0;
        assert!((share - 0.09).abs() < 0.02, "dynamics fired on {share}");
    }
}
