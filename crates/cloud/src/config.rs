//! Cloud system constants (§2.1) and replay calibration.

use odx_cache::CacheConfig;
use odx_faults::{FaultsConfig, RetryConfig};
use odx_sim::SimDuration;

/// Configuration of the Xuanfeng-like cloud.
#[derive(Debug, Clone, Copy)]
pub struct CloudConfig {
    /// Workload scale relative to the paper's week (1.0 = 4.08 M tasks).
    /// Capacities below are quoted at scale 1.0 and multiplied by this.
    pub scale: f64,
    /// Total purchased upload bandwidth across the four major ISPs at scale
    /// 1.0: 30 Gbps = 3.75e6 KBps.
    pub upload_total_kbps: f64,
    /// Split of upload capacity across [Unicom, Telecom, Mobile, CERNET];
    /// proportional to their user bases.
    pub upload_split: [f64; 4],
    /// A pre-downloader VM's access bandwidth: 20 Mbps = 2500 KBps.
    pub predownloader_kbps: f64,
    /// Per-fetch application cap: 50 Mbps = 6250 KBps.
    pub fetch_cap_kbps: f64,
    /// Give up a pre-download whose progress stagnates this long.
    pub stagnation_timeout: SimDuration,
    /// Cloud storage pool capacity at scale 1.0: 2 PB = 2e9 MB.
    pub cache_capacity_mb: f64,
    /// Which replacement policy runs the storage pool. Defaults to LRU —
    /// the paper's pool model.
    pub cache: CacheConfig,
    /// Popularity pivot of warm-cache coverage: a file with `w` weekly
    /// requests starts the week cached with probability `w / (w + pivot)`
    /// (popular content accumulated in the pool during previous weeks).
    /// Calibrated to the paper's 89 % cache-hit ratio.
    pub warm_cache_pivot: f64,
    /// Minimum grant below which the upload pool rejects a fetch instead of
    /// admitting it at a useless rate (KBps).
    pub admission_floor_kbps: f64,
    /// Probability a fetch is degraded by transient network dynamics — the
    /// paper's unexplained 6.1 % slice of Bottleneck 1.
    pub dynamics_probability: f64,
    /// Failure-probability decay per prior failed attempt on the same file
    /// (seed churn: dead swarms revive between attempts). Defaults to the
    /// shared [`odx_backend::BackendConfig`] value so the week replay and
    /// the one-shot evaluators decay retries identically.
    pub retry_decay: f64,
    /// Ablation: disable the storage pool entirely (the paper's "assume the
    /// cloud storage pool does not exist" counterfactual, §4.1).
    pub cache_enabled: bool,
    /// Ablation: disable privileged-path construction, forcing every fetch
    /// across the ISP barrier.
    pub privileged_paths_enabled: bool,
    /// Fault-injection knobs: compiled into an `odx_faults::FaultPlan` at
    /// replay start. Zero intensity (the default) injects nothing and
    /// consumes no RNG draws.
    pub faults: FaultsConfig,
    /// Retry/backoff knobs for stagnated pre-downloads. Policy `none`
    /// (the default) matches the paper's observed no-retry behaviour.
    pub retry: RetryConfig,
}

impl Default for CloudConfig {
    fn default() -> Self {
        CloudConfig {
            scale: 1.0,
            upload_total_kbps: 3_750_000.0,
            upload_split: [0.31, 0.46, 0.17, 0.06],
            predownloader_kbps: 2500.0,
            fetch_cap_kbps: 6250.0,
            stagnation_timeout: SimDuration::from_hours(1),
            cache_capacity_mb: 2.0e9,
            cache: CacheConfig::default(),
            warm_cache_pivot: 5.5,
            admission_floor_kbps: 25.0,
            dynamics_probability: 0.14,
            retry_decay: odx_backend::BackendConfig::default().retry_decay,
            cache_enabled: true,
            privileged_paths_enabled: true,
            faults: FaultsConfig::default(),
            retry: RetryConfig::default(),
        }
    }
}

impl CloudConfig {
    /// Config for a replay at the given workload scale.
    pub fn at_scale(scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        CloudConfig { scale, ..CloudConfig::default() }
    }

    /// Config for a replay of a scenario at the given workload scale: the
    /// cache and privileged-path ablation flags, the cache policy and
    /// capacity factor, the shared retry decay, and the user-base sweep
    /// (demand growing `demand_factor`× against fixed upload capacity).
    pub fn for_scenario(scale: f64, scenario: &odx_backend::Scenario) -> Self {
        let mut cfg = CloudConfig::at_scale(scale);
        cfg.cache_enabled = scenario.cache_enabled;
        cfg.cache = scenario.cache;
        cfg.cache_capacity_mb *= scenario.cache_capacity_factor;
        cfg.privileged_paths_enabled = scenario.privileged_paths;
        cfg.retry_decay = scenario.backend.retry_decay;
        cfg.upload_total_kbps /= scenario.demand_factor;
        cfg.faults = scenario.faults;
        cfg.retry = scenario.retry;
        cfg
    }

    /// Upload capacity at this scale (KBps).
    pub fn scaled_upload_kbps(&self) -> f64 {
        self.upload_total_kbps * self.scale
    }

    /// Cache capacity at this scale (MB).
    pub fn scaled_cache_mb(&self) -> f64 {
        self.cache_capacity_mb * self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let c = CloudConfig::default();
        // 30 Gbps in KBps.
        assert!((odx_net::kbps_to_gbps(c.upload_total_kbps) - 30.0).abs() < 1e-9);
        assert_eq!(c.predownloader_kbps, odx_net::PREDOWNLOADER_KBPS);
        assert_eq!(c.fetch_cap_kbps, odx_net::CLOUD_FETCH_CAP_KBPS);
        assert_eq!(c.stagnation_timeout, SimDuration::from_hours(1));
        // 2 PB in MB.
        assert_eq!(c.cache_capacity_mb, 2.0e9);
        let split: f64 = c.upload_split.iter().sum();
        assert!((split - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scaling() {
        let c = CloudConfig::at_scale(0.1);
        assert!((c.scaled_upload_kbps() - 375_000.0).abs() < 1e-6);
        assert!((c.scaled_cache_mb() - 2.0e8).abs() < 1e-3);
    }

    /// Scenario-free callers replay `paper-default`; that is only sound
    /// while the preset resolves to exactly the plain scaled config.
    #[test]
    fn paper_default_scenario_is_the_plain_scaled_config() {
        let registry = odx_backend::ScenarioRegistry::builtin();
        let scenario = registry.get("paper-default").expect("builtin baseline");
        for scale in [0.002, 0.1, 1.0] {
            assert_eq!(
                format!("{:?}", CloudConfig::for_scenario(scale, scenario)),
                format!("{:?}", CloudConfig::at_scale(scale))
            );
        }
    }
}
