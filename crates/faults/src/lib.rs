#![warn(missing_docs)]

//! # odx-faults — deterministic fault injection and recovery policies
//!
//! The paper's headline numbers are *failure* numbers — ~8.7 % of cloud
//! pre-downloads stagnate (§4.1), and the smart-AP story is largely disk
//! stalls and flaky links (§5) — yet a plain replay only ever reproduces
//! those rates as fixed probabilities. This crate makes the conditions
//! behind them first-class and injectable:
//!
//! * [`FaultPlan`] — a seeded, pre-compiled schedule of timed
//!   [`FaultWindow`]s over the measurement week. Compilation is pure:
//!   the same [`FaultsConfig`] and RNG stream always produce the same
//!   windows, so heap and wheel schedulers (and any `--jobs` value) see
//!   the identical `(time, seq)` event order. A zero-intensity config
//!   compiles to an empty plan **without consuming a single RNG draw**,
//!   which is what keeps default runs byte-identical to the pre-fault
//!   golden exports.
//! * [`RetryPolicy`] — the recovery side: none / fixed / exponential
//!   backoff with deterministic seeded jitter and a per-task attempt
//!   cap, used by the cloud pre-downloader to re-dispatch stagnated
//!   tasks instead of abandoning their waiters.
//!
//! Fault windows come in three domains ([`FaultDomain`]): ISP uplink
//! trouble (`Net`), fetch-server trouble (`Cloud`), and device trouble
//! (`SmartAp`). Each domain's windows are stratified over the week —
//! one window placed uniformly inside each equal-width stratum — so
//! they are non-overlapping and sorted by construction, and
//! [`FaultPlan::active`] is a binary search.

use odx_sim::{SimDuration, SimRng};
use odx_stats::dist::u01;

/// One simulated measurement week, in milliseconds.
pub const WEEK_MS: u64 = 7 * 86_400 * 1000;

/// Which layer of the system a fault window hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultDomain {
    /// ISP uplink between the cloud and subscribers (fetch rates).
    Net,
    /// The cloud fetch/pre-download servers.
    Cloud,
    /// Smart-AP hardware (disk, power).
    SmartAp,
}

impl FaultDomain {
    /// Every domain, in the order plans compile them.
    pub const ALL: [FaultDomain; 3] = [FaultDomain::Net, FaultDomain::Cloud, FaultDomain::SmartAp];

    /// Stable lower-case name (telemetry prefixes, logs).
    pub fn name(self) -> &'static str {
        match self {
            FaultDomain::Net => "net",
            FaultDomain::Cloud => "cloud",
            FaultDomain::SmartAp => "smartap",
        }
    }
}

/// The concrete failure mode a window injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Uplink degradation: fetch rates multiply by the window severity.
    NetDegradation,
    /// Near-total partition: fetch rates multiply by a tiny floor (never
    /// zero — transfers crawl rather than wedge, keeping pool accounting
    /// intact).
    NetPartition,
    /// Fetch-server outage: every pre-download started in the window is
    /// forced to stagnate.
    CloudOutage,
    /// Brownout: pre-downloads still succeed but at severity × rate.
    CloudBrownout,
    /// Smart-AP disk stall: task rates multiply by the window severity
    /// and iowait climbs.
    ApDiskStall,
    /// Smart-AP power cycle: tasks active in the window are lost.
    ApPowerCycle,
}

impl FaultKind {
    /// The domain this kind belongs to.
    pub fn domain(self) -> FaultDomain {
        match self {
            FaultKind::NetDegradation | FaultKind::NetPartition => FaultDomain::Net,
            FaultKind::CloudOutage | FaultKind::CloudBrownout => FaultDomain::Cloud,
            FaultKind::ApDiskStall | FaultKind::ApPowerCycle => FaultDomain::SmartAp,
        }
    }

    /// Stable `'static` label (flight-recorder rings require static strs).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::NetDegradation => "fault:net-degradation",
            FaultKind::NetPartition => "fault:net-partition",
            FaultKind::CloudOutage => "fault:cloud-outage",
            FaultKind::CloudBrownout => "fault:cloud-brownout",
            FaultKind::ApDiskStall => "fault:ap-disk-stall",
            FaultKind::ApPowerCycle => "fault:ap-power-cycle",
        }
    }
}

/// One timed fault window: `[start_ms, end_ms)` on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// Window start (virtual ms, inclusive).
    pub start_ms: u64,
    /// Window end (virtual ms, exclusive).
    pub end_ms: u64,
    /// What the window injects.
    pub kind: FaultKind,
    /// Kind-specific severity: a rate multiplier in (0, 1] for the
    /// degraded-service kinds; unused (0.0) for forced-failure kinds.
    pub severity: f64,
}

impl FaultWindow {
    /// Whether `at_ms` falls inside the window.
    pub fn contains(&self, at_ms: u64) -> bool {
        self.start_ms <= at_ms && at_ms < self.end_ms
    }
}

/// Rate multiplier applied during a [`FaultKind::NetPartition`] window:
/// small enough to wreck every fetch it touches, never zero so transfers
/// still complete and release their pool reservations.
pub const PARTITION_RATE_FACTOR: f64 = 0.03;

/// Scenario-carried fault-injection knobs (`faults.*` dotted paths).
///
/// `Copy` so it can ride inside `CloudConfig` unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultsConfig {
    /// Master dial in `[0, 1]`: the fraction of the week each domain
    /// spends under an active fault window. `0.0` disables injection
    /// entirely (no windows, no RNG draws).
    pub intensity: f64,
    /// Mean fault-window length in seconds (> 0).
    pub window_s: f64,
    /// Fetch-rate multiplier during net degradation windows, in (0, 1].
    pub net_slowdown: f64,
    /// Pre-download rate multiplier during cloud brownouts, in (0, 1].
    pub cloud_slowdown: f64,
    /// Smart-AP rate multiplier during disk-stall windows, in (0, 1].
    pub ap_slowdown: f64,
}

impl Default for FaultsConfig {
    fn default() -> Self {
        FaultsConfig {
            intensity: 0.0,
            window_s: 1800.0,
            net_slowdown: 0.35,
            cloud_slowdown: 0.4,
            ap_slowdown: 0.3,
        }
    }
}

impl FaultsConfig {
    /// Whether the config injects anything at all.
    pub fn is_active(&self) -> bool {
        self.intensity > 0.0
    }
}

/// A compiled, immutable schedule of fault windows for one replay.
///
/// Windows are stored per domain, sorted and non-overlapping by
/// construction (stratified placement), so [`FaultPlan::active`] is a
/// binary search over starts.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    net: Vec<FaultWindow>,
    cloud: Vec<FaultWindow>,
    smartap: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty plan (what zero intensity compiles to).
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// Compile `cfg` into a schedule using `rng` (callers pass a dedicated
    /// `"faults"` stream so compilation never perturbs other draws).
    ///
    /// Each domain gets `n = round(intensity · week / window)` windows.
    /// The week is divided into `n` equal strata and one window is placed
    /// uniformly inside each, clamped to its stratum — non-overlapping and
    /// sorted without any post-processing. Per window, one draw places the
    /// start and one picks the severe-vs-degraded kind; zero intensity
    /// therefore consumes **zero** draws.
    pub fn compile(cfg: &FaultsConfig, rng: &mut SimRng) -> FaultPlan {
        if !cfg.is_active() {
            return FaultPlan::empty();
        }
        let window_ms = (cfg.window_s.max(1.0) * 1000.0).round() as u64;
        let mut plan = FaultPlan::empty();
        for domain in FaultDomain::ALL {
            let n = (cfg.intensity * WEEK_MS as f64 / window_ms as f64).round() as u64;
            let windows = match domain {
                FaultDomain::Net => &mut plan.net,
                FaultDomain::Cloud => &mut plan.cloud,
                FaultDomain::SmartAp => &mut plan.smartap,
            };
            for i in 0..n {
                let stratum_start = i * WEEK_MS / n;
                let stratum_end = (i + 1) * WEEK_MS / n;
                let span = stratum_end - stratum_start;
                let len = window_ms.min(span);
                let slack = span - len;
                let start = stratum_start + (u01(rng) * slack as f64) as u64;
                let severe = u01(rng) < 0.3;
                let kind = match (domain, severe) {
                    (FaultDomain::Net, false) => FaultKind::NetDegradation,
                    (FaultDomain::Net, true) => FaultKind::NetPartition,
                    (FaultDomain::Cloud, false) => FaultKind::CloudBrownout,
                    (FaultDomain::Cloud, true) => FaultKind::CloudOutage,
                    (FaultDomain::SmartAp, false) => FaultKind::ApDiskStall,
                    (FaultDomain::SmartAp, true) => FaultKind::ApPowerCycle,
                };
                let severity = match kind {
                    FaultKind::NetDegradation => cfg.net_slowdown,
                    FaultKind::NetPartition => PARTITION_RATE_FACTOR,
                    FaultKind::CloudBrownout => cfg.cloud_slowdown,
                    FaultKind::ApDiskStall => cfg.ap_slowdown,
                    FaultKind::CloudOutage | FaultKind::ApPowerCycle => 0.0,
                };
                windows.push(FaultWindow { start_ms: start, end_ms: start + len, kind, severity });
            }
        }
        plan
    }

    /// The compiled windows for `domain`, sorted by start.
    pub fn windows(&self, domain: FaultDomain) -> &[FaultWindow] {
        match domain {
            FaultDomain::Net => &self.net,
            FaultDomain::Cloud => &self.cloud,
            FaultDomain::SmartAp => &self.smartap,
        }
    }

    /// Total number of windows across all domains.
    pub fn len(&self) -> usize {
        self.net.len() + self.cloud.len() + self.smartap.len()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The window covering `at_ms` in `domain`, if any (binary search).
    pub fn active(&self, domain: FaultDomain, at_ms: u64) -> Option<&FaultWindow> {
        let windows = self.windows(domain);
        let idx = windows.partition_point(|w| w.start_ms <= at_ms);
        let candidate = windows.get(idx.checked_sub(1)?)?;
        candidate.contains(at_ms).then_some(candidate)
    }
}

/// The built-in retry policies, in listing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetryKind {
    /// Never retry: a stagnated pre-download fails its waiters (the
    /// paper's observed behaviour — the baseline).
    None,
    /// Fixed backoff: re-dispatch after `base_delay_s` (± jitter).
    Fixed,
    /// Exponential backoff: `base_delay_s · 2^attempt` (± jitter).
    Expo,
}

impl RetryKind {
    /// Every built-in retry policy, in the order sweeps list them.
    pub const ALL: [RetryKind; 3] = [RetryKind::None, RetryKind::Fixed, RetryKind::Expo];

    /// Stable lower-case name (`retry.policy` values, telemetry).
    pub fn name(self) -> &'static str {
        match self {
            RetryKind::None => "none",
            RetryKind::Fixed => "fixed",
            RetryKind::Expo => "expo",
        }
    }

    /// Parse a `retry.policy` name. `None` for unknown names (the caller
    /// turns this into an exit-2 suggestion error).
    pub fn parse(name: &str) -> Option<RetryKind> {
        RetryKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for RetryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Scenario-carried retry knobs (`retry.*` dotted paths). `Copy` so it
/// can ride inside `CloudConfig` unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryConfig {
    /// Which backoff schedule to run.
    pub kind: RetryKind,
    /// Base re-dispatch delay in seconds (> 0).
    pub base_delay_s: f64,
    /// Per-task attempt cap (retries after the first dispatch).
    pub max_attempts: u32,
    /// Jitter fraction in `[0, 1]`: each delay multiplies by
    /// `1 + jitter · u`, `u` drawn from the dedicated retry stream.
    pub jitter: f64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig { kind: RetryKind::None, base_delay_s: 300.0, max_attempts: 3, jitter: 0.5 }
    }
}

/// A retry policy evaluator over a [`RetryConfig`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    cfg: RetryConfig,
}

impl RetryPolicy {
    /// A policy running `cfg`.
    pub fn new(cfg: RetryConfig) -> RetryPolicy {
        RetryPolicy { cfg }
    }

    /// The config in force.
    pub fn config(&self) -> &RetryConfig {
        &self.cfg
    }

    /// Whether this policy ever retries.
    pub fn is_active(&self) -> bool {
        self.cfg.kind != RetryKind::None && self.cfg.max_attempts > 0
    }

    /// The backoff before retry number `attempt` (0-based: the first
    /// retry after the initial dispatch passes `attempt = 0`). `None`
    /// when the policy is `none` or the attempt cap is reached; in both
    /// cases **no RNG draw is consumed**, which keeps `retry.policy=none`
    /// replays byte-identical to pre-retry builds.
    pub fn backoff_delay(&self, attempt: u32, rng: &mut SimRng) -> Option<SimDuration> {
        if self.cfg.kind == RetryKind::None || attempt >= self.cfg.max_attempts {
            return None;
        }
        let multiplier = match self.cfg.kind {
            RetryKind::None => unreachable!("handled above"),
            RetryKind::Fixed => 1.0,
            RetryKind::Expo => (2.0_f64).powi(attempt.min(16) as i32),
        };
        let jittered = self.cfg.base_delay_s * multiplier * (1.0 + self.cfg.jitter * u01(rng));
        Some(SimDuration::from_secs_f64(jittered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odx_sim::RngFactory;

    fn active_cfg(intensity: f64) -> FaultsConfig {
        FaultsConfig { intensity, ..FaultsConfig::default() }
    }

    #[test]
    fn zero_intensity_compiles_to_an_empty_plan_without_draws() {
        let rngs = RngFactory::new(2015);
        let mut rng = rngs.stream("faults");
        let plan = FaultPlan::compile(&FaultsConfig::default(), &mut rng);
        assert!(plan.is_empty());
        // No draws consumed: the stream is still byte-identical to fresh.
        use rand::RngExt;
        let next: u64 = rng.random();
        let fresh: u64 = rngs.stream("faults").random();
        assert_eq!(next, fresh);
    }

    #[test]
    fn compilation_is_deterministic() {
        let cfg = active_cfg(0.2);
        let a = FaultPlan::compile(&cfg, &mut RngFactory::new(7).stream("faults"));
        let b = FaultPlan::compile(&cfg, &mut RngFactory::new(7).stream("faults"));
        for domain in FaultDomain::ALL {
            assert_eq!(a.windows(domain), b.windows(domain));
        }
    }

    #[test]
    fn windows_are_sorted_non_overlapping_and_inside_the_week() {
        let cfg = active_cfg(0.5);
        let plan = FaultPlan::compile(&cfg, &mut RngFactory::new(11).stream("faults"));
        assert!(!plan.is_empty());
        for domain in FaultDomain::ALL {
            let windows = plan.windows(domain);
            for pair in windows.windows(2) {
                assert!(pair[0].end_ms <= pair[1].start_ms, "{pair:?}");
            }
            for w in windows {
                assert!(w.start_ms < w.end_ms);
                assert!(w.end_ms <= WEEK_MS);
                assert_eq!(w.kind.domain(), domain);
            }
        }
    }

    #[test]
    fn window_count_tracks_intensity() {
        let mut rng = RngFactory::new(3).stream("faults");
        let low = FaultPlan::compile(&active_cfg(0.05), &mut rng.clone());
        let high = FaultPlan::compile(&active_cfg(0.5), &mut rng);
        assert!(high.len() > low.len(), "{} vs {}", high.len(), low.len());
        // ~intensity × week / window windows per domain.
        let expect = (0.5 * WEEK_MS as f64 / 1_800_000.0).round() as usize;
        assert_eq!(high.windows(FaultDomain::Net).len(), expect);
    }

    #[test]
    fn active_lookup_matches_linear_scan() {
        let plan = FaultPlan::compile(&active_cfg(0.3), &mut RngFactory::new(5).stream("faults"));
        for at in (0..WEEK_MS).step_by(3_600_000) {
            for domain in FaultDomain::ALL {
                let scan = plan.windows(domain).iter().find(|w| w.contains(at));
                assert_eq!(plan.active(domain, at), scan);
            }
        }
    }

    #[test]
    fn severity_is_a_positive_multiplier_for_degraded_kinds() {
        let plan = FaultPlan::compile(&active_cfg(0.4), &mut RngFactory::new(9).stream("faults"));
        for domain in FaultDomain::ALL {
            for w in plan.windows(domain) {
                // The severe variants: partition, outage and power cycle.
                if matches!(
                    w.kind,
                    FaultKind::NetPartition | FaultKind::CloudOutage | FaultKind::ApPowerCycle
                ) {
                    assert!(w.kind == FaultKind::NetPartition || w.severity == 0.0);
                } else {
                    assert!(w.severity > 0.0 && w.severity <= 1.0, "{w:?}");
                }
            }
        }
    }

    #[test]
    fn none_policy_never_retries_and_never_draws() {
        let rngs = RngFactory::new(1);
        let mut rng = rngs.stream("retry");
        let policy = RetryPolicy::new(RetryConfig::default());
        assert!(!policy.is_active());
        assert_eq!(policy.backoff_delay(0, &mut rng), None);
        use rand::RngExt;
        let next: u64 = rng.random();
        let fresh: u64 = rngs.stream("retry").random();
        assert_eq!(next, fresh);
    }

    #[test]
    fn fixed_backoff_is_flat_and_expo_doubles() {
        let mut rng = RngFactory::new(2).stream("retry");
        let base =
            RetryConfig { base_delay_s: 100.0, max_attempts: 4, jitter: 0.0, ..Default::default() };
        let fixed = RetryPolicy::new(RetryConfig { kind: RetryKind::Fixed, ..base });
        let expo = RetryPolicy::new(RetryConfig { kind: RetryKind::Expo, ..base });
        assert_eq!(fixed.backoff_delay(0, &mut rng), Some(SimDuration::from_secs(100)));
        assert_eq!(fixed.backoff_delay(3, &mut rng), Some(SimDuration::from_secs(100)));
        assert_eq!(expo.backoff_delay(0, &mut rng), Some(SimDuration::from_secs(100)));
        assert_eq!(expo.backoff_delay(2, &mut rng), Some(SimDuration::from_secs(400)));
        assert_eq!(fixed.backoff_delay(4, &mut rng), None, "attempt cap");
    }

    #[test]
    fn jitter_stretches_delays_by_at_most_the_fraction() {
        let mut rng = RngFactory::new(4).stream("retry");
        let cfg = RetryConfig {
            kind: RetryKind::Fixed,
            base_delay_s: 100.0,
            max_attempts: 8,
            jitter: 0.5,
        };
        let policy = RetryPolicy::new(cfg);
        for attempt in 0..8 {
            let d = policy.backoff_delay(attempt, &mut rng).unwrap().as_secs_f64();
            assert!((100.0..=150.0).contains(&d), "{d}");
        }
    }
}
