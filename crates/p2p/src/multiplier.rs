//! The bandwidth multiplier effect and the cloud-seeding upload governor.
//!
//! §4.2 argues that the cloud wastes upload bandwidth delivering highly
//! popular P2P files: seeding a swarm with `Sᵢ` of cloud bandwidth yields an
//! aggregate distribution bandwidth `Dᵢ = mᵢ·Sᵢ` with multiplier `mᵢ > 1`
//! (refs 64 and 66), because peers then exchange data among themselves. ODR
//! exploits this by redirecting highly popular P2P files to direct download.
//!
//! This module provides:
//!
//! * [`BandwidthMultiplier`] — `mᵢ` as a function of swarm size, the standard
//!   logarithmic form from the hybrid cloud-P2P literature;
//! * [`SeedGovernor`] — a LEDBAT-flavoured token-bucket governor that lets
//!   the cloud seed swarms only with *idle* upload capacity (§6.1 discusses
//!   LEDBAT, RFC 6817, as a future refinement of ODR).

use odx_sim::{SimTime, TokenBucket};

/// Multiplier model: `m(seeds+leechers) = 1 + eta · ln(1 + swarm_size)`.
#[derive(Debug, Clone, Copy)]
pub struct BandwidthMultiplier {
    /// Logarithmic gain; calibrated so large swarms reach the 3–10×
    /// multipliers reported for hybrid cloud-P2P systems.
    pub eta: f64,
}

impl Default for BandwidthMultiplier {
    fn default() -> Self {
        BandwidthMultiplier { eta: 0.9 }
    }
}

impl BandwidthMultiplier {
    /// The multiplier for a swarm with `swarm_size` active peers.
    pub fn multiplier(&self, swarm_size: f64) -> f64 {
        1.0 + self.eta * (1.0 + swarm_size.max(0.0)).ln()
    }
}

/// A LEDBAT-style background-transport governor for cloud seeding: seeding
/// traffic may only consume capacity the foreground (user fetches) leaves
/// idle, enforced with a token bucket refilled by the idle headroom.
#[derive(Debug)]
pub struct SeedGovernor {
    capacity_kbps: f64,
    bucket: TokenBucket,
}

impl SeedGovernor {
    /// Governor over a pool with `capacity_kbps` total upload capacity.
    /// `burst_secs` controls how much idle headroom may be banked.
    pub fn new(capacity_kbps: f64, burst_secs: f64) -> Self {
        assert!(capacity_kbps > 0.0, "capacity must be positive");
        SeedGovernor {
            capacity_kbps,
            bucket: TokenBucket::new(capacity_kbps, capacity_kbps * burst_secs.max(0.001)),
        }
    }

    /// The seeding rate permitted at `now` given current foreground usage.
    /// Foreground traffic always wins; seeding gets `capacity − foreground`,
    /// further limited by banked tokens.
    pub fn allowance_kbps(&mut self, now: SimTime, foreground_kbps: f64) -> f64 {
        let idle = (self.capacity_kbps - foreground_kbps).max(0.0);
        let banked = self.bucket.available(now);
        idle.min(banked.max(0.0))
    }

    /// Consume `kb` kilobytes of seeding traffic at `now`. Returns whether
    /// the bucket covered it.
    pub fn consume(&mut self, now: SimTime, kb: f64) -> bool {
        self.bucket.try_consume(now, kb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odx_sim::SimDuration;

    #[test]
    fn multiplier_grows_logarithmically() {
        let m = BandwidthMultiplier::default();
        assert!((m.multiplier(0.0) - 1.0 - 0.9 * 1f64.ln()).abs() < 1e-12);
        let m10 = m.multiplier(10.0);
        let m100 = m.multiplier(100.0);
        let m1000 = m.multiplier(1000.0);
        assert!(m10 < m100 && m100 < m1000);
        // Log growth: equal ratios add roughly equal increments.
        assert!(((m1000 - m100) - (m100 - m10)).abs() < 0.15);
    }

    #[test]
    fn hot_swarm_multiplier_is_substantial() {
        // A highly popular file (≈ 100+ peers) should multiply cloud seed
        // bandwidth several times — the basis of ODR's 35 % burden saving.
        let m = BandwidthMultiplier::default();
        assert!(m.multiplier(100.0) > 4.0, "{}", m.multiplier(100.0));
    }

    #[test]
    fn governor_yields_to_foreground() {
        let mut g = SeedGovernor::new(1000.0, 1.0);
        let t0 = SimTime::ZERO;
        assert!(g.allowance_kbps(t0, 1000.0) <= 0.0, "fully busy: no seeding");
        assert!(g.allowance_kbps(t0, 400.0) <= 600.0 + 1e-9);
        assert!(g.allowance_kbps(t0, 0.0) > 0.0);
    }

    #[test]
    fn governor_bucket_limits_bursts() {
        let mut g = SeedGovernor::new(1000.0, 0.5);
        let t0 = SimTime::ZERO;
        assert!(g.consume(t0, 500.0), "burst allowance available");
        assert!(!g.consume(t0, 500.0), "bucket drained");
        let later = t0 + SimDuration::from_millis(300);
        assert!(g.consume(later, 250.0), "refilled at capacity rate");
    }
}
