//! The one outcome struct every evaluator shares.

use odx_faults::{FaultDomain, FaultKind, FaultPlan};
use odx_p2p::FailureCause;
use odx_sim::SimDuration;
use serde::Serialize;

/// What happened when a proxy served (or failed to serve) one request.
///
/// One struct for every backend: the week replay, the §5.1 AP benchmark and
/// the §6.2 ODR evaluation all read their figures out of these fields, so
/// cross-proxy differences are attributable purely to routing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Outcome {
    /// Whether the download ultimately succeeded.
    pub success: bool,
    /// Failure cause when it did not (rejected fetches carry `None`).
    pub cause: Option<FailureCause>,
    /// User-perceived download speed (KBps); zero on failure.
    pub rate_kbps: f64,
    /// Wall-clock duration of the serving attempt (transfer time for
    /// successes, time-to-give-up for failures; zero where the evaluator
    /// does not model waiting).
    pub duration: SimDuration,
    /// Bytes the cloud uploaded to serve this request (MB) — the
    /// cloud→user leg, §6.2's upload-burden metric.
    pub cloud_upload_mb: f64,
    /// WAN traffic on the source→proxy leg (MB), protocol overhead
    /// included (§4.1's 196 %).
    pub source_traffic_mb: f64,
    /// Bytes delivered over the home LAN (MB) — the AP→user leg.
    pub lan_mb: f64,
    /// Storage iowait ratio during the transfer (AP paths only).
    pub iowait: f64,
    /// Whether the proxy's storage path, rather than the network, was the
    /// binding constraint (Bottleneck 4 in action).
    pub storage_limited: bool,
}

impl Outcome {
    /// A failed attempt: zero rate, zero payload movement.
    pub fn failure(cause: Option<FailureCause>) -> Outcome {
        Outcome {
            success: false,
            cause,
            rate_kbps: 0.0,
            duration: SimDuration::ZERO,
            cloud_upload_mb: 0.0,
            source_traffic_mb: 0.0,
            lan_mb: 0.0,
            iowait: 0.0,
            storage_limited: false,
        }
    }

    /// A successful transfer at `rate_kbps`; per-leg bytes default to zero
    /// and are filled in by the backend.
    pub fn success(rate_kbps: f64, size_mb: f64) -> Outcome {
        Outcome {
            success: true,
            cause: None,
            rate_kbps,
            duration: SimDuration::from_secs_f64(odx_net::transfer_secs(size_mb, rate_kbps)),
            cloud_upload_mb: 0.0,
            source_traffic_mb: 0.0,
            lan_mb: 0.0,
            iowait: 0.0,
            storage_limited: false,
        }
    }

    /// Total bytes this outcome moved across all legs (MB).
    pub fn total_mb(&self) -> f64 {
        self.cloud_upload_mb + self.source_traffic_mb + self.lan_mb
    }

    /// Apply the smart-AP fault window open at `at_ms` (the task's start on
    /// the caller's virtual clock), if any. A power cycle loses the task
    /// but keeps its time and traffic; a disk stall slows a successful
    /// transfer by the window severity and pins it to the storage wall.
    /// Injection draws nothing, so an empty plan leaves `self` untouched.
    pub fn apply_ap_fault(&mut self, plan: &FaultPlan, at_ms: u64) {
        let Some(window) = plan.active(FaultDomain::SmartAp, at_ms) else { return };
        match window.kind {
            FaultKind::ApPowerCycle => {
                self.success = false;
                self.cause = Some(FailureCause::SystemBug);
                self.rate_kbps = 0.0;
                self.storage_limited = false;
            }
            FaultKind::ApDiskStall if self.success => {
                self.rate_kbps *= window.severity;
                self.duration =
                    SimDuration::from_secs_f64(self.duration.as_secs_f64() / window.severity);
                self.iowait = 1.0 - (1.0 - self.iowait) * window.severity;
                self.storage_limited = true;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_moves_nothing() {
        let out = Outcome::failure(Some(FailureCause::InsufficientSeeds));
        assert!(!out.success);
        assert_eq!(out.rate_kbps, 0.0);
        assert_eq!(out.total_mb(), 0.0);
    }

    #[test]
    fn success_duration_is_size_over_rate() {
        let out = Outcome::success(500.0, 100.0);
        assert!((out.duration.as_secs_f64() - 200.0).abs() < 1e-6);
    }
}
