//! Uniform per-backend telemetry.

use odx_telemetry::{Counter, HistogramHandle, Registry};

use crate::Outcome;

/// The `backend.<proxy>.*` metric bundle every [`crate::ProxyBackend`]
/// records into: request/success/failure counters, a cumulative bytes
/// counter (all legs, in whole bytes so the snapshot stays integral and
/// byte-identical across same-seed runs), and a success-speed histogram.
#[derive(Debug, Clone)]
pub struct BackendMetrics {
    requests: Counter,
    success: Counter,
    failure: Counter,
    bytes: Counter,
    speed: HistogramHandle,
}

impl BackendMetrics {
    /// Metric handles for proxy `name` in `registry`.
    pub fn new(registry: &Registry, name: &str) -> Self {
        BackendMetrics {
            requests: registry.counter(&format!("backend.{name}.requests")),
            success: registry.counter(&format!("backend.{name}.success")),
            failure: registry.counter(&format!("backend.{name}.failure")),
            bytes: registry.counter(&format!("backend.{name}.bytes")),
            speed: registry.histogram(&format!("backend.{name}.speed_kbps")),
        }
    }

    /// Record one executed request.
    pub fn record(&self, outcome: &Outcome) {
        self.requests.inc();
        if outcome.success {
            self.success.inc();
            self.speed.record_f64(outcome.rate_kbps);
        } else {
            self.failure.inc();
        }
        let bytes = outcome.total_mb() * 1e6;
        if bytes > 0.0 {
            self.bytes.add(bytes.round() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odx_p2p::FailureCause;

    #[test]
    fn counters_split_by_outcome() {
        let registry = Registry::new();
        let metrics = BackendMetrics::new(&registry, "cloud");
        let mut ok = Outcome::success(800.0, 10.0);
        ok.cloud_upload_mb = 10.0;
        metrics.record(&ok);
        metrics.record(&Outcome::failure(Some(FailureCause::InsufficientSeeds)));
        let snap = registry.snapshot();
        assert_eq!(snap.counters["backend.cloud.requests"], 2);
        assert_eq!(snap.counters["backend.cloud.success"], 1);
        assert_eq!(snap.counters["backend.cloud.failure"], 1);
        assert_eq!(snap.counters["backend.cloud.bytes"], 10_000_000);
        assert_eq!(snap.histograms["backend.cloud.speed_kbps"].count, 1);
    }
}
