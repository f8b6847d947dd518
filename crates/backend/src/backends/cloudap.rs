//! The cloud→AP relay proxy (the Bottleneck 1 escape hatch).

use odx_stats::dist::{Dist, LogNormal};
use odx_telemetry::Registry;

use crate::config::{apply_dynamics, BackendConfig};
use crate::{BackendMetrics, ExecCtx, Outcome, ProxyBackend, ProxyRequest};

/// The AP fetches the cached file from the cloud over the full ADSL line
/// via a privileged path (the AP's line, not the user's constrained one),
/// then serves the user over the LAN. Never crosses the ISP barrier — that
/// is the point of the relay.
pub struct CloudAssistedApBackend {
    cfg: BackendConfig,
    efficiency: LogNormal,
    metrics: BackendMetrics,
}

impl CloudAssistedApBackend {
    /// A relay backend with the given evaluation config, recording
    /// `backend.cloud+smart-ap.*` into `registry`.
    pub fn new(cfg: BackendConfig, registry: &Registry) -> Self {
        CloudAssistedApBackend {
            cfg,
            efficiency: super::efficiency_dist(),
            metrics: BackendMetrics::new(registry, "cloud+smart-ap"),
        }
    }
}

impl ProxyBackend for CloudAssistedApBackend {
    fn name(&self) -> &'static str {
        "cloud+smart-ap"
    }

    fn execute(&mut self, req: &ProxyRequest, ctx: &mut ExecCtx) -> Outcome {
        let eff = self.efficiency.sample(ctx.rng).clamp(0.3, 1.0);
        let ap = req.ap.expect("relay backend requires an AP");
        let offered = self.cfg.line_payload_kbps * eff;
        let achieved = ap.storage_capped_kbps(offered);
        // Storage "harm" only if the AP delivers less than the user's own
        // impeded path would have — for these users the relay is a strict
        // improvement even through a slow disk.
        let own_path = req.access_kbps * eff;
        let storage_limited = achieved < own_path.min(offered) - 1e-9;
        let mut rate = achieved;
        apply_dynamics(&mut rate, self.cfg.dynamics_probability, ctx.rng);
        let mut out = Outcome::success(rate, req.size_mb);
        out.cloud_upload_mb = req.size_mb;
        out.lan_mb = req.size_mb;
        out.storage_limited = storage_limited;
        self.metrics.record(&out);
        out
    }
}
