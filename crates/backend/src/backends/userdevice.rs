//! Direct download on the user's own device.

use odx_p2p::{SourceOutcome, SwarmModel};
use odx_stats::dist::{Dist, LogNormal};
use odx_telemetry::Registry;

use crate::config::{apply_dynamics, BackendConfig};
use crate::{BackendMetrics, ExecCtx, Outcome, ProxyBackend, ProxyRequest};

/// The null proxy: the user's device joins the swarm itself (ODR routes
/// highly popular P2P files here to relieve the cloud — Bottleneck 2).
pub struct UserDeviceBackend {
    cfg: BackendConfig,
    swarm: SwarmModel,
    efficiency: LogNormal,
    metrics: BackendMetrics,
}

impl UserDeviceBackend {
    /// A user-device backend with the given evaluation config, recording
    /// `backend.user-device.*` into `registry`.
    pub fn new(cfg: BackendConfig, registry: &Registry) -> Self {
        UserDeviceBackend {
            cfg,
            swarm: SwarmModel::default(),
            efficiency: super::efficiency_dist(),
            metrics: BackendMetrics::new(registry, "user-device"),
        }
    }
}

impl ProxyBackend for UserDeviceBackend {
    fn name(&self) -> &'static str {
        "user-device"
    }

    fn execute(&mut self, req: &ProxyRequest, ctx: &mut ExecCtx) -> Outcome {
        let eff = self.efficiency.sample(ctx.rng).clamp(0.3, 1.0);
        let out = match self.swarm.direct_attempt(req.weekly(), ctx.rng) {
            SourceOutcome::Serving { rate_kbps } => {
                let mut rate = rate_kbps.min(req.access_kbps * eff).min(self.cfg.line_payload_kbps);
                apply_dynamics(&mut rate, self.cfg.dynamics_probability, ctx.rng);
                let mut out = Outcome::success(rate, req.size_mb);
                out.source_traffic_mb = req.size_mb;
                out
            }
            SourceOutcome::Failed { cause } => Outcome::failure(Some(cause)),
        };
        self.metrics.record(&out);
        out
    }
}
