//! The cloud proxy: cached fetch or pre-download-then-fetch.

use odx_net::BarrierModel;
use odx_p2p::{HttpFtpModel, SwarmModel};
use odx_stats::dist::{u01, Dist, LogNormal};
use odx_telemetry::Registry;

use crate::config::{apply_dynamics, BackendConfig};
use crate::{BackendMetrics, ExecCtx, Outcome, ProxyBackend, ProxyRequest};

/// The production cloud as one proxy.
///
/// Branches on [`ProxyRequest::cached_in_cloud`]:
///
/// * **cached** — the user fetches straight away over their access link
///   (capped by the ADSL payload rate), crossing the ISP barrier if they
///   sit outside the four major ISPs;
/// * **not cached** — the cloud pre-downloads first with its fleet-level
///   retry history (failure probability decays per prior attempt, times the
///   [`BackendConfig::cloud_retry_factor`]). On success the file enters the
///   collaborative cache in [`ExecCtx::cloud`] and the user fetches —
///   B1-at-risk users with an AP via the cloud→AP relay (§6.1 Case 2),
///   which dodges the barrier; everyone else directly.
pub struct CloudBackend {
    cfg: BackendConfig,
    swarm: SwarmModel,
    http: HttpFtpModel,
    barrier: BarrierModel,
    efficiency: LogNormal,
    metrics: BackendMetrics,
}

impl CloudBackend {
    /// A cloud backend with the given evaluation config, recording
    /// `backend.cloud.*` into `registry`.
    pub fn new(cfg: BackendConfig, registry: &Registry) -> Self {
        CloudBackend {
            cfg,
            swarm: SwarmModel::default(),
            http: HttpFtpModel::default(),
            barrier: BarrierModel::default(),
            efficiency: super::efficiency_dist(),
            metrics: BackendMetrics::new(registry, "cloud"),
        }
    }

    /// Finish a successful user fetch: residual dynamics, then the ISP
    /// barrier for direct (non-relayed) fetches from outside the majors.
    fn finish_fetch(
        &self,
        req: &ProxyRequest,
        mut rate: f64,
        relayed: bool,
        ctx: &mut ExecCtx,
    ) -> Outcome {
        apply_dynamics(&mut rate, self.cfg.dynamics_probability, ctx.rng);
        if !req.isp.is_major() && !relayed {
            rate = rate.min(self.barrier.sample(ctx.rng));
        }
        let mut out = Outcome::success(rate, req.size_mb);
        out.cloud_upload_mb = req.size_mb;
        if relayed {
            out.lan_mb = req.size_mb;
        }
        out
    }
}

impl ProxyBackend for CloudBackend {
    fn name(&self) -> &'static str {
        "cloud"
    }

    fn execute(&mut self, req: &ProxyRequest, ctx: &mut ExecCtx) -> Outcome {
        let eff = self.efficiency.sample(ctx.rng).clamp(0.3, 1.0);
        let line = self.cfg.line_payload_kbps;
        let out = if req.cached_in_cloud {
            let rate = req.access_kbps.mul_add(eff, 0.0).min(line);
            self.finish_fetch(req, rate, false, ctx)
        } else {
            // The cloud pre-downloads with its retry history, then the user
            // fetches as in the cached case.
            let prior = ctx.cloud.failed_attempts(req.file_index);
            let base_p = if req.protocol.is_p2p() {
                self.swarm.failure_probability(req.weekly())
            } else {
                self.http.failure_probability(req.weekly())
            };
            let p = base_p
                * self.cfg.retry_decay.powi(prior.min(30) as i32)
                * self.cfg.cloud_retry_factor;
            if u01(ctx.rng) < p {
                ctx.cloud.note_failure(req.file_index);
                Outcome::failure(None)
            } else {
                ctx.cloud.mark_cached(req.file_index);
                // §6.1 Case 2: once notified, the user asks ODR again —
                // B1-at-risk users then fetch through the cloud→AP relay,
                // everyone else straight from the cloud.
                match (req.b1_at_risk(), req.ap) {
                    (true, Some(ap)) => {
                        let rate = ap.storage_capped_kbps(line * eff);
                        self.finish_fetch(req, rate, true, ctx)
                    }
                    _ => {
                        let rate = (req.access_kbps * eff).min(line);
                        self.finish_fetch(req, rate, false, ctx)
                    }
                }
            }
        };
        self.metrics.record(&out);
        out
    }
}
