//! The cloud's [`ProxyBackend`]: per-request mechanism shared between the
//! event-driven week replay and the one-shot evaluators.
//!
//! [`CloudWeekBackend`] owns the VM pre-downloaders, the per-ISP upload
//! pool and the two RNG streams the replay draws from, plus the upload
//! admission telemetry. The DES in [`crate::XuanfengCloud`] calls the phase
//! methods ([`CloudWeekBackend::predownload`], [`CloudWeekBackend::plan_fetch`],
//! [`CloudWeekBackend::release`]) at its event sites so the simulated week
//! and the trait's one-shot [`ProxyBackend::execute`] exercise the exact
//! same mechanism code.

use odx_backend::{BackendMetrics, ExecCtx, Outcome, ProxyBackend, ProxyRequest};
use odx_net::Isp;
use odx_p2p::{HttpFtpModel, SwarmModel};
use odx_sim::{RngFactory, SimRng};
use odx_stats::dist::u01;
use odx_telemetry::{Counter, Registry};
use odx_trace::{FileMeta, User};

use crate::{CloudConfig, FetchModel, FetchPlan, PredownloadModel, PredownloadOutcome, UploadPool};

/// Upload-pool admission telemetry (`cloud.upload.*`): one admit counter per
/// major ISP, plus cross-ISP and rejection counts.
struct UploadMetrics {
    admit: [Counter; 4],
    cross_isp: Counter,
    reject: Counter,
}

impl UploadMetrics {
    fn new(registry: &Registry) -> UploadMetrics {
        let admit =
            |isp: Isp| registry.counter(&format!("cloud.upload.admit.{}", isp.lowercase_name()));
        UploadMetrics {
            admit: [
                admit(Isp::Unicom),
                admit(Isp::Telecom),
                admit(Isp::Mobile),
                admit(Isp::Cernet),
            ],
            cross_isp: registry.counter("cloud.upload.cross_isp"),
            reject: registry.counter("cloud.upload.reject"),
        }
    }
}

/// The cloud mechanism behind the week replay: pre-download VMs, the per-ISP
/// upload pool with privileged-path selection, and the retry-decay history.
pub struct CloudWeekBackend {
    predl: PredownloadModel,
    fetch: FetchModel,
    upload: UploadPool,
    rng_source: SimRng,
    rng_fetch: SimRng,
    privileged_paths: bool,
    retry_decay: f64,
    upload_metrics: UploadMetrics,
    metrics: BackendMetrics,
}

impl CloudWeekBackend {
    /// Build the backend from the cloud config, drawing its `cloud-source`
    /// and `cloud-fetch` streams from `rngs` and recording `cloud.upload.*`
    /// and `backend.cloud.*` into `registry`.
    pub fn new(cfg: &CloudConfig, rngs: &RngFactory, registry: &Registry) -> Self {
        CloudWeekBackend {
            predl: PredownloadModel::new(SwarmModel::default(), HttpFtpModel::default(), cfg),
            fetch: FetchModel::new(cfg),
            upload: UploadPool::new(
                cfg.scaled_upload_kbps(),
                cfg.upload_split,
                cfg.admission_floor_kbps,
            ),
            rng_source: rngs.stream("cloud-source"),
            rng_fetch: rngs.stream("cloud-fetch"),
            privileged_paths: cfg.privileged_paths_enabled,
            retry_decay: cfg.retry_decay,
            upload_metrics: UploadMetrics::new(registry),
            metrics: BackendMetrics::new(registry, "cloud"),
        }
    }

    /// One VM pre-download attempt for `file` with `prior` failed attempts
    /// on record, drawn from the `cloud-source` stream.
    pub fn predownload(&mut self, file: &FileMeta, prior: u32) -> PredownloadOutcome {
        self.predl.attempt_with_history(
            file,
            f64::INFINITY,
            prior,
            self.retry_decay,
            &mut self.rng_source,
        )
    }

    /// Plan a fetch for `user` against the upload pool, drawn from the
    /// `cloud-fetch` stream. Applies the privileged-path ablation (without
    /// privileged paths every flow plans as an outside-ISP user), records
    /// admission telemetry, and reserves pool bandwidth the caller must
    /// [`CloudWeekBackend::release`] when the fetch ends. A rejected plan is
    /// recorded as a failed backend request here; admitted plans are
    /// recorded on completion via [`CloudWeekBackend::note_fetched`].
    pub fn plan_fetch(&mut self, user: &User) -> FetchPlan {
        let plan_isp = if self.privileged_paths { user.isp } else { Isp::Other };
        let plan_user = User { isp: plan_isp, ..*user };
        let plan = self.fetch.plan(&plan_user, &mut self.upload, &mut self.rng_fetch);
        match plan.admission.server_isp() {
            Some(isp) => {
                if let Some(i) = isp.major_index() {
                    self.upload_metrics.admit[i].inc();
                }
                if plan.crossed_barrier {
                    self.upload_metrics.cross_isp.inc();
                }
            }
            None => {
                self.upload_metrics.reject.inc();
                self.metrics.record(&Outcome::failure(None));
            }
        }
        plan
    }

    /// Release an admitted fetch's pool reservation.
    pub fn release(&mut self, server_isp: Isp, reserved_kbps: f64) {
        self.upload.release(server_isp, reserved_kbps);
    }

    /// Record one completed fetch into the `backend.cloud.*` bundle.
    pub fn note_fetched(&mut self, rate_kbps: f64, acquired_mb: f64) {
        let mut out = Outcome::success(rate_kbps, acquired_mb);
        out.cloud_upload_mb = acquired_mb;
        self.metrics.record(&out);
    }

    /// Peak-to-average factor of a pre-download transfer (drawn from the
    /// `cloud-source` stream, matching the replay's draw order).
    pub fn predl_peak_factor(&mut self) -> f64 {
        1.1 + 0.3 * u01(&mut self.rng_source)
    }

    /// Peak-to-average factor of a fetch (drawn from the `cloud-fetch`
    /// stream, matching the replay's draw order).
    pub fn fetch_peak_factor(&mut self) -> f64 {
        1.05 + 0.25 * u01(&mut self.rng_fetch)
    }
}

impl ProxyBackend for CloudWeekBackend {
    fn name(&self) -> &'static str {
        "cloud-week"
    }

    /// One-shot composition of the two phases for a single request: a
    /// pre-download when the file is not yet cached (updating the shared
    /// retry history), then a fetch planned against the upload pool. All
    /// randomness comes from `ctx.rng`; the pool reservation is released
    /// immediately since a one-shot evaluation has no concurrent flows.
    fn execute(&mut self, req: &ProxyRequest, ctx: &mut ExecCtx) -> Outcome {
        let meta = req.file_meta();
        let mut pd_traffic = 0.0;
        let mut pd_duration = odx_sim::SimDuration::ZERO;
        if !req.cached_in_cloud {
            let prior = ctx.cloud.failed_attempts(req.file_index);
            let attempt = self.predl.attempt_with_history(
                &meta,
                f64::INFINITY,
                prior,
                self.retry_decay,
                ctx.rng,
            );
            match attempt {
                PredownloadOutcome::Failure { cause, duration, traffic_mb } => {
                    ctx.cloud.note_failure(req.file_index);
                    let mut out = Outcome::failure(Some(cause));
                    out.duration = duration;
                    out.source_traffic_mb = traffic_mb;
                    self.metrics.record(&out);
                    return out;
                }
                PredownloadOutcome::Success { duration, traffic_mb, .. } => {
                    ctx.cloud.mark_cached(req.file_index);
                    pd_traffic = traffic_mb;
                    pd_duration = duration;
                }
            }
        }

        let plan_isp = if self.privileged_paths { req.isp } else { Isp::Other };
        let user = User { isp: plan_isp, access_kbps: req.access_kbps, reports_bandwidth: true };
        let plan = self.fetch.plan(&user, &mut self.upload, ctx.rng);
        match plan.admission.server_isp() {
            Some(isp) => {
                if let Some(i) = isp.major_index() {
                    self.upload_metrics.admit[i].inc();
                }
                if plan.crossed_barrier {
                    self.upload_metrics.cross_isp.inc();
                }
                self.upload.release(isp, plan.admission.rate_kbps());
            }
            None => self.upload_metrics.reject.inc(),
        }
        if plan.rate_kbps <= 0.0 {
            let mut out = Outcome::failure(None);
            out.duration = pd_duration;
            out.source_traffic_mb = pd_traffic;
            self.metrics.record(&out);
            return out;
        }
        let acquired_mb = meta.size_mb * plan.fetched_fraction;
        let mut out = Outcome::success(plan.rate_kbps, acquired_mb);
        out.duration = out.duration + pd_duration;
        out.cloud_upload_mb = acquired_mb;
        out.source_traffic_mb = pd_traffic;
        self.metrics.record(&out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odx_backend::CloudContentState;
    use odx_trace::{FileType, Protocol, SampledRequest};

    fn request(cached: bool, w: u32) -> ProxyRequest {
        ProxyRequest::from_sampled(
            &SampledRequest {
                isp: Isp::Telecom,
                access_kbps: 800.0,
                file_type: FileType::Video,
                size_mb: 80.0,
                protocol: Protocol::Http,
                weekly_requests: w,
                file_index: 7,
            },
            cached,
            None,
        )
    }

    #[test]
    fn one_shot_execute_fills_cloud_leg() {
        let rngs = RngFactory::new(42);
        let mut backend =
            CloudWeekBackend::new(&CloudConfig::at_scale(0.01), &rngs, &Registry::new());
        let mut cloud = CloudContentState::new();
        let mut rng = rngs.stream("test");
        let mut successes = 0;
        for _ in 0..200 {
            let mut ctx = ExecCtx { rng: &mut rng, cloud: &mut cloud };
            let out = backend.execute(&request(true, 5000), &mut ctx);
            if out.success {
                successes += 1;
                assert!(out.cloud_upload_mb > 0.0, "cloud fetches upload from the pool");
                assert_eq!(out.source_traffic_mb, 0.0, "cache hit pulls nothing from sources");
                assert!(out.rate_kbps <= 6250.0);
            }
        }
        assert!(successes > 150, "pool-cached fetches mostly succeed: {successes}");
    }

    #[test]
    fn uncached_requests_pay_the_predownload() {
        let rngs = RngFactory::new(43);
        let mut backend =
            CloudWeekBackend::new(&CloudConfig::at_scale(0.01), &rngs, &Registry::new());
        let mut cloud = CloudContentState::new();
        let mut rng = rngs.stream("test");
        let mut ctx = ExecCtx { rng: &mut rng, cloud: &mut cloud };
        let out = backend.execute(&request(false, 5000), &mut ctx);
        if out.success {
            assert!(out.source_traffic_mb > 0.0, "miss must pull the file from the source");
            assert!(cloud.warm_cached(7, 5000, 2.5, &mut rng), "success marks the file cached");
        } else {
            assert_eq!(cloud.failed_attempts(7), 1, "failure feeds the retry history");
        }
    }

    #[test]
    fn ablating_privileged_paths_forces_the_barrier() {
        let rngs = RngFactory::new(44);
        let mut cfg = CloudConfig::at_scale(0.01);
        cfg.privileged_paths_enabled = false;
        let mut backend = CloudWeekBackend::new(&cfg, &rngs, &Registry::new());
        let user = User { isp: Isp::Telecom, access_kbps: 2000.0, reports_bandwidth: true };
        let mut crossed = 0;
        for _ in 0..100 {
            let plan = backend.plan_fetch(&user);
            if plan.crossed_barrier {
                crossed += 1;
            }
            if let Some(isp) = plan.admission.server_isp() {
                backend.release(isp, plan.admission.rate_kbps());
            }
        }
        assert_eq!(crossed, 100, "without privileged paths every flow crosses the barrier");
    }

    #[test]
    fn metrics_record_into_the_given_registry() {
        let rngs = RngFactory::new(45);
        let registry = Registry::new();
        let mut backend = CloudWeekBackend::new(&CloudConfig::at_scale(0.01), &rngs, &registry);
        backend.note_fetched(500.0, 10.0);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["backend.cloud.requests"], 1);
        assert_eq!(snap.counters["backend.cloud.success"], 1);
    }
}
