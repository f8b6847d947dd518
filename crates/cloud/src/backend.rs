//! The cloud mechanism the week replay drives.
//!
//! [`CloudWeekBackend`] owns the VM pre-downloaders, the per-ISP upload
//! pool and the two RNG streams the replay draws from. The DES in
//! [`crate::XuanfengCloud`] calls its phase methods
//! ([`CloudWeekBackend::predownload`], [`CloudWeekBackend::plan_fetch`],
//! [`CloudWeekBackend::release`]) at its event sites and counts what they
//! return; the backend itself records nothing.

use odx_net::Isp;
use odx_p2p::{HttpFtpModel, SwarmModel};
use odx_sim::{RngFactory, SimRng};
use odx_stats::dist::u01;
use odx_trace::{FileMeta, User};

use crate::{CloudConfig, FetchModel, FetchPlan, PredownloadModel, PredownloadOutcome, UploadPool};

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
}

impl CloudWeekBackend {
    /// Build the backend from the cloud config, drawing its `cloud-source`
    /// and `cloud-fetch` streams from `rngs`.
    pub fn new(cfg: &CloudConfig, rngs: &RngFactory) -> Self {
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
    /// privileged paths every flow plans as an outside-ISP user) and
    /// reserves pool bandwidth the caller must
    /// [`CloudWeekBackend::release`] when the fetch ends.
    pub fn plan_fetch(&mut self, user: &User) -> FetchPlan {
        let plan_isp = if self.privileged_paths { user.isp } else { Isp::Other };
        let plan_user = User { isp: plan_isp, ..*user };
        self.fetch.plan(&plan_user, &mut self.upload, &mut self.rng_fetch)
    }

    /// Release an admitted fetch's pool reservation.
    pub fn release(&mut self, server_isp: Isp, reserved_kbps: f64) {
        self.upload.release(server_isp, reserved_kbps);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablating_privileged_paths_forces_the_barrier() {
        let rngs = RngFactory::new(44);
        let mut cfg = CloudConfig::at_scale(0.01);
        cfg.privileged_paths_enabled = false;
        let mut backend = CloudWeekBackend::new(&cfg, &rngs);
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
}
