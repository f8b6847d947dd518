//! The pre-downloader VM pool (§2.1 / §4.1).

use odx_net::OverheadModel;
use odx_p2p::{FailureCause, HttpFtpModel, SourceOutcome, SwarmModel};
use odx_sim::SimDuration;
use odx_stats::dist::u01;
use odx_trace::FileMeta;
use rand::Rng;

use crate::CloudConfig;

/// Result of one pre-download attempt by a cloud VM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredownloadOutcome {
    /// The file downloads at `rate_kbps`, taking `duration` and consuming
    /// `traffic_mb` of network traffic (payload + protocol overhead).
    Success {
        /// Average downloading rate (KBps).
        rate_kbps: f64,
        /// Wall-clock duration of the pre-download.
        duration: SimDuration,
        /// Total traffic consumed (MB).
        traffic_mb: f64,
    },
    /// The attempt stagnates and is abandoned after `duration` (stagnation
    /// timeout plus whatever partial progress preceded it).
    Failure {
        /// Why it failed.
        cause: FailureCause,
        /// Time from start until the service gives up.
        duration: SimDuration,
        /// Partial traffic wasted before giving up (MB).
        traffic_mb: f64,
    },
}

impl PredownloadOutcome {
    /// The attempt's duration.
    pub fn duration(&self) -> SimDuration {
        match self {
            PredownloadOutcome::Success { duration, .. }
            | PredownloadOutcome::Failure { duration, .. } => *duration,
        }
    }

    /// Traffic consumed (MB).
    pub fn traffic_mb(&self) -> f64 {
        match self {
            PredownloadOutcome::Success { traffic_mb, .. }
            | PredownloadOutcome::Failure { traffic_mb, .. } => *traffic_mb,
        }
    }
}

/// The VM pre-downloader model: source attempt capped by the VM's 20 Mbps
/// access link, with the production stagnation-timeout failure rule.
#[derive(Debug, Clone, Copy)]
pub struct PredownloadModel {
    swarm: SwarmModel,
    http: HttpFtpModel,
    overhead: OverheadModel,
    vm_kbps: f64,
    timeout: SimDuration,
}

impl PredownloadModel {
    /// Model using the given source models and cloud config.
    pub fn new(swarm: SwarmModel, http: HttpFtpModel, cfg: &CloudConfig) -> Self {
        PredownloadModel {
            swarm,
            http,
            overhead: OverheadModel::default(),
            vm_kbps: cfg.predownloader_kbps,
            timeout: cfg.stagnation_timeout,
        }
    }

    /// Attempt to pre-download `file`. `rate_cap_kbps` further restricts the
    /// download rate (smart APs pass the benchmark restriction here; the
    /// cloud passes infinity).
    pub fn attempt(
        &self,
        file: &FileMeta,
        rate_cap_kbps: f64,
        rng: &mut dyn Rng,
    ) -> PredownloadOutcome {
        self.attempt_with_history(file, rate_cap_kbps, 0, 1.0, rng)
    }

    /// Retry-aware attempt: the cloud re-tries a file on every new request
    /// for it, and each prior failure decays the failure probability by
    /// `retry_decay` (seed churn / server recovery).
    pub fn attempt_with_history(
        &self,
        file: &FileMeta,
        rate_cap_kbps: f64,
        prior_failures: u32,
        retry_decay: f64,
        rng: &mut dyn Rng,
    ) -> PredownloadOutcome {
        let w = f64::from(file.weekly_requests);
        let source = if file.protocol.is_p2p() {
            self.swarm.proxy_attempt_decayed(w, prior_failures, retry_decay, rng)
        } else {
            self.http.attempt_decayed(w, prior_failures, retry_decay, rng)
        };
        self.resolve(file, source, rate_cap_kbps, rng)
    }

    /// Turn a source outcome into timing and traffic. Exposed so the smart-AP
    /// engine can share the exact same resolution semantics.
    pub fn resolve(
        &self,
        file: &FileMeta,
        source: SourceOutcome,
        rate_cap_kbps: f64,
        rng: &mut dyn Rng,
    ) -> PredownloadOutcome {
        match source {
            SourceOutcome::Serving { rate_kbps } => {
                let rate = rate_kbps.min(self.vm_kbps).min(rate_cap_kbps).max(0.01);
                let secs = odx_net::transfer_secs(file.size_mb, rate);
                // A transfer that cannot complete within a week is
                // indistinguishable from stagnation: the service prunes it
                // (the paper's pre-download delays max out around 10^4
                // minutes — one measurement week).
                if secs > 7.0 * 86_400.0 {
                    let partial_secs = u01(rng) * 3600.0;
                    return PredownloadOutcome::Failure {
                        cause: if file.protocol.is_p2p() {
                            FailureCause::InsufficientSeeds
                        } else {
                            FailureCause::PoorConnection
                        },
                        duration: self.timeout + SimDuration::from_secs_f64(partial_secs),
                        traffic_mb: file.size_mb * u01(rng) * 0.15,
                    };
                }
                let factor = if file.protocol.is_p2p() {
                    self.overhead.p2p_factor(rng)
                } else {
                    self.overhead.http_ftp_factor(rng)
                };
                PredownloadOutcome::Success {
                    rate_kbps: rate,
                    duration: SimDuration::from_secs_f64(secs),
                    traffic_mb: file.size_mb * factor,
                }
            }
            SourceOutcome::Failed { cause } => {
                // The downloader makes partial progress, stalls, and the
                // service times it out an hour after the last byte moved.
                let partial_secs = u01(rng) * 3600.0;
                let wasted_mb = file.size_mb * u01(rng) * 0.15;
                PredownloadOutcome::Failure {
                    cause,
                    duration: self.timeout + SimDuration::from_secs_f64(partial_secs),
                    traffic_mb: wasted_mb,
                }
            }
        }
    }

    /// The stagnation timeout in force.
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odx_trace::{FileId, FileType, Protocol};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> PredownloadModel {
        PredownloadModel::new(
            SwarmModel::default(),
            HttpFtpModel::default(),
            &CloudConfig::default(),
        )
    }

    fn file(size_mb: f64, protocol: Protocol, w: u32) -> FileMeta {
        FileMeta { id: FileId(1), size_mb, ftype: FileType::Video, protocol, weekly_requests: w }
    }

    #[test]
    fn success_timing_is_size_over_rate() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(90);
        let f = file(100.0, Protocol::Http, 500);
        loop {
            if let PredownloadOutcome::Success { rate_kbps, duration, .. } =
                m.attempt(&f, f64::INFINITY, &mut rng)
            {
                let expect = 100.0 * 1000.0 / rate_kbps;
                assert!((duration.as_secs_f64() - expect).abs() < 1.0);
                break;
            }
        }
    }

    #[test]
    fn rate_never_exceeds_vm_or_cap() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(91);
        for _ in 0..2000 {
            if let PredownloadOutcome::Success { rate_kbps, .. } =
                m.attempt(&file(10.0, Protocol::BitTorrent, 50_000), 300.0, &mut rng)
            {
                assert!(rate_kbps <= 300.0);
            }
        }
    }

    #[test]
    fn failures_take_at_least_the_stagnation_timeout() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(92);
        let f = file(700.0, Protocol::BitTorrent, 1);
        let mut seen_failure = false;
        for _ in 0..200 {
            if let PredownloadOutcome::Failure { duration, .. } =
                m.attempt(&f, f64::INFINITY, &mut rng)
            {
                assert!(duration >= SimDuration::from_hours(1));
                assert!(duration <= SimDuration::from_hours(2));
                seen_failure = true;
            }
        }
        assert!(seen_failure, "unpopular torrents should fail often");
    }

    #[test]
    fn p2p_traffic_overhead_is_large() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(93);
        let f = file(100.0, Protocol::BitTorrent, 10_000);
        let mut total_traffic = 0.0;
        let mut successes = 0;
        for _ in 0..2000 {
            if let PredownloadOutcome::Success { traffic_mb, .. } =
                m.attempt(&f, f64::INFINITY, &mut rng)
            {
                total_traffic += traffic_mb;
                successes += 1;
            }
        }
        let mean_factor = total_traffic / successes as f64 / 100.0;
        // §4.1: overall pre-downloading traffic ≈ 196 % of the file size.
        assert!((mean_factor - 1.96).abs() < 0.05, "mean factor {mean_factor}");
    }

    #[test]
    fn http_traffic_overhead_is_small() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(94);
        let f = file(100.0, Protocol::Ftp, 10_000);
        for _ in 0..500 {
            if let PredownloadOutcome::Success { traffic_mb, .. } =
                m.attempt(&f, f64::INFINITY, &mut rng)
            {
                assert!((107.0..=110.0).contains(&traffic_mb), "{traffic_mb}");
            }
        }
    }

    #[test]
    fn failure_causes_follow_protocol() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(95);
        for _ in 0..500 {
            if let PredownloadOutcome::Failure { cause, .. } =
                m.attempt(&file(1.0, Protocol::BitTorrent, 1), f64::INFINITY, &mut rng)
            {
                assert_eq!(cause, FailureCause::InsufficientSeeds);
            }
            if let PredownloadOutcome::Failure { cause, .. } =
                m.attempt(&file(1.0, Protocol::Http, 1), f64::INFINITY, &mut rng)
            {
                assert_eq!(cause, FailureCause::PoorConnection);
            }
        }
    }
}
