//! The AP's download engine: source → network → storage coupling.

use odx_net::{transfer_secs, OverheadModel, ADSL_LINK_KBPS};
use odx_p2p::{FailureCause, HttpFtpModel, SourceOutcome, SwarmModel};
use odx_sim::SimDuration;
use odx_stats::dist::u01;
use odx_storage::{effective_rate_kbps, write_profile};
use odx_trace::{FileMeta, Protocol};
use rand::Rng;

use crate::{ApModel, StorageSetup};

/// Engine calibration knobs.
#[derive(Debug, Clone, Copy)]
pub struct ApEngineConfig {
    /// The AP's WAN link (the benchmark's 20 Mbps ADSL line).
    pub wan_kbps: f64,
    /// Stagnation timeout before a download is abandoned (same 1-hour rule
    /// as the cloud — aria2 behaves the same way under the APs' firmware).
    pub timeout: SimDuration,
    /// Probability an attempt dies to a firmware/system bug (§5.2: 4 % of
    /// the observed failures, ≈ 0.7 % of attempts).
    pub bug_probability: f64,
}

impl Default for ApEngineConfig {
    fn default() -> Self {
        ApEngineConfig {
            wan_kbps: ADSL_LINK_KBPS,
            timeout: SimDuration::from_hours(1),
            bug_probability: 0.007,
        }
    }
}

/// Outcome of one AP pre-download.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApOutcome {
    /// Whether the file completed.
    pub success: bool,
    /// Failure cause when unsuccessful.
    pub cause: Option<FailureCause>,
    /// Achieved average rate (KBps); zero on failure.
    pub rate_kbps: f64,
    /// Wall-clock duration of the attempt.
    pub duration: SimDuration,
    /// WAN traffic consumed (MB).
    pub traffic_mb: f64,
    /// The storage write path's iowait ratio during the transfer.
    pub iowait: f64,
    /// Whether the storage path (device/filesystem), rather than the source
    /// or the line, was the binding constraint — Bottleneck 4 in action.
    pub storage_limited: bool,
}

/// The download engine of one smart AP with one storage setup.
#[derive(Debug, Clone, Copy)]
pub struct ApEngine {
    model: ApModel,
    storage: StorageSetup,
    cfg: ApEngineConfig,
    swarm: SwarmModel,
    http: HttpFtpModel,
    overhead: OverheadModel,
}

impl ApEngine {
    /// Engine for `model` with its §5.1 benchmark storage.
    pub fn for_bench(model: ApModel) -> Self {
        ApEngine::new(model, model.bench_storage(), ApEngineConfig::default())
    }

    /// Engine with an explicit storage setup (the Table 2 sweep).
    pub fn new(model: ApModel, storage: StorageSetup, cfg: ApEngineConfig) -> Self {
        ApEngine {
            model,
            storage,
            cfg,
            swarm: SwarmModel::default(),
            http: HttpFtpModel::default(),
            overhead: OverheadModel::default(),
        }
    }

    /// The storage setup in use.
    pub fn storage(&self) -> StorageSetup {
        self.storage
    }

    /// The highest pre-download rate this AP + storage can sustain when the
    /// source and line offer `offered_kbps` — Table 2's "max pre-downloading
    /// speed" once `offered_kbps` is the full 2.37 MBps ADSL payload rate.
    pub fn storage_capped_rate(&self, offered_kbps: f64) -> f64 {
        effective_rate_kbps(
            self.storage.device,
            self.storage.fs,
            self.model.cpu_mhz(),
            offered_kbps,
        )
    }

    /// One pre-download attempt for `file`, with the §5.1 replay restriction
    /// to the sampled user's access bandwidth (`access_cap_kbps`; pass
    /// `f64::INFINITY` for the unrestricted Table 2 replays).
    pub fn pre_download(
        &self,
        file: &FileMeta,
        access_cap_kbps: f64,
        rng: &mut dyn Rng,
    ) -> ApOutcome {
        // Firmware bugs kill a small fraction of attempts outright.
        if u01(rng) < self.cfg.bug_probability {
            return ApOutcome {
                success: false,
                cause: Some(FailureCause::SystemBug),
                rate_kbps: 0.0,
                duration: SimDuration::from_secs_f64(600.0 + 3600.0 * u01(rng)),
                traffic_mb: file.size_mb * u01(rng) * 0.1,
                iowait: 0.0,
                storage_limited: false,
            };
        }

        let w = f64::from(file.weekly_requests);
        let source = if file.protocol.is_p2p() {
            self.swarm.proxy_attempt(w, rng)
        } else {
            self.http.attempt(w, rng)
        };

        match source {
            SourceOutcome::Serving { rate_kbps } => {
                let offered = rate_kbps.min(self.cfg.wan_kbps).min(access_cap_kbps);
                let achieved = self.storage_capped_rate(offered).max(0.01);
                // Same pruning rule as the cloud: a transfer that cannot
                // finish within a week is stagnation in practice.
                if transfer_secs(file.size_mb, achieved) > 7.0 * 86_400.0 {
                    return ApOutcome {
                        success: false,
                        cause: Some(if file.protocol.is_p2p() {
                            FailureCause::InsufficientSeeds
                        } else {
                            FailureCause::PoorConnection
                        }),
                        rate_kbps: 0.0,
                        duration: self.cfg.timeout + SimDuration::from_secs_f64(3600.0 * u01(rng)),
                        traffic_mb: file.size_mb * u01(rng) * 0.15,
                        iowait: 0.0,
                        storage_limited: false,
                    };
                }
                let profile =
                    write_profile(self.storage.device, self.storage.fs, self.model.cpu_mhz());
                let factor = match file.protocol {
                    Protocol::BitTorrent | Protocol::EMule => self.overhead.p2p_factor(rng),
                    Protocol::Http | Protocol::Ftp => self.overhead.http_ftp_factor(rng),
                };
                ApOutcome {
                    success: true,
                    cause: None,
                    rate_kbps: achieved,
                    duration: SimDuration::from_secs_f64(transfer_secs(file.size_mb, achieved)),
                    traffic_mb: file.size_mb * factor,
                    iowait: profile.iowait_at(achieved / 1000.0),
                    storage_limited: achieved < offered - 1e-9,
                }
            }
            SourceOutcome::Failed { cause } => ApOutcome {
                success: false,
                cause: Some(cause),
                rate_kbps: 0.0,
                duration: self.cfg.timeout + SimDuration::from_secs_f64(3600.0 * u01(rng)),
                traffic_mb: file.size_mb * u01(rng) * 0.15,
                iowait: 0.0,
                storage_limited: false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odx_trace::{FileId, FileType};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn file(size_mb: f64, protocol: Protocol, w: u32) -> FileMeta {
        FileMeta { id: FileId(9), size_mb, ftype: FileType::Video, protocol, weekly_requests: w }
    }

    #[test]
    fn newifi_ntfs_caps_fast_downloads_at_930_kbps() {
        let engine = ApEngine::for_bench(ApModel::Newifi);
        let cap = engine.storage_capped_rate(2370.0);
        assert!((cap - 930.0).abs() / 930.0 < 0.05, "{cap}");
    }

    #[test]
    fn hiwifi_and_miwifi_pass_the_full_line_rate() {
        for model in [ApModel::HiWiFi, ApModel::MiWiFi] {
            let engine = ApEngine::for_bench(model);
            let cap = engine.storage_capped_rate(2370.0);
            assert!((cap - 2370.0).abs() < 1e-6, "{model}: {cap}");
        }
    }

    #[test]
    fn slow_sources_are_never_storage_limited() {
        let engine = ApEngine::for_bench(ApModel::Newifi);
        let mut rng = StdRng::seed_from_u64(130);
        for _ in 0..300 {
            let out = engine.pre_download(&file(50.0, Protocol::BitTorrent, 30), 400.0, &mut rng);
            if out.success {
                assert!(out.rate_kbps <= 400.0 + 1e-9);
                assert!(!out.storage_limited || out.rate_kbps >= 930.0 * 0.99);
            }
        }
    }

    #[test]
    fn unpopular_files_fail_often() {
        let engine = ApEngine::for_bench(ApModel::HiWiFi);
        let mut rng = StdRng::seed_from_u64(131);
        let n = 5000;
        let failures = (0..n)
            .filter(|_| {
                !engine.pre_download(&file(200.0, Protocol::BitTorrent, 2), 500.0, &mut rng).success
            })
            .count();
        let ratio = failures as f64 / n as f64;
        assert!((0.40..0.70).contains(&ratio), "unpopular failure {ratio}");
    }

    #[test]
    fn bug_failures_occur_at_the_configured_rate() {
        let engine = ApEngine::for_bench(ApModel::MiWiFi);
        let mut rng = StdRng::seed_from_u64(132);
        let n = 30_000;
        let bugs = (0..n)
            .filter(|_| {
                engine.pre_download(&file(10.0, Protocol::Http, 5000), 2500.0, &mut rng).cause
                    == Some(FailureCause::SystemBug)
            })
            .count();
        let ratio = bugs as f64 / n as f64;
        assert!((ratio - 0.007).abs() < 0.002, "bug ratio {ratio}");
    }

    #[test]
    fn failed_attempts_respect_stagnation_timeout() {
        let engine = ApEngine::for_bench(ApModel::Newifi);
        let mut rng = StdRng::seed_from_u64(133);
        for _ in 0..2000 {
            let out = engine.pre_download(&file(700.0, Protocol::BitTorrent, 1), 500.0, &mut rng);
            if !out.success && out.cause != Some(FailureCause::SystemBug) {
                assert!(out.duration >= SimDuration::from_hours(1));
            }
        }
    }

    #[test]
    fn iowait_reported_for_fast_transfers() {
        let engine = ApEngine::for_bench(ApModel::HiWiFi);
        let mut rng = StdRng::seed_from_u64(134);
        // Popular fast file, unrestricted: if it runs at the full line rate,
        // iowait should approach Table 2's 42.1 % for SD+FAT.
        for _ in 0..3000 {
            let out =
                engine.pre_download(&file(100.0, Protocol::Http, 50_000), f64::INFINITY, &mut rng);
            if out.success && out.rate_kbps > 2300.0 {
                assert!((out.iowait - 0.421).abs() < 0.03, "iowait {}", out.iowait);
                return;
            }
        }
        panic!("no full-rate transfer observed");
    }
}
