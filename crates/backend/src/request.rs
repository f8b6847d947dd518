//! Request context shared by every proxy backend.

use std::collections::HashMap;

use odx_net::{Isp, HD_THRESHOLD_KBPS};
use odx_smartap::ApModel;
use odx_stats::dist::u01;
use odx_storage::{DeviceKind, FsKind};
use odx_trace::{FileId, FileMeta, FileType, PopularityClass, Protocol, SampledRequest};
use rand::Rng;

/// The user's smart AP, as reported through ODR's web form (§6.1 asks for
/// "smart AP type, storage device and filesystem type").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ApContext {
    /// AP product.
    pub model: ApModel,
    /// Attached storage device.
    pub device: DeviceKind,
    /// Filesystem on that device.
    pub fs: FsKind,
}

impl ApContext {
    /// The benchmark configuration of a given AP model.
    pub fn bench(model: ApModel) -> Self {
        let s = model.bench_storage();
        ApContext { model, device: s.device, fs: s.fs }
    }

    /// The §5.1 benchmark fleet: the three boxes with their shipped storage.
    pub fn bench_fleet() -> [ApContext; 3] {
        [
            ApContext::bench(ApModel::HiWiFi),
            ApContext::bench(ApModel::MiWiFi),
            ApContext::bench(ApModel::Newifi),
        ]
    }

    /// The highest pre-download rate this AP sustains when the network
    /// offers `offered_kbps`.
    pub fn storage_capped_kbps(&self, offered_kbps: f64) -> f64 {
        odx_storage::effective_rate_kbps(self.device, self.fs, self.model.cpu_mhz(), offered_kbps)
    }
}

/// Everything a proxy backend needs to know about one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProxyRequest {
    /// The user's home ISP.
    pub isp: Isp,
    /// The user's access bandwidth (KBps).
    pub access_kbps: f64,
    /// File type.
    pub file_type: FileType,
    /// File size (MB).
    pub size_mb: f64,
    /// File-transfer protocol of the original source.
    pub protocol: Protocol,
    /// Ground-truth popularity (requests/week).
    pub weekly_requests: u32,
    /// Catalog index of the file (keys the cloud's content state).
    pub file_index: u32,
    /// Whether the cloud already holds the file (content-DB lookup at
    /// decision time).
    pub cached_in_cloud: bool,
    /// The user's smart AP, if they own one.
    pub ap: Option<ApContext>,
}

impl ProxyRequest {
    /// Build from a sampled workload request.
    pub fn from_sampled(r: &SampledRequest, cached_in_cloud: bool, ap: Option<ApContext>) -> Self {
        ProxyRequest {
            isp: r.isp,
            access_kbps: r.access_kbps,
            file_type: r.file_type,
            size_mb: r.size_mb,
            protocol: r.protocol,
            weekly_requests: r.weekly_requests,
            file_index: r.file_index,
            cached_in_cloud,
            ap,
        }
    }

    /// Popularity class of the requested file.
    pub fn class(&self) -> PopularityClass {
        PopularityClass::of(self.weekly_requests)
    }

    /// Weekly request count as a float (the models' popularity argument).
    pub fn weekly(&self) -> f64 {
        f64::from(self.weekly_requests)
    }

    /// File metadata for the source/download models.
    pub fn file_meta(&self) -> FileMeta {
        FileMeta {
            id: FileId(u128::from(self.file_index)),
            size_mb: self.size_mb,
            ftype: self.file_type,
            protocol: self.protocol,
            weekly_requests: self.weekly_requests,
        }
    }

    /// B1 risk (§6.1 Case 1): a direct cloud fetch would be impeded because
    /// the access link is below the HD threshold or the user sits outside
    /// the four major ISPs.
    pub fn b1_at_risk(&self) -> bool {
        self.access_kbps < HD_THRESHOLD_KBPS || !self.isp.is_major()
    }
}

/// The cloud's per-file content state shared across one replay: which files
/// are in the collaborative cache and how often each pre-download has
/// already failed (the retry-decay history). Both the decision layer (cache
/// lookups) and the cloud backends (predownload attempts) read and write
/// it, so it lives in the shared [`ExecCtx`], not in any one backend.
#[derive(Debug, Clone, Default)]
pub struct CloudContentState {
    cached: HashMap<u32, bool>,
    failed_attempts: HashMap<u32, u32>,
}

impl CloudContentState {
    /// Empty state (cold cache, no history).
    pub fn new() -> Self {
        CloudContentState::default()
    }

    /// Whether `file_index` is currently cached, initialising unseen files
    /// with the warm-cache draw: a file with `w` weekly requests starts out
    /// cached with probability `w / (w + pivot)`.
    pub fn warm_cached(
        &mut self,
        file_index: u32,
        weekly_requests: u32,
        pivot: f64,
        rng: &mut dyn Rng,
    ) -> bool {
        let w = f64::from(weekly_requests);
        *self.cached.entry(file_index).or_insert_with(|| u01(rng) < w / (w + pivot))
    }

    /// Record a completed pre-download: the file is now cached.
    pub fn mark_cached(&mut self, file_index: u32) {
        self.cached.insert(file_index, true);
    }

    /// Prior failed pre-download attempts for `file_index`.
    pub fn failed_attempts(&self, file_index: u32) -> u32 {
        self.failed_attempts.get(&file_index).copied().unwrap_or(0)
    }

    /// Record one more failed pre-download attempt.
    pub fn note_failure(&mut self, file_index: u32) {
        *self.failed_attempts.entry(file_index).or_insert(0) += 1;
    }
}

/// Mutable per-task execution context handed to [`crate::ProxyBackend`]:
/// the task's RNG stream and the replay-wide cloud content state.
pub struct ExecCtx<'a> {
    /// The task's deterministic RNG stream. Backends draw *only* from this.
    pub rng: &'a mut dyn Rng,
    /// Cloud cache + retry history shared across the whole replay.
    pub cloud: &'a mut CloudContentState,
}

#[cfg(test)]
mod tests {
    use super::*;
    use odx_sim::RngFactory;

    #[test]
    fn bench_context_matches_ap_storage() {
        let ctx = ApContext::bench(ApModel::Newifi);
        assert_eq!(ctx.device, DeviceKind::UsbFlash);
        assert_eq!(ctx.fs, FsKind::Ntfs);
        assert!((ctx.storage_capped_kbps(2370.0) - 959.0).abs() < 10.0);
    }

    #[test]
    fn bench_fleet_is_table1_order() {
        let fleet = ApContext::bench_fleet();
        assert_eq!(fleet.map(|c| c.model), ApModel::ALL);
    }

    #[test]
    fn b1_triggers_on_low_access_or_foreign_isp() {
        let sampled = SampledRequest {
            isp: Isp::Telecom,
            access_kbps: 400.0,
            file_type: FileType::Video,
            size_mb: 100.0,
            protocol: Protocol::BitTorrent,
            weekly_requests: 20,
            file_index: 0,
        };
        let mut req = ProxyRequest::from_sampled(&sampled, false, None);
        assert!(!req.b1_at_risk());
        req.access_kbps = 100.0;
        assert!(req.b1_at_risk());
        req.access_kbps = 400.0;
        req.isp = Isp::Other;
        assert!(req.b1_at_risk());
    }

    #[test]
    fn warm_cache_draw_happens_once_per_file() {
        let rngs = RngFactory::new(7);
        let mut rng = rngs.stream("warm");
        let mut state = CloudContentState::new();
        // A hugely popular file is (almost surely) warm-cached; the second
        // lookup must return the memoised value without drawing again.
        let first = state.warm_cached(3, 100_000, 2.5, &mut rng);
        let second = state.warm_cached(3, 100_000, 2.5, &mut rng);
        assert_eq!(first, second);
        assert!(first, "w=100000 should warm-cache with pivot 2.5");
    }

    #[test]
    fn failure_history_accumulates() {
        let mut state = CloudContentState::new();
        assert_eq!(state.failed_attempts(9), 0);
        state.note_failure(9);
        state.note_failure(9);
        assert_eq!(state.failed_attempts(9), 2);
        state.mark_cached(9);
        let mut rng = RngFactory::new(1).stream("warm");
        assert!(state.warm_cached(9, 0, 2.5, &mut rng));
    }
}
