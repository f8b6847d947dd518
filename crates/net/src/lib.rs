#![warn(missing_docs)]

//! # odx-net — the network substrate of the offline-downloading study
//!
//! China's Internet (as of the paper's 2015 measurement) is modeled by three
//! pieces, each the direct cause of one of the paper's findings:
//!
//! * [`Isp`] — a small number of giant ASes (Unicom, Telecom, Mobile,
//!   CERNET) plus a long tail of small ISPs. Cloud uploading servers exist
//!   only inside the four major ISPs.
//! * [`AccessModel`] — per-user last-mile bandwidth. The paper attributes
//!   10.8 % of impeded fetches to access links below the 1 Mbps (125 KBps)
//!   HD-video threshold.
//! * [`BarrierModel`] — the "ISP barrier": cross-ISP paths collapse to a
//!   small fraction of either endpoint's capacity. This causes 9.6 % of
//!   impeded fetches (users outside the four major ISPs).
//!
//! The max–min fluid solver from `odx-sim` covers flows that share links
//! (LAN fetches, upload-server pools).
//!
//! ## Units
//!
//! Throughout the workspace: **bandwidth is KBps** (kilobytes per second,
//! decimal) and **file sizes are MB** (decimal megabytes), matching the
//! paper's conventions: 1 Mbps = 125 KBps, 20 Mbps = 2.5 MBps = 2500 KBps.

mod access;
mod barrier;
mod isp;
pub mod latency;
mod overhead;

pub use access::AccessModel;
pub use barrier::BarrierModel;
pub use isp::{Isp, IspMix};
pub use overhead::OverheadModel;

/// 1 Mbps expressed in KBps — the HD-video playback threshold (§4.2).
pub const HD_THRESHOLD_KBPS: f64 = 125.0;

/// A cloud pre-downloader's access bandwidth: 20 Mbps = 2.5 MBps (§2.1).
pub const PREDOWNLOADER_KBPS: f64 = 2500.0;

/// Maximum per-user fetch speed from the cloud: 50 Mbps = 6.25 MBps (§2.1).
pub const CLOUD_FETCH_CAP_KBPS: f64 = 6250.0;

/// The benchmark ADSL lines used in §5.1: 20 Mbps down.
pub const ADSL_LINK_KBPS: f64 = 2500.0;

/// Maximum *payload* rate ever observed on one of those 20 Mbps lines:
/// 2.37 MBps, the ceiling of the Fig 13 and Fig 17 speed CDFs (the link
/// rate less framing/TCP overhead). Every per-download rate cap in the
/// workspace derives from this single constant.
pub const ADSL_PAYLOAD_KBPS: f64 = 2370.0;

/// Convert KBps to Gbps (gigabits/s) — the unit of Figure 11's y-axis.
pub fn kbps_to_gbps(kbps: f64) -> f64 {
    kbps * 8.0 / 1_000_000.0
}

/// Transfer time in seconds for `size_mb` megabytes at `rate_kbps`.
/// Returns `f64::INFINITY` for non-positive rates.
pub fn transfer_secs(size_mb: f64, rate_kbps: f64) -> f64 {
    if rate_kbps <= 0.0 {
        f64::INFINITY
    } else {
        size_mb * 1000.0 / rate_kbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_match_paper() {
        // 1 Mbps = 125 KBps, so 20 / 50 Mbps = 2500 / 6250 KBps.
        assert_eq!(HD_THRESHOLD_KBPS, 125.0);
        assert_eq!(20.0 * HD_THRESHOLD_KBPS, PREDOWNLOADER_KBPS);
        assert_eq!(50.0 * HD_THRESHOLD_KBPS, CLOUD_FETCH_CAP_KBPS);
        // 30 Gbps in KBps is 3.75e6; round-trips through kbps_to_gbps.
        assert!((kbps_to_gbps(3_750_000.0) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_time() {
        // 115 MB (the median file) at 287 KBps (the median fetch speed)
        // ≈ 6.7 minutes — consistent with the paper's 7-minute median fetch.
        let secs = transfer_secs(115.0, 287.0);
        assert!((secs / 60.0 - 6.68).abs() < 0.05, "{}", secs / 60.0);
        assert!(transfer_secs(1.0, 0.0).is_infinite());
    }
}
