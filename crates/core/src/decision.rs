//! Request context and decision types.

use odx_net::Isp;
use odx_trace::{PopularityClass, Protocol};
use std::fmt;

use crate::Bottleneck;

pub use odx_backend::ApContext;

/// Everything ODR knows about one request: the file's popularity (from the
/// content-DB query) and the user's auxiliary information (from the web
/// form / cookie).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OdrRequest {
    /// Popularity class of the requested file (content-DB lookup).
    pub popularity: PopularityClass,
    /// Transfer protocol of the original source (from the submitted link).
    pub protocol: Protocol,
    /// Whether the file is already in the cloud cache (content-DB lookup).
    pub cached_in_cloud: bool,
    /// The user's ISP (resolved from the IP address via APNIC in the real
    /// deployment).
    pub isp: Isp,
    /// The user's access bandwidth (KBps), as reported.
    pub access_kbps: f64,
    /// The user's smart AP, if they own one.
    pub ap: Option<ApContext>,
}

/// Where ODR routes the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decision {
    /// Download directly on the user's device from the original source
    /// (highly popular P2P files: the swarm outperforms the cloud, and the
    /// cloud saves its upload bandwidth).
    UserDevice,
    /// Fetch from the cloud (possibly after its pre-download completes).
    Cloud,
    /// Let the smart AP pre-download from the original source.
    SmartAp,
    /// The smart AP pre-downloads *from the cloud*, then the user fetches
    /// over the LAN — the B1 escape hatch.
    CloudThenSmartAp,
    /// The file is not cached: the cloud must pre-download first; the user
    /// re-asks ODR when notified (§6.1 Case 2).
    CloudPredownload,
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Decision::UserDevice => "user-device",
            Decision::Cloud => "cloud",
            Decision::SmartAp => "smart-ap",
            Decision::CloudThenSmartAp => "cloud+smart-ap",
            Decision::CloudPredownload => "cloud-predownload",
        };
        f.write_str(s)
    }
}

/// A decision plus the reasoning that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The routing decision.
    pub decision: Decision,
    /// Which bottlenecks this routing addresses for this request.
    pub addresses: Vec<Bottleneck>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_display() {
        assert_eq!(Decision::CloudThenSmartAp.to_string(), "cloud+smart-ap");
        assert_eq!(Decision::UserDevice.to_string(), "user-device");
    }
}
