//! The four performance bottlenecks and their detectors.

use std::fmt;

use crate::decision::OdrRequest;
use odx_net::HD_THRESHOLD_KBPS;
use odx_trace::PopularityClass;

/// The four bottlenecks of §1's key results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bottleneck {
    /// Impeded cloud fetches: cross-ISP path, low access bandwidth, or
    /// cloud upload exhaustion.
    B1CloudFetchImpeded,
    /// Cloud upload bandwidth wasted on highly popular files.
    B2CloudUploadWaste,
    /// Smart APs failing on unpopular files (dead swarms).
    B3ApUnpopularFailure,
    /// AP storage device/filesystem capping pre-download speed.
    B4ApStorageRestriction,
}

impl fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Bottleneck::B1CloudFetchImpeded => "B1 (impeded cloud fetch)",
            Bottleneck::B2CloudUploadWaste => "B2 (cloud upload waste)",
            Bottleneck::B3ApUnpopularFailure => "B3 (AP unpopular failure)",
            Bottleneck::B4ApStorageRestriction => "B4 (AP storage restriction)",
        };
        f.write_str(s)
    }
}

impl Bottleneck {
    /// All four bottlenecks, in §1 order.
    pub const ALL: [Bottleneck; 4] = [
        Bottleneck::B1CloudFetchImpeded,
        Bottleneck::B2CloudUploadWaste,
        Bottleneck::B3ApUnpopularFailure,
        Bottleneck::B4ApStorageRestriction,
    ];

    /// Short machine-readable key, used for metric names.
    pub fn key(self) -> &'static str {
        match self {
            Bottleneck::B1CloudFetchImpeded => "b1",
            Bottleneck::B2CloudUploadWaste => "b2",
            Bottleneck::B3ApUnpopularFailure => "b3",
            Bottleneck::B4ApStorageRestriction => "b4",
        }
    }

    /// B1 risk: would a cloud fetch for this user be impeded? §6.1 Case 1:
    /// "if the user-side access bandwidth is low (< 1 Mbps = 125 KBps) or
    /// the user is located in a different ISP other than the four ISPs
    /// supported by the cloud".
    pub fn b1_at_risk(req: &OdrRequest) -> bool {
        req.access_kbps < HD_THRESHOLD_KBPS || !req.isp.is_major()
    }

    /// B2 opportunity: is this a highly popular file whose delivery the
    /// cloud should shed?
    pub fn b2_applies(req: &OdrRequest) -> bool {
        req.popularity == PopularityClass::HighlyPopular
    }

    /// B3 risk: would a smart AP pre-download of this file likely fail?
    /// Unpopular files have dead swarms / dead links far too often.
    pub fn b3_at_risk(req: &OdrRequest) -> bool {
        req.popularity == PopularityClass::Unpopular
    }

    /// B4 risk: would the user's AP storage throttle this download below
    /// what the network can deliver? §6.1's example: a 20 Mbps user with a
    /// USB-flash or NTFS AP should download on their own device.
    pub fn b4_at_risk(req: &OdrRequest) -> bool {
        match req.ap {
            Some(ap) => {
                let offered = req.access_kbps.min(odx_net::ADSL_LINK_KBPS);
                ap.storage_capped_kbps(offered) < offered - 1e-9
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::ApContext;
    use odx_net::Isp;
    use odx_smartap::ApModel;
    use odx_trace::Protocol;

    fn req() -> OdrRequest {
        OdrRequest {
            popularity: PopularityClass::Popular,
            protocol: Protocol::BitTorrent,
            cached_in_cloud: true,
            isp: Isp::Telecom,
            access_kbps: 400.0,
            ap: Some(ApContext::bench(ApModel::MiWiFi)),
        }
    }

    #[test]
    fn b1_triggers_on_low_access_or_foreign_isp() {
        let mut r = req();
        assert!(!Bottleneck::b1_at_risk(&r));
        r.access_kbps = 100.0;
        assert!(Bottleneck::b1_at_risk(&r));
        r.access_kbps = 400.0;
        r.isp = Isp::Other;
        assert!(Bottleneck::b1_at_risk(&r));
    }

    #[test]
    fn b2_is_popularity_only() {
        let mut r = req();
        assert!(!Bottleneck::b2_applies(&r));
        r.popularity = PopularityClass::HighlyPopular;
        assert!(Bottleneck::b2_applies(&r));
    }

    #[test]
    fn b3_is_unpopular_only() {
        let mut r = req();
        assert!(!Bottleneck::b3_at_risk(&r));
        r.popularity = PopularityClass::Unpopular;
        assert!(Bottleneck::b3_at_risk(&r));
    }

    #[test]
    fn b4_depends_on_storage_and_access() {
        let mut r = req();
        // MiWiFi's SATA+EXT4 passes the full line rate: no B4.
        r.access_kbps = 2500.0;
        assert!(!Bottleneck::b4_at_risk(&r));
        // Newifi's NTFS flash caps at ~0.96 MBps: B4 for a 20 Mbps user…
        r.ap = Some(ApContext::bench(ApModel::Newifi));
        assert!(Bottleneck::b4_at_risk(&r));
        // …but not for a 0.5 Mbps user (storage is never the constraint).
        r.access_kbps = 62.0;
        assert!(!Bottleneck::b4_at_risk(&r));
        // No AP, no B4.
        r.ap = None;
        r.access_kbps = 2500.0;
        assert!(!Bottleneck::b4_at_risk(&r));
    }
}
