//! The Figure 15 decision state machine.

use odx_trace::PopularityClass;

use crate::decision::{Decision, OdrRequest, Verdict};
use crate::Bottleneck;

/// Tunables of the decision procedure (§6.1's hard-coded thresholds, made
/// explicit).
#[derive(Debug, Clone, Copy)]
pub struct OdrConfig {
    /// Below this access bandwidth a highly popular download is handed to
    /// the smart AP (the user's device gains nothing from running it, and
    /// the AP caches it for the household). §6.1 uses 0.93 MBps — the worst
    /// storage cap observed in Table 2.
    pub slow_access_kbps: f64,
}

impl Default for OdrConfig {
    fn default() -> Self {
        OdrConfig { slow_access_kbps: 930.0 }
    }
}

/// The redirector: a pure function from request context to [`Verdict`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OdrEngine {
    cfg: OdrConfig,
}

impl OdrEngine {
    /// Engine with explicit thresholds.
    pub fn new(cfg: OdrConfig) -> Self {
        OdrEngine { cfg }
    }

    /// Decide where this request should be served — the workflow of
    /// Figure 15, §6.1.
    pub fn decide(&self, req: &OdrRequest) -> Verdict {
        if req.popularity == PopularityClass::HighlyPopular {
            self.decide_highly_popular(req)
        } else {
            self.decide_less_popular(req)
        }
    }

    /// Highly popular files: downloading will succeed anywhere, so the goal
    /// shifts to relieving the cloud (B2) and dodging storage caps (B4).
    fn decide_highly_popular(&self, req: &OdrRequest) -> Verdict {
        if !req.protocol.is_p2p() {
            // HTTP/FTP-hosted: falling back on the cloud avoids making the
            // origin server the bottleneck (§6.1).
            let decision =
                if req.cached_in_cloud { Decision::Cloud } else { Decision::CloudPredownload };
            return Verdict { decision, addresses: vec![] };
        }
        // P2P-hosted: the swarm serves it as well as the cloud would (the
        // bandwidth-multiplier effect), so keep it off the cloud entirely.
        let mut addresses = vec![Bottleneck::B2CloudUploadWaste];
        let decision = match req.ap {
            // Storage would throttle the AP: download on the user's device.
            Some(_) if Bottleneck::b4_at_risk(req) => {
                addresses.push(Bottleneck::B4ApStorageRestriction);
                Decision::UserDevice
            }
            // Slow line: let the AP grind away in the background.
            Some(_) if req.access_kbps < self.cfg.slow_access_kbps => Decision::SmartAp,
            // Healthy AP on a fast line still beats tying up the user's
            // device.
            Some(_) => Decision::SmartAp,
            None => Decision::UserDevice,
        };
        Verdict { decision, addresses }
    }

    /// Less popular files: success is the concern (B3) → lean on the cloud
    /// pool; then check the cloud-to-user path (B1).
    fn decide_less_popular(&self, req: &OdrRequest) -> Verdict {
        let mut addresses = vec![];
        if Bottleneck::b3_at_risk(req) {
            addresses.push(Bottleneck::B3ApUnpopularFailure);
        }
        if !req.cached_in_cloud {
            // Case 2: the cloud pre-downloads; the user re-asks once
            // notified.
            return Verdict { decision: Decision::CloudPredownload, addresses };
        }
        // Case 1: cached — check for a bandwidth bottleneck on the
        // cloud→user path.
        if Bottleneck::b1_at_risk(req) && req.ap.is_some() {
            addresses.push(Bottleneck::B1CloudFetchImpeded);
            Verdict { decision: Decision::CloudThenSmartAp, addresses }
        } else {
            Verdict { decision: Decision::Cloud, addresses }
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

    fn base() -> OdrRequest {
        OdrRequest {
            popularity: PopularityClass::Popular,
            protocol: Protocol::BitTorrent,
            cached_in_cloud: true,
            isp: Isp::Telecom,
            access_kbps: 400.0,
            ap: Some(ApContext::bench(ApModel::MiWiFi)),
        }
    }

    fn decide(req: &OdrRequest) -> Decision {
        OdrEngine::default().decide(req).decision
    }

    #[test]
    fn highly_popular_p2p_goes_direct_without_ap() {
        let mut r = base();
        r.popularity = PopularityClass::HighlyPopular;
        r.ap = None;
        assert_eq!(decide(&r), Decision::UserDevice);
    }

    #[test]
    fn highly_popular_p2p_with_healthy_ap_uses_the_ap() {
        let mut r = base();
        r.popularity = PopularityClass::HighlyPopular;
        assert_eq!(decide(&r), Decision::SmartAp);
    }

    #[test]
    fn highly_popular_p2p_with_throttling_ap_uses_user_device() {
        // §6.1's worked example: 20 Mbps access + USB-flash/NTFS AP.
        let mut r = base();
        r.popularity = PopularityClass::HighlyPopular;
        r.access_kbps = 2500.0;
        r.ap = Some(ApContext::bench(ApModel::Newifi));
        let v = OdrEngine::default().decide(&r);
        assert_eq!(v.decision, Decision::UserDevice);
        assert!(v.addresses.contains(&Bottleneck::B4ApStorageRestriction));
        assert!(v.addresses.contains(&Bottleneck::B2CloudUploadWaste));
    }

    #[test]
    fn highly_popular_http_falls_back_on_the_cloud() {
        let mut r = base();
        r.popularity = PopularityClass::HighlyPopular;
        r.protocol = Protocol::Http;
        assert_eq!(decide(&r), Decision::Cloud);
        r.cached_in_cloud = false;
        assert_eq!(decide(&r), Decision::CloudPredownload);
    }

    #[test]
    fn cached_file_with_good_path_fetches_from_cloud() {
        assert_eq!(decide(&base()), Decision::Cloud);
    }

    #[test]
    fn impeded_path_gets_the_cloud_ap_relay() {
        let mut r = base();
        r.isp = Isp::Other;
        let v = OdrEngine::default().decide(&r);
        assert_eq!(v.decision, Decision::CloudThenSmartAp);
        assert!(v.addresses.contains(&Bottleneck::B1CloudFetchImpeded));

        let mut r = base();
        r.access_kbps = 80.0;
        assert_eq!(decide(&r), Decision::CloudThenSmartAp);
    }

    #[test]
    fn impeded_user_without_ap_still_uses_cloud() {
        let mut r = base();
        r.isp = Isp::Other;
        r.ap = None;
        assert_eq!(decide(&r), Decision::Cloud);
    }

    #[test]
    fn uncached_unpopular_file_goes_to_cloud_predownload() {
        let mut r = base();
        r.popularity = PopularityClass::Unpopular;
        r.cached_in_cloud = false;
        let v = OdrEngine::default().decide(&r);
        assert_eq!(v.decision, Decision::CloudPredownload);
        assert!(v.addresses.contains(&Bottleneck::B3ApUnpopularFailure));
    }

    #[test]
    fn unpopular_files_never_go_to_the_ap_or_direct() {
        // Bottleneck 3: the AP would fail 42 % of these.
        let engine = OdrEngine::default();
        for cached in [true, false] {
            for isp in [Isp::Telecom, Isp::Other] {
                for access in [60.0, 400.0, 2500.0] {
                    let mut r = base();
                    r.popularity = PopularityClass::Unpopular;
                    r.cached_in_cloud = cached;
                    r.isp = isp;
                    r.access_kbps = access;
                    let d = engine.decide(&r).decision;
                    assert!(
                        !matches!(d, Decision::UserDevice | Decision::SmartAp),
                        "unpopular request routed to {d}"
                    );
                }
            }
        }
    }
}
