//! Inter-ISP latency model.
//!
//! §2.1: when a privileged (same-ISP) uploading server is unavailable,
//! Xuanfeng "would select an alternative uploading server that has the
//! shortest network latency from the user". This module provides that
//! latency surface: an RTT matrix over the major ISPs plus the outside
//! world, shaped by China's topology (intra-ISP backbones are fast; paths
//! between ISPs cross thin interconnects; CERNET peers poorly with the
//! commercial networks).

use crate::Isp;

/// Baseline RTT in milliseconds between a user in `from` and a server in
/// `to` (medians).
pub fn base_rtt_ms(from: Isp, to: Isp) -> f64 {
    use Isp::*;
    match (from, to) {
        // Same-ISP paths ride the national backbone.
        (a, b) if a == b && a.is_major() => 25.0,
        // Commercial big-3 peer with each other at congested NAPs.
        (Unicom, Telecom) | (Telecom, Unicom) => 75.0,
        (Unicom, Mobile) | (Mobile, Unicom) => 70.0,
        (Telecom, Mobile) | (Mobile, Telecom) => 72.0,
        // CERNET's commercial interconnects are notoriously slow.
        (Cernet, x) | (x, Cernet) if x != Cernet => 110.0,
        (Cernet, Cernet) => 25.0,
        // Small ISPs transit through a commercial carrier.
        (Other, x) | (x, Other) if x != Other => 95.0,
        (Other, Other) => 60.0,
        _ => 75.0,
    }
}

/// The alternative-server choice rule of §2.1: among candidate server ISPs,
/// pick the one with the lowest base RTT from the user (ties broken by
/// enumeration order).
pub fn nearest_major(from: Isp, candidates: &[Isp]) -> Option<Isp> {
    candidates
        .iter()
        .copied()
        .filter(|isp| isp.is_major())
        .min_by(|&a, &b| base_rtt_ms(from, a).partial_cmp(&base_rtt_ms(from, b)).expect("finite"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_isp_is_fastest() {
        for isp in Isp::MAJORS {
            for other in Isp::MAJORS {
                if other != isp {
                    assert!(base_rtt_ms(isp, isp) < base_rtt_ms(isp, other), "{isp} → {other}");
                }
            }
        }
    }

    #[test]
    fn matrix_is_symmetric() {
        let all = [Isp::Unicom, Isp::Telecom, Isp::Mobile, Isp::Cernet, Isp::Other];
        for a in all {
            for b in all {
                assert_eq!(base_rtt_ms(a, b), base_rtt_ms(b, a), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn cernet_crossings_are_the_worst() {
        assert!(base_rtt_ms(Isp::Cernet, Isp::Telecom) > base_rtt_ms(Isp::Unicom, Isp::Telecom));
    }

    #[test]
    fn nearest_major_selection() {
        // A Cernet user prefers any commercial ISP equally (all 110 ms) —
        // enumeration order breaks the tie to the first candidate.
        let pick = nearest_major(Isp::Unicom, &[Isp::Telecom, Isp::Mobile]).unwrap();
        assert_eq!(pick, Isp::Mobile, "Mobile is nearer Unicom than Telecom");
        assert_eq!(nearest_major(Isp::Other, &[]), None);
        assert_eq!(nearest_major(Isp::Other, &[Isp::Other]), None);
    }
}
