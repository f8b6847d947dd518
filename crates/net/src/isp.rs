//! ISPs and the user population's ISP mix.

use rand::Rng;
use std::fmt;

use odx_stats::dist::u01;

/// An Internet service provider in the study's topology.
///
/// The four majors are where Xuanfeng deploys uploading servers (§2.1);
/// `Other` collects the long tail of small ISPs whose users always cross the
/// ISP barrier when fetching from the cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isp {
    /// China Unicom — the ISP the §5.1 benchmark links belong to.
    Unicom,
    /// China Telecom — the largest fixed-line ISP.
    Telecom,
    /// China Mobile.
    Mobile,
    /// CERNET, the education and research network.
    Cernet,
    /// Any ISP outside the four majors (no privileged path available).
    Other,
}

impl Isp {
    /// All four major ISPs, in the order used for per-ISP capacity arrays.
    pub const MAJORS: [Isp; 4] = [Isp::Unicom, Isp::Telecom, Isp::Mobile, Isp::Cernet];

    /// Whether Xuanfeng has uploading servers inside this ISP.
    pub fn is_major(self) -> bool {
        !matches!(self, Isp::Other)
    }

    /// The lowercase ASCII name used wherever ISP names are stringified
    /// into metric keys and trace labels (`cloud.upload.admit.<name>`).
    /// Note `Cernet` displays as "CERNET" but keys stay lowercase.
    pub const fn lowercase_name(self) -> &'static str {
        match self {
            Isp::Unicom => "unicom",
            Isp::Telecom => "telecom",
            Isp::Mobile => "mobile",
            Isp::Cernet => "cernet",
            Isp::Other => "other",
        }
    }

    /// Index into per-major-ISP arrays; `None` for [`Isp::Other`].
    pub fn major_index(self) -> Option<usize> {
        match self {
            Isp::Unicom => Some(0),
            Isp::Telecom => Some(1),
            Isp::Mobile => Some(2),
            Isp::Cernet => Some(3),
            Isp::Other => None,
        }
    }
}

impl fmt::Display for Isp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Isp::Unicom => "Unicom",
            Isp::Telecom => "Telecom",
            Isp::Mobile => "Mobile",
            Isp::Cernet => "CERNET",
            Isp::Other => "Other",
        };
        f.write_str(name)
    }
}

/// The ISP mix of the user population.
///
/// Calibrated so that the share of users outside the four majors matches the
/// paper's 9.6 % of fetch processes limited by the ISP barrier (§4.2); the
/// split among the majors follows their rough 2015 fixed-broadband market
/// shares.
#[derive(Debug, Clone, Copy)]
pub struct IspMix {
    /// `(isp, probability)` rows; probabilities sum to 1.
    pub shares: [(Isp, f64); 5],
}

impl Default for IspMix {
    fn default() -> Self {
        IspMix {
            shares: [
                (Isp::Telecom, 0.42),
                (Isp::Unicom, 0.28),
                (Isp::Mobile, 0.15),
                (Isp::Cernet, 0.054),
                (Isp::Other, 0.096),
            ],
        }
    }
}

impl IspMix {
    /// The default mix with CERNET pinned to `cernet` and every other ISP
    /// rescaled proportionally, so the shares still sum to 1. `cernet` must
    /// lie in `[0, 1)` — `odx-config` validates this before any scenario
    /// reaches here.
    pub fn with_cernet_share(cernet: f64) -> IspMix {
        let mut mix = IspMix::default();
        let old_cernet: f64 =
            mix.shares.iter().filter(|(isp, _)| *isp == Isp::Cernet).map(|(_, s)| s).sum();
        let rescale = (1.0 - cernet) / (1.0 - old_cernet);
        for (isp, share) in &mut mix.shares {
            *share = if *isp == Isp::Cernet { cernet } else { *share * rescale };
        }
        mix
    }

    /// Sample a user's ISP.
    pub fn sample(&self, rng: &mut dyn Rng) -> Isp {
        let mut u = u01(rng);
        for (isp, share) in self.shares {
            if u < share {
                return isp;
            }
            u -= share;
        }
        self.shares[0].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_mix_sums_to_one() {
        let total: f64 = IspMix::default().shares.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn outside_majors_matches_paper() {
        // 9.6 % of fetches are limited by the ISP barrier (§4.2).
        let mix = IspMix::default();
        let outside: f64 =
            mix.shares.iter().filter(|(isp, _)| !isp.is_major()).map(|(_, s)| s).sum();
        assert!((outside - 0.096).abs() < 1e-12);
    }

    #[test]
    fn sampling_tracks_shares() {
        let mix = IspMix::default();
        let mut rng = StdRng::seed_from_u64(20);
        let n = 100_000;
        let mut other = 0;
        for _ in 0..n {
            if mix.sample(&mut rng) == Isp::Other {
                other += 1;
            }
        }
        let frac = other as f64 / n as f64;
        assert!((frac - 0.096).abs() < 0.005, "{frac}");
    }

    #[test]
    fn major_indexing_is_consistent() {
        for (i, isp) in Isp::MAJORS.iter().enumerate() {
            assert_eq!(isp.major_index(), Some(i));
            assert!(isp.is_major());
        }
        assert_eq!(Isp::Other.major_index(), None);
        assert!(!Isp::Other.is_major());
    }

    #[test]
    fn display_names() {
        assert_eq!(Isp::Cernet.to_string(), "CERNET");
        assert_eq!(Isp::Unicom.to_string(), "Unicom");
    }

    #[test]
    fn lowercase_names_match_display_except_cernet() {
        for isp in [Isp::Unicom, Isp::Telecom, Isp::Mobile, Isp::Other] {
            assert_eq!(isp.lowercase_name(), isp.to_string().to_lowercase());
        }
        // CERNET's metric key has always been lowercase despite the
        // all-caps display name.
        assert_eq!(Isp::Cernet.lowercase_name(), "cernet");
        assert_eq!(Isp::Cernet.lowercase_name(), Isp::Cernet.to_string().to_lowercase());
    }
}
