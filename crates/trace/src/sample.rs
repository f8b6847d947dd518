//! The §5.1 benchmark sampling procedure.
//!
//! "We randomly sample 1000 real offline downloading requests issued by
//! Unicom users in the workload trace … Each selected request record should
//! contain the user's access bandwidth information." The replay then ignores
//! user ID, IP and request time, but reuses access bandwidth, file type,
//! file size, source link and protocol.

use odx_stats::dist::u01;
use rand::Rng;

use crate::file::{FileType, PopularityClass, Protocol};
use crate::{Catalog, Isp, Population, Workload};

/// One sampled request, carrying exactly the fields §5.1 says the replay
/// reuses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledRequest {
    /// The sampled user's home ISP (always Unicom for the §5.1 benchmark
    /// sample; the user's real ISP for the §6.2 unbiased evaluation sample).
    pub isp: Isp,
    /// The sampled user's recorded access bandwidth (KBps) — the replay
    /// restricts the AP's pre-download speed to this.
    pub access_kbps: f64,
    /// File type.
    pub file_type: FileType,
    /// File size (MB).
    pub size_mb: f64,
    /// File-transfer protocol.
    pub protocol: Protocol,
    /// Ground-truth popularity of the requested file (requests/week) — used
    /// by the simulators and by ODR's content-DB lookups.
    pub weekly_requests: u32,
    /// Catalog index of the file (for content-DB queries).
    pub file_index: u32,
}

impl SampledRequest {
    /// Popularity class of the requested file.
    pub fn class(&self) -> PopularityClass {
        PopularityClass::of(self.weekly_requests)
    }
}

/// Draw `n` requests uniformly from the workload with no ISP restriction —
/// the "unbiased sample of Xuanfeng users' offline downloading requests"
/// that §1/§6.2 evaluate ODR on. Requests must carry access-bandwidth
/// information (ODR asks the user for it).
pub fn sample_eval_workload(
    workload: &Workload,
    catalog: &Catalog,
    population: &Population,
    n: usize,
    rng: &mut dyn Rng,
) -> Vec<SampledRequest> {
    sample_filtered(workload, catalog, population, n, rng, |u| u.reports_bandwidth)
}

/// Draw `n` requests uniformly from the workload, restricted to Unicom users
/// that report access bandwidth. Panics if the workload has no eligible
/// requests.
pub fn sample_benchmark_workload(
    workload: &Workload,
    catalog: &Catalog,
    population: &Population,
    n: usize,
    rng: &mut dyn Rng,
) -> Vec<SampledRequest> {
    sample_filtered(workload, catalog, population, n, rng, |u| {
        u.isp == Isp::Unicom && u.reports_bandwidth
    })
}

fn sample_filtered(
    workload: &Workload,
    catalog: &Catalog,
    population: &Population,
    n: usize,
    rng: &mut dyn Rng,
    eligible_user: impl Fn(&crate::User) -> bool,
) -> Vec<SampledRequest> {
    let eligible: Vec<&crate::Request> =
        workload.requests().iter().filter(|r| eligible_user(population.user(r.user))).collect();
    assert!(!eligible.is_empty(), "no eligible requests to sample");

    (0..n)
        .map(|_| {
            let r = eligible[(u01(rng) * eligible.len() as f64) as usize % eligible.len()];
            let user = population.user(r.user);
            let file = catalog.file(r.file);
            SampledRequest {
                isp: user.isp,
                access_kbps: user.access_kbps,
                file_type: file.ftype,
                size_mb: file.size_mb,
                protocol: file.protocol,
                weekly_requests: file.weekly_requests,
                file_index: r.file,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CatalogConfig, PopulationConfig, WorkloadConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sampled() -> (Catalog, Vec<SampledRequest>) {
        let mut rng = StdRng::seed_from_u64(70);
        let catalog = Catalog::generate(&CatalogConfig::scaled(0.02), &mut rng);
        let population = Population::generate(&PopulationConfig::scaled(0.02), &mut rng);
        let workload =
            Workload::generate(&catalog, &population, &WorkloadConfig::default(), &mut rng);
        let sample = sample_benchmark_workload(&workload, &catalog, &population, 1000, &mut rng);
        (catalog, sample)
    }

    #[test]
    fn sample_has_requested_size() {
        let (_, s) = sampled();
        assert_eq!(s.len(), 1000);
    }

    #[test]
    fn sample_reflects_request_level_popularity_mix() {
        // §5.2 relies on ~36 % of sampled requests being for unpopular files
        // (requests, not files, so the mix matches request shares).
        let (_, s) = sampled();
        let unpopular = s.iter().filter(|r| r.class() == PopularityClass::Unpopular).count() as f64
            / s.len() as f64;
        let highly = s.iter().filter(|r| r.class() == PopularityClass::HighlyPopular).count()
            as f64
            / s.len() as f64;
        assert!((unpopular - 0.36).abs() < 0.08, "unpopular {unpopular}");
        assert!((highly - 0.39).abs() < 0.09, "highly popular {highly}");
    }

    #[test]
    fn sample_fields_match_catalog() {
        let (catalog, s) = sampled();
        for r in &s {
            let f = catalog.file(r.file_index);
            assert_eq!(r.size_mb, f.size_mb);
            assert_eq!(r.protocol, f.protocol);
            assert_eq!(r.weekly_requests, f.weekly_requests);
        }
    }

    #[test]
    fn access_bandwidth_is_present_and_positive() {
        let (_, s) = sampled();
        assert!(s.iter().all(|r| r.access_kbps > 0.0));
    }
}
