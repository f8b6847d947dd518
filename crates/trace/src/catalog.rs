//! The file catalog: sizes, types, protocols, and weekly popularity.

use odx_stats::dist::{u01, BoundedPareto, DiscretePowerLaw, Dist, LogNormal, LogUniform};
use rand::Rng;

use crate::file::{FileId, FileMeta, FileType, PopularityClass, Protocol};

/// Calibration knobs of the catalog generator. Defaults reproduce §3.
#[derive(Debug, Clone, Copy)]
pub struct CatalogConfig {
    /// Number of unique files to generate.
    pub files: usize,
    /// Probability a file belongs to the small-file mass (< 8 MB): demo
    /// videos, pictures, documents, small packages. Fig 5: 25 %.
    pub small_fraction: f64,
    /// Median (MB) and log-sigma of the small-file size component.
    pub small_median_mb: f64,
    /// Log-sigma of the small-file component.
    pub small_sigma: f64,
    /// Median (MB) and log-sigma of the large-file body. Chosen so the
    /// overall median is 115 MB and the overall mean ≈ 390 MB.
    pub large_median_mb: f64,
    /// Log-sigma of the large-file body.
    pub large_sigma: f64,
    /// Smallest possible file (Fig 5's 4-byte minimum), in MB.
    pub min_mb: f64,
    /// Cap at the 4 GB maximum of Fig 5 (BitTorrent piece-table era limits).
    pub max_mb: f64,
    /// Fraction of files that are highly popular (> 84 requests/week).
    pub highly_popular_files: f64,
    /// Fraction of files that are popular (7–84 requests/week).
    pub popular_files: f64,
    /// Target mean weekly count of a highly popular file: 39 % of requests
    /// over 0.84 % of files ⇒ ≈ 336 requests/week. The truncated-Pareto
    /// shape is solved from this so the request-share calibration is
    /// independent of the tail cap.
    pub hot_mean_weekly: f64,
    /// Upper bound for a single file's weekly count. Scaled catalogs shrink
    /// this proportionally (a 5 %-scale service has 5 % of the audience), so
    /// no single file dominates a small catalog's request volume.
    pub max_weekly_requests: f64,
    /// Exponent of the discrete power law for unpopular weekly counts.
    pub unpopular_exponent: f64,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            files: crate::PAPER_UNIQUE_FILES,
            small_fraction: 0.25,
            small_median_mb: 1.2,
            small_sigma: 1.6,
            large_median_mb: 209.0,
            large_sigma: 1.35,
            min_mb: 4e-6,
            max_mb: 4096.0,
            highly_popular_files: 0.0084,
            popular_files: 0.0596,
            hot_mean_weekly: 336.0,
            max_weekly_requests: 60_000.0,
            unpopular_exponent: 0.8,
        }
    }
}

impl CatalogConfig {
    /// A catalog scaled to `scale` × the paper's size (0 < scale ≤ 1 for
    /// tests, 1.0 for the full repro).
    pub fn scaled(scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        CatalogConfig {
            files: ((crate::PAPER_UNIQUE_FILES as f64 * scale) as usize).max(100),
            max_weekly_requests: (60_000.0 * scale).clamp(1_500.0, 60_000.0),
            ..CatalogConfig::default()
        }
    }
}

/// The generated file population.
#[derive(Debug, Clone)]
pub struct Catalog {
    files: Vec<FileMeta>,
    total_requests: u64,
}

impl Catalog {
    /// Generate a catalog from the config. Deterministic in `rng`.
    pub fn generate(cfg: &CatalogConfig, rng: &mut dyn Rng) -> Self {
        let small_size = LogNormal::from_median(cfg.small_median_mb, cfg.small_sigma);
        let large_size = LogNormal::from_median(cfg.large_median_mb, cfg.large_sigma);
        let hot_alpha =
            BoundedPareto::solve_alpha(85.0, cfg.max_weekly_requests, cfg.hot_mean_weekly);
        let hot_counts = BoundedPareto::new(hot_alpha, 85.0, cfg.max_weekly_requests);
        let popular_counts = LogUniform::new(
            PopularityClass::POPULAR_MIN as f64,
            PopularityClass::POPULAR_MAX as f64,
        );
        let unpopular_counts = DiscretePowerLaw::new(
            1,
            (PopularityClass::POPULAR_MIN - 1) as u64,
            cfg.unpopular_exponent,
        );

        // Exact class sizes (not Bernoulli draws): the paper's file shares
        // (0.84 % / 5.96 % / 93.2 %) are population facts, and exactness
        // keeps the request-share calibration stable at small scales.
        let n_hot = ((cfg.files as f64) * cfg.highly_popular_files).round() as usize;
        let n_pop = ((cfg.files as f64) * cfg.popular_files).round() as usize;

        let mut files = Vec::with_capacity(cfg.files);
        let mut total_requests = 0u64;
        for i in 0..cfg.files {
            let small = u01(rng) < cfg.small_fraction;
            let size_mb = if small {
                // Strictly below the 8 MB boundary so Fig 5's "25 % of files
                // are smaller than 8 MB" holds after clamping.
                small_size.sample(rng).clamp(cfg.min_mb, 7.999)
            } else {
                large_size.sample(rng).clamp(8.0, cfg.max_mb)
            };
            let ftype = sample_type(small, rng);
            let protocol = sample_protocol(rng);
            let weekly_requests = if i < n_hot {
                hot_counts.sample(rng).round() as u32
            } else if i < n_hot + n_pop {
                popular_counts.sample(rng).round().clamp(7.0, 84.0) as u32
            } else {
                unpopular_counts.sample_int(rng) as u32
            };
            total_requests += u64::from(weekly_requests);
            files.push(FileMeta {
                id: FileId(((i as u128) << 64) | rng.next_u64() as u128),
                size_mb,
                ftype,
                protocol,
                weekly_requests,
            });
        }
        Catalog { files, total_requests }
    }

    /// All files.
    pub fn files(&self) -> &[FileMeta] {
        &self.files
    }

    /// Number of unique files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Look up a file by catalog index.
    pub fn file(&self, index: u32) -> &FileMeta {
        &self.files[index as usize]
    }

    /// Ground-truth total requests implied by the weekly counts.
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }

    /// `(file share, request share)` of a popularity class.
    pub fn class_shares(&self, class: PopularityClass) -> (f64, f64) {
        let files = self.files.iter().filter(|f| f.class() == class).count();
        let requests: u64 = self
            .files
            .iter()
            .filter(|f| f.class() == class)
            .map(|f| u64::from(f.weekly_requests))
            .sum();
        (files as f64 / self.files.len() as f64, requests as f64 / self.total_requests as f64)
    }

    /// Weekly counts as a vector (for rank-frequency fitting).
    pub fn weekly_counts(&self) -> Vec<u64> {
        self.files.iter().map(|f| u64::from(f.weekly_requests)).collect()
    }

    /// Sizes (MB) of all files (for the Fig 5 CDF, file-weighted as in the
    /// paper's "requested files").
    pub fn sizes_mb(&self) -> Vec<f64> {
        self.files.iter().map(|f| f.size_mb).collect()
    }
}

fn sample_type(small: bool, rng: &mut dyn Rng) -> FileType {
    let u = u01(rng);
    if small {
        // Demo videos, pictures, documents, small packages (§3).
        match u {
            u if u < 0.32 => FileType::Video,
            u if u < 0.62 => FileType::Software,
            u if u < 0.82 => FileType::Document,
            u if u < 0.95 => FileType::Image,
            _ => FileType::Other,
        }
    } else {
        // Large files are overwhelmingly videos; weights chosen so the
        // overall mix is 75 % video / 15 % software.
        match u {
            u if u < 0.8933 => FileType::Video,
            u if u < 0.9933 => FileType::Software,
            _ => FileType::Other,
        }
    }
}

fn sample_protocol(rng: &mut dyn Rng) -> Protocol {
    let u = u01(rng);
    match u {
        u if u < 0.68 => Protocol::BitTorrent,
        u if u < 0.87 => Protocol::EMule,
        u if u < 0.96 => Protocol::Http,
        _ => Protocol::Ftp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odx_stats::Ecdf;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn catalog() -> Catalog {
        let mut rng = StdRng::seed_from_u64(40);
        Catalog::generate(&CatalogConfig::scaled(0.1), &mut rng)
    }

    #[test]
    fn size_distribution_matches_fig5() {
        let c = catalog();
        let ecdf = Ecdf::new(c.sizes_mb());
        let s = ecdf.summary().unwrap();
        assert!((s.median - 115.0).abs() / 115.0 < 0.15, "median {}", s.median);
        assert!((s.mean - 390.0).abs() / 390.0 < 0.15, "mean {}", s.mean);
        assert!(s.max <= 4096.0);
        assert!(s.min >= 4e-6);
        let below_8mb = ecdf.fraction_below(8.0);
        assert!((below_8mb - 0.25).abs() < 0.03, "P[<8MB] = {below_8mb}");
    }

    #[test]
    fn type_mix_matches_section3() {
        let c = catalog();
        let video =
            c.files().iter().filter(|f| f.ftype == FileType::Video).count() as f64 / c.len() as f64;
        let software = c.files().iter().filter(|f| f.ftype == FileType::Software).count() as f64
            / c.len() as f64;
        assert!((video - 0.75).abs() < 0.03, "video {video}");
        assert!((software - 0.15).abs() < 0.02, "software {software}");
    }

    #[test]
    fn protocol_mix_matches_section3() {
        let c = catalog();
        let n = c.len() as f64;
        let bt = c.files().iter().filter(|f| f.protocol == Protocol::BitTorrent).count() as f64 / n;
        let emule = c.files().iter().filter(|f| f.protocol == Protocol::EMule).count() as f64 / n;
        let p2p = c.files().iter().filter(|f| f.protocol.is_p2p()).count() as f64 / n;
        assert!((bt - 0.68).abs() < 0.02, "bt {bt}");
        assert!((emule - 0.19).abs() < 0.02, "emule {emule}");
        assert!((p2p - 0.87).abs() < 0.02, "p2p {p2p}");
    }

    #[test]
    fn popularity_classes_match_section4() {
        let c = catalog();
        let (uf, ur) = c.class_shares(PopularityClass::Unpopular);
        let (hf, hr) = c.class_shares(PopularityClass::HighlyPopular);
        // Files: 93.2 % unpopular, 0.84 % highly popular.
        assert!((uf - 0.932).abs() < 0.01, "unpopular files {uf}");
        assert!((hf - 0.0084).abs() < 0.003, "highly popular files {hf}");
        // Requests: 36 % to unpopular, 39 % to highly popular.
        assert!((ur - 0.36).abs() < 0.05, "unpopular requests {ur}");
        assert!((hr - 0.39).abs() < 0.07, "highly popular requests {hr}");
    }

    #[test]
    fn total_requests_track_paper_scale() {
        let c = catalog();
        // 10 % scale of 4.08 M ≈ 408 k, within a generous band.
        let total = c.total_requests() as f64;
        assert!((total - 408_441.0).abs() / 408_441.0 < 0.25, "total {total}");
    }

    #[test]
    fn ids_are_unique() {
        let c = catalog();
        let mut ids: Vec<u128> = c.files().iter().map(|f| f.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), c.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let mut rng1 = StdRng::seed_from_u64(41);
        let mut rng2 = StdRng::seed_from_u64(41);
        let cfg = CatalogConfig::scaled(0.01);
        let a = Catalog::generate(&cfg, &mut rng1);
        let b = Catalog::generate(&cfg, &mut rng2);
        assert_eq!(a.files()[..50], b.files()[..50]);
        assert_eq!(a.total_requests(), b.total_requests());
    }
}
