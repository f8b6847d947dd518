//! Request-stream generation over the measurement week.

use odx_sim::{SimDuration, SimTime};
use odx_stats::dist::u01;
use rand::Rng;

use crate::{Catalog, Population};

/// One offline-downloading request: who wants which file, when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Index into the [`Population`].
    pub user: u32,
    /// Index into the [`Catalog`].
    pub file: u32,
    /// Request arrival time.
    pub at: SimTime,
}

/// Temporal shape of the request stream.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Relative volume per day of the week. The paper's Fig 11 shows load
    /// growing through the week and peaking on day 7 (when the 30 Gbps
    /// upload capacity was exceeded).
    pub day_weights: [f64; 7],
    /// Amplitude of the diurnal sinusoid (0 = flat, 1 = full swing).
    pub diurnal_amplitude: f64,
    /// Hour of day (0–24) of the diurnal peak; Chinese residential traffic
    /// peaks in the evening.
    pub diurnal_peak_hour: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            day_weights: [0.86, 0.89, 0.92, 0.96, 1.02, 1.08, 1.28],
            diurnal_amplitude: 0.70,
            diurnal_peak_hour: 21.0,
        }
    }
}

impl WorkloadConfig {
    /// Relative intensity at an instant (product of day weight and diurnal
    /// factor); used by the arrival sampler and tests.
    pub fn intensity(&self, at: SimTime) -> f64 {
        let day = (at.day() as usize).min(6);
        let hour = at.time_of_day().as_secs_f64() / 3600.0;
        let phase = (hour - self.diurnal_peak_hour) / 24.0 * std::f64::consts::TAU;
        self.day_weights[day] * (1.0 + self.diurnal_amplitude * phase.cos())
    }
}

/// The generated request stream, sorted by arrival time.
#[derive(Debug, Clone)]
pub struct Workload {
    requests: Vec<Request>,
}

impl Workload {
    /// Expand the catalog's ground-truth weekly counts into timestamped
    /// requests assigned to random users. Deterministic in `rng`.
    ///
    /// Requests are drawn file by file (per request: the arrival-time
    /// rejection sampler, then the user index) into one presized vector,
    /// then stably sorted by arrival time. The array stays materialized:
    /// replay handlers, trace exporters and samplers index it randomly, and
    /// at 16 bytes a request the full-scale week is ~65 MB.
    pub fn generate(
        catalog: &Catalog,
        population: &Population,
        cfg: &WorkloadConfig,
        rng: &mut dyn Rng,
    ) -> Self {
        let sampler = ArrivalSampler::new(cfg);
        let mut requests = Vec::with_capacity(catalog.total_requests() as usize);
        for (file, meta) in catalog.files().iter().enumerate() {
            for _ in 0..meta.weekly_requests {
                let at = sampler.sample(rng);
                requests.push(Request {
                    user: population.sample_index(rng),
                    file: file as u32,
                    at,
                });
            }
        }
        requests.sort_by_key(|r| r.at);
        Workload { requests }
    }

    /// The requests, sorted by time.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

/// Width of one [`ArrivalSampler`] bucket. It divides a day, so the day
/// weight is constant within a bucket.
const BUCKET_MS: u64 = 60_000;

/// Rejection sampler for arrival times across the week, following the
/// intensity profile.
///
/// A trial draws a uniform instant `t` and a uniform level `u` below the
/// profile's maximum, and accepts `t` when `u <= cfg.intensity(t)`. Most
/// trials are decided without the `cos` by a squeeze: per 60 s bucket of
/// the week, `bounds` holds `(lo, hi)` with `lo <= cfg.intensity(t) <= hi`
/// for every millisecond `t` in the bucket, as computed in floating point.
/// `u <= lo` accepts, `u > hi` rejects, and anything else (NaN included)
/// falls through to the exact comparison, so every decision and every RNG
/// draw is the one the plain loop makes.
struct ArrivalSampler<'a> {
    cfg: &'a WorkloadConfig,
    max_intensity: f64,
    bounds: Vec<(f64, f64)>,
}

impl<'a> ArrivalSampler<'a> {
    fn new(cfg: &'a WorkloadConfig) -> Self {
        let max_intensity =
            cfg.day_weights.iter().fold(0.0f64, |a, &b| a.max(b)) * (1.0 + cfg.diurnal_amplitude);
        let amplitude = cfg.diurnal_amplitude.abs();
        // The diurnal term moves at most |w| · |a| · 2π / day per ms, so
        // over one bucket the exact profile strays at most this far from
        // its value at the bucket start.
        let day_ms = SimDuration::from_days(1).as_millis() as f64;
        let drift = amplitude * std::f64::consts::TAU * BUCKET_MS as f64 / day_ms;
        // Rounding in `intensity` (the phase grows with |peak hour|) and in
        // the bounds themselves stays far below this slack; the absolute
        // `MIN_POSITIVE` covers rounding among subnormal weights.
        let slack = 1e-12 * (1.0 + amplitude) * (1.0 + cfg.diurnal_peak_hour.abs());
        let bounds = (0..crate::WEEK.as_millis() / BUCKET_MS)
            .map(|b| {
                let start = SimTime::from_millis(b * BUCKET_MS);
                let weight = cfg.day_weights[(start.day() as usize).min(6)].abs();
                let at_start = cfg.intensity(start);
                let margin = weight * (drift + slack) + f64::MIN_POSITIVE;
                (at_start - margin, at_start + margin)
            })
            .collect();
        ArrivalSampler { cfg, max_intensity, bounds }
    }

    /// Draw one arrival time: per trial, the instant first, then the level.
    fn sample(&self, rng: &mut dyn Rng) -> SimTime {
        loop {
            let t = SimTime::from_millis((u01(rng) * crate::WEEK.as_millis() as f64) as u64);
            let u = u01(rng) * self.max_intensity;
            if let Some(&(lo, hi)) = self.bounds.get((t.as_millis() / BUCKET_MS) as usize) {
                if u <= lo {
                    return t;
                }
                if u > hi {
                    continue;
                }
            }
            if u <= self.cfg.intensity(t) {
                return t;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CatalogConfig, PopulationConfig};
    use odx_sim::SimDuration;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload() -> (Catalog, Population, Workload) {
        let mut rng = StdRng::seed_from_u64(60);
        let catalog = Catalog::generate(&CatalogConfig::scaled(0.02), &mut rng);
        let population = Population::generate(&PopulationConfig::scaled(0.02), &mut rng);
        let w = Workload::generate(&catalog, &population, &WorkloadConfig::default(), &mut rng);
        (catalog, population, w)
    }

    /// The sampler as it was before the squeeze, kept verbatim as the
    /// reference [`ArrivalSampler`] must reproduce draw for draw.
    fn reference_sample_arrival(
        cfg: &WorkloadConfig,
        max_intensity: f64,
        rng: &mut dyn Rng,
    ) -> SimTime {
        loop {
            let t = SimTime::from_millis((u01(rng) * crate::WEEK.as_millis() as f64) as u64);
            if u01(rng) * max_intensity <= cfg.intensity(t) {
                return t;
            }
        }
    }

    /// The reference generator: one eager file-major pass over the plain
    /// sampler, then a stable sort by arrival time.
    fn reference_generate(
        catalog: &Catalog,
        population: &Population,
        cfg: &WorkloadConfig,
        rng: &mut dyn Rng,
    ) -> Vec<Request> {
        let max_intensity =
            cfg.day_weights.iter().fold(0.0f64, |a, &b| a.max(b)) * (1.0 + cfg.diurnal_amplitude);
        let mut eager = Vec::new();
        for (file_idx, file) in catalog.files().iter().enumerate() {
            for _ in 0..file.weekly_requests {
                let at = reference_sample_arrival(cfg, max_intensity, rng);
                eager.push(Request {
                    user: population.sample_index(rng),
                    file: file_idx as u32,
                    at,
                });
            }
        }
        eager.sort_by_key(|r| r.at);
        eager
    }

    /// The default profile and three that stress the squeeze: flat, full
    /// swing, and a midnight peak under non-monotone day weights.
    fn profiles() -> Vec<WorkloadConfig> {
        let default = WorkloadConfig::default();
        vec![
            default,
            WorkloadConfig { diurnal_amplitude: 0.0, ..default },
            WorkloadConfig { diurnal_amplitude: 1.0, ..default },
            WorkloadConfig {
                day_weights: [1.3, 0.4, 1.1, 0.2, 0.9, 1.5, 0.7],
                diurnal_amplitude: 0.55,
                diurnal_peak_hour: 0.0,
            },
        ]
    }

    #[test]
    fn squeeze_bounds_hold_across_every_bucket() {
        let mut rng = StdRng::seed_from_u64(61);
        for cfg in profiles() {
            let sampler = ArrivalSampler::new(&cfg);
            assert_eq!(sampler.bounds.len() as u64 * BUCKET_MS, crate::WEEK.as_millis());
            for (b, &(lo, hi)) in sampler.bounds.iter().enumerate() {
                let start = b as u64 * BUCKET_MS;
                let inside = (rng.next_u64() % BUCKET_MS) + start;
                for ms in [start, start + BUCKET_MS - 1, inside] {
                    let exact = cfg.intensity(SimTime::from_millis(ms));
                    assert!(lo <= exact && exact <= hi, "{cfg:?} at {ms} ms: {lo} {exact} {hi}");
                }
            }
        }
    }

    #[test]
    fn generate_matches_the_reference_loop_byte_for_byte() {
        let mut rng = StdRng::seed_from_u64(60);
        let catalog = Catalog::generate(&CatalogConfig::scaled(0.02), &mut rng);
        let population = Population::generate(&PopulationConfig::scaled(0.02), &mut rng);
        let skewed = profiles()[3];
        for cfg in [WorkloadConfig::default(), skewed] {
            let reference = reference_generate(&catalog, &population, &cfg, &mut rng.clone());
            let w = Workload::generate(&catalog, &population, &cfg, &mut rng.clone());
            assert_eq!(w.requests(), &reference[..], "{cfg:?}");
        }
    }

    #[test]
    fn request_count_matches_catalog_ground_truth() {
        let (catalog, _, w) = workload();
        assert_eq!(w.len() as u64, catalog.total_requests());
    }

    #[test]
    fn requests_sorted_and_within_week() {
        let (_, _, w) = workload();
        let mut prev = SimTime::ZERO;
        for r in w.requests() {
            assert!(r.at >= prev);
            assert!(r.at < SimTime::ZERO + crate::WEEK);
            prev = r.at;
        }
    }

    #[test]
    fn indices_are_valid() {
        let (catalog, population, w) = workload();
        for r in w.requests() {
            assert!((r.file as usize) < catalog.len());
            assert!((r.user as usize) < population.len());
        }
    }

    #[test]
    fn day7_is_the_busiest() {
        let (_, _, w) = workload();
        let mut per_day = [0usize; 7];
        for r in w.requests() {
            per_day[(r.at.day() as usize).min(6)] += 1;
        }
        let busiest = per_day.iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0;
        assert_eq!(busiest, 6, "per-day counts: {per_day:?}");
        // Growth through the week, loosely monotone.
        assert!(per_day[6] as f64 > per_day[0] as f64 * 1.15);
    }

    #[test]
    fn diurnal_shape_has_evening_peak() {
        let (_, _, w) = workload();
        let mut per_hour = [0usize; 24];
        for r in w.requests() {
            per_hour[(r.at.time_of_day().as_secs_f64() / 3600.0) as usize % 24] += 1;
        }
        let peak = per_hour.iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0;
        let trough = per_hour.iter().enumerate().min_by_key(|(_, &c)| c).unwrap().0;
        assert!((18..=23).contains(&peak), "peak hour {peak}");
        assert!((6..=12).contains(&trough), "trough hour {trough}");
    }

    #[test]
    fn intensity_profile_is_positive() {
        let cfg = WorkloadConfig::default();
        for h in 0..(24 * 7) {
            let t = SimTime::ZERO + SimDuration::from_hours(h);
            assert!(cfg.intensity(t) > 0.0);
        }
    }
}
