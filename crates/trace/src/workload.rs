//! Request-stream generation over the measurement week.

use odx_sim::SimTime;
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

/// Streaming, chunked expansion of the catalog's ground-truth weekly
/// counts into requests, in generation (file-major) order.
///
/// The stream draws from the RNG in exactly the order the old eager loop
/// did — per request: the arrival-time rejection sampler first, then the
/// user index — so any consumer that drains it reproduces
/// [`Workload::generate`]'s request sequence byte for byte (pinned under
/// test). Consumers that don't need the whole week at once (admission
/// pipelines, samplers) can process one bounded chunk at a time instead of
/// materializing millions of requests up front.
pub struct RequestStream<'a, 'r> {
    catalog: &'a Catalog,
    population: &'a Population,
    cfg: &'a WorkloadConfig,
    rng: &'r mut dyn Rng,
    max_intensity: f64,
    file_idx: usize,
    emitted_for_file: u32,
}

impl<'a, 'r> RequestStream<'a, 'r> {
    /// A stream over the whole catalog, starting at the first file.
    pub fn new(
        catalog: &'a Catalog,
        population: &'a Population,
        cfg: &'a WorkloadConfig,
        rng: &'r mut dyn Rng,
    ) -> Self {
        let max_intensity =
            cfg.day_weights.iter().fold(0.0f64, |a, &b| a.max(b)) * (1.0 + cfg.diurnal_amplitude);
        RequestStream {
            catalog,
            population,
            cfg,
            rng,
            max_intensity,
            file_idx: 0,
            emitted_for_file: 0,
        }
    }

    /// Clear `buf` and fill it with up to `max` requests in generation
    /// order. Returns `false` (with `buf` empty) once the stream is
    /// exhausted. The buffer is caller-owned so a full drain allocates one
    /// chunk, not one `Vec` per call.
    pub fn next_chunk(&mut self, buf: &mut Vec<Request>, max: usize) -> bool {
        buf.clear();
        while buf.len() < max && self.file_idx < self.catalog.len() {
            let file = self.catalog.file(self.file_idx as u32);
            if self.emitted_for_file >= file.weekly_requests {
                self.file_idx += 1;
                self.emitted_for_file = 0;
                continue;
            }
            self.emitted_for_file += 1;
            let at = sample_arrival(self.cfg, self.max_intensity, self.rng);
            buf.push(Request {
                user: self.population.sample_index(self.rng),
                file: self.file_idx as u32,
                at,
            });
        }
        !buf.is_empty()
    }
}

/// Requests per [`RequestStream`] chunk during workload generation.
const GENERATE_CHUNK: usize = 65_536;

/// The generated request stream, sorted by arrival time.
#[derive(Debug, Clone)]
pub struct Workload {
    requests: Vec<Request>,
}

impl Workload {
    /// Expand the catalog's ground-truth weekly counts into timestamped
    /// requests assigned to random users. Deterministic in `rng`.
    ///
    /// Generation flows through the chunked [`RequestStream`] (one bounded
    /// buffer at a time) and a final stable sort by arrival time — the
    /// request sequence is byte-identical to the old eager file-major
    /// loop. The sorted array itself stays materialized: replay handlers,
    /// trace exporters, and samplers index it randomly, and at 16 bytes a
    /// request even the full-scale week is ~65 MB — the multi-hundred-MB
    /// cost the streaming path eliminates is the up-front event-queue
    /// population, which now streams through chunked admission instead.
    pub fn generate(
        catalog: &Catalog,
        population: &Population,
        cfg: &WorkloadConfig,
        rng: &mut dyn Rng,
    ) -> Self {
        let mut requests = Vec::with_capacity(catalog.total_requests() as usize);
        let mut stream = RequestStream::new(catalog, population, cfg, rng);
        let mut chunk = Vec::with_capacity(GENERATE_CHUNK.min(requests.capacity()));
        while stream.next_chunk(&mut chunk, GENERATE_CHUNK) {
            requests.extend_from_slice(&chunk);
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

/// Rejection-sample an arrival time across the week according to the
/// intensity profile.
fn sample_arrival(cfg: &WorkloadConfig, max_intensity: f64, rng: &mut dyn Rng) -> SimTime {
    loop {
        let t = SimTime::from_millis((u01(rng) * crate::WEEK.as_millis() as f64) as u64);
        if u01(rng) * max_intensity <= cfg.intensity(t) {
            return t;
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

    #[test]
    fn chunked_stream_matches_the_eager_loop_byte_for_byte() {
        let mut rng = StdRng::seed_from_u64(60);
        let catalog = Catalog::generate(&CatalogConfig::scaled(0.02), &mut rng);
        let population = Population::generate(&PopulationConfig::scaled(0.02), &mut rng);
        let cfg = WorkloadConfig::default();

        // The pre-streaming implementation: one eager file-major pass.
        let mut eager_rng = rng.clone();
        let mut generate_rng = rng.clone();
        let max_intensity =
            cfg.day_weights.iter().fold(0.0f64, |a, &b| a.max(b)) * (1.0 + cfg.diurnal_amplitude);
        let mut eager = Vec::new();
        for (file_idx, file) in catalog.files().iter().enumerate() {
            for _ in 0..file.weekly_requests {
                let at = sample_arrival(&cfg, max_intensity, &mut eager_rng);
                eager.push(Request {
                    user: population.sample_index(&mut eager_rng),
                    file: file_idx as u32,
                    at,
                });
            }
        }

        // Drain the stream with a deliberately awkward chunk size so
        // chunk boundaries land mid-file.
        let mut streamed = Vec::new();
        let mut stream = RequestStream::new(&catalog, &population, &cfg, &mut rng);
        let mut chunk = Vec::new();
        while stream.next_chunk(&mut chunk, 7) {
            assert!(chunk.len() <= 7);
            streamed.extend_from_slice(&chunk);
        }
        assert_eq!(streamed, eager);

        // And Workload::generate is exactly the stable sort of that
        // generation-order sequence.
        let mut sorted = eager;
        sorted.sort_by_key(|r| r.at);
        let w = Workload::generate(&catalog, &population, &cfg, &mut generate_rng);
        assert_eq!(w.requests(), &sorted[..]);
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
