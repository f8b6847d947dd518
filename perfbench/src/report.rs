//! What one run reports: operation counts, metrics, and the fingerprint
//! lines printed beside them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The end-to-end metrics, measured with every observer off. Every
/// workload reports all of them (see `README.md` for what each means on
/// the week replay and on the `/decide` service).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of the traced run, named `<layer>.<metric>`
/// after the workspace crates. A layer a workload does not exercise
/// reports 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("trace.catalog_s", "s"),
    ("trace.population_s", "s"),
    ("trace.workload_s", "s"),
    ("sim.events", "count"),
    ("sim.pop_s", "s"),
    ("sim.pop_ns", "ns"),
    ("sim.other_s", "s"),
    ("cloud.arrive_s", "s"),
    ("cloud.arrive_events", "count"),
    ("cloud.fetch_begin_s", "s"),
    ("cloud.fetch_begin_events", "count"),
    ("cloud.fetch_end_s", "s"),
    ("cloud.fetch_end_events", "count"),
    ("cloud.predl_done_s", "s"),
    ("cloud.predl_done_events", "count"),
    ("cloud.retry_predl_s", "s"),
    ("cloud.retry_predl_events", "count"),
    ("cloud.hit_ratio", "ratio"),
    ("cloud.failure_ratio", "ratio"),
    ("cloud.reject_ratio", "ratio"),
    ("cloud.retry_rescue_ratio", "ratio"),
    ("cache.lookup_ns", "ns"),
    ("cache.insert_ns", "ns"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("faults.compile_s", "s"),
    ("faults.active_ns", "ns"),
    ("faults.windows", "count"),
    ("telemetry.profile_overhead", "ratio"),
    ("telemetry.series_overhead", "ratio"),
    ("proto.handle_us", "us"),
    ("proto.read_us", "us"),
    ("proto.write_us", "us"),
    ("proto.wire_us", "us"),
    ("proto.wire_p90_ms", "ms"),
    ("proto.wire_p99_ms", "ms"),
    ("config.json_parse_us", "us"),
    ("config.json_encode_us", "us"),
    ("odr.decide_ns", "ns"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.unsent", "count"),
];

/// The outcome of one run.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: BTreeMap<String, (f64, String)>,
    info: Vec<(String, f64, String)>,
    digest: Option<String>,
}

impl Report {
    /// Count one operation, failed when `errors` is non-empty.
    pub fn op(&mut self, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            self.errors.extend(errors);
        }
    }

    /// Count `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Record a failure that is not tied to one operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.attempted = self.attempted.max(self.failed);
        self.errors.push(message);
    }

    /// Keep the message of a failure already counted.
    pub fn note_error(&mut self, message: String) {
        self.errors.push(message);
    }

    /// A metric recorded earlier in this run (0 when absent).
    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |m| m.0)
    }

    /// Record a reported metric (end-to-end or per-layer, by mode).
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.insert(name.to_string(), (value, unit.to_string()));
    }

    /// Record a printed-only line: the simulated fingerprint, the
    /// per-workload names of the end-to-end metrics, and other context.
    pub fn info(&mut self, name: &str, value: f64, unit: &str) {
        self.info.push((name.to_string(), value, unit.to_string()));
    }

    /// Record the digest of the deterministic metric snapshot; runs of one
    /// workload and seed must agree on it.
    pub fn digest(&mut self, digest: String) {
        self.digest = Some(digest);
    }

    /// Print the human-readable lines, then one JSON object as the last
    /// line of standard output. A metric the mode expects but the run did
    /// not measure is an error for end-to-end metrics and 0 (layer not
    /// exercised) for per-layer metrics.
    pub fn finish(mut self, trace: bool) {
        let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for name in self.metrics.keys() {
            assert!(
                expected.iter().any(|(n, _)| n == name),
                "metric {name} is not declared for this mode"
            );
        }
        for (name, unit) in expected {
            if !self.metrics.contains_key(*name) {
                self.metric(name, if trace { 0.0 } else { f64::NAN }, unit);
            }
        }
        let not_finite: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, (v, _))| !v.is_finite())
            .map(|(n, _)| n.clone())
            .collect();
        for name in not_finite {
            self.fail(format!("metric {name} is not a finite number"));
        }
        for (name, value, unit) in &self.info {
            println!("  {name:<28} {value:>16.6} {unit}");
        }
        for (name, unit) in expected {
            println!("  {name:<28} {:>16.6} {unit}", self.metrics[*name].0);
        }
        for error in &self.errors {
            println!("  error: {error}");
        }
        let mut out = String::new();
        let _ = write!(out, "{{\"attempted\":{},\"failed\":{}", self.attempted, self.failed);
        match &self.digest {
            Some(d) => {
                let _ = write!(out, ",\"digest\":\"{d}\"");
            }
            None => out.push_str(",\"digest\":null"),
        }
        out.push_str(",\"metrics\":{");
        for (i, (name, unit)) in expected.iter().enumerate() {
            let value = self.metrics[*name].0;
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}");
        }
        out.push_str("}}");
        println!("{out}");
    }
}

/// FNV-1a 64-bit digest, rendered as hex.
pub fn fnv64(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Median of `values` (sorted in place): the middle value, or the mean of
/// the middle two; NaN when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank quantile `q` of `values` (sorted in place); NaN when
/// empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}
