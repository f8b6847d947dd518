//! Virtual-time metric series.
//!
//! End-of-run snapshots answer *how much*; the paper's headline figures
//! answer *when* — diurnal request curves, per-ISP upload admissions over
//! the measured week, the cache hit ratio climbing as the pool warms. A
//! [`SeriesRecorder`] turns registered counters, gauges, and histogram
//! quantiles into curves by sampling them on a **virtual-clock** cadence
//! (default one sim-hour): the engine samples every due grid point
//! *before* dispatching the next event, so sample values depend only on
//! the deterministic event order, never on wall time, worker count, or
//! scheduler implementation.
//!
//! Storage is delta-encoded for counters (per-interval increments are the
//! curve shape the figures need; the running total is one prefix sum
//! away) and raw for gauges and quantiles. Exports are byte-stable:
//! same-seed runs, `--jobs 1` vs `--jobs 8` sweeps, and heap vs
//! timing-wheel schedulers all produce identical `series.json` /
//! `series.csv` bytes. Sweep shards each record privately and merge via
//! [`SeriesSet`], keyed `(scenario, seed)` — commutative and exact, the
//! same bar `Attribution` meets.
//!
//! The tiling-style invariant (property-tested in
//! `tests/series_determinism.rs`): [`SeriesRecorder::finish`] appends one
//! final sample at the end-of-run clock, so the last value of every
//! series equals the end-of-run snapshot value.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::export::{push_json_f64, push_json_str};
use crate::registry::{Counter, Gauge, HistogramHandle};

/// One tracked metric: where the value comes from at sample time.
enum Source {
    /// A monotonic counter; stored as per-interval deltas.
    Counter(Counter, u64),
    /// A gauge; stored raw.
    Gauge(Gauge),
    /// A histogram quantile (e.g. p50 fetch rate); stored raw.
    Quantile(HistogramHandle, f64),
}

struct Track {
    name: String,
    source: Source,
}

struct Inner {
    interval_ms: u64,
    /// Next due grid point (multiples of `interval_ms`).
    next_due_ms: u64,
    /// Shared time axis; one entry per sample, strictly increasing.
    times: Vec<u64>,
    tracks: Vec<Track>,
    columns: Vec<MetricSeries>,
    finished: bool,
}

/// Samples registered metrics on a virtual-clock grid and stores the
/// resulting per-metric series. Cloneable handle (shared interior), so
/// the engine, the world, and the caller can all hold it.
#[derive(Clone)]
pub struct SeriesRecorder {
    inner: Arc<Mutex<Inner>>,
}

/// One metric's sampled values, aligned with the recorder's time axis.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSeries {
    /// Per-interval counter increments (delta-encoded).
    Counter(Vec<u64>),
    /// Raw gauge values.
    Gauge(Vec<f64>),
    /// Raw quantile values with the quantile they were read at.
    Quantile(f64, Vec<u64>),
}

impl MetricSeries {
    /// The value the series ends at, decoded: counters sum their deltas
    /// back to the running total, gauges and quantiles take the last
    /// sample. `None` for an empty series.
    pub fn final_value(&self) -> Option<f64> {
        match self {
            MetricSeries::Counter(deltas) => {
                (!deltas.is_empty()).then(|| deltas.iter().sum::<u64>() as f64)
            }
            MetricSeries::Gauge(values) => values.last().copied(),
            MetricSeries::Quantile(_, values) => values.last().map(|&v| v as f64),
        }
    }

    fn len(&self) -> usize {
        match self {
            MetricSeries::Counter(v) => v.len(),
            MetricSeries::Gauge(v) => v.len(),
            MetricSeries::Quantile(_, v) => v.len(),
        }
    }

    fn push_value_json(&self, out: &mut String, i: usize) {
        match self {
            MetricSeries::Counter(v) => {
                let _ = write!(out, "{}", v[i]);
            }
            MetricSeries::Gauge(v) => push_json_f64(out, v[i]),
            MetricSeries::Quantile(_, v) => {
                let _ = write!(out, "{}", v[i]);
            }
        }
    }
}

/// An immutable copy of everything a [`SeriesRecorder`] sampled: the
/// shared time axis plus one [`MetricSeries`] per tracked metric, sorted
/// by name.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// The sampling cadence in virtual milliseconds.
    pub interval_ms: u64,
    /// Sample times (virtual ms), strictly increasing; the last entry is
    /// the end-of-run clock appended by [`SeriesRecorder::finish`].
    pub times: Vec<u64>,
    /// Per-metric series, name-sorted; every series has `times.len()`
    /// samples.
    pub series: BTreeMap<String, MetricSeries>,
}

impl SeriesSnapshot {
    /// The series as a compact JSON document — byte-stable for a given
    /// deterministic run (no wall-clock content at all).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + 16 * self.times.len() * (1 + self.series.len()));
        let _ = write!(out, "{{\"interval_ms\":{},\"times\":[", self.interval_ms);
        for (i, t) in self.times.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{t}");
        }
        out.push_str("],\"series\":{");
        for (i, (name, series)) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            out.push_str(":{\"kind\":");
            match series {
                MetricSeries::Counter(_) => out.push_str("\"counter_delta\""),
                MetricSeries::Gauge(_) => out.push_str("\"gauge\""),
                MetricSeries::Quantile(q, _) => {
                    let _ = write!(out, "\"quantile\",\"q\":{q}");
                }
            }
            out.push_str(",\"values\":[");
            for j in 0..series.len() {
                if j > 0 {
                    out.push(',');
                }
                series.push_value_json(&mut out, j);
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// The series as wide CSV: one `t_ms` column plus one column per
    /// metric (name-sorted), one row per sample. Counter columns hold the
    /// per-interval delta.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_ms");
        for name in self.series.keys() {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        for (i, t) in self.times.iter().enumerate() {
            let _ = write!(out, "{t}");
            for series in self.series.values() {
                out.push(',');
                match series {
                    MetricSeries::Counter(v) => {
                        let _ = write!(out, "{}", v[i]);
                    }
                    MetricSeries::Gauge(v) => {
                        let _ = write!(out, "{}", v[i]);
                    }
                    MetricSeries::Quantile(_, v) => {
                        let _ = write!(out, "{}", v[i]);
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

impl SeriesRecorder {
    /// A recorder sampling every `interval_ms` of virtual time. Panics on
    /// a zero interval (the grid would not advance).
    pub fn new(interval_ms: u64) -> SeriesRecorder {
        assert!(interval_ms > 0, "series interval must be positive");
        SeriesRecorder {
            inner: Arc::new(Mutex::new(Inner {
                interval_ms,
                next_due_ms: interval_ms,
                times: Vec::new(),
                tracks: Vec::new(),
                columns: Vec::new(),
                finished: false,
            })),
        }
    }

    /// The sampling cadence in virtual milliseconds.
    pub fn interval_ms(&self) -> u64 {
        self.lock().interval_ms
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn track(&self, name: &str, source: Source) {
        let mut inner = self.lock();
        assert!(
            inner.times.is_empty(),
            "register series metrics before sampling begins (metric {name:?})"
        );
        let column = match &source {
            Source::Counter(..) => MetricSeries::Counter(Vec::new()),
            Source::Gauge(_) => MetricSeries::Gauge(Vec::new()),
            Source::Quantile(_, q) => MetricSeries::Quantile(*q, Vec::new()),
        };
        inner.tracks.push(Track { name: name.to_string(), source });
        inner.columns.push(column);
    }

    /// Track a counter; its series stores per-interval increments.
    pub fn track_counter(&self, name: &str, counter: Counter) {
        self.track(name, Source::Counter(counter, 0));
    }

    /// Track a gauge; its series stores the raw value at each sample.
    pub fn track_gauge(&self, name: &str, gauge: Gauge) {
        self.track(name, Source::Gauge(gauge));
    }

    /// Track quantile `q` of a histogram (e.g. `0.5` for the median).
    pub fn track_quantile(&self, name: &str, histogram: HistogramHandle, q: f64) {
        self.track(name, Source::Quantile(histogram, q));
    }

    /// The next due grid point in virtual ms. The engine caches this and
    /// samples every due point strictly before dispatching an event at a
    /// later time.
    pub fn next_due_ms(&self) -> u64 {
        self.lock().next_due_ms
    }

    /// Take a grid sample at `self.next_due_ms()` and advance the grid.
    /// Returns the new next-due time so callers can refresh their cache.
    pub fn sample_due(&self) -> u64 {
        let mut inner = self.lock();
        let at = inner.next_due_ms;
        inner.next_due_ms = at + inner.interval_ms;
        let next = inner.next_due_ms;
        Self::record(&mut inner, at);
        next
    }

    /// Append the final sample at the end-of-run clock `at_ms` and seal
    /// the recorder; subsequent calls are no-ops. This sample makes the
    /// last value of every series equal the end-of-run snapshot value.
    pub fn finish(&self, at_ms: u64) {
        let mut inner = self.lock();
        let inner = &mut *inner;
        if inner.finished {
            return;
        }
        inner.finished = true;
        // The final clock can coincide with a grid point that already
        // sampled; re-sampling at the same timestamp would break the
        // strictly-increasing axis, so replace it instead.
        if inner.times.last() == Some(&at_ms) {
            inner.times.pop();
            for (column, track) in inner.columns.iter_mut().zip(inner.tracks.iter_mut()) {
                match (column, &mut track.source) {
                    (MetricSeries::Counter(v), Source::Counter(_, last)) => {
                        let dropped = v.pop().unwrap_or(0);
                        *last -= dropped;
                    }
                    (MetricSeries::Gauge(v), _) => {
                        v.pop();
                    }
                    (MetricSeries::Quantile(_, v), _) => {
                        v.pop();
                    }
                    _ => unreachable!("column kind always matches its source"),
                }
            }
        }
        Self::record(inner, at_ms);
    }

    fn record(inner: &mut Inner, at_ms: u64) {
        debug_assert!(inner.times.last().map_or(true, |&t| t < at_ms));
        inner.times.push(at_ms);
        for (track, column) in inner.tracks.iter_mut().zip(inner.columns.iter_mut()) {
            match (&mut track.source, column) {
                (Source::Counter(counter, last), MetricSeries::Counter(values)) => {
                    let now = counter.get();
                    values.push(now - *last);
                    *last = now;
                }
                (Source::Gauge(gauge), MetricSeries::Gauge(values)) => {
                    values.push(gauge.get());
                }
                (Source::Quantile(handle, q), MetricSeries::Quantile(_, values)) => {
                    values.push(handle.histogram().value_at_quantile(*q));
                }
                _ => unreachable!("column kind always matches its source"),
            }
        }
    }

    /// An immutable copy of everything sampled so far, name-sorted.
    pub fn snapshot(&self) -> SeriesSnapshot {
        let inner = self.lock();
        let mut series = BTreeMap::new();
        for (track, column) in inner.tracks.iter().zip(inner.columns.iter()) {
            series.insert(track.name.clone(), column.clone());
        }
        SeriesSnapshot { interval_ms: inner.interval_ms, times: inner.times.clone(), series }
    }
}

/// A sweep's worth of series: one [`SeriesSnapshot`] per `(scenario,
/// seed)` cell, kept in a [`BTreeMap`] so merging shards is exact and
/// worker-count-independent — insertion order never shows in the exports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesSet {
    /// Per-cell snapshots keyed `(scenario name, seed)`.
    pub cells: BTreeMap<(String, u64), SeriesSnapshot>,
}

impl SeriesSet {
    /// An empty set.
    pub fn new() -> SeriesSet {
        SeriesSet::default()
    }

    /// Add one cell's snapshot under its `(scenario, seed)` key.
    pub fn insert(&mut self, scenario: &str, seed: u64, snapshot: SeriesSnapshot) {
        self.cells.insert((scenario.to_string(), seed), snapshot);
    }

    /// Merge another set in (e.g. a shard batch). Exact: the result is
    /// the key-sorted union, independent of merge order.
    pub fn merge(&mut self, other: &SeriesSet) {
        for ((scenario, seed), snapshot) in &other.cells {
            self.cells.insert((scenario.clone(), *seed), snapshot.clone());
        }
    }

    /// The whole set as JSON: cells in key order, each embedding its
    /// [`SeriesSnapshot::to_json`] document. Byte-identical for any
    /// worker count.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"cells\":[");
        for (i, ((scenario, seed), snapshot)) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"scenario\":");
            push_json_str(&mut out, scenario);
            let _ = write!(out, ",\"seed\":{seed},\"series\":");
            out.push_str(&snapshot.to_json());
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// The whole set as long-form CSV
    /// (`scenario,seed,t_ms,metric,value`), rows in `(scenario, seed,
    /// time, metric)` order. Byte-identical for any worker count.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("scenario,seed,t_ms,metric,value\n");
        for ((scenario, seed), snapshot) in &self.cells {
            for (i, t) in snapshot.times.iter().enumerate() {
                for (name, series) in &snapshot.series {
                    let _ = write!(out, "{scenario},{seed},{t},{name},");
                    series.push_value_json(&mut out, i);
                    out.push('\n');
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn counter_series_is_delta_encoded_and_sums_to_snapshot() {
        let registry = Registry::new();
        let counter = registry.counter("reqs");
        let series = SeriesRecorder::new(100);
        series.track_counter("reqs", counter.clone());

        counter.add(3);
        assert_eq!(series.next_due_ms(), 100);
        series.sample_due(); // t=100
        counter.add(5);
        series.sample_due(); // t=200
        counter.add(1);
        series.finish(250);

        let snap = series.snapshot();
        assert_eq!(snap.times, vec![100, 200, 250]);
        assert_eq!(snap.series["reqs"], MetricSeries::Counter(vec![3, 5, 1]));
        assert_eq!(snap.series["reqs"].final_value(), Some(counter.get() as f64));
    }

    #[test]
    fn gauge_and_quantile_series_store_raw_values() {
        let registry = Registry::new();
        let gauge = registry.gauge("ratio");
        let hist = registry.histogram("rate");
        let series = SeriesRecorder::new(10);
        series.track_gauge("ratio", gauge.clone());
        series.track_quantile("rate.p50", hist.clone(), 0.5);

        gauge.set(0.25);
        hist.record(100);
        series.sample_due();
        gauge.set(0.75);
        hist.record(300);
        hist.record(300);
        series.finish(15);

        let snap = series.snapshot();
        assert_eq!(snap.series["ratio"], MetricSeries::Gauge(vec![0.25, 0.75]));
        let MetricSeries::Quantile(q, values) = &snap.series["rate.p50"] else {
            panic!("quantile series expected");
        };
        assert_eq!(*q, 0.5);
        assert_eq!(values.len(), 2);
        assert!(values[0] >= 100 && values[0] < 300, "p50 of [100]: {}", values[0]);
        assert_eq!(values[1], hist.histogram().value_at_quantile(0.5));
    }

    #[test]
    fn finish_replaces_a_coinciding_grid_sample() {
        let registry = Registry::new();
        let counter = registry.counter("c");
        let series = SeriesRecorder::new(100);
        series.track_counter("c", counter.clone());
        counter.add(2);
        series.sample_due(); // t=100
        counter.add(4);
        // End-of-run clock lands exactly on the sampled grid point.
        series.finish(100);
        let snap = series.snapshot();
        assert_eq!(snap.times, vec![100]);
        assert_eq!(snap.series["c"], MetricSeries::Counter(vec![6]));
        // finish() is idempotent.
        series.finish(100);
        assert_eq!(series.snapshot(), snap);
    }

    #[test]
    fn exports_are_stable_and_parseable() {
        let registry = Registry::new();
        let series = SeriesRecorder::new(50);
        series.track_counter("a", registry.counter("a"));
        series.track_gauge("b", registry.gauge("b"));
        registry.counter("a").add(7);
        registry.gauge("b").set(1.5);
        series.sample_due();
        series.finish(60);

        let snap = series.snapshot();
        assert_eq!(
            snap.to_json(),
            "{\"interval_ms\":50,\"times\":[50,60],\"series\":{\
             \"a\":{\"kind\":\"counter_delta\",\"values\":[7,0]},\
             \"b\":{\"kind\":\"gauge\",\"values\":[1.5,1.5]}}}"
        );
        assert_eq!(snap.to_csv(), "t_ms,a,b\n50,7,1.5\n60,0,1.5\n");
    }

    #[test]
    fn series_set_merge_is_order_independent() {
        let make = |n: u64| {
            let registry = Registry::new();
            let series = SeriesRecorder::new(10);
            series.track_counter("c", registry.counter("c"));
            registry.counter("c").add(n);
            series.finish(5);
            series.snapshot()
        };
        let mut ab = SeriesSet::new();
        ab.insert("x", 1, make(1));
        ab.insert("x", 2, make(2));
        let mut ba = SeriesSet::new();
        ba.insert("x", 2, make(2));
        ba.insert("x", 1, make(1));
        assert_eq!(ab.to_json(), ba.to_json());
        assert_eq!(ab.to_csv(), ba.to_csv());

        let mut merged = SeriesSet::new();
        merged.merge(&ba);
        merged.merge(&ab);
        assert_eq!(merged, ab);
        assert!(merged.to_csv().starts_with("scenario,seed,t_ms,metric,value\n"));
    }
}
