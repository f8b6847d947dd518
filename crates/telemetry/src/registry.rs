//! The metrics registry: named counters, gauges, and histograms plus
//! the tracer, snapshot-able into a deterministic export.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{Histogram, HistogramSnapshot};
use crate::trace::{TraceSnapshot, Tracer};

/// A monotonically increasing `u64` metric.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable `f64` metric (stored as IEEE-754 bits; last write wins).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `delta` (compare-and-swap loop).
    pub fn add(&self, delta: f64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.0.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Shared handle to a registry histogram.
#[derive(Debug, Clone)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl HistogramHandle {
    /// Record one `u64` sample.
    pub fn record(&self, v: u64) {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).record(v);
    }

    /// Record a float sample (rounded; negatives clamp to zero).
    pub fn record_f64(&self, v: f64) {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).record_f64(v);
    }

    /// Merge `other`'s samples into this histogram.
    pub fn merge(&self, other: &Histogram) {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).merge(other);
    }

    /// Copy of the current histogram state.
    pub fn histogram(&self) -> Histogram {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, HistogramHandle>>,
    // Wall-clock measurements (perf telemetry). Kept apart from the
    // deterministic metrics: they vary run to run, so the default exports
    // exclude them to preserve the byte-identical snapshot guarantee.
    walls: Mutex<BTreeMap<String, f64>>,
    tracer: Tracer,
}

/// A named-metric registry; cheap to clone (all clones share state).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.inner.counters.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(counter) = counters.get(name) {
            return counter.clone();
        }
        counters.entry(name.to_owned()).or_default().clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut gauges = self.inner.gauges.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(gauge) = gauges.get(name) {
            return gauge.clone();
        }
        gauges.entry(name.to_owned()).or_default().clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let mut histograms = self.inner.histograms.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(histogram) = histograms.get(name) {
            return histogram.clone();
        }
        histograms
            .entry(name.to_owned())
            .or_insert_with(|| HistogramHandle(Arc::new(Mutex::new(Histogram::new()))))
            .clone()
    }

    /// Record a wall-clock measurement (seconds, rates, …) under `name`.
    ///
    /// Wall metrics live in the snapshot's separate [`Snapshot::wall`]
    /// section and are excluded from the deterministic
    /// [`Snapshot::to_json`] / [`Snapshot::to_csv`] exports; read them back
    /// in-process through [`Registry::wall`] or the snapshot. This is how
    /// perf numbers (`sim.events_per_sec`, run wall time) ride along
    /// without breaking the byte-identical-across-same-seed-runs guarantee.
    pub fn set_wall(&self, name: &str, value: f64) {
        self.inner.walls.lock().unwrap_or_else(|e| e.into_inner()).insert(name.to_owned(), value);
    }

    /// The wall-clock measurement named `name`, if one was recorded.
    pub fn wall(&self, name: &str) -> Option<f64> {
        self.inner.walls.lock().unwrap_or_else(|e| e.into_inner()).get(name).copied()
    }

    /// The registry's span tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// A deterministic point-in-time export: metric maps are ordered by
    /// name, trace events by recording order.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, h)| (name.clone(), h.histogram().snapshot()))
            .collect();
        let wall = self.inner.walls.lock().unwrap_or_else(|e| e.into_inner()).clone();
        Snapshot { counters, gauges, histograms, wall, trace: self.inner.tracer.snapshot() }
    }
}

/// Point-in-time export of a whole [`Registry`].
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Wall-clock measurements by name — nondeterministic by nature, so
    /// excluded from [`Snapshot::to_json`] / [`Snapshot::to_csv`].
    pub wall: BTreeMap<String, f64>,
    /// The trace event stream.
    pub trace: TraceSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state() {
        let registry = Registry::new();
        registry.counter("x").inc();
        registry.counter("x").add(2);
        assert_eq!(registry.counter("x").get(), 3);

        registry.gauge("ratio").set(0.5);
        registry.gauge("ratio").add(0.25);
        assert!((registry.gauge("ratio").get() - 0.75).abs() < 1e-12);

        registry.histogram("h").record(9);
        assert_eq!(registry.histogram("h").histogram().count(), 1);
    }

    #[test]
    fn snapshot_is_name_ordered() {
        let registry = Registry::new();
        registry.counter("zeta").inc();
        registry.counter("alpha").inc();
        let snapshot = registry.snapshot();
        let names: Vec<&str> = snapshot.counters.keys().map(String::as_str).collect();
        assert_eq!(names, ["alpha", "zeta"]);
    }

    #[test]
    fn clones_share_everything() {
        let registry = Registry::new();
        let clone = registry.clone();
        clone.counter("n").inc();
        assert_eq!(registry.snapshot().counters["n"], 1);
    }
}
