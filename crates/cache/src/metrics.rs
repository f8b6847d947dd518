//! Telemetry wrapper: per-policy `cache.<policy>.*` metrics.
//!
//! Counters (`hit`, `miss`, `eviction`) tick as the replay runs; the
//! occupancy and hit-ratio gauges are written once by [`finish`] so the
//! snapshot reflects end-of-run state. Counter handles are plain `Arc`s
//! into the [`Registry`] the wrapper is built with: the run's own, as for
//! the cloud's `CloudMetrics`.
//!
//! [`finish`]: InstrumentedCache::finish

use odx_telemetry::{Counter, Registry};

use crate::{CachePolicy, PolicyKind};

/// A [`CachePolicy`] wrapper that records `cache.<policy>.*` telemetry.
pub struct InstrumentedCache {
    inner: Box<dyn CachePolicy>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl InstrumentedCache {
    /// Wrap `inner`, binding `cache.<policy>.{hit,miss,eviction}` counters
    /// in `registry`.
    pub fn new(inner: Box<dyn CachePolicy>, registry: &Registry) -> Self {
        let name = inner.kind().name();
        InstrumentedCache {
            hits: registry.counter(&format!("cache.{name}.hit")),
            misses: registry.counter(&format!("cache.{name}.miss")),
            evictions: registry.counter(&format!("cache.{name}.eviction")),
            inner,
        }
    }

    /// Which policy runs underneath.
    pub fn kind(&self) -> PolicyKind {
        self.inner.kind()
    }

    /// Write the end-of-run gauges: `cache.<policy>.bytes_mb` (occupancy)
    /// and `cache.<policy>.hit_ratio`.
    pub fn finish(&self, registry: &Registry) {
        let name = self.inner.kind().name();
        registry.gauge(&format!("cache.{name}.bytes_mb")).set(self.inner.used_mb());
        let (h, m) = (self.hits.get() as f64, self.misses.get() as f64);
        let ratio = if h + m > 0.0 { h / (h + m) } else { 0.0 };
        registry.gauge(&format!("cache.{name}.hit_ratio")).set(ratio);
    }

    /// Counted [`CachePolicy::lookup`].
    pub fn lookup(&mut self, key: u64, now_ms: u64) -> Option<f64> {
        let hit = self.inner.lookup(key, now_ms);
        match hit {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        hit
    }

    /// Uncounted residency probe (see [`CachePolicy::contains`]).
    pub fn contains(&self, key: u64) -> bool {
        self.inner.contains(key)
    }

    /// Counted [`CachePolicy::insert`]: every key in the returned eviction
    /// list (including an admission-refused insertee) ticks `eviction`.
    pub fn insert(&mut self, key: u64, size_mb: f64, now_ms: u64) -> Vec<u64> {
        let evicted = self.inner.insert(key, size_mb, now_ms);
        self.evictions.add(evicted.len() as u64);
        evicted
    }

    /// Forwarded [`CachePolicy::remove`] (not an eviction — no tick).
    pub fn remove(&mut self, key: u64) -> Option<f64> {
        self.inner.remove(key)
    }

    /// Bytes currently resident (MB).
    pub fn used_mb(&self) -> f64 {
        self.inner.used_mb()
    }

    /// The byte budget (MB).
    pub fn capacity_mb(&self) -> f64 {
        self.inner.capacity_mb()
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record_the_run() {
        let registry = Registry::new();
        let mut c = InstrumentedCache::new(PolicyKind::Lru.build(20.0, 4), &registry);
        assert_eq!(c.kind(), PolicyKind::Lru);

        assert!(c.lookup(1, 0).is_none()); // miss
        c.insert(1, 10.0, 0);
        c.insert(2, 10.0, 0);
        assert!(c.lookup(1, 0).is_some()); // hit
        let evicted = c.insert(3, 10.0, 0); // evicts key 2
        assert_eq!(evicted, vec![2]);

        c.finish(&registry);
        assert_eq!(registry.counter("cache.lru.hit").get(), 1);
        assert_eq!(registry.counter("cache.lru.miss").get(), 1);
        assert_eq!(registry.counter("cache.lru.eviction").get(), 1);
        assert_eq!(registry.gauge("cache.lru.bytes_mb").get(), 20.0);
        assert_eq!(registry.gauge("cache.lru.hit_ratio").get(), 0.5);
    }

    #[test]
    fn empty_run_has_zero_hit_ratio() {
        let registry = Registry::new();
        let c = InstrumentedCache::new(PolicyKind::Lru.build(20.0, 0), &registry);
        c.finish(&registry);
        assert_eq!(registry.gauge("cache.lru.hit_ratio").get(), 0.0);
    }
}
