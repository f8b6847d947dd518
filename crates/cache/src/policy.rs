//! The policy trait, the policy registry, and the scenario-facing config.

use crate::{GdsfCache, LfuCache, LruCache, S3FifoCache};

/// A byte-budgeted cache replacement policy over `u64` keys.
///
/// Contract (what the cloud replay and the comparison harness rely on):
///
/// * **Byte budget.** After any call returns, `used_mb() <=
///   capacity_mb()`. Evictions cascade inside `insert` until the budget
///   holds.
/// * **Virtual clock.** `now_ms` is simulation time in milliseconds. It is
///   non-decreasing across calls; policies may use it for aging but never
///   read wall clocks.
/// * **Determinism.** The same call sequence produces the same return
///   values — including the *order* of evicted keys — on every run and
///   platform. Ties are broken by insertion sequence, never by map
///   iteration order.
/// * **Admission.** `insert` returns every key that stopped being resident
///   as a consequence of the call. A policy that refuses to admit the new
///   key itself (size-aware or probationary admission) returns that key in
///   the list, so callers can keep an external "is cached" index in sync
///   with one loop. (Exception: [`LruCache`]'s inherent `insert` keeps its
///   legacy behaviour of silently refusing oversized files; its
///   [`CachePolicy`] impl reports the refused key and drops any resident
///   copy of it.)
/// * Re-inserting a resident key refreshes it (recency/frequency credit)
///   and updates its size in place — file-level dedup, exactly like the
///   cloud pool.
pub trait CachePolicy: Send {
    /// Which policy this is (stable name for telemetry and tables).
    fn kind(&self) -> PolicyKind;

    /// Look up `key` at virtual time `now_ms`, crediting the entry
    /// (recency/frequency) on a hit. Returns the resident size in MB.
    fn lookup(&mut self, key: u64, now_ms: u64) -> Option<f64>;

    /// Whether `key` is resident, *without* crediting it.
    fn contains(&self, key: u64) -> bool;

    /// Insert `key` with `size_mb` at virtual time `now_ms`. Returns the
    /// keys no longer resident after the call (see the admission contract).
    fn insert(&mut self, key: u64, size_mb: f64, now_ms: u64) -> Vec<u64>;

    /// Remove `key` outright. Returns its size if it was resident.
    fn remove(&mut self, key: u64) -> Option<f64>;

    /// Bytes currently resident (MB).
    fn used_mb(&self) -> f64;

    /// The byte budget (MB).
    fn capacity_mb(&self) -> f64;

    /// Number of resident entries.
    fn len(&self) -> usize;

    /// Whether nothing is resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The built-in replacement policies, in listing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Byte-budget LRU — the paper's pool model (the baseline).
    Lru,
    /// LFU with periodic aging (frequencies halve every virtual day).
    Lfu,
    /// Greedy-Dual-Size-Frequency (size-aware priorities).
    Gdsf,
    /// S3-FIFO: probationary small FIFO + main FIFO + ghost admission.
    S3Fifo,
}

impl PolicyKind {
    /// Every built-in policy, in the order tables and sweeps list them.
    pub const ALL: [PolicyKind; 4] =
        [PolicyKind::Lru, PolicyKind::Lfu, PolicyKind::Gdsf, PolicyKind::S3Fifo];

    /// Stable lower-case name (CLI `--policy` values, telemetry prefixes).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Lfu => "lfu",
            PolicyKind::Gdsf => "gdsf",
            PolicyKind::S3Fifo => "s3fifo",
        }
    }

    /// One-line description shown by `repro list`.
    pub fn summary(self) -> &'static str {
        match self {
            PolicyKind::Lru => "byte-budget LRU (the paper's pool; the baseline policy)",
            PolicyKind::Lfu => "LFU with aging: frequencies halve every virtual day",
            PolicyKind::Gdsf => "Greedy-Dual-Size-Frequency: keep many small hot files",
            PolicyKind::S3Fifo => {
                "S3-FIFO admission: one-hit wonders never displace proven content"
            }
        }
    }

    /// Parse a CLI policy name. `None` for unknown names (the caller turns
    /// this into a `repro list`-style exit-2 usage error).
    pub fn parse(name: &str) -> Option<PolicyKind> {
        PolicyKind::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Build this policy with a byte budget, preallocated for roughly
    /// `entries` resident files (mirrors `TimingWheel::with_capacity`).
    pub fn build(self, capacity_mb: f64, entries: usize) -> Box<dyn CachePolicy> {
        match self {
            PolicyKind::Lru => Box::new(LruCache::with_capacity(capacity_mb, entries)),
            PolicyKind::Lfu => Box::new(LfuCache::with_capacity(capacity_mb, entries)),
            PolicyKind::Gdsf => Box::new(GdsfCache::with_capacity(capacity_mb, entries)),
            PolicyKind::S3Fifo => Box::new(S3FifoCache::with_capacity(capacity_mb, entries)),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a scenario says about its content cache: which policy runs the
/// pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// The replacement policy.
    pub policy: PolicyKind,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { policy: PolicyKind::Lru }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for p in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(p.name()), Some(p));
        }
        assert_eq!(PolicyKind::parse("arc"), None);
        assert_eq!(PolicyKind::parse("LRU"), None, "names are case-sensitive");
    }

    #[test]
    fn build_constructs_every_policy() {
        for p in PolicyKind::ALL {
            let c = p.build(100.0, 16);
            assert_eq!(c.kind(), p);
            assert_eq!(c.capacity_mb(), 100.0);
            assert!(c.is_empty());
        }
    }

    #[test]
    fn default_config_is_the_paper_baseline() {
        assert_eq!(CacheConfig::default().policy, PolicyKind::Lru);
    }
}
