//! Property tests shared by every cache policy.
//!
//! One operation-sequence generator drives all four policies through the
//! same shadow model, checking the
//! [`CachePolicy`] contract: the byte budget always holds, residency
//! bookkeeping matches a naive model, eviction lists are exactly the keys
//! that stopped being resident, and identical call sequences produce
//! identical eviction sequences. The LRU is also checked step by step
//! against a naive reference model of the same policy.

use odx_cache::{CachePolicy, LruCache, PolicyKind};
use proptest::prelude::*;
use proptest::TestCaseError;

/// One step of a cache workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    Lookup(u64),
    Insert(u64, f64),
    Remove(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..60).prop_map(Op::Lookup),
        (0u64..60, 0.5f64..40.0).prop_map(|(k, s)| Op::Insert(k, s)),
        (0u64..60).prop_map(Op::Remove),
    ]
}

/// Drive `cache` through `ops` on a monotone virtual clock, checking the
/// contract at every step against a naive residency model. Returns the
/// flattened eviction sequence (for determinism comparisons).
fn check_contract(cache: &mut dyn CachePolicy, ops: &[Op]) -> Result<Vec<u64>, TestCaseError> {
    let mut model = std::collections::BTreeMap::new();
    let mut evictions = Vec::new();
    for (step, &op) in ops.iter().enumerate() {
        // ~17 minutes of virtual time per step: long traces cross several
        // LFU aging epochs.
        let now_ms = step as u64 * 1_000_000;
        match op {
            Op::Lookup(key) => {
                let hit = cache.lookup(key, now_ms);
                prop_assert_eq!(
                    hit.is_some(),
                    model.contains_key(&key),
                    "lookup must agree with residency"
                );
            }
            Op::Insert(key, size) => {
                model.insert(key, size);
                for evicted in cache.insert(key, size, now_ms) {
                    let known = model.remove(&evicted).is_some();
                    prop_assert!(known, "evicted key {} was not resident", evicted);
                    evictions.push(evicted);
                }
            }
            Op::Remove(key) => {
                let removed = cache.remove(key);
                prop_assert_eq!(removed.is_some(), model.remove(&key).is_some());
            }
        }
        prop_assert!(
            cache.used_mb() <= cache.capacity_mb() + 1e-9,
            "budget exceeded: {} > {}",
            cache.used_mb(),
            cache.capacity_mb()
        );
        prop_assert_eq!(cache.len(), model.len(), "residency count drifted");
        for (&key, &size) in &model {
            prop_assert!(cache.contains(key), "model key {} missing", key);
            let resident = cache.lookup(key, now_ms);
            prop_assert!(
                resident.is_some_and(|s| (s - size).abs() < 1e-9),
                "size drifted for key {}",
                key
            );
        }
        let model_total: f64 = model.values().sum();
        prop_assert!(
            (cache.used_mb() - model_total).abs() < 1e-6,
            "used {} vs model {}",
            cache.used_mb(),
            model_total
        );
    }
    Ok(evictions)
}

proptest! {
    /// The full contract holds for every policy on arbitrary workloads.
    #[test]
    fn every_policy_honours_the_contract(
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        for policy in PolicyKind::ALL {
            let mut cache = policy.build(100.0, 16);
            check_contract(cache.as_mut(), &ops)?;
        }
    }

    /// Replaying the same operation sequence yields the same evictions, in
    /// the same order — per policy, across two fresh instances.
    #[test]
    fn same_sequence_same_evictions(
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        for policy in PolicyKind::ALL {
            let a = check_contract(policy.build(100.0, 16).as_mut(), &ops)?;
            let b = check_contract(policy.build(100.0, 16).as_mut(), &ops)?;
            prop_assert_eq!(&a, &b, "policy {} diverged between runs", policy.name());
        }
    }

    /// Tight budgets force evict-on-insert cascades, and the cascade always
    /// restores the budget within the insert call.
    #[test]
    fn cascades_restore_the_budget(
        ops in prop::collection::vec((0u64..40, 5.0f64..25.0), 10..80),
    ) {
        for policy in PolicyKind::ALL {
            let mut cache = policy.build(50.0, 8);
            let mut total_evicted = 0usize;
            for (step, &(key, size)) in ops.iter().enumerate() {
                total_evicted += cache.insert(key, size, step as u64 * 1_000).len();
                prop_assert!(cache.used_mb() <= cache.capacity_mb() + 1e-9);
            }
            prop_assert!(
                total_evicted > 0,
                "a 50 MB budget under this load must evict ({})",
                policy.name()
            );
        }
    }

    /// The LRU matches a naive reference model exactly: same evictions in
    /// the same order, same occupancy bits, same recency order. Touch
    /// bursts push far more uses than the queue's slack, so every run
    /// crosses several queue compactions.
    #[test]
    fn lru_matches_the_naive_model(
        ops in prop::collection::vec(oracle_op_strategy(), 1..120),
    ) {
        check_lru_against_model(&ops)?;
    }
}

/// One step of the LRU differential test.
#[derive(Debug, Clone, Copy)]
enum OracleOp {
    Lookup(u64),
    /// Fresh or resident re-insert; sizes above the budget are refused.
    Insert(u64, f64),
    Remove(u64),
    /// Look up every resident key round-robin, this many times in all.
    Touches(usize),
}

const ORACLE_CAPACITY_MB: f64 = 100.0;

fn oracle_op_strategy() -> impl Strategy<Value = OracleOp> {
    // The in-budget insert arm is listed twice so inserts outweigh the
    // other steps and the budget fills (the vendored macro has no weights).
    prop_oneof![
        (0u64..30).prop_map(OracleOp::Lookup),
        (0u64..30, 0.5f64..40.0).prop_map(|(k, s)| OracleOp::Insert(k, s)),
        (0u64..30, 0.5f64..40.0).prop_map(|(k, s)| OracleOp::Insert(k, s)),
        (0u64..30, 100.5f64..200.0).prop_map(|(k, s)| OracleOp::Insert(k, s)),
        (0u64..30).prop_map(OracleOp::Remove),
        (0usize..2_000).prop_map(OracleOp::Touches),
    ]
}

/// A byte-budget LRU as a `Vec` in most-recently-used order, doing the
/// same floating-point updates in the same order as the cache.
#[derive(Default)]
struct NaiveLru {
    mru: Vec<(u64, f64)>,
    used_mb: f64,
}

impl NaiveLru {
    fn position(&self, key: u64) -> Option<usize> {
        self.mru.iter().position(|&(k, _)| k == key)
    }

    fn lookup(&mut self, key: u64) -> Option<f64> {
        let entry = self.mru.remove(self.position(key)?);
        self.mru.insert(0, entry);
        Some(entry.1)
    }

    fn insert(&mut self, key: u64, size_mb: f64) -> Vec<u64> {
        if size_mb > ORACLE_CAPACITY_MB {
            self.remove(key);
            return vec![key];
        }
        if let Some(i) = self.position(key) {
            let (_, old) = self.mru.remove(i);
            self.used_mb += size_mb - old;
        } else {
            self.used_mb += size_mb;
        }
        self.mru.insert(0, (key, size_mb));
        let mut evicted = Vec::new();
        while self.used_mb > ORACLE_CAPACITY_MB && self.mru.len() > 1 {
            let (lru, size) = self.mru.pop().expect("non-empty");
            self.used_mb -= size;
            evicted.push(lru);
        }
        evicted
    }

    fn remove(&mut self, key: u64) -> Option<f64> {
        let (_, size) = self.mru.remove(self.position(key)?);
        self.used_mb -= size;
        Some(size)
    }
}

fn check_lru_against_model(ops: &[OracleOp]) -> Result<(), TestCaseError> {
    let mut cache = LruCache::new(ORACLE_CAPACITY_MB);
    let mut model = NaiveLru::default();
    for &op in ops {
        match op {
            OracleOp::Lookup(key) => {
                prop_assert_eq!(CachePolicy::lookup(&mut cache, key, 0), model.lookup(key));
            }
            OracleOp::Insert(key, size) => {
                let evicted = CachePolicy::insert(&mut cache, key, size, 0);
                prop_assert_eq!(evicted, model.insert(key, size), "eviction lists differ");
            }
            OracleOp::Remove(key) => {
                prop_assert_eq!(CachePolicy::remove(&mut cache, key), model.remove(key));
            }
            OracleOp::Touches(n) => {
                let keys: Vec<u64> = model.mru.iter().map(|&(k, _)| k).collect();
                for key in keys.iter().cycle().take(n) {
                    prop_assert_eq!(cache.touch(*key), model.lookup(*key));
                }
            }
        }
        prop_assert_eq!(cache.used_mb().to_bits(), model.used_mb.to_bits());
        prop_assert_eq!(cache.len(), model.mru.len());
        let model_mru: Vec<u64> = model.mru.iter().map(|&(k, _)| k).collect();
        prop_assert_eq!(cache.keys_mru(), model_mru, "recency order differs");
    }
    Ok(())
}

/// Trait contract for every policy: an oversized insert of a resident key
/// reports the key and leaves it non-resident, with its bytes released.
/// (A policy may also evict other keys first; those are reported too.)
#[test]
fn oversized_reinsert_of_a_resident_key_evicts_it() {
    for policy in PolicyKind::ALL {
        let name = policy.name();
        let mut cache = policy.build(50.0, 4);
        assert!(cache.insert(1, 10.0, 0).is_empty());
        assert!(cache.insert(2, 20.0, 0).is_empty());
        let evicted = cache.insert(1, 60.0, 1);
        assert!(evicted.contains(&1), "{name} must report the refused key: {evicted:?}");
        assert!(evicted.iter().all(|&k| !cache.contains(k)), "{name} kept an evicted key");
        assert_eq!(cache.len(), 2 - evicted.len(), "{name}");
        let resident_mb = if cache.contains(2) { 20.0 } else { 0.0 };
        assert!((cache.used_mb() - resident_mb).abs() < 1e-9, "{name}: {}", cache.used_mb());
    }
}
