//! Golden pin for the LRU pool under eviction pressure.
//!
//! `tests/golden/lru_cache_pressure_s2015_scale002.json` is the registry
//! snapshot of one `cache-pressure` cloud week (2 % cache budget, scale
//! 0.02, seed 2015) as exported by the linked-list LRU that preceded the
//! slot-array one. The week evicts ~13 k files, and `cache.lru.bytes_mb`
//! is a running float sum whose bits depend on the order of every add and
//! subtract, so the snapshot pins the eviction sequence, not just counts.

use odx::telemetry::{Observers, Registry};
use odx::Study;

#[test]
fn lru_under_cache_pressure_matches_the_golden() {
    let scenario = Study::scenarios().get("cache-pressure").expect("builtin preset").clone();
    let study = Study::generate_scenario(0.02, 2015, &scenario);
    let registry = Registry::new();
    study.replay_cloud(&scenario, &registry, Observers::default());
    assert!(
        registry.snapshot().to_json()
            == include_str!("golden/lru_cache_pressure_s2015_scale002.json"),
        "cache-pressure snapshot drifted from the golden"
    );
}
