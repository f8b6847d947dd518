//! Property-based tests for the cloud's stateful components.

use odx_cache::LruCache;
use odx_cloud::{Admission, UploadPool};
use odx_net::Isp;
use proptest::prelude::*;

proptest! {
    /// LRU invariant: used bytes never exceed capacity, and used bytes
    /// always equal the sum of resident entries.
    #[test]
    fn lru_never_exceeds_capacity(
        ops in prop::collection::vec((0u64..200, 1.0f64..50.0, any::<bool>()), 1..300),
    ) {
        let mut cache = LruCache::new(300.0);
        let mut sizes = std::collections::HashMap::new();
        for (key, size, touch) in ops {
            if touch {
                let hit = cache.touch(key);
                prop_assert_eq!(hit.is_some(), sizes.contains_key(&key));
            } else {
                for evicted in cache.insert(key, size) {
                    sizes.remove(&evicted);
                }
                sizes.insert(key, size);
                // The model can drift when an eviction removes the entry we
                // think resident; resync from membership.
                sizes.retain(|&k, _| cache.contains(k));
            }
            prop_assert!(cache.used_mb() <= cache.capacity_mb() + 1e-9);
            let model_total: f64 = sizes.values().sum();
            prop_assert!((cache.used_mb() - model_total).abs() < 1e-6,
                "cache {} vs model {}", cache.used_mb(), model_total);
            prop_assert_eq!(cache.len(), sizes.len());
        }
    }

    /// LRU eviction order: after arbitrary operations, the reported MRU
    /// order contains each resident key exactly once.
    #[test]
    fn lru_mru_order_is_a_permutation(
        ops in prop::collection::vec((0u64..50, any::<bool>()), 1..200),
    ) {
        let mut cache = LruCache::new(30.0);
        for (key, touch) in ops {
            if touch {
                cache.touch(key);
            } else {
                cache.insert(key, 1.0);
            }
        }
        let mut order = cache.keys_mru();
        prop_assert_eq!(order.len(), cache.len());
        order.sort_unstable();
        order.dedup();
        prop_assert_eq!(order.len(), cache.len(), "duplicates in MRU order");
    }

    /// Upload pool conservation: in-use never exceeds capacity; releases
    /// return the pool to empty; admissions are all-or-nothing.
    #[test]
    fn upload_pool_conservation(
        requests in prop::collection::vec((0usize..5, 10.0f64..500.0), 1..100),
    ) {
        let isps = [Isp::Unicom, Isp::Telecom, Isp::Mobile, Isp::Cernet, Isp::Other];
        let mut pool = UploadPool::new(2000.0, [0.25, 0.25, 0.25, 0.25], 10.0);
        let mut admitted: Vec<(Isp, f64)> = Vec::new();
        for (isp_idx, desired) in requests {
            let cross = desired * 0.4;
            match pool.admit(isps[isp_idx], desired, cross) {
                Admission::Privileged { isp, rate_kbps } => {
                    prop_assert!((rate_kbps - desired.max(10.0)).abs() < 1e-9,
                        "privileged grants are full-rate");
                    admitted.push((isp, rate_kbps));
                }
                Admission::CrossIsp { server_isp, rate_kbps } => {
                    prop_assert!(rate_kbps <= desired + 1e-9);
                    admitted.push((server_isp, rate_kbps));
                }
                Admission::Rejected => {}
            }
            let total: f64 = admitted.iter().map(|(_, r)| r).sum();
            prop_assert!((pool.total_in_use() - total).abs() < 1e-6);
            prop_assert!(pool.total_in_use() <= 2000.0 + 1e-6);
        }
        for (isp, rate) in admitted.drain(..) {
            pool.release(isp, rate);
        }
        prop_assert!(pool.total_in_use().abs() < 1e-6, "{}", pool.total_in_use());
        prop_assert!((pool.total_headroom() - 2000.0).abs() < 1e-6);
    }
}
