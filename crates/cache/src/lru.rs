//! Byte-budget LRU with file-level deduplication — the paper's §2.1 pool
//! model.
//!
//! Keys are catalog positions, so the index is a slot array addressed by
//! the key itself: a slot holds the file's size and the stamp of its last
//! use (0 = not resident). Recency is a FIFO of `(key, stamp)` pushes, one
//! per use. The exact LRU victim is the oldest queue entry whose stamp
//! still matches its slot; older uses of the same key are stale and are
//! skipped. A hit is one slot write plus one sequential push, with no
//! hashing and no dependent pointer loads. The queue is compacted in place
//! (order kept) once it holds more than `2 × residents + 1024` entries, so
//! its length stays proportional to the resident set and each use costs
//! amortised O(1).

use std::collections::VecDeque;

use crate::{CachePolicy, PolicyKind};

/// Stale queue entries tolerated beyond twice the resident count before
/// the queue is compacted.
const QUEUE_SLACK: usize = 1024;

#[derive(Clone, Copy, Default)]
struct Slot {
    size_mb: f64,
    /// Stamp of the key's newest queue entry; 0 while not resident.
    stamp: u64,
}

/// Byte-budget LRU cache over dense `u64` file keys.
///
/// Memory is one 16-byte slot per key up to the largest key inserted, so
/// keys should be small indices (the cloud uses catalog positions).
pub struct LruCache {
    capacity_mb: f64,
    used_mb: f64,
    len: usize,
    slots: Vec<Slot>,
    /// Uses in order, oldest at the front.
    queue: VecDeque<(u64, u64)>,
    /// The last stamp handed out; stamps start at 1.
    clock: u64,
}

impl LruCache {
    /// A cache holding at most `capacity_mb` megabytes.
    pub fn new(capacity_mb: f64) -> Self {
        LruCache::with_capacity(capacity_mb, 0)
    }

    /// A cache holding at most `capacity_mb` megabytes, preallocated for
    /// keys below `entries` (no regrow while warming a catalog-sized pool).
    pub fn with_capacity(capacity_mb: f64, entries: usize) -> Self {
        assert!(capacity_mb > 0.0, "capacity must be positive");
        LruCache {
            capacity_mb,
            used_mb: 0.0,
            len: 0,
            slots: Vec::with_capacity(entries),
            queue: VecDeque::with_capacity(entries),
            clock: 0,
        }
    }

    /// Bytes currently stored (MB).
    pub fn used_mb(&self) -> f64 {
        self.used_mb
    }

    /// Capacity (MB).
    pub fn capacity_mb(&self) -> f64 {
        self.capacity_mb
    }

    /// Number of cached files.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `key` is cached, *without* touching recency.
    pub fn contains(&self, key: u64) -> bool {
        self.slot(key).is_some_and(|s| s.stamp != 0)
    }

    /// Look up `key`, marking it most-recently-used. Returns its size.
    pub fn touch(&mut self, key: u64) -> Option<f64> {
        let stamp = self.clock + 1;
        let slot = self.slot_mut(key).filter(|s| s.stamp != 0)?;
        slot.stamp = stamp;
        let size_mb = slot.size_mb;
        self.push(key, stamp);
        Some(size_mb)
    }

    /// Insert a file (deduplicating on key: re-inserting refreshes recency
    /// and updates the size). Files larger than the whole cache are refused.
    /// Returns the keys evicted to make room.
    pub fn insert(&mut self, key: u64, size_mb: f64) -> Vec<u64> {
        assert!(size_mb >= 0.0 && size_mb.is_finite(), "bad size");
        if size_mb > self.capacity_mb {
            return Vec::new();
        }
        let idx = usize::try_from(key).expect("LRU key fits in memory");
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, Slot::default());
        }
        let stamp = self.clock + 1;
        let slot = &mut self.slots[idx];
        if slot.stamp != 0 {
            self.used_mb += size_mb - slot.size_mb;
        } else {
            self.len += 1;
            self.used_mb += size_mb;
        }
        *slot = Slot { size_mb, stamp };
        self.push(key, stamp);
        let mut evicted = Vec::new();
        while self.used_mb > self.capacity_mb {
            let &(lru, stamp) = self.queue.front().expect("over budget implies a resident key");
            let slot = &mut self.slots[lru as usize];
            if slot.stamp != stamp {
                self.queue.pop_front();
                continue;
            }
            // Never evict the entry we just inserted.
            if lru == key {
                break;
            }
            self.queue.pop_front();
            slot.stamp = 0;
            self.len -= 1;
            self.used_mb -= slot.size_mb;
            evicted.push(lru);
        }
        evicted
    }

    /// Remove `key` outright. Returns its size if it was present. Its queue
    /// entries go stale and are dropped lazily.
    pub fn remove(&mut self, key: u64) -> Option<f64> {
        let slot = self.slot_mut(key).filter(|s| s.stamp != 0)?;
        slot.stamp = 0;
        let size = slot.size_mb;
        self.len -= 1;
        self.used_mb -= size;
        Some(size)
    }

    /// Keys from most- to least-recently-used (diagnostics and tests).
    pub fn keys_mru(&self) -> Vec<u64> {
        self.queue.iter().rev().filter(|&&e| live(&self.slots, e)).map(|&(key, _)| key).collect()
    }

    fn slot(&self, key: u64) -> Option<&Slot> {
        self.slots.get(usize::try_from(key).ok()?)
    }

    fn slot_mut(&mut self, key: u64) -> Option<&mut Slot> {
        self.slots.get_mut(usize::try_from(key).ok()?)
    }

    /// Record a use of `key`, whose slot already holds `stamp`, the next
    /// clock value.
    fn push(&mut self, key: u64, stamp: u64) {
        self.clock = stamp;
        self.queue.push_back((key, stamp));
        if self.queue.len() > 2 * self.len + QUEUE_SLACK {
            let slots = &self.slots;
            self.queue.retain(|&e| live(slots, e));
        }
    }
}

/// Whether a queue entry is its key's newest use (and the key resident).
fn live(slots: &[Slot], (key, stamp): (u64, u64)) -> bool {
    slots[key as usize].stamp == stamp
}

impl CachePolicy for LruCache {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Lru
    }

    fn lookup(&mut self, key: u64, _now_ms: u64) -> Option<f64> {
        self.touch(key)
    }

    fn contains(&self, key: u64) -> bool {
        LruCache::contains(self, key)
    }

    fn insert(&mut self, key: u64, size_mb: f64, _now_ms: u64) -> Vec<u64> {
        // The inherent method refuses oversized files silently (legacy
        // behaviour, preserved for existing callers); the trait contract
        // wants the refused key reported, and no longer resident, so
        // external indices stay in sync.
        if size_mb > self.capacity_mb {
            LruCache::remove(self, key);
            return vec![key];
        }
        LruCache::insert(self, key, size_mb)
    }

    fn remove(&mut self, key: u64) -> Option<f64> {
        LruCache::remove(self, key)
    }

    fn used_mb(&self) -> f64 {
        LruCache::used_mb(self)
    }

    fn capacity_mb(&self) -> f64 {
        LruCache::capacity_mb(self)
    }

    fn len(&self) -> usize {
        LruCache::len(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut c = LruCache::new(100.0);
        assert!(c.insert(1, 40.0).is_empty());
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert_eq!(c.used_mb(), 40.0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(100.0);
        c.insert(1, 40.0);
        c.insert(2, 40.0);
        c.touch(1); // 2 is now LRU
        let evicted = c.insert(3, 40.0);
        assert_eq!(evicted, vec![2]);
        assert!(c.contains(1) && c.contains(3));
        assert!((c.used_mb() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn eviction_can_cascade() {
        let mut c = LruCache::new(100.0);
        c.insert(1, 30.0);
        c.insert(2, 30.0);
        c.insert(3, 30.0);
        let evicted = c.insert(4, 90.0);
        assert_eq!(evicted.len(), 3);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn dedup_refreshes_instead_of_duplicating() {
        let mut c = LruCache::new(100.0);
        c.insert(1, 40.0);
        c.insert(2, 40.0);
        c.insert(1, 40.0); // refresh: 2 becomes LRU
        assert_eq!(c.len(), 2);
        assert_eq!(c.used_mb(), 80.0);
        assert_eq!(c.keys_mru(), vec![1, 2]);
    }

    #[test]
    fn resize_on_reinsert() {
        let mut c = LruCache::new(100.0);
        c.insert(1, 40.0);
        c.insert(1, 70.0);
        assert_eq!(c.used_mb(), 70.0);
    }

    #[test]
    fn oversized_file_is_refused() {
        let mut c = LruCache::new(50.0);
        c.insert(1, 10.0);
        let evicted = c.insert(2, 60.0);
        assert!(evicted.is_empty());
        assert!(!c.contains(2));
        assert!(c.contains(1));
    }

    #[test]
    fn policy_impl_reports_the_refused_key() {
        let mut c = LruCache::new(50.0);
        CachePolicy::insert(&mut c, 1, 10.0, 0);
        assert_eq!(CachePolicy::insert(&mut c, 2, 60.0, 0), vec![2]);
        assert!(!CachePolicy::contains(&c, 2));
        assert!(CachePolicy::contains(&c, 1));
    }

    #[test]
    fn remove_frees_space() {
        let mut c = LruCache::new(100.0);
        c.insert(1, 40.0);
        assert_eq!(c.remove(1), Some(40.0));
        assert_eq!(c.remove(1), None);
        assert_eq!(c.used_mb(), 0.0);
        assert!(c.is_empty());
    }

    #[test]
    fn slots_grow_to_the_largest_key() {
        let mut c = LruCache::new(10.0);
        for round in 0..5 {
            for i in 0..10 {
                c.insert(round * 10 + i, 1.0);
            }
        }
        assert_eq!(c.len(), 10);
        assert_eq!(c.slots.len(), 50, "one slot per key up to the largest");
        assert!(!c.contains(50) && c.touch(1_000).is_none() && c.remove(u64::MAX).is_none());
    }

    #[test]
    fn mru_order_is_maintained() {
        let mut c = LruCache::new(100.0);
        for k in [1, 2, 3] {
            c.insert(k, 10.0);
        }
        c.touch(2);
        assert_eq!(c.keys_mru(), vec![2, 3, 1]);
    }

    #[test]
    fn with_capacity_preallocates() {
        let mut c = LruCache::with_capacity(100.0, 64);
        assert!(c.slots.capacity() >= 64);
        for i in 0..10u64 {
            c.insert(i, 1.0);
        }
        assert_eq!(c.len(), 10);
    }

    #[test]
    fn queue_stays_bounded_under_touches() {
        let mut c = LruCache::new(100.0);
        for k in 0..8 {
            c.insert(k, 1.0);
        }
        for i in 0..100_000u64 {
            c.touch(i % 8);
            assert!(c.queue.len() <= 2 * c.len() + QUEUE_SLACK, "queue {}", c.queue.len());
        }
        assert_eq!(c.keys_mru(), vec![7, 6, 5, 4, 3, 2, 1, 0]);
    }
}
