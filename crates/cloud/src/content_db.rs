//! The content database: per-file metadata and popularity statistics.
//!
//! §2.1: every file is identified by the MD5 of its content; the DB tracks
//! users and cached files. §6.1: ODR's first step on every request is to
//! "query the content database of Xuanfeng to obtain the popularity
//! information of the requested file" — this type is that queryable surface.
//!
//! Files are addressed by catalog position, which the replay's requests
//! already carry (a [`FileId`](odx_trace::FileId)'s high 64 bits are that
//! position), so the DB is a plain vector with no id index.

use odx_stats::dist::u01;
use odx_trace::Catalog;
use rand::Rng;

/// Dynamic per-file state tracked by the database.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileState {
    /// Whether the file currently sits in the cloud storage pool.
    pub cached: bool,
    /// Failed pre-download attempts so far.
    pub failed_attempts: u32,
}

/// The metadata database over a catalog.
pub struct ContentDb {
    states: Vec<FileState>,
}

impl ContentDb {
    /// An empty (cold) database over the catalog's file universe.
    pub fn new(catalog: &Catalog) -> Self {
        ContentDb { states: vec![FileState::default(); catalog.len()] }
    }

    /// Warm the cache state as of the start of the measurement week: a file
    /// with `w` weekly requests is already cached with probability
    /// `w / (w + pivot)` (§2.1's pool accumulated it in previous weeks).
    /// Returns the indices warmed, so the caller can populate the LRU pool.
    pub fn warm(&mut self, catalog: &Catalog, pivot: f64, rng: &mut dyn Rng) -> Vec<u32> {
        let mut warmed = Vec::new();
        for (i, f) in catalog.files().iter().enumerate() {
            let w = f.weekly_requests as f64;
            if u01(rng) < w / (w + pivot) {
                self.states[i].cached = true;
                warmed.push(i as u32);
            }
        }
        warmed
    }

    /// State of a file.
    pub fn state(&self, index: u32) -> &FileState {
        &self.states[index as usize]
    }

    /// Mutable state of a file.
    pub fn state_mut(&mut self, index: u32) -> &mut FileState {
        &mut self.states[index as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odx_trace::{CatalogConfig, PopularityClass};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Catalog, ContentDb) {
        let mut rng = StdRng::seed_from_u64(80);
        let catalog = Catalog::generate(&CatalogConfig::scaled(0.02), &mut rng);
        let db = ContentDb::new(&catalog);
        (catalog, db)
    }

    #[test]
    fn cold_db_has_nothing_cached() {
        let (catalog, db) = setup();
        assert!((0..catalog.len() as u32).all(|i| !db.state(i).cached));
    }

    #[test]
    fn id_resolution() {
        let (catalog, db) = setup();
        for (i, f) in catalog.files().iter().enumerate().take(100) {
            assert_eq!(f.id.0 >> 64, i as u128, "an id's high bits are its catalog position");
            assert!(!db.state(i as u32).cached);
        }
    }

    #[test]
    fn warming_favours_popular_files() {
        let (catalog, mut db) = setup();
        let mut rng = StdRng::seed_from_u64(81);
        db.warm(&catalog, 1.1, &mut rng);
        let mut hot = (0, 0);
        let mut cold = (0, 0);
        for (i, f) in catalog.files().iter().enumerate() {
            let cached = db.state(i as u32).cached;
            if f.class() == PopularityClass::HighlyPopular {
                hot = (hot.0 + cached as u32, hot.1 + 1);
            } else if f.weekly_requests <= 2 {
                cold = (cold.0 + cached as u32, cold.1 + 1);
            }
        }
        let hot_rate = hot.0 as f64 / hot.1 as f64;
        let cold_rate = cold.0 as f64 / cold.1 as f64;
        assert!(hot_rate > 0.97, "hot files nearly always pre-cached: {hot_rate}");
        assert!(cold_rate < 0.70, "rarely requested files mostly cold: {cold_rate}");
    }

    #[test]
    fn state_mutation_round_trips() {
        let (_, mut db) = setup();
        db.state_mut(3).cached = true;
        db.state_mut(3).failed_attempts = 5;
        assert!(db.state(3).cached);
        assert_eq!(db.state(3).failed_attempts, 5);
        assert!(!db.state(4).cached);
    }
}
