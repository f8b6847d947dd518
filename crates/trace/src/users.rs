//! The user population.

use odx_net::{AccessModel, Isp, IspMix};
use odx_stats::dist::u01;
use rand::Rng;

/// One service user.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct User {
    /// The user's ISP (decides privileged-path eligibility).
    pub isp: Isp,
    /// Last-mile download bandwidth (KBps).
    pub access_kbps: f64,
    /// Whether this user's client reports access bandwidth (§4.2 note 2:
    /// some users don't; §5.1 sampling requires it).
    pub reports_bandwidth: bool,
}

/// Generator configuration for the population.
#[derive(Debug, Clone, Copy)]
pub struct PopulationConfig {
    /// Number of users.
    pub users: usize,
    /// ISP mix.
    pub isp_mix: IspMix,
    /// Access-bandwidth model.
    pub access: AccessModel,
    /// Fraction of users whose client reports access bandwidth.
    pub reporting_fraction: f64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            users: crate::PAPER_USERS,
            isp_mix: IspMix::default(),
            access: AccessModel::default(),
            reporting_fraction: 0.8,
        }
    }
}

impl PopulationConfig {
    /// A population scaled to `scale` × the paper's user count.
    pub fn scaled(scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        PopulationConfig {
            users: ((crate::PAPER_USERS as f64 * scale) as usize).max(50),
            ..PopulationConfig::default()
        }
    }
}

/// The generated user population.
#[derive(Debug, Clone)]
pub struct Population {
    users: Vec<User>,
}

impl Population {
    /// Generate users from the config. Deterministic in `rng`.
    pub fn generate(cfg: &PopulationConfig, rng: &mut dyn Rng) -> Self {
        let users = (0..cfg.users)
            .map(|_| User {
                isp: cfg.isp_mix.sample(rng),
                access_kbps: cfg.access.sample(rng),
                reports_bandwidth: u01(rng) < cfg.reporting_fraction,
            })
            .collect();
        Population { users }
    }

    /// All users.
    pub fn users(&self) -> &[User] {
        &self.users
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Look up by index.
    pub fn user(&self, index: u32) -> &User {
        &self.users[index as usize]
    }

    /// Draw a uniformly random user index.
    pub fn sample_index(&self, rng: &mut dyn Rng) -> u32 {
        (rng.next_u64() % self.users.len() as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn population() -> Population {
        let mut rng = StdRng::seed_from_u64(50);
        Population::generate(&PopulationConfig::scaled(0.05), &mut rng)
    }

    #[test]
    fn isp_mix_has_barrier_population() {
        let p = population();
        let outside =
            p.users().iter().filter(|u| !u.isp.is_major()).count() as f64 / p.len() as f64;
        assert!((outside - 0.096).abs() < 0.01, "outside majors: {outside}");
    }

    #[test]
    fn access_bandwidth_spans_paper_range() {
        let p = population();
        let below_hd =
            p.users().iter().filter(|u| u.access_kbps < 125.0).count() as f64 / p.len() as f64;
        assert!((below_hd - 0.108).abs() < 0.02, "below HD: {below_hd}");
    }

    #[test]
    fn most_users_report_bandwidth() {
        let p = population();
        let reporting =
            p.users().iter().filter(|u| u.reports_bandwidth).count() as f64 / p.len() as f64;
        assert!((reporting - 0.8).abs() < 0.02, "{reporting}");
    }

    #[test]
    fn sample_index_in_range() {
        let p = population();
        let mut rng = StdRng::seed_from_u64(51);
        for _ in 0..1000 {
            assert!((p.sample_index(&mut rng) as usize) < p.len());
        }
    }
}
