//! Two-sample Kolmogorov–Smirnov distance.
//!
//! Used to *quantify* the paper's visual claims of CDF similarity — e.g.
//! "the pre-downloading speeds of smart APs are just a bit lower than those
//! of Xuanfeng's pre-downloaders" (Fig 13 overlays both curves).

use crate::Ecdf;

/// The two-sample KS statistic: `sup_x |F_a(x) − F_b(x)|`, in `[0, 1]`.
/// Returns 0 for two empty samples and 1 when exactly one side is empty.
pub fn ks_distance(a: &Ecdf, b: &Ecdf) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    if a.is_empty() || b.is_empty() {
        return 1.0;
    }
    let mut max_gap = 0.0f64;
    for &x in a.samples().iter().chain(b.samples()) {
        let gap = (a.fraction_at_most(x) - b.fraction_at_most(x)).abs();
        max_gap = max_gap.max(gap);
    }
    max_gap
}

/// The asymptotic two-sample KS critical value at significance `alpha`
/// (e.g. 0.05): `c(alpha) * sqrt((n+m)/(n*m))`.
pub fn ks_critical(n: usize, m: usize, alpha: f64) -> f64 {
    assert!(n > 0 && m > 0, "need samples on both sides");
    let c = (-(alpha / 2.0).ln() / 2.0).sqrt();
    c * (((n + m) as f64) / (n as f64 * m as f64)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{u01, Dist, LogNormal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identical_samples_have_zero_distance() {
        let a = Ecdf::new(vec![1.0, 2.0, 3.0]);
        let b = Ecdf::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(ks_distance(&a, &b), 0.0);
    }

    #[test]
    fn disjoint_samples_have_distance_one() {
        let a = Ecdf::new(vec![1.0, 2.0]);
        let b = Ecdf::new(vec![10.0, 20.0]);
        assert_eq!(ks_distance(&a, &b), 1.0);
    }

    #[test]
    fn same_distribution_passes_the_test() {
        let d = LogNormal::from_median(100.0, 1.0);
        let mut rng = StdRng::seed_from_u64(210);
        let a = Ecdf::new(d.sample_n(&mut rng, 4000));
        let b = Ecdf::new(d.sample_n(&mut rng, 4000));
        let dist = ks_distance(&a, &b);
        assert!(dist < ks_critical(4000, 4000, 0.01), "{dist}");
    }

    #[test]
    fn different_distributions_fail_the_test() {
        let mut rng = StdRng::seed_from_u64(211);
        let a = Ecdf::new(LogNormal::from_median(100.0, 1.0).sample_n(&mut rng, 2000));
        let b = Ecdf::new((0..2000).map(|_| 500.0 * u01(&mut rng)).collect());
        let dist = ks_distance(&a, &b);
        assert!(dist > ks_critical(2000, 2000, 0.05), "{dist}");
    }

    #[test]
    fn empty_edge_cases() {
        let empty = Ecdf::new(vec![]);
        let full = Ecdf::new(vec![1.0]);
        assert_eq!(ks_distance(&empty, &empty), 0.0);
        assert_eq!(ks_distance(&empty, &full), 1.0);
    }

    #[test]
    fn critical_value_shrinks_with_sample_size() {
        assert!(ks_critical(100, 100, 0.05) > ks_critical(10_000, 10_000, 0.05));
    }
}
