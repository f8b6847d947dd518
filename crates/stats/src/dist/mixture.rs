//! Mixture and empirical distributions.

use super::{u01, Dist};
use rand::Rng;

/// A finite mixture of boxed component distributions with arbitrary weights.
///
/// The workload's file-size model is a mixture: a small-file component
/// (demo videos, pictures, documents) and a large-video body (§3 / Fig 5).
pub struct Mixture {
    components: Vec<(f64, Box<dyn Dist + Send + Sync>)>,
}

impl Mixture {
    /// Build from `(weight, component)` pairs; weights are normalized and
    /// must be non-negative with a positive sum.
    pub fn new(components: Vec<(f64, Box<dyn Dist + Send + Sync>)>) -> Self {
        assert!(!components.is_empty(), "mixture needs at least one component");
        let total: f64 = components.iter().map(|(w, _)| *w).sum();
        assert!(total > 0.0 && components.iter().all(|(w, _)| *w >= 0.0), "bad weights");
        let components = components.into_iter().map(|(w, d)| (w / total, d)).collect();
        Mixture { components }
    }
}

impl Dist for Mixture {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        let mut u = u01(rng);
        for (w, d) in &self.components {
            if u < *w {
                return d.sample(rng);
            }
            u -= w;
        }
        // Floating point slop: fall through to the last component.
        self.components.last().expect("non-empty").1.sample(rng)
    }
}

impl std::fmt::Debug for Mixture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Mixture({} components)", self.components.len())
    }
}

/// Resample-with-interpolation from an observed sample (smoothed bootstrap
/// without noise): draw a uniform quantile and linearly interpolate between
/// order statistics.
#[derive(Debug, Clone)]
pub struct Empirical {
    sorted: Vec<f64>,
}

impl Empirical {
    /// Build from raw observations (non-finite values dropped; must leave at
    /// least one).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| x.is_finite());
        assert!(!samples.is_empty(), "empirical distribution needs samples");
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Empirical { sorted: samples }
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }
}

impl Dist for Empirical {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        if self.sorted.len() == 1 {
            return self.sorted[0];
        }
        let pos = u01(rng) * (self.sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[lo + 1] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::super::Uniform;
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mixture_weights_respected() {
        let m = Mixture::new(vec![
            (0.25, Box::new(Uniform::new(0.0, 1.0))),
            (0.75, Box::new(Uniform::new(10.0, 11.0))),
        ]);
        let mut rng = StdRng::seed_from_u64(12);
        let xs = m.sample_n(&mut rng, 40_000);
        let small = xs.iter().filter(|&&x| x < 5.0).count() as f64 / xs.len() as f64;
        assert!((small - 0.25).abs() < 0.01, "small fraction {small}");
    }

    #[test]
    fn mixture_normalizes_weights() {
        let m = Mixture::new(vec![
            (2.0, Box::new(Uniform::new(0.0, 1.0))),
            (6.0, Box::new(Uniform::new(10.0, 11.0))),
        ]);
        let mut rng = StdRng::seed_from_u64(13);
        let xs = m.sample_n(&mut rng, 40_000);
        let small = xs.iter().filter(|&&x| x < 5.0).count() as f64 / xs.len() as f64;
        assert!((small - 0.25).abs() < 0.01);
    }

    #[test]
    fn empirical_stays_in_range() {
        let e = Empirical::new(vec![3.0, 1.0, 2.0]);
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..1000 {
            let x = e.sample(&mut rng);
            assert!((1.0..=3.0).contains(&x));
        }
    }

    #[test]
    fn empirical_single_point() {
        let e = Empirical::new(vec![7.0]);
        let mut rng = StdRng::seed_from_u64(15);
        assert_eq!(e.sample(&mut rng), 7.0);
    }

    #[test]
    fn empirical_reproduces_quantiles() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).powf(1.3)).collect();
        let e = Empirical::new(data.clone());
        let mut rng = StdRng::seed_from_u64(16);
        let mut xs = e.sample_n(&mut rng, 100_000);
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[xs.len() / 2];
        let data_med = data[500];
        assert!((med - data_med).abs() / data_med < 0.05, "{med} vs {data_med}");
    }
}
