//! Empirical cumulative distribution functions.

use std::fmt;

/// An empirical CDF over a finite sample. Construction sorts once; queries
/// are O(log n).
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

/// Compact distribution summary, mirroring the statistics the paper quotes
/// under each CDF figure (min / median / average / max, plus quartiles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Third quartile.
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Largest sample.
    pub max: f64,
}

impl Ecdf {
    /// Build from samples. Non-finite values are dropped.
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| x.is_finite());
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Ecdf { sorted: samples }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// F(x): fraction of samples ≤ `x`. Zero for an empty sample.
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Fraction of samples strictly below `x` (used for "below the 125 KBps
    /// HD threshold" style statistics).
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&s| s < x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) with linear interpolation between order
    /// statistics. `None` on an empty sample.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac)
    }

    /// The median (`None` on empty samples).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Arithmetic mean (`None` on empty samples).
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Full summary; `None` on an empty sample.
    pub fn summary(&self) -> Option<Summary> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(Summary {
            count: self.len(),
            min: self.min().unwrap(),
            p25: self.quantile(0.25).unwrap(),
            median: self.median().unwrap(),
            mean: self.mean().unwrap(),
            p75: self.quantile(0.75).unwrap(),
            p90: self.quantile(0.9).unwrap(),
            max: self.max().unwrap(),
        })
    }

    /// `n` evenly spaced `(x, F(x))` points for plotting/export.
    pub fn curve(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return Vec::new();
        }
        (0..n)
            .map(|i| {
                let q = i as f64 / (n - 1).max(1) as f64;
                (self.quantile(q).unwrap(), q)
            })
            .collect()
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={:.3} p25={:.3} median={:.3} mean={:.3} p75={:.3} p90={:.3} max={:.3}",
            self.count, self.min, self.p25, self.median, self.mean, self.p75, self.p90, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.quantile(0.0), Some(1.0));
        assert_eq!(e.quantile(1.0), Some(4.0));
        assert_eq!(e.median(), Some(2.5));
        assert_eq!(e.quantile(1.0 / 3.0), Some(2.0));
    }

    #[test]
    fn fractions() {
        let e = Ecdf::new(vec![10.0, 20.0, 20.0, 30.0]);
        assert_eq!(e.fraction_at_most(20.0), 0.75);
        assert_eq!(e.fraction_below(20.0), 0.25);
        assert_eq!(e.fraction_at_most(5.0), 0.0);
        assert_eq!(e.fraction_at_most(100.0), 1.0);
    }

    #[test]
    fn drops_non_finite() {
        let e = Ecdf::new(vec![1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(e.len(), 2);
        assert_eq!(e.max(), Some(2.0));
    }

    #[test]
    fn empty_sample() {
        let e = Ecdf::new(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.median(), None);
        assert_eq!(e.summary(), None);
        assert_eq!(e.fraction_at_most(1.0), 0.0);
        assert!(e.curve(5).is_empty());
    }

    #[test]
    fn summary_fields() {
        let e = Ecdf::new((1..=100).map(|i| i as f64).collect());
        let s = e.summary().unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.median - 50.5).abs() < 1e-9);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!((s.p90 - 90.1).abs() < 1e-9);
    }

    #[test]
    fn curve_is_monotone() {
        let e = Ecdf::new(vec![5.0, 1.0, 9.0, 3.0, 3.0]);
        let pts = e.curve(20);
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
    }
}
