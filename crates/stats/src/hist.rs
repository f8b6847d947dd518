//! Fixed-width and logarithmic histograms.

/// A histogram over `[lo, hi)` with equal-width (or log-width) bins, plus
/// underflow/overflow counters.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    log: bool,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Equal-width bins over `[lo, hi)`.
    pub fn linear(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0, "invalid histogram bounds");
        Histogram { lo, hi, log: false, counts: vec![0; bins], underflow: 0, overflow: 0, total: 0 }
    }

    /// Log-width bins over `[lo, hi)` (both strictly positive).
    pub fn logarithmic(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && lo > 0.0 && bins > 0, "invalid log histogram bounds");
        Histogram { lo, hi, log: true, counts: vec![0; bins], underflow: 0, overflow: 0, total: 0 }
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        if x >= self.hi {
            self.overflow += 1;
            return;
        }
        let frac = if self.log {
            (x.ln() - self.lo.ln()) / (self.hi.ln() - self.lo.ln())
        } else {
            (x - self.lo) / (self.hi - self.lo)
        };
        let idx = ((frac * self.counts.len() as f64) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Bin counts (excluding under/overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the range's upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples recorded (including under/overflow).
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_binning() {
        let mut h = Histogram::linear(0.0, 10.0, 5);
        for x in [0.0, 1.9, 2.0, 9.99, -1.0, 10.0, 55.0] {
            h.record(x);
        }
        assert_eq!(h.counts(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn log_binning() {
        let mut h = Histogram::logarithmic(1.0, 1000.0, 3);
        for x in [1.0, 5.0, 50.0, 500.0, 999.0] {
            h.record(x);
        }
        assert_eq!(h.counts(), &[2, 1, 2]);
    }

    #[test]
    fn ignores_nan() {
        let mut h = Histogram::linear(0.0, 1.0, 1);
        h.record(f64::NAN);
        assert_eq!(h.total(), 0);
    }
}
