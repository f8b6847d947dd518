//! Time-binned accumulation of rates.
//!
//! Figure 11 of the paper plots the cloud's upload bandwidth burden in
//! 5-minute bins across the measurement week. [`BinnedSeries`] accumulates
//! the contribution of each flow — a constant rate over `[start, end)` — into
//! such bins, splitting partial overlaps proportionally.

/// A series of equal-width time bins accumulating time-averaged rates.
///
/// Times are f64 seconds (unit-agnostic; callers pick the convention).
/// The value stored per bin is the *average rate during the bin*, i.e. total
/// transferred amount in the bin divided by the bin width.
#[derive(Debug, Clone)]
pub struct BinnedSeries {
    bin_width: f64,
    bins: Vec<f64>,
}

impl BinnedSeries {
    /// A series covering `[0, horizon)` with bins of `bin_width` seconds.
    pub fn new(horizon: f64, bin_width: f64) -> Self {
        assert!(horizon > 0.0 && bin_width > 0.0, "invalid series bounds");
        let n = (horizon / bin_width).ceil() as usize;
        BinnedSeries { bin_width, bins: vec![0.0; n] }
    }

    /// Bin width in seconds.
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True when the series has no bins (never the case post-construction).
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Add a flow transferring at a constant `rate` over `[start, end)`.
    /// Portions outside the series horizon are dropped.
    pub fn add_rate_interval(&mut self, start: f64, end: f64, rate: f64) {
        // `!(end > start)` deliberately rejects NaN endpoints too.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(end > start) || rate <= 0.0 || !rate.is_finite() {
            return;
        }
        let horizon = self.bins.len() as f64 * self.bin_width;
        let start = start.max(0.0);
        let end = end.min(horizon);
        if start >= end {
            return;
        }
        let first = (start / self.bin_width) as usize;
        let last = ((end / self.bin_width).ceil() as usize).min(self.bins.len());
        for (b, bin) in self.bins.iter_mut().enumerate().take(last).skip(first) {
            let bin_start = b as f64 * self.bin_width;
            let bin_end = bin_start + self.bin_width;
            let overlap = (end.min(bin_end) - start.max(bin_start)).max(0.0);
            *bin += rate * overlap / self.bin_width;
        }
    }

    /// Per-bin average rates.
    pub fn values(&self) -> &[f64] {
        &self.bins
    }

    /// `(bin_start_time, rate)` pairs.
    pub fn points(&self) -> Vec<(f64, f64)> {
        self.bins.iter().enumerate().map(|(i, &v)| (i as f64 * self.bin_width, v)).collect()
    }

    /// Peak bin value.
    pub fn peak(&self) -> f64 {
        self.bins.iter().copied().fold(0.0, f64::max)
    }

    /// Index and value of the peak bin.
    pub fn peak_bin(&self) -> (usize, f64) {
        self.bins
            .iter()
            .enumerate()
            .fold((0, 0.0), |acc, (i, &v)| if v > acc.1 { (i, v) } else { acc })
    }

    /// Mean bin value.
    pub fn mean(&self) -> f64 {
        if self.bins.is_empty() {
            0.0
        } else {
            self.bins.iter().sum::<f64>() / self.bins.len() as f64
        }
    }

    /// Sum of `rate × bin_width` over all bins, i.e. the total amount
    /// transferred.
    pub fn total_amount(&self) -> f64 {
        self.bins.iter().sum::<f64>() * self.bin_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_bin_interval() {
        let mut s = BinnedSeries::new(100.0, 10.0);
        s.add_rate_interval(10.0, 20.0, 5.0);
        assert_eq!(s.values()[1], 5.0);
        assert_eq!(s.values()[0], 0.0);
        assert_eq!(s.values()[2], 0.0);
    }

    #[test]
    fn partial_overlap_prorated() {
        let mut s = BinnedSeries::new(30.0, 10.0);
        // 5s..25s at rate 2: bin0 gets 2*(5/10)=1, bin1 gets 2, bin2 gets 1.
        s.add_rate_interval(5.0, 25.0, 2.0);
        assert!((s.values()[0] - 1.0).abs() < 1e-12);
        assert!((s.values()[1] - 2.0).abs() < 1e-12);
        assert!((s.values()[2] - 1.0).abs() < 1e-12);
        assert!((s.total_amount() - 40.0).abs() < 1e-9, "2 units/s × 20 s");
    }

    #[test]
    fn clips_to_horizon() {
        let mut s = BinnedSeries::new(20.0, 10.0);
        s.add_rate_interval(-5.0, 100.0, 1.0);
        assert!((s.total_amount() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn peak_and_mean() {
        let mut s = BinnedSeries::new(30.0, 10.0);
        s.add_rate_interval(0.0, 10.0, 1.0);
        s.add_rate_interval(10.0, 20.0, 3.0);
        assert_eq!(s.peak(), 3.0);
        assert_eq!(s.peak_bin(), (1, 3.0));
        assert!((s.mean() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_ignored() {
        let mut s = BinnedSeries::new(10.0, 1.0);
        s.add_rate_interval(5.0, 5.0, 1.0);
        s.add_rate_interval(6.0, 5.0, 1.0);
        s.add_rate_interval(0.0, 1.0, -2.0);
        s.add_rate_interval(0.0, 1.0, f64::NAN);
        assert_eq!(s.total_amount(), 0.0);
    }
}
