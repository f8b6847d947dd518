//! Rank-frequency model fitting (Figures 6 and 7 of the paper).
//!
//! The paper fits two models to the file-popularity rank-frequency data:
//!
//! * **Zipf**: `log(y) = -a₁·log(x) + b₁`   — a straight line in log-log.
//! * **Stretched exponential (SE)**: `yᶜ = -a₂·log(x) + b₂` — a straight
//!   line when the y axis is raised to a small power `c` (the paper uses
//!   `c = 0.01`).
//!
//! Both are fitted by ordinary least squares in the transformed space, and
//! compared with the paper's metric: the *average relative error of fitness*
//! in linear space, `mean(|ŷ − y| / y)`. The paper reports 15.3 % for Zipf
//! and 13.7 % for SE, the gap being attributed to the fetch-at-most-once
//! behaviour of P2P video files flattening the head of the curve.
//!
//! Logarithms are base-10 throughout (matching the figures' axes).

/// Result of an ordinary-least-squares line fit `y = slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination in the fitted space.
    pub r2: f64,
}

/// Ordinary least squares over `(x, y)` pairs. Panics on fewer than two
/// points or zero x-variance.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> LineFit {
    assert_eq!(xs.len(), ys.len(), "length mismatch");
    assert!(xs.len() >= 2, "need at least two points");
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    assert!(sxx > 0.0, "x has no variance");
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_res: f64 = xs.iter().zip(ys).map(|(x, y)| (y - (slope * x + intercept)).powi(2)).sum();
    let ss_tot: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
    let r2 = if ss_tot > 0.0 { 1.0 - ss_res / ss_tot } else { 1.0 };
    LineFit { slope, intercept, r2 }
}

/// A fitted rank-frequency model with the paper's goodness metric.
#[derive(Debug, Clone, Copy)]
pub struct RankFit {
    /// Model coefficient `a` (the paper's a₁ / a₂; slope is `-a`).
    pub a: f64,
    /// Model intercept `b` (the paper's b₁ / b₂).
    pub b: f64,
    /// Stretch exponent `c` (1.0 means plain Zipf; the SE fit reports the
    /// `c` actually used).
    pub c: f64,
    /// Average relative error of fitness in linear space.
    pub avg_rel_error: f64,
    /// R² in the transformed (fitted) space.
    pub r2: f64,
}

impl RankFit {
    /// The model's predicted popularity at rank `x` (1-based).
    pub fn predict(&self, x: f64) -> f64 {
        let lx = x.log10();
        if (self.c - 1.0).abs() < 1e-12 {
            10f64.powf(-self.a * lx + self.b)
        } else {
            let transformed = (-self.a * lx + self.b).max(0.0);
            transformed.powf(1.0 / self.c)
        }
    }
}

/// Sorted-descending rank-frequency counts from raw per-item counts.
/// Zero counts are dropped (rank-frequency plots only contain observed items).
pub fn rank_frequency(counts: &[u64]) -> Vec<f64> {
    let mut ys: Vec<f64> = counts.iter().filter(|&&c| c > 0).map(|&c| c as f64).collect();
    ys.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
    ys
}

fn avg_rel_error(ranked: &[f64], fit: &RankFit) -> f64 {
    let total: f64 = ranked
        .iter()
        .enumerate()
        .map(|(i, &y)| ((fit.predict((i + 1) as f64) - y) / y).abs())
        .sum();
    total / ranked.len() as f64
}

/// Fit the Zipf model to descending rank-frequency data
/// (`ranked[i]` is the count of the rank-`i+1` item).
pub fn fit_zipf(ranked: &[f64]) -> RankFit {
    assert!(ranked.len() >= 2, "need at least two ranks");
    let xs: Vec<f64> = (1..=ranked.len()).map(|i| (i as f64).log10()).collect();
    let ys: Vec<f64> = ranked.iter().map(|y| y.log10()).collect();
    let line = linear_fit(&xs, &ys);
    let mut fit =
        RankFit { a: -line.slope, b: line.intercept, c: 1.0, avg_rel_error: 0.0, r2: line.r2 };
    fit.avg_rel_error = avg_rel_error(ranked, &fit);
    fit
}

/// Fit the stretched-exponential model with a fixed stretch exponent `c`.
pub fn fit_se(ranked: &[f64], c: f64) -> RankFit {
    assert!(ranked.len() >= 2, "need at least two ranks");
    assert!(c > 0.0 && c <= 1.0, "stretch exponent must be in (0, 1]");
    let xs: Vec<f64> = (1..=ranked.len()).map(|i| (i as f64).log10()).collect();
    let ys: Vec<f64> = ranked.iter().map(|y| y.powf(c)).collect();
    let line = linear_fit(&xs, &ys);
    let mut fit = RankFit { a: -line.slope, b: line.intercept, c, avg_rel_error: 0.0, r2: line.r2 };
    fit.avg_rel_error = avg_rel_error(ranked, &fit);
    fit
}

/// Fit SE scanning a grid of stretch exponents, keeping the best (smallest
/// average relative error). The paper fixes `c = 0.01`; the grid view shows
/// that choice is near-optimal for this workload shape.
pub fn fit_se_best_c(ranked: &[f64], grid: &[f64]) -> RankFit {
    assert!(!grid.is_empty(), "empty grid");
    grid.iter()
        .map(|&c| fit_se(ranked, c))
        .min_by(|a, b| a.avg_rel_error.partial_cmp(&b.avg_rel_error).expect("finite errors"))
        .expect("non-empty grid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Zipf;

    #[test]
    fn linear_fit_recovers_exact_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 3.0, 5.0, 7.0];
        let f = linear_fit(&xs, &ys);
        assert!((f.slope - 2.0).abs() < 1e-12);
        assert!((f.intercept - 1.0).abs() < 1e-12);
        assert!((f.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_fit_recovers_exponent_on_ideal_data() {
        // Ideal Zipf(s = 1.034) counts — the paper's fitted exponent.
        let z = Zipf::new(10_000, 1.034);
        let ranked = z.expected_counts(4_000_000.0);
        let fit = fit_zipf(&ranked);
        assert!((fit.a - 1.034).abs() < 0.02, "a = {}", fit.a);
        assert!(fit.avg_rel_error < 0.05, "err = {}", fit.avg_rel_error);
        assert!(fit.r2 > 0.999);
    }

    #[test]
    fn predict_inverts_zipf_transform() {
        let fit = RankFit { a: 1.0, b: 3.0, c: 1.0, avg_rel_error: 0.0, r2: 1.0 };
        assert!((fit.predict(1.0) - 1000.0).abs() < 1e-9);
        assert!((fit.predict(10.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn predict_inverts_se_transform() {
        // y^0.01 = -0.01·log10(x) + 1.134  (the paper's fitted SE params)
        let fit = RankFit { a: 0.01, b: 1.134, c: 0.01, avg_rel_error: 0.0, r2: 1.0 };
        let y1 = fit.predict(1.0);
        assert!((y1 - 1.134f64.powf(100.0)).abs() / y1 < 1e-9);
        // Monotone decreasing in rank.
        assert!(fit.predict(10.0) < fit.predict(1.0));
    }

    #[test]
    fn se_fits_flattened_head_better_than_zipf() {
        // Construct a Zipf body with a flattened head — the paper's
        // fetch-at-most-once effect — and check SE wins on relative error.
        let z = Zipf::new(50_000, 1.0);
        let mut ranked = z.expected_counts(4_000_000.0);
        for (i, y) in ranked.iter_mut().take(200).enumerate() {
            // Compress the head towards the rank-200 value.
            let damp = 0.35 + 0.65 * (i as f64 / 200.0);
            *y = y.powf(damp) * ranked_head_anchor(damp);
        }
        ranked.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let zipf = fit_zipf(&ranked);
        let se = fit_se_best_c(&ranked, &[0.005, 0.01, 0.02, 0.05, 0.1]);
        assert!(
            se.avg_rel_error < zipf.avg_rel_error,
            "SE {} should beat Zipf {}",
            se.avg_rel_error,
            zipf.avg_rel_error
        );
    }

    fn ranked_head_anchor(damp: f64) -> f64 {
        // Keep damped head values in a plausible numeric range.
        10f64.powf(2.0 * (1.0 - damp))
    }

    #[test]
    fn rank_frequency_sorts_and_drops_zeros() {
        let rf = rank_frequency(&[3, 0, 7, 1, 0]);
        assert_eq!(rf, vec![7.0, 3.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn fit_requires_two_points() {
        fit_zipf(&[5.0]);
    }
}
