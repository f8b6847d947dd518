#![warn(missing_docs)]

//! # odx-stats — statistics toolkit for the offline-downloading study
//!
//! Everything the measurement analysis needs, implemented from scratch on top
//! of `rand`'s uniform primitives:
//!
//! * [`dist`] — samplers: log-normal (Marsaglia polar), bounded Pareto,
//!   log-uniform, discrete power laws and Zipf over ranks.
//! * [`Ecdf`] — empirical CDFs with quantiles and compact summaries; these
//!   back every CDF figure in the paper (Figs 5, 8, 9, 13, 14, 17).
//! * [`fit`] — least-squares fitting of the Zipf and stretched-exponential
//!   (SE) rank-frequency models used in Figs 6–7, including the paper's
//!   "average relative error of fitness" metric.
//! * [`BinnedSeries`] — time-binned accumulation of rates (the 5-minute
//!   bandwidth-burden series of Fig 11).
//! * [`ks`] — two-sample Kolmogorov–Smirnov distance, quantifying the
//!   paper's visual CDF-similarity claims.

pub mod dist;
mod ecdf;
pub mod fit;
pub mod ks;
mod timeseries;

pub use ecdf::{Ecdf, Summary};
pub use timeseries::BinnedSeries;
