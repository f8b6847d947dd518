#![warn(missing_docs)]

//! # odx-trace — workload models and trace schemas
//!
//! The paper's dataset is one week of complete Xuanfeng logs (Feb 22–28,
//! 2015): 4,084,417 offline-downloading tasks over 563,517 unique files from
//! 783,944 users, recorded as three traces (workload / pre-downloading /
//! fetching). We cannot have those logs, so this crate generates synthetic
//! equivalents whose marginals are calibrated to every §3 statistic:
//!
//! * **File sizes** (Fig 5): min 4 B, median 115 MB, mean 390 MB, max 4 GB,
//!   25 % below 8 MB.
//! * **File types**: 75 % video, 15 % software, 10 % other.
//! * **Protocols**: 68 % BitTorrent, 19 % eMule, 13 % HTTP/FTP.
//! * **Popularity** (Figs 6–7, 10): 93.2 % of files unpopular (< 7
//!   requests/week) receiving 36 % of requests; 0.84 % highly popular (> 84)
//!   receiving 39 %; rank-frequency fits SE better than Zipf.
//!
//! Contents:
//!
//! * [`FileMeta`] / [`Catalog`] — the file population.
//! * [`Population`] — users (ISP, access bandwidth, reporting behaviour).
//! * [`Workload`] — timestamped requests across a simulated week with a
//!   diurnal + day-of-week profile.
//! * [`records`] — the three trace-record schemas with TSV round-tripping.
//! * [`sample_benchmark_workload`] — the §5.1 procedure: 1000 random
//!   Unicom-user requests that carry access-bandwidth information.

mod catalog;
mod file;
pub mod io;
pub mod records;
mod sample;
mod users;
mod workload;

pub use catalog::{Catalog, CatalogConfig};
pub use file::{FileId, FileMeta, FileType, PopularityClass, Protocol};
pub use sample::{sample_benchmark_workload, sample_eval_workload, SampledRequest};
pub use users::{Population, PopulationConfig, User};

// Re-exported for convenience: the ISP type every record carries.
pub use odx_net::Isp;
pub use workload::{Request, Workload, WorkloadConfig};

/// The measurement week: 7 simulated days.
pub const WEEK: odx_sim::SimDuration = odx_sim::SimDuration::from_days(7);

/// Scale of the real dataset: unique files in the measurement week.
pub const PAPER_UNIQUE_FILES: usize = 563_517;

/// Scale of the real dataset: distinct users in the week.
pub const PAPER_USERS: usize = 783_944;
