#![warn(missing_docs)]

//! # odx-cloud — the cloud-based offline downloading system (Xuanfeng)
//!
//! A full system model of the cloud studied in §2.1 / §4 of the paper:
//!
//! * [`ContentDb`] — metadata for every known file (MD5-keyed), including
//!   popularity statistics (what ODR queries) and cached status.
//! * the 2 PB collaborative storage pool, now a pluggable
//!   [`odx_cache::CachePolicy`] selected by [`CloudConfig`]'s `cache` field
//!   (single-shard [`odx_cache::LruCache`] by default — the paper's model).
//! * [`PredownloadModel`] — virtual-machine pre-downloaders on 20 Mbps links
//!   with the production 1-hour stagnation timeout.
//! * [`dedup`] — the chunk-level-dedup estimator behind §2.1's design
//!   choice (file-level MD5 dedup; chunking saves < 1 %).
//! * [`streaming`] — view-as-download buffer dynamics: where the 125 KBps
//!   "impeded fetch" threshold comes from.
//! * [`UploadPool`] — per-ISP uploading servers (30 Gbps aggregate),
//!   privileged-path selection, and admission control that *rejects* new
//!   fetches rather than degrade active ones.
//! * [`XuanfengCloud`] / [`WeekReport`] — an event-driven replay of the whole
//!   measurement week on the `odx-sim` engine, producing the pre-downloading
//!   and fetching traces behind Figures 8–11.
//!
//! The replay is scale-parameterized: `scale = 1.0` reproduces the paper's
//! 4.08 M tasks; capacities (upload bandwidth, cache bytes) scale linearly so
//! the congestion behaviour (Bottleneck 2) is scale-invariant.

mod backend;
mod config;
mod content_db;
pub mod dedup;
mod fetch;
mod predownload;
pub mod streaming;
mod system;
mod upload;

pub use backend::CloudWeekBackend;
pub use config::CloudConfig;
pub use content_db::{ContentDb, FileState};
pub use fetch::{FetchModel, FetchPlan};
pub use odx_cache::{CacheConfig, PolicyKind};
pub use odx_telemetry::Observers;
pub use predownload::{PredownloadModel, PredownloadOutcome};
pub use system::{Counters, WeekReport, XuanfengCloud};
pub use upload::{Admission, UploadPool};
