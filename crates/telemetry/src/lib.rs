//! # odx-telemetry — deterministic metrics & virtual-time tracing
//!
//! The observability substrate for the odx stack: a [`Registry`] of
//! named [`Counter`]s, [`Gauge`]s, and log-bucketed [`Histogram`]s
//! with exact merge semantics, plus a [`Tracer`] recording span
//! open/close events stamped with **virtual time** (milliseconds from
//! `odx-sim`'s clock, never wall-clock). Because every recorded value
//! is either an integer or derived from the deterministic replay
//! itself, two runs with the same seed produce **byte-identical**
//! snapshot exports ([`Snapshot::to_json`] / [`Snapshot::to_csv`]).
//!
//! Zero external dependencies by design: every crate in the workspace
//! can instrument itself without widening its dependency graph.
//!
//! ## Usage
//!
//! Deep call-sites that cannot thread a registry through their
//! signatures record into [`global()`]; replay entry points accept an
//! explicit `&Registry` so tests can isolate and diff snapshots.
//!
//! ```
//! use odx_telemetry::Registry;
//!
//! let registry = Registry::new();
//! registry.counter("cloud.cache.hit").inc();
//! registry.histogram("cloud.fetch_speed_kbps").record(740);
//! let span = registry.tracer().open("cloud.replay", 0);
//! registry.tracer().close("cloud.replay", span, 604_800_000);
//! let json = registry.snapshot().to_json();
//! assert!(json.contains("cloud.cache.hit"));
//! ```

#![warn(missing_docs)]

mod chrome;
mod export;
mod flight;
mod hist;
mod prof;
mod registry;
mod series;
mod task;
mod trace;

pub use chrome::{validate_chrome_trace, ChromeTraceStats};
pub use flight::{FlightDump, FlightEvent, FlightRecorder, FlightSnapshot};
pub use hist::{Histogram, HistogramSnapshot};
pub use prof::{render_rows, rows_from_walls, HandlerProfiler, ProfRow};
pub use registry::{Counter, Gauge, HistogramHandle, Registry, Snapshot};
pub use series::{
    publish_series, published_series, MetricSeries, SeriesRecorder, SeriesSet, SeriesSnapshot,
};
pub use task::{
    Attribution, Lifecycle, LifecycleReport, Stage, StageAgg, TaskEnd, TaskSpan, TaskTrace,
    TaskTraceSet, TaskTracer, TraceConfig,
};
pub use trace::{SpanEvent, SpanKind, TraceSnapshot, Tracer};

use std::sync::OnceLock;

/// Optional observers for a replay: any combination of per-task
/// lifecycle tracing, virtual-time series recording, and wall profiling.
/// [`Default`] is the unobserved replay. Every backend takes the same
/// bundle, and observing a run never changes its report or its
/// deterministic registry snapshot.
#[derive(Default)]
pub struct Observers<'a> {
    /// Per-task lifecycle tracing (`None` = off).
    pub trace: Option<&'a TraceConfig>,
    /// Virtual-time series recording: the replay registers its headline
    /// counters on the recorder, samples them on its virtual clock, and
    /// finishes the series at the end-of-run clock.
    pub series: Option<SeriesRecorder>,
    /// Wall profiling: per-handler and scheduler-pop `Instant` buckets,
    /// flushed into the registry's wall section. Only the DES-driven cloud
    /// week has handlers to time; the sequential smart-AP and ODR
    /// harnesses ignore it.
    pub profile: bool,
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry.
///
/// Library call-sites too deep to receive an explicit registry record
/// here. Single-process deterministic runs (the `repro` binary) dump
/// this registry; tests that need isolation should construct their own
/// [`Registry`] instead of asserting on the global one, since parallel
/// test threads share it.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}
