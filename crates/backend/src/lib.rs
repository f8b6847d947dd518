#![warn(missing_docs)]

//! # odx-backend — the proxy execution layer
//!
//! §6 of the paper treats one offline-downloading request as servable by
//! four interchangeable proxies: the cloud, the user's smart AP, the user's
//! own device, or a cloud→AP relay. This crate is the single execution
//! layer behind all of them:
//!
//! * [`ProxyRequest`] — everything a proxy needs to know about one request:
//!   the file (size/type/protocol/popularity), the user (ISP + access
//!   bandwidth) and the user's AP, if any.
//! * [`Outcome`] — the one result struct shared by every evaluator: speed,
//!   delay, bytes moved per leg (source→proxy, cloud→user, LAN), and the
//!   §4.1/§5.2 failure taxonomy.
//! * [`ProxyBackend`] — the trait: `execute(&mut self, req, ctx) -> Outcome`.
//!   [`CloudBackend`], [`SmartApBackend`], [`UserDeviceBackend`] and
//!   [`CloudAssistedApBackend`] implement it with the mechanism models from
//!   `odx-p2p`, `odx-net`, `odx-storage` and `odx-smartap`.
//! * [`ExecCtx`] — mutable per-replay state shared across backends: the
//!   task RNG and the cloud's content state (cache + retry history), so the
//!   collaborative cache behaves identically whichever proxy touches it.
//! * [`SmartApBenchmark`] — the §5.1 sequential three-AP replay harness
//!   (moved here from `odx-smartap` so it drives the trait).
//! * [`Scenario`] / [`ScenarioRegistry`] — named experiment presets
//!   (paper-default, the ablations, and new what-if scenarios) that build a
//!   backend set + workload tweaks from one value; `repro --scenario NAME`
//!   is the user-facing entry point.
//!
//! Every backend records uniform telemetry
//! (`backend.<proxy>.{requests,success,failure,bytes}` plus a speed
//! histogram) through [`BackendMetrics`]; all draws come from the caller's
//! [`ExecCtx`] streams, so same-seed replays are byte-identical.

mod apbench;
mod backends;
mod config;
mod metrics;
mod outcome;
mod request;
mod scenario;

pub use apbench::{ApBenchReport, ApTaskRecord, SmartApBenchmark};
pub use backends::{CloudAssistedApBackend, CloudBackend, SmartApBackend, UserDeviceBackend};
pub use config::{apply_dynamics, BackendConfig};
pub use metrics::BackendMetrics;
pub use odx_cache::{CacheConfig, PolicyKind};
pub use odx_faults::{FaultPlan, FaultsConfig};
pub use outcome::Outcome;
pub use request::{ApContext, CloudContentState, ExecCtx, ProxyRequest};
pub use scenario::{Scenario, ScenarioRegistry};

/// A proxy that can serve one offline-downloading request.
///
/// Implementations are *mechanisms*, not policies: the caller (ODR's
/// replay, the §5.1 benchmark, the week replay) decides which backend a
/// request goes to; `execute` only simulates what that proxy would do.
///
/// Contract:
/// * all randomness is drawn from `ctx` (backends hold distributions, not
///   RNG state), so a replay's draw order is fully determined by its
///   request sequence;
/// * cloud-side shared state (cache contents, retry history) lives in
///   [`ExecCtx::cloud`] and is visible to every backend in the replay;
/// * `Outcome::rate_kbps` is zero whenever `Outcome::success` is false.
pub trait ProxyBackend {
    /// Stable proxy name, used for telemetry (`backend.<name>.…`) and
    /// display. Matches the `Decision` display strings of `odx-odr`.
    fn name(&self) -> &'static str;

    /// Serve `req`, mutating the shared replay state in `ctx`.
    fn execute(&mut self, req: &ProxyRequest, ctx: &mut ExecCtx) -> Outcome;
}
