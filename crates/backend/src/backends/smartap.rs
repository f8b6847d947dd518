//! The smart-AP proxy: the user's AP pre-downloads from the source.

use odx_p2p::{FailureCause, SourceOutcome, SwarmModel};
use odx_smartap::ApEngine;
use odx_stats::dist::{Dist, LogNormal};
use odx_telemetry::{Counter, Registry};

use crate::config::{apply_dynamics, BackendConfig};
use crate::{ApContext, BackendMetrics, ExecCtx, Outcome, ProxyBackend, ProxyRequest};

/// How the AP's attempt is simulated.
enum Mode {
    /// §6.2's evaluation model: the swarm is asked directly, the offered
    /// rate is capped by access × efficiency and the line, and the AP's
    /// storage path caps the result. Residual dynamics apply afterwards.
    HotRelay { swarm: SwarmModel, efficiency: LogNormal },
    /// §5.1's benchmark model: the full [`ApEngine`] pipeline (bug draw,
    /// source attempt, stagnation pruning, protocol overhead, iowait). The
    /// request's own [`ProxyRequest::ap`] is ignored — the engine carries
    /// the AP under test.
    Bench { engine: ApEngine, metrics: BenchMetrics },
}

/// The bench's `smartap.*` counters: attempts, storage write stalls
/// (Table 2's storage-limited transfers) and the §4.1 failure taxonomy.
struct BenchMetrics {
    attempts: Counter,
    write_stall: Counter,
    fail_seeds: Counter,
    fail_connection: Counter,
    fail_bug: Counter,
}

impl BenchMetrics {
    fn new(registry: &Registry) -> Self {
        BenchMetrics {
            attempts: registry.counter("smartap.attempts"),
            write_stall: registry.counter("smartap.write_stall"),
            fail_seeds: registry.counter("smartap.fail.seeds"),
            fail_connection: registry.counter("smartap.fail.connection"),
            fail_bug: registry.counter("smartap.fail.bug"),
        }
    }

    fn record(&self, out: &Outcome) {
        self.attempts.inc();
        if out.storage_limited {
            self.write_stall.inc();
        }
        match out.cause {
            Some(FailureCause::InsufficientSeeds) => self.fail_seeds.inc(),
            Some(FailureCause::PoorConnection) => self.fail_connection.inc(),
            Some(FailureCause::SystemBug) => self.fail_bug.inc(),
            None => {}
        }
    }
}

/// The user's smart AP as one proxy.
pub struct SmartApBackend {
    cfg: BackendConfig,
    mode: Mode,
    metrics: BackendMetrics,
}

impl SmartApBackend {
    /// The §6.2 evaluation backend (used by ODR's replay), recording
    /// `backend.smart-ap.*` into `registry`.
    pub fn hot_relay(cfg: BackendConfig, registry: &Registry) -> Self {
        SmartApBackend {
            cfg,
            mode: Mode::HotRelay {
                swarm: SwarmModel::default(),
                efficiency: super::efficiency_dist(),
            },
            metrics: BackendMetrics::new(registry, "smart-ap"),
        }
    }

    /// The §5.1 benchmark backend for one AP with its actual storage setup
    /// (used by [`crate::SmartApBenchmark`] and the AP-fleet scenarios),
    /// recording `backend.smart-ap.*` and `smartap.*` into `registry`.
    pub fn bench(ap: ApContext, registry: &Registry) -> Self {
        let storage = odx_smartap::StorageSetup { device: ap.device, fs: ap.fs };
        SmartApBackend {
            cfg: BackendConfig::default(),
            mode: Mode::Bench {
                engine: ApEngine::new(ap.model, storage, odx_smartap::ApEngineConfig::default()),
                metrics: BenchMetrics::new(registry),
            },
            metrics: BackendMetrics::new(registry, "smart-ap"),
        }
    }
}

impl ProxyBackend for SmartApBackend {
    fn name(&self) -> &'static str {
        "smart-ap"
    }

    fn execute(&mut self, req: &ProxyRequest, ctx: &mut ExecCtx) -> Outcome {
        let out = match &self.mode {
            Mode::HotRelay { swarm, efficiency } => {
                let eff = efficiency.sample(ctx.rng).clamp(0.3, 1.0);
                match swarm.direct_attempt(req.weekly(), ctx.rng) {
                    SourceOutcome::Serving { rate_kbps } => {
                        let offered =
                            rate_kbps.min(req.access_kbps * eff).min(self.cfg.line_payload_kbps);
                        let ap = req.ap.expect("smart-ap backend requires an AP");
                        let achieved = ap.storage_capped_kbps(offered);
                        let storage_limited = achieved < offered - 1e-9;
                        let mut rate = achieved;
                        apply_dynamics(&mut rate, self.cfg.dynamics_probability, ctx.rng);
                        let mut out = Outcome::success(rate, req.size_mb);
                        out.source_traffic_mb = req.size_mb;
                        out.lan_mb = req.size_mb;
                        out.storage_limited = storage_limited;
                        out
                    }
                    SourceOutcome::Failed { cause } => Outcome::failure(Some(cause)),
                }
            }
            Mode::Bench { engine, metrics } => {
                let ap_out = engine.pre_download(&req.file_meta(), req.access_kbps, ctx.rng);
                let out = Outcome {
                    success: ap_out.success,
                    cause: ap_out.cause,
                    rate_kbps: ap_out.rate_kbps,
                    duration: ap_out.duration,
                    cloud_upload_mb: 0.0,
                    source_traffic_mb: ap_out.traffic_mb,
                    lan_mb: 0.0,
                    iowait: ap_out.iowait,
                    storage_limited: ap_out.storage_limited,
                };
                metrics.record(&out);
                out
            }
        };
        self.metrics.record(&out);
        out
    }
}
