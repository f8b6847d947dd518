//! The §6.2 evaluation: replay a sampled workload through ODR.
//!
//! Every task is routed by the [`OdrEngine`] and then executed by the
//! matching `odx-backend` proxy ([`UserDeviceBackend`], [`CloudBackend`],
//! [`SmartApBackend`], [`CloudAssistedApBackend`]) — the *same* execution
//! layer the baseline systems use, so differences are attributable to the
//! redirection policy alone. The report carries both the ODR-side
//! measurements and an embedded all-AP baseline over the identical sample
//! (the all-cloud baseline is the §4 week replay in `odx-cloud`).

use std::collections::HashMap;

use odx_backend::{
    ApBenchReport, CloudAssistedApBackend, CloudBackend, CloudContentState, ExecCtx, FaultPlan,
    FaultsConfig, ProxyBackend, ProxyRequest, SmartApBackend, SmartApBenchmark, UserDeviceBackend,
};
use odx_net::HD_THRESHOLD_KBPS;
use odx_sim::{RngFactory, SimDuration};
use odx_stats::Ecdf;
use odx_telemetry::{Lifecycle, LifecycleReport, Observers, Registry, Stage, TaskEnd};
use odx_trace::{PopularityClass, SampledRequest};
use serde::Serialize;

use crate::decision::{ApContext, Decision, OdrRequest, Verdict};
use crate::OdrEngine;

/// Evaluation knobs — the shared backend configuration, re-exported under
/// its historical name (the §6.2 defaults are `BackendConfig::default()`).
pub use odx_backend::BackendConfig as ReplayConfig;

/// One evaluated task.
#[derive(Debug, Clone, Serialize)]
pub struct OdrTask {
    /// The replayed request.
    pub request: SampledRequest,
    /// ODR's routing verdict.
    pub verdict: Verdict,
    /// Whether the download ultimately succeeded.
    pub success: bool,
    /// The user-perceived fetching speed (KBps); zero on failure.
    pub fetch_kbps: f64,
    /// Bytes the cloud had to upload for this task (MB).
    pub cloud_upload_mb: f64,
    /// Whether AP storage capped the transfer below what the user's own
    /// path could otherwise have carried (Bottleneck 4 incidence).
    pub storage_limited: bool,
    /// Whether this task's (AP, access) pair was at B4 risk at decision
    /// time — what would have throttled without ODR.
    pub b4_at_risk: bool,
}

/// The evaluation results (Figs 16–17).
pub struct OdrEvalReport {
    tasks: Vec<OdrTask>,
    baseline_ap: ApBenchReport,
    baseline_cloud_upload_mb: f64,
}

impl OdrEvalReport {
    /// All evaluated tasks.
    pub fn tasks(&self) -> &[OdrTask] {
        &self.tasks
    }

    /// The all-AP baseline over the same sample.
    pub fn baseline_ap(&self) -> &ApBenchReport {
        &self.baseline_ap
    }

    /// ODR fetch-speed ECDF (Fig 17); failures contribute 0.
    pub fn fetch_speed_ecdf(&self) -> Ecdf {
        Ecdf::new(self.tasks.iter().map(|t| t.fetch_kbps).collect())
    }

    /// Fraction of *fetching processes* below the HD threshold (Fig 16, B1;
    /// §6.2: 9 %). Failed tasks never fetch, so they are excluded here, as
    /// in the paper's fetching-trace metric.
    pub fn impeded_ratio(&self) -> f64 {
        let ok = self.tasks.iter().filter(|t| t.success).count();
        if ok == 0 {
            return 0.0;
        }
        self.tasks.iter().filter(|t| t.success && t.fetch_kbps < HD_THRESHOLD_KBPS).count() as f64
            / ok as f64
    }

    /// Cloud upload bytes under ODR divided by the all-cloud baseline
    /// (§6.2: burden reduced by 35 % → ratio ≈ 0.65).
    pub fn cloud_upload_fraction(&self) -> f64 {
        let odr: f64 = self.tasks.iter().map(|t| t.cloud_upload_mb).sum();
        odr / self.baseline_cloud_upload_mb.max(1e-9)
    }

    /// Failure ratio over unpopular-file requests (Fig 16, B3; §6.2: 13 %).
    pub fn unpopular_failure_ratio(&self) -> f64 {
        let unpopular: Vec<_> =
            self.tasks.iter().filter(|t| t.request.class() == PopularityClass::Unpopular).collect();
        if unpopular.is_empty() {
            return 0.0;
        }
        unpopular.iter().filter(|t| !t.success).count() as f64 / unpopular.len() as f64
    }

    /// Overall failure ratio.
    pub fn failure_ratio(&self) -> f64 {
        self.tasks.iter().filter(|t| !t.success).count() as f64 / self.tasks.len().max(1) as f64
    }

    /// B4 incidence under ODR: tasks whose AP storage would throttle them
    /// (`b4_at_risk`) that ODR nevertheless routed through the throttling
    /// path with actual harm. §6.2: "almost completely avoided".
    pub fn storage_limited_ratio(&self) -> f64 {
        self.tasks.iter().filter(|t| t.success && t.storage_limited).count() as f64
            / self.tasks.len().max(1) as f64
    }

    /// B4 incidence without ODR: the fraction of tasks whose user would hit
    /// the storage restriction if (as the shipped hybrid solutions do) the
    /// download always went through their AP.
    pub fn baseline_b4_ratio(&self) -> f64 {
        self.tasks.iter().filter(|t| t.b4_at_risk).count() as f64 / self.tasks.len().max(1) as f64
    }

    /// How many tasks each decision received.
    pub fn decision_counts(&self) -> HashMap<Decision, usize> {
        let mut counts = HashMap::new();
        for t in &self.tasks {
            *counts.entry(t.verdict.decision).or_insert(0) += 1;
        }
        counts
    }

    /// Fraction of redirections that turned out wrong (direct/AP downloads
    /// of highly popular files that failed; §6.2: < 1 %).
    pub fn incorrect_ratio(&self) -> f64 {
        let wrong = self
            .tasks
            .iter()
            .filter(|t| {
                !t.success && matches!(t.verdict.decision, Decision::UserDevice | Decision::SmartAp)
            })
            .count();
        wrong as f64 / self.tasks.len().max(1) as f64
    }
}

/// The replay driver: routes each task with the [`OdrEngine`], then hands
/// it to the corresponding proxy backend.
#[derive(Debug, Clone)]
pub struct OdrReplay {
    engine: OdrEngine,
    cfg: ReplayConfig,
    fleet: [ApContext; 3],
    faults: FaultsConfig,
}

impl Default for OdrReplay {
    /// The §6.2 environment: default engine and config over the bench
    /// fleet, no fault injection.
    fn default() -> Self {
        OdrReplay {
            engine: OdrEngine::default(),
            cfg: ReplayConfig::default(),
            fleet: ApContext::bench_fleet(),
            faults: FaultsConfig::default(),
        }
    }
}

impl OdrReplay {
    /// The replay a scenario preset describes: default engine, the
    /// scenario's backend config, AP fleet and fault plan.
    pub fn for_scenario(scenario: &odx_backend::Scenario) -> Self {
        OdrReplay {
            engine: OdrEngine::default(),
            cfg: scenario.backend,
            fleet: scenario.ap_fleet,
            faults: scenario.faults,
        }
    }

    /// Replay `sample` through ODR, counting `odr.*` into `registry`: the
    /// evaluator's one run path. Tasks are assigned APs round-robin over
    /// the replay's fleet and laid end to end on one virtual clock. Tasks
    /// whose decision runs on the AP (`SmartAp`, `CloudThenSmartAp`) see
    /// the smart-AP fault windows open at their start on that clock; the
    /// plan compiles from a dedicated `"odr-faults"` stream. Cloud-domain
    /// windows do not reach the cloud decisions, which are one-shot
    /// backend models. The embedded all-AP baseline replays the same
    /// faults through [`SmartApBenchmark::replay_observed`] with a private
    /// registry. Traces carry each task's verdict as a decision instant
    /// and its execution as a timed span. A series samples `odr.tasks`,
    /// `odr.failures` and `odr.decision.*`. `profile` is a no-op for this
    /// sequential evaluator.
    pub fn replay_observed(
        &self,
        sample: &[SampledRequest],
        rngs: &RngFactory,
        registry: &Registry,
        observers: Observers<'_>,
    ) -> (OdrEvalReport, Option<LifecycleReport>) {
        let plan = FaultPlan::compile(&self.faults, &mut rngs.stream("odr-faults"));
        let lifecycle = observers.trace.map(Lifecycle::new);
        let series = observers.series;
        // Per-file cloud state shared across the replay — the collaborative
        // cache and retry history every cloud-side backend reads and writes.
        let mut cloud_state = CloudContentState::new();
        let mut warm_rng = rngs.stream("odr-warm");
        let mut tasks = Vec::with_capacity(sample.len());

        // One backend per proxy; every task executes through the
        // ProxyBackend trait.
        let mut user_device = UserDeviceBackend::new(self.cfg);
        let mut cloud = CloudBackend::new(self.cfg);
        let mut smart_ap = SmartApBackend::hot_relay(self.cfg);
        let mut cloud_ap = CloudAssistedApBackend::new(self.cfg);

        // Per-proxy decision and bottleneck-detector counters, with
        // handles resolved once per replay rather than once per task.
        let tasks_counter = registry.counter("odr.tasks");
        let failures_counter = registry.counter("odr.failures");
        let decision_counters: Vec<(Decision, odx_telemetry::Counter)> = [
            Decision::UserDevice,
            Decision::Cloud,
            Decision::SmartAp,
            Decision::CloudThenSmartAp,
            Decision::CloudPredownload,
        ]
        .into_iter()
        .map(|d| (d, registry.counter(&format!("odr.decision.{d}"))))
        .collect();
        let bottleneck_counters: Vec<(crate::Bottleneck, odx_telemetry::Counter)> =
            crate::Bottleneck::ALL
                .into_iter()
                .map(|b| (b, registry.counter(&format!("odr.bottleneck.{}", b.key()))))
                .collect();

        if let Some(series) = &series {
            for name in ["odr.tasks", "odr.failures"] {
                series.track_counter(name, registry.counter(name));
            }
            for (d, _) in &decision_counters {
                let name = format!("odr.decision.{d}");
                series.track_counter(&name, registry.counter(&name));
            }
        }

        // The evaluation replays its sample sequentially, laying tasks end
        // to end on one virtual clock.
        let mut clock = SimDuration::ZERO;
        for (i, req) in sample.iter().enumerate() {
            // Same grid discipline as the engine: every grid point the
            // clock has passed is sampled before this task's counters.
            if let Some(series) = &series {
                while series.next_due_ms() < clock.as_millis() {
                    series.sample_due();
                }
            }
            let mut rng = rngs.stream_indexed("odr-task", i as u64);
            let ap = self.fleet[i % self.fleet.len()];
            let is_cached = cloud_state.warm_cached(
                req.file_index,
                req.weekly_requests,
                self.cfg.warm_cache_pivot,
                &mut warm_rng,
            );
            let odr_req = OdrRequest {
                popularity: req.class(),
                protocol: req.protocol,
                cached_in_cloud: is_cached,
                isp: req.isp,
                access_kbps: req.access_kbps,
                ap: Some(ap),
            };
            let verdict = self.engine.decide(&odr_req);
            tasks_counter.inc();
            for (d, c) in &decision_counters {
                if *d == verdict.decision {
                    c.inc();
                }
            }
            for (b, c) in &bottleneck_counters {
                if verdict.addresses.contains(b) {
                    c.inc();
                }
            }

            let proxy_req = ProxyRequest::from_sampled(req, is_cached, Some(ap));
            // Cloud and CloudPredownload are the cached/uncached faces of
            // the same proxy; CloudBackend branches on `cached_in_cloud`,
            // which the engine guarantees matches the decision.
            let backend: &mut dyn ProxyBackend = match verdict.decision {
                Decision::UserDevice => &mut user_device,
                Decision::SmartAp => &mut smart_ap,
                Decision::Cloud | Decision::CloudPredownload => &mut cloud,
                Decision::CloudThenSmartAp => &mut cloud_ap,
            };
            let mut ctx = ExecCtx { rng: &mut rng, cloud: &mut cloud_state };
            let mut out = backend.execute(&proxy_req, &mut ctx);
            if matches!(verdict.decision, Decision::SmartAp | Decision::CloudThenSmartAp) {
                out.apply_ap_fault(&plan, clock.as_millis());
            }
            if !out.success {
                failures_counter.inc();
            }
            if let Some(lifecycle) = &lifecycle {
                let task = i as u64;
                let start = clock.as_millis();
                let end = (clock + out.duration).as_millis();
                let decision = match verdict.decision {
                    Decision::UserDevice => "user_device",
                    Decision::Cloud => "cloud",
                    Decision::SmartAp => "smart_ap",
                    Decision::CloudThenSmartAp => "cloud_then_smart_ap",
                    Decision::CloudPredownload => "cloud_predownload",
                };
                lifecycle.tasks.instant(task, Stage::Arrival, start, None);
                lifecycle.tasks.instant(task, Stage::Decision, start, Some(decision));
                lifecycle.tasks.span(task, Stage::Fetch, start, end, Some(decision));
                lifecycle.flight.record(start, "odr_task");
                if out.success {
                    lifecycle.tasks.finish(task, TaskEnd::Completed, end);
                } else {
                    lifecycle.tasks.finish(task, TaskEnd::Failed, end);
                    if lifecycle.tasks.sampled(task) {
                        lifecycle.flight.dump(task, "failure", end);
                    }
                }
            }
            clock = clock + out.duration;
            tasks.push(OdrTask {
                request: *req,
                verdict,
                success: out.success,
                fetch_kbps: out.rate_kbps,
                cloud_upload_mb: out.cloud_upload_mb,
                storage_limited: out.storage_limited,
                b4_at_risk: crate::Bottleneck::b4_at_risk(&odr_req),
            });
        }

        if let Some(series) = &series {
            series.finish(clock.as_millis());
        }

        // Baselines over the identical sample, fleet and faults.
        let (baseline_ap, _) = SmartApBenchmark::replay_observed(
            sample,
            &self.fleet,
            &self.faults,
            &rngs.child("odr-baseline-ap"),
            &Registry::new(),
            Observers::default(),
        );
        let baseline_cloud_upload_mb = sample.iter().map(|r| r.size_mb).sum();

        (
            OdrEvalReport { tasks, baseline_ap, baseline_cloud_upload_mb },
            lifecycle.map(|lifecycle| lifecycle.report()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odx_telemetry::{SeriesRecorder, TraceConfig};
    use odx_trace::{
        sample_eval_workload, Catalog, CatalogConfig, Population, PopulationConfig, Workload,
        WorkloadConfig,
    };
    use rand::SeedableRng;

    fn eval_sample(n: usize, seed: u64) -> Vec<SampledRequest> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let catalog = Catalog::generate(&CatalogConfig::scaled(0.02), &mut rng);
        let population = Population::generate(&PopulationConfig::scaled(0.02), &mut rng);
        let workload =
            Workload::generate(&catalog, &population, &WorkloadConfig::default(), &mut rng);
        sample_eval_workload(&workload, &catalog, &population, n, &mut rng)
    }

    /// An unobserved default replay of `sample` into `registry`.
    fn run(sample: &[SampledRequest], seed: u64, registry: &Registry) -> OdrEvalReport {
        let rngs = RngFactory::new(seed);
        OdrReplay::default().replay_observed(sample, &rngs, registry, Observers::default()).0
    }

    fn eval(n: usize, seed: u64) -> OdrEvalReport {
        run(&eval_sample(n, seed), seed, &Registry::new())
    }

    #[test]
    fn impeded_ratio_drops_to_single_digits() {
        let r = eval(6000, 160);
        let impeded = r.impeded_ratio();
        assert!((impeded - 0.09).abs() < 0.04, "ODR impeded {impeded}");
    }

    #[test]
    fn cloud_burden_reduced_by_about_a_third() {
        let r = eval(6000, 161);
        let frac = r.cloud_upload_fraction();
        assert!((frac - 0.65).abs() < 0.08, "cloud upload fraction {frac}");
    }

    #[test]
    fn unpopular_failures_match_cloud_not_ap() {
        let r = eval(6000, 162);
        let odr = r.unpopular_failure_ratio();
        let ap = r.baseline_ap().unpopular_failure_ratio();
        assert!((odr - 0.13).abs() < 0.06, "ODR unpopular failure {odr}");
        assert!((ap - 0.42).abs() < 0.07, "AP baseline unpopular failure {ap}");
        assert!(odr < 0.5 * ap);
    }

    #[test]
    fn storage_restrictions_mostly_avoided() {
        let r = eval(6000, 163);
        let odr = r.storage_limited_ratio();
        let base = r.baseline_b4_ratio();
        assert!(odr < 0.02, "ODR storage-limited {odr}");
        assert!(base > 0.04, "a real fraction of users is at B4 risk: {base}");
        assert!(odr < 0.25 * base, "ODR {odr} ≪ baseline {base}");
    }

    #[test]
    fn fetch_speeds_match_fig17() {
        let r = eval(6000, 164);
        let s = r.fetch_speed_ecdf().summary().unwrap();
        // Fig 17: median 368, average 509, max 2.37 MBps.
        assert!((s.median - 368.0).abs() / 368.0 < 0.25, "median {}", s.median);
        assert!((s.mean - 509.0).abs() / 509.0 < 0.25, "mean {}", s.mean);
        assert!(s.max <= 2370.0 + 1e-9, "max {}", s.max);
    }

    #[test]
    fn few_incorrect_decisions() {
        let r = eval(6000, 165);
        let wrong = r.incorrect_ratio();
        assert!(wrong < 0.02, "incorrect decisions {wrong}");
    }

    #[test]
    fn every_decision_kind_appears() {
        let r = eval(6000, 166);
        let counts = r.decision_counts();
        assert!(counts.len() >= 4, "decision mix: {counts:?}");
    }

    #[test]
    fn series_replay_tracks_tasks_and_decisions_deterministically() {
        let sample = eval_sample(400, 167);
        let recorded = || {
            let registry = Registry::new();
            let series = SeriesRecorder::new(3_600_000);
            let observers = Observers { series: Some(series.clone()), ..Observers::default() };
            let (report, _) = OdrReplay::default().replay_observed(
                &sample,
                &RngFactory::new(167),
                &registry,
                observers,
            );
            (report, series.snapshot(), registry.snapshot())
        };
        let (report, series, snapshot) = recorded();
        assert!(series.times.len() > 1, "a 400-task replay spans multiple sim-hours");
        let last = |name: &str| series.series[name].final_value().unwrap() as u64;
        assert_eq!(last("odr.tasks"), 400);
        assert_eq!(snapshot.counters["odr.tasks"], 400);
        assert_eq!(
            last("odr.failures"),
            report.tasks().iter().filter(|t| !t.success).count() as u64
        );
        // Decision counters in the series sum to the report's counts.
        let counts = report.decision_counts();
        let decided: u64 = counts.values().map(|&n| n as u64).sum();
        let tracked: u64 = series
            .series
            .iter()
            .filter(|(name, _)| name.starts_with("odr.decision."))
            .map(|(_, s)| s.final_value().unwrap() as u64)
            .sum();
        assert_eq!(tracked, decided);
        // Same inputs → byte-identical series; report matches the plain run.
        let (report2, series2, _) = recorded();
        assert_eq!(series.to_json(), series2.to_json());
        assert_eq!(report.impeded_ratio(), report2.impeded_ratio());
        let plain = run(&sample, 167, &Registry::new());
        assert_eq!(plain.impeded_ratio(), report.impeded_ratio());
    }

    #[test]
    fn decision_counters_track_tasks() {
        let registry = Registry::new();
        let r = run(&eval_sample(500, 168), 168, &registry);
        assert_eq!(r.tasks().len(), 500);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters["odr.tasks"], 500);
        // Every task got exactly one decision, and each per-proxy counter
        // equals the report's count for that proxy.
        let counts = r.decision_counts();
        let mut decided = 0;
        for d in [
            Decision::UserDevice,
            Decision::Cloud,
            Decision::SmartAp,
            Decision::CloudThenSmartAp,
            Decision::CloudPredownload,
        ] {
            let n = snapshot.counters[&format!("odr.decision.{d}")];
            assert_eq!(n, counts.get(&d).copied().unwrap_or(0) as u64, "odr.decision.{d}");
            decided += n;
        }
        assert_eq!(decided, 500);
        let failures = r.tasks().iter().filter(|t| !t.success).count() as u64;
        assert_eq!(snapshot.counters["odr.failures"], failures);
    }

    #[test]
    fn paper_default_scenario_is_the_default_replay() {
        let registry = odx_backend::ScenarioRegistry::builtin();
        let scenario = registry.get("paper-default").expect("builtin baseline");
        assert_eq!(
            format!("{:?}", OdrReplay::for_scenario(scenario)),
            format!("{:?}", OdrReplay::default())
        );
    }

    #[test]
    fn ap_fault_windows_hit_ap_routed_tasks_but_zero_intensity_is_free() {
        let sample = eval_sample(3000, 170);
        let registry = odx_backend::ScenarioRegistry::builtin();
        let mut scenario = registry.get("paper-default").expect("builtin baseline").clone();
        let mut replay = |faults| {
            scenario.faults = faults;
            let rngs = RngFactory::new(170);
            let observers = Observers::default();
            OdrReplay::for_scenario(&scenario)
                .replay_observed(&sample, &rngs, &Registry::new(), observers)
                .0
        };
        let plain = run(&sample, 170, &Registry::new());
        // Zero intensity must not perturb a single task or baseline record,
        // whatever the other knobs say.
        let quiet = replay(FaultsConfig { window_s: 60.0, ap_slowdown: 0.9, ..Default::default() });
        assert_eq!(format!("{:?}", plain.tasks()), format!("{:?}", quiet.tasks()));
        assert_eq!(
            format!("{:?}", plain.baseline_ap().records()),
            format!("{:?}", quiet.baseline_ap().records())
        );
        // An aggressive plan kills some AP-routed tasks and stalls others.
        let faulted = replay(FaultsConfig { intensity: 0.2, ..FaultsConfig::default() });
        assert!(
            faulted.failure_ratio() > plain.failure_ratio(),
            "power cycles should raise failures: {} vs {}",
            faulted.failure_ratio(),
            plain.failure_ratio()
        );
        assert!(
            faulted.storage_limited_ratio() > plain.storage_limited_ratio(),
            "disk stalls should hit the storage wall more often"
        );
        // Only tasks whose decision runs on the AP can change.
        for (a, b) in plain.tasks().iter().zip(faulted.tasks()) {
            if !matches!(a.verdict.decision, Decision::SmartAp | Decision::CloudThenSmartAp) {
                assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
        }
        // The embedded all-AP baseline runs under the same plan.
        assert!(faulted.baseline_ap().failure_ratio() > plain.baseline_ap().failure_ratio());
    }

    #[test]
    fn replay_is_deterministic() {
        let a = eval(500, 167);
        let b = eval(500, 167);
        assert_eq!(a.failure_ratio(), b.failure_ratio());
        assert_eq!(a.impeded_ratio(), b.impeded_ratio());
    }

    #[test]
    fn traced_replay_records_decisions_and_tiles_durations() {
        let sample = eval_sample(400, 169);
        let plain = run(&sample, 169, &Registry::new());
        let observers = Observers { trace: Some(&TraceConfig::full()), ..Observers::default() };
        let (traced, lifecycle) = OdrReplay::default().replay_observed(
            &sample,
            &RngFactory::new(169),
            &Registry::new(),
            observers,
        );
        let lifecycle = lifecycle.expect("tracing was requested");
        // Tracing must not perturb the evaluation.
        assert_eq!(plain.failure_ratio(), traced.failure_ratio());
        assert_eq!(lifecycle.traces.traces.len(), sample.len());
        for (trace, task) in lifecycle.traces.traces.iter().zip(traced.tasks()) {
            // Every task carries its routing verdict as a decision instant.
            let decision =
                trace.spans.iter().find(|s| s.stage == Stage::Decision).expect("decision instant");
            assert!(decision.detail.is_some());
            assert_eq!(trace.completion_ms(), Some(trace.stage_ms(Stage::Fetch)));
            let expected = if task.success { TaskEnd::Completed } else { TaskEnd::Failed };
            assert_eq!(trace.end.map(|(end, _)| end), Some(expected));
        }
        let failures = traced.tasks().iter().filter(|t| !t.success).count() as u64;
        assert_eq!(lifecycle.flight.dumps.len() as u64 + lifecycle.flight.dropped_dumps, failures);
    }
}
