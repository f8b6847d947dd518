#![warn(missing_docs)]

//! # odx — offline downloading in China, reproduced
//!
//! Facade crate for the workspace reproducing *"Offline Downloading in
//! China: A Comparative Study"* (IMC 2015): re-exports every subsystem and
//! provides [`Study`], the one-call bundle that generates a calibrated
//! synthetic measurement week.
//!
//! Each of the paper's three systems has one run path on [`Study`] —
//! [`Study::replay_cloud`], [`Study::replay_smart_aps`] and
//! [`Study::replay_odr`] — taking the same scenario, explicit telemetry
//! [`Registry`] and [`Observers`] bundle, so all three run under the same
//! conditions (fault plan included).
//!
//! ```
//! use odx::telemetry::{Observers, Registry};
//! use odx::Study;
//!
//! // A 0.5 %-scale study (≈ 20k tasks) — deterministic in the seed.
//! let study = Study::generate(0.005, 42);
//! assert!(study.workload.len() > 10_000);
//!
//! // Replay the week on the cloud model and look at Fig 8's fetch curve.
//! let scenario = Study::paper_default();
//! let (report, _) = study.replay_cloud(&scenario, &Registry::new(), Observers::default());
//! let median = report.fetch_speed_ecdf().median().unwrap();
//! assert!(median > 100.0 && median < 600.0);
//! ```
//!
//! The crate-level view of the system lives in `DESIGN.md`; the
//! paper-vs-measured ledger in `EXPERIMENTS.md`.

pub mod sweep;

pub use odx_backend as backend;
pub use odx_cache as cache;
pub use odx_cloud as cloud;
pub use odx_config as config;
pub use odx_faults as faults;
pub use odx_net as net;
pub use odx_odr as odr;
pub use odx_p2p as p2p;
pub use odx_proto as proto;
pub use odx_sim as sim;
pub use odx_smartap as smartap;
pub use odx_stats as stats;
pub use odx_storage as storage;
pub use odx_telemetry as telemetry;
pub use odx_trace as trace;

use odx_backend::{ApBenchReport, Scenario, ScenarioRegistry, SmartApBenchmark};
use odx_cloud::{CloudConfig, WeekReport, XuanfengCloud};
use odx_odr::replay::{OdrEvalReport, OdrReplay};
use odx_sim::RngFactory;
use odx_telemetry::{LifecycleReport, Observers, Registry};
use odx_trace::{
    sample_benchmark_workload, sample_eval_workload, Catalog, CatalogConfig, Population,
    PopulationConfig, SampledRequest, Workload, WorkloadConfig,
};
use rand::SeedableRng;

/// A generated measurement week: file catalog, user population, and the
/// request stream — everything the paper's dataset contained, scaled.
pub struct Study {
    /// Workload scale relative to the paper (1.0 = 4.08 M tasks).
    pub scale: f64,
    /// The named RNG-stream factory all replays draw from.
    pub rngs: RngFactory,
    /// Unique files with sizes, types, protocols and weekly popularity.
    pub catalog: Catalog,
    /// Users with ISPs and access bandwidth.
    pub population: Population,
    /// The timestamped request stream across the week.
    pub workload: Workload,
}

impl Study {
    /// Generate a study at `scale` of the paper's size, deterministic in
    /// `seed`.
    pub fn generate(scale: f64, seed: u64) -> Study {
        Study::generate_scenario(scale, seed, &Study::paper_default())
    }

    /// Generate a study under a named scenario: same generators, but the
    /// population's ISP mix follows the scenario (e.g. `cernet-heavy`).
    pub fn generate_scenario(scale: f64, seed: u64, scenario: &Scenario) -> Study {
        let rngs = RngFactory::new(seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(rngs.child("study").master());
        let catalog = Catalog::generate(&CatalogConfig::scaled(scale), &mut rng);
        let mut pop_cfg = PopulationConfig::scaled(scale);
        pop_cfg.isp_mix = scenario.isp_mix();
        let population = Population::generate(&pop_cfg, &mut rng);
        let workload =
            Workload::generate(&catalog, &population, &WorkloadConfig::default(), &mut rng);
        Study { scale, rngs, catalog, population, workload }
    }

    /// The built-in scenario presets (`repro --scenario` resolves here).
    pub fn scenarios() -> ScenarioRegistry {
        ScenarioRegistry::builtin()
    }

    /// The `paper-default` preset: the paper's measured configuration,
    /// which every caller without a scenario of its own replays.
    pub fn paper_default() -> Scenario {
        Study::scenarios().get("paper-default").expect("builtin baseline").clone()
    }

    /// Replay the week on the cloud system (§4, Figs 8–11) under a
    /// scenario's cloud configuration (see [`CloudConfig::for_scenario`]),
    /// recording into `registry` with any combination of [`Observers`].
    pub fn replay_cloud(
        &self,
        scenario: &Scenario,
        registry: &Registry,
        observers: Observers<'_>,
    ) -> (WeekReport, Option<LifecycleReport>) {
        let (report, lifecycle) = XuanfengCloud::replay_observed(
            &self.catalog,
            &self.population,
            &self.workload,
            CloudConfig::for_scenario(self.scale, scenario),
            &self.rngs,
            registry,
            observers,
        );
        (report, stamped(lifecycle, scenario))
    }

    /// Run the §5.1 smart-AP benchmark over `n` sampled requests (Figs
    /// 13–14, §5.2 failure taxonomy) on the scenario's AP fleet, under its
    /// fault plan.
    pub fn replay_smart_aps(
        &self,
        n: usize,
        scenario: &Scenario,
        registry: &Registry,
        observers: Observers<'_>,
    ) -> (ApBenchReport, Option<LifecycleReport>) {
        let (report, lifecycle) = SmartApBenchmark::replay_observed(
            &self.benchmark_sample(n),
            &scenario.ap_fleet,
            &scenario.faults,
            &self.rngs.child("smartap"),
            registry,
            observers,
        );
        (report, stamped(lifecycle, scenario))
    }

    /// Run the §6.2 ODR evaluation over `n` sampled requests (Figs 16–17)
    /// with the scenario's backend config, AP fleet and fault plan.
    pub fn replay_odr(
        &self,
        n: usize,
        scenario: &Scenario,
        registry: &Registry,
        observers: Observers<'_>,
    ) -> (OdrEvalReport, Option<LifecycleReport>) {
        let (report, lifecycle) = OdrReplay::for_scenario(scenario).replay_observed(
            &self.eval_sample(n),
            &self.rngs.child("odr"),
            registry,
            observers,
        );
        (report, stamped(lifecycle, scenario))
    }

    /// Draw the §5.1 sampled workload (`n` Unicom requests with recorded
    /// access bandwidth).
    pub fn benchmark_sample(&self, n: usize) -> Vec<SampledRequest> {
        let mut rng = self.rngs.stream("benchmark-sample");
        sample_benchmark_workload(&self.workload, &self.catalog, &self.population, n, &mut rng)
    }

    /// Draw the §6.2 unbiased evaluation sample.
    pub fn eval_sample(&self, n: usize) -> Vec<SampledRequest> {
        let mut rng = self.rngs.stream("eval-sample");
        sample_eval_workload(&self.workload, &self.catalog, &self.population, n, &mut rng)
    }
}

/// Stamp a lifecycle report with the scenario it ran under.
fn stamped(lifecycle: Option<LifecycleReport>, scenario: &Scenario) -> Option<LifecycleReport> {
    lifecycle.map(|mut lifecycle| {
        lifecycle.set_context(&scenario.name);
        lifecycle
    })
}
