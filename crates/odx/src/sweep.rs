//! Parallel scenario × seed sweeps over the cloud week replay.
//!
//! The paper's headline claims are per-scenario aggregates (cache
//! ablations, user-base sweeps, ISP mixes); evaluating them means running
//! the same deterministic week replay over a grid of `(scenario, seed)`
//! cells. This module expands such a grid and executes its shards on a
//! scoped worker pool ([`std::thread::scope`], `--jobs` on the CLI), each
//! shard owning an independent [`Study`], engine, and telemetry
//! [`Registry`] so shards share no mutable state at all.
//!
//! **Determinism under parallelism:** each cell's result depends only on
//! its `(scenario, seed, scale)` inputs — never on which worker ran it or
//! in what order — and the merged report sorts cells by `(scenario name,
//! seed)`. The deterministic exports ([`SweepReport::to_json`] /
//! [`SweepReport::to_csv`]) are therefore **byte-identical for any worker
//! count, including 1**. Wall-clock perf numbers (per-shard seconds,
//! events/sec) are collected alongside but deliberately kept out of those
//! exports; they surface on stdout instead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use odx_backend::Scenario;
use odx_cache::PolicyKind;
use odx_faults::RetryKind;
use odx_telemetry::{
    push_json_str, Attribution, Observers, Registry, SeriesRecorder, SeriesSet, SeriesSnapshot,
    TraceConfig,
};

use crate::Study;

/// A scenario × seed grid to evaluate.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// The scenario axis (e.g. every builtin preset for `--scenario all`).
    pub scenarios: Vec<Scenario>,
    /// The seed axis (e.g. `--seed S --seeds N` gives `S..S+N`).
    pub seeds: Vec<u64>,
    /// Workload scale for every cell (1.0 = the paper's 4.08 M-task week).
    pub scale: f64,
    /// Worker threads to execute shards on (clamped to ≥ 1; the merged
    /// deterministic output does not depend on this).
    pub jobs: usize,
    /// Per-task lifecycle tracing for every cell (`None` = off, the
    /// default for sweeps). When set, each cell computes a latency
    /// [`Attribution`] that merges across shards.
    pub trace: Option<TraceConfig>,
    /// Virtual-time series recording for every cell (`None` = off): the
    /// sampling interval in engine milliseconds. When set, each cell
    /// records a [`SeriesSnapshot`] and the merged [`SweepReport::series`]
    /// is byte-identical for any worker count.
    pub series_interval_ms: Option<u64>,
    /// Live shard progress on **stderr** (shards done, cumulative
    /// events/sec, ETA). Stdout and every deterministic export are
    /// unaffected, so `repro sweep --progress ... > out.json` stays
    /// byte-identical to a silent run.
    pub progress: bool,
}

impl SweepSpec {
    /// The grid in scenario-major order (the execution work-list; the
    /// merged report re-sorts by key, so this order is not load-bearing).
    pub fn cells(&self) -> Vec<(Scenario, u64)> {
        let mut cells = Vec::with_capacity(self.scenarios.len() * self.seeds.len());
        for scenario in &self.scenarios {
            for &seed in &self.seeds {
                cells.push((scenario.clone(), seed));
            }
        }
        cells
    }
}

/// Deterministic per-cell aggregates of one `(scenario, seed)` shard.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Scenario name (a registry preset, a user scenario, or an
    /// axis-expanded variant like `grid/cache.policy=lru`).
    pub scenario: String,
    /// Master seed of the shard's study.
    pub seed: u64,
    /// Requests replayed.
    pub requests: u64,
    /// Requests served from the pool (or a joined in-flight pre-download).
    pub cache_hits: u64,
    /// Requests whose pre-download failed.
    pub predownload_failures: u64,
    /// Fetch attempts rejected by the upload pool.
    pub rejected_fetches: u64,
    /// Fetches below the 125 KBps HD threshold (including rejected).
    pub impeded_fetches: u64,
    /// Fetches completed.
    pub completed_fetches: u64,
    /// Cache-hit ratio (§2.1 headline).
    pub hit_ratio: f64,
    /// Pre-download failure ratio (§4.1 headline).
    pub failure_ratio: f64,
    /// Fetch rejection ratio (§4.2 headline).
    pub rejection_ratio: f64,
    /// Impeded-fetch ratio (§4.2 headline).
    pub impeded_ratio: f64,
    /// Simulation events processed by the shard's engine.
    pub sim_events: u64,
    /// Shard wall-clock seconds — perf only, excluded from the
    /// deterministic exports.
    pub wall_secs: f64,
    /// The shard's latency attribution when the sweep traced lifecycles.
    pub attribution: Option<Attribution>,
    /// The shard's virtual-time metric series when the sweep recorded
    /// one. Deterministic, but kept out of the golden-pinned
    /// [`SweepReport::to_json`] / [`SweepReport::to_csv`] formats — it
    /// exports through [`SweepReport::series`] instead.
    pub series: Option<SeriesSnapshot>,
}

impl SweepCell {
    /// Run one shard: generate the study and replay the cloud week with a
    /// private registry, entirely independent of every other shard.
    fn run(scenario: &Scenario, seed: u64, spec: &SweepSpec) -> SweepCell {
        let start = Instant::now();
        let registry = Registry::new();
        let study = Study::generate_scenario(spec.scale, seed, scenario);
        let series = spec.series_interval_ms.map(SeriesRecorder::new);
        let observers =
            Observers { trace: spec.trace.as_ref(), series: series.clone(), profile: false };
        let (report, lifecycle) = study.replay_cloud(scenario, &registry, observers);
        let attribution = lifecycle.map(|lifecycle| lifecycle.attribution());
        let sim_events = registry.snapshot().counters.get("sim.events").copied().unwrap_or(0);
        SweepCell {
            scenario: scenario.name.clone(),
            seed,
            requests: report.counters.requests,
            cache_hits: report.counters.cache_hits,
            predownload_failures: report.counters.predownload_failures,
            rejected_fetches: report.counters.rejected_fetches,
            impeded_fetches: report.counters.impeded_fetches,
            completed_fetches: report.counters.completed_fetches,
            hit_ratio: report.hit_ratio(),
            failure_ratio: report.failure_ratio(),
            rejection_ratio: report.rejection_ratio(),
            impeded_ratio: report.impeded_ratio(),
            sim_events,
            wall_secs: start.elapsed().as_secs_f64(),
            attribution,
            series: series.map(|s| s.snapshot()),
        }
    }
}

/// Live sweep progress, shared by the workers: shards done, cumulative
/// engine events, and a linear ETA. Reports on **stderr only** so piped
/// stdout exports stay byte-identical whether or not it is enabled.
struct Progress {
    enabled: bool,
    total: usize,
    done: AtomicUsize,
    events: AtomicU64,
    start: Instant,
}

impl Progress {
    fn new(enabled: bool, total: usize) -> Progress {
        Progress {
            enabled,
            total,
            done: AtomicUsize::new(0),
            events: AtomicU64::new(0),
            start: Instant::now(),
        }
    }

    /// Report one finished shard (thread-safe, lock-free).
    fn note(&self, cell: &SweepCell) {
        if !self.enabled {
            return;
        }
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let events = self.events.fetch_add(cell.sim_events, Ordering::Relaxed) + cell.sim_events;
        let elapsed = self.start.elapsed().as_secs_f64();
        let rate = events as f64 / elapsed.max(1e-9);
        let eta = elapsed / done as f64 * (self.total - done) as f64;
        eprintln!(
            "sweep: {done}/{} shards | {}/{} | {events} events | {:.0} ev/s | eta {eta:.1}s",
            self.total, cell.scenario, cell.seed, rate,
        );
    }
}

/// The merged result of a sweep: cells sorted by `(scenario, seed)`.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-cell aggregates, `(scenario name, seed)`-sorted.
    pub cells: Vec<SweepCell>,
    /// Worker threads the sweep ran on (perf context only).
    pub jobs: usize,
    /// Total wall-clock seconds — perf only.
    pub wall_secs: f64,
}

impl SweepReport {
    /// Simulation events processed across all shards.
    pub fn total_events(&self) -> u64 {
        self.cells.iter().map(|c| c.sim_events).sum()
    }

    /// Aggregate engine throughput (events/sec of summed shard work over
    /// total wall time). Nondeterministic; for perf reporting only.
    pub fn events_per_sec(&self) -> f64 {
        self.total_events() as f64 / self.wall_secs.max(1e-9)
    }

    /// The sweep-wide latency attribution: per-shard attributions merged
    /// in `(scenario, seed)` order. `None` when the sweep ran untraced.
    /// Merging is exact, so this equals a single-shard attribution over
    /// the union of the cells' tasks regardless of worker count.
    pub fn attribution(&self) -> Option<Attribution> {
        let mut merged: Option<Attribution> = None;
        for cell in &self.cells {
            let Some(attribution) = &cell.attribution else { continue };
            merged.get_or_insert_with(Attribution::default).merge(attribution);
        }
        merged
    }

    /// The merged virtual-time series across cells, exact-keyed by
    /// `(scenario, seed)` — byte-identical for any worker count because
    /// each cell's series depends only on its own inputs. `None` when the
    /// sweep recorded no series. Exported as separate documents
    /// ([`SeriesSet::to_json`] / [`SeriesSet::to_csv`]) so the
    /// golden-pinned sweep formats stay untouched.
    pub fn series(&self) -> Option<SeriesSet> {
        let mut set = SeriesSet::new();
        let mut any = false;
        for cell in &self.cells {
            if let Some(snapshot) = &cell.series {
                set.insert(&cell.scenario, cell.seed, snapshot.clone());
                any = true;
            }
        }
        any.then_some(set)
    }

    /// Propagate per-shard perf into `registry`'s wall section (satellite
    /// of the PR-3 sweep work: per-shard events/sec used to be lost when
    /// only the merged footer was printed). Wall entries are
    /// nondeterministic by design and stay out of the deterministic
    /// exports.
    pub fn record_wall(&self, registry: &Registry) {
        for cell in &self.cells {
            let prefix = format!("sweep.{}.{}", cell.scenario, cell.seed);
            registry.set_wall(&format!("{prefix}.wall_secs"), cell.wall_secs);
            registry.set_wall(
                &format!("{prefix}.events_per_sec"),
                cell.sim_events as f64 / cell.wall_secs.max(1e-9),
            );
        }
        registry.set_wall("sweep.wall_secs", self.wall_secs);
        registry.set_wall("sweep.events_per_sec", self.events_per_sec());
    }

    /// The deterministic merged report as a compact JSON document:
    /// byte-identical for any worker count (wall-clock fields omitted).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 * self.cells.len() + 64);
        out.push_str("{\"cells\":[");
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"scenario\":");
            push_json_str(&mut out, &c.scenario);
            let _ = write!(
                out,
                ",\"seed\":{},\"requests\":{},\"cache_hits\":{},\
                 \"predownload_failures\":{},\"rejected_fetches\":{},\"impeded_fetches\":{},\
                 \"completed_fetches\":{},\"sim_events\":{},\"hit_ratio\":{},\
                 \"failure_ratio\":{},\"rejection_ratio\":{},\"impeded_ratio\":{}}}",
                c.seed,
                c.requests,
                c.cache_hits,
                c.predownload_failures,
                c.rejected_fetches,
                c.impeded_fetches,
                c.completed_fetches,
                c.sim_events,
                c.hit_ratio,
                c.failure_ratio,
                c.rejection_ratio,
                c.impeded_ratio,
            );
        }
        out.push_str("]}");
        out
    }

    /// The deterministic merged report as CSV (same byte-identical
    /// guarantee as [`SweepReport::to_json`]).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "scenario,seed,requests,cache_hits,predownload_failures,rejected_fetches,\
             impeded_fetches,completed_fetches,sim_events,hit_ratio,failure_ratio,\
             rejection_ratio,impeded_ratio\n",
        );
        for c in &self.cells {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{}",
                c.scenario,
                c.seed,
                c.requests,
                c.cache_hits,
                c.predownload_failures,
                c.rejected_fetches,
                c.impeded_fetches,
                c.completed_fetches,
                c.sim_events,
                c.hit_ratio,
                c.failure_ratio,
                c.rejection_ratio,
                c.impeded_ratio,
            );
        }
        out
    }
}

/// Execute a sweep: expand the grid, run shards on `spec.jobs` scoped
/// workers (work-stealing by an atomic cursor), and merge the results by
/// `(scenario, seed)` key.
pub fn run_sweep(spec: &SweepSpec) -> SweepReport {
    let start = Instant::now();
    let cells = spec.cells();
    let jobs = spec.jobs.clamp(1, cells.len().max(1));
    let progress = Progress::new(spec.progress, cells.len());
    let mut results: Vec<Option<SweepCell>> = Vec::with_capacity(cells.len());
    if jobs == 1 {
        // Inline path: same per-cell code, no threads to reason about.
        results.extend(cells.iter().map(|(s, seed)| {
            let cell = SweepCell::run(s, *seed, spec);
            progress.note(&cell);
            Some(cell)
        }));
    } else {
        let slots: Vec<Mutex<Option<SweepCell>>> = cells.iter().map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some((scenario, seed)) = cells.get(i) else { break };
                    let cell = SweepCell::run(scenario, *seed, spec);
                    progress.note(&cell);
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(cell);
                });
            }
        });
        results
            .extend(slots.into_iter().map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner())));
    }
    // Deterministic merge: whatever order the workers finished in, the
    // report is keyed and sorted by (scenario, seed).
    let mut merged: BTreeMap<(String, u64), SweepCell> = BTreeMap::new();
    for cell in results.into_iter().flatten() {
        merged.insert((cell.scenario.clone(), cell.seed), cell);
    }
    SweepReport {
        cells: merged.into_values().collect(),
        jobs,
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

/// Expand scenarios × cache policies into named sweep variants: each
/// variant is the scenario with `cache.policy` swapped and the name
/// `"<scenario>/<policy>"`, so the `(scenario, seed)` merge key — and
/// therefore the deterministic exports — distinguish policies without any
/// format change.
pub fn policy_variants(scenarios: &[Scenario], policies: &[PolicyKind]) -> Vec<Scenario> {
    let mut variants = Vec::with_capacity(scenarios.len() * policies.len());
    for scenario in scenarios {
        for &policy in policies {
            let mut variant = scenario.clone();
            variant.cache.policy = policy;
            variant.name = format!("{}/{}", scenario.name, policy.name());
            variants.push(variant);
        }
    }
    variants
}

/// Expand scenarios × fault intensities × retry policies into named sweep
/// variants for `repro resilience`: each variant is the scenario with
/// `faults.intensity` and `retry.policy` swapped and the name
/// `"<scenario>/fault=<intensity>/retry=<policy>"`, so the `(scenario,
/// seed)` merge key — and the deterministic exports — distinguish grid
/// cells without any format change. The zero-intensity × `none` cell is
/// the uninjected baseline the CLI diffs the rest of the grid against.
pub fn resilience_variants(
    scenarios: &[Scenario],
    intensities: &[f64],
    policies: &[RetryKind],
) -> Vec<Scenario> {
    let mut variants = Vec::with_capacity(scenarios.len() * intensities.len() * policies.len());
    for scenario in scenarios {
        for &intensity in intensities {
            for &policy in policies {
                let mut variant = scenario.clone();
                variant.faults.intensity = intensity;
                variant.retry.kind = policy;
                variant.name =
                    format!("{}/fault={intensity}/retry={}", scenario.name, policy.name());
                variants.push(variant);
            }
        }
    }
    variants
}

#[cfg(test)]
mod tests {
    use super::*;
    use odx_backend::ScenarioRegistry;

    fn tiny_spec(jobs: usize) -> SweepSpec {
        let registry = ScenarioRegistry::builtin();
        SweepSpec {
            scenarios: vec![
                registry.get("paper-default").unwrap().clone(),
                registry.get("ablate-cache").unwrap().clone(),
            ],
            seeds: vec![2015, 2016],
            scale: 0.0005,
            jobs,
            trace: None,
            series_interval_ms: None,
            progress: false,
        }
    }

    #[test]
    fn grid_expansion_is_the_cross_product() {
        let spec = tiny_spec(1);
        let cells = spec.cells();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].0.name, "paper-default");
        assert_eq!(cells[0].1, 2015);
        assert_eq!(cells[3].0.name, "ablate-cache");
        assert_eq!(cells[3].1, 2016);
    }

    #[test]
    fn sweep_output_is_byte_identical_across_worker_counts() {
        let sequential = run_sweep(&tiny_spec(1));
        let parallel = run_sweep(&tiny_spec(3));
        assert_eq!(sequential.to_json(), parallel.to_json());
        assert_eq!(sequential.to_csv(), parallel.to_csv());
        assert_eq!(sequential.cells, {
            let mut cells = parallel.cells.clone();
            for c in &mut cells {
                // wall_secs is the one legitimately nondeterministic field.
                c.wall_secs = sequential
                    .cells
                    .iter()
                    .find(|s| s.scenario == c.scenario && s.seed == c.seed)
                    .unwrap()
                    .wall_secs;
            }
            cells
        });
    }

    #[test]
    fn traced_sweep_merges_attribution_identically_across_worker_counts() {
        use odx_telemetry::TraceConfig;
        let mut spec = tiny_spec(1);
        spec.trace = Some(TraceConfig::full());
        let sequential = run_sweep(&spec);
        spec.jobs = 3;
        let parallel = run_sweep(&spec);
        let seq_attr = sequential.attribution().expect("traced sweep has attribution");
        let par_attr = parallel.attribution().expect("traced sweep has attribution");
        assert_eq!(seq_attr, par_attr);
        assert_eq!(seq_attr.waterfall(), par_attr.waterfall());
        // Every cell carries its own attribution, and the tiling invariant
        // survives the merge: timed stages still account for every task.
        assert!(sequential.cells.iter().all(|c| c.attribution.is_some()));
        assert!(seq_attr.total_stage_ms() > 0);
        // Untraced sweeps report no attribution at all.
        assert!(run_sweep(&tiny_spec(1)).attribution().is_none());
    }

    #[test]
    fn series_merge_is_byte_identical_across_worker_counts_and_schedulers() {
        // Six-sim-hour cadence keeps the series small at this scale.
        let mut spec = tiny_spec(1);
        spec.series_interval_ms = Some(6 * 3_600_000);
        let sequential = run_sweep(&spec);
        spec.jobs = 3;
        let parallel = run_sweep(&spec);
        let seq = sequential.series().expect("series were recorded");
        let par = parallel.series().expect("series were recorded");
        assert_eq!(seq.to_json(), par.to_json(), "series JSON must be jobs-invariant");
        assert_eq!(seq.to_csv(), par.to_csv(), "series CSV must be jobs-invariant");
        // The golden-pinned sweep exports are untouched by recording.
        let silent = run_sweep(&tiny_spec(2));
        assert_eq!(sequential.to_json(), silent.to_json());
        assert_eq!(sequential.to_csv(), silent.to_csv());
        assert!(silent.series().is_none(), "no recording → no series document");
    }

    #[test]
    fn record_wall_propagates_per_shard_perf() {
        let report = run_sweep(&tiny_spec(2));
        let registry = Registry::new();
        report.record_wall(&registry);
        assert!(registry.wall("sweep.wall_secs").is_some());
        assert!(registry.wall("sweep.events_per_sec").unwrap() > 0.0);
        for cell in &report.cells {
            let prefix = format!("sweep.{}.{}", cell.scenario, cell.seed);
            assert!(registry.wall(&format!("{prefix}.wall_secs")).is_some());
            assert!(registry.wall(&format!("{prefix}.events_per_sec")).unwrap() > 0.0);
        }
        // Wall entries stay out of the deterministic export.
        assert!(!registry.snapshot().to_json().contains("sweep."));
    }

    #[test]
    fn cells_reflect_their_scenario() {
        let report = run_sweep(&tiny_spec(2));
        let baseline =
            report.cells.iter().find(|c| c.scenario == "paper-default" && c.seed == 2015).unwrap();
        let no_cache =
            report.cells.iter().find(|c| c.scenario == "ablate-cache" && c.seed == 2015).unwrap();
        assert!(baseline.requests > 0);
        assert!(
            no_cache.failure_ratio > baseline.failure_ratio,
            "disabling the pool must raise failures: {} vs {}",
            no_cache.failure_ratio,
            baseline.failure_ratio
        );
        assert!(report.total_events() > baseline.requests);
    }
}

#[cfg(test)]
mod policy_variant_tests {
    use super::*;
    use odx_backend::ScenarioRegistry;

    #[test]
    fn variants_cross_scenarios_with_policies() {
        let registry = ScenarioRegistry::builtin();
        let base = registry.resolve("paper-default").unwrap();
        let variants = policy_variants(&base, &PolicyKind::ALL);
        assert_eq!(variants.len(), PolicyKind::ALL.len());
        let names: Vec<_> = variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "paper-default/lru",
                "paper-default/lfu",
                "paper-default/gdsf",
                "paper-default/s3fifo"
            ]
        );
        for (variant, policy) in variants.iter().zip(PolicyKind::ALL) {
            assert_eq!(variant.cache.policy, policy);
            // Everything except the policy and name is the base scenario.
            assert_eq!(variant.cache_capacity_factor, base[0].cache_capacity_factor);
            assert_eq!(variant.demand_factor, base[0].demand_factor);
        }
    }

    #[test]
    fn resilience_variants_cross_intensities_with_policies() {
        let registry = ScenarioRegistry::builtin();
        let base = registry.resolve("paper-default").unwrap();
        let variants = resilience_variants(&base, &[0.0, 0.1], &[RetryKind::None, RetryKind::Expo]);
        assert_eq!(variants.len(), 4);
        let names: Vec<_> = variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "paper-default/fault=0/retry=none",
                "paper-default/fault=0/retry=expo",
                "paper-default/fault=0.1/retry=none",
                "paper-default/fault=0.1/retry=expo",
            ]
        );
        assert_eq!(variants[0].faults.intensity, 0.0);
        assert_eq!(variants[3].faults.intensity, 0.1);
        assert_eq!(variants[3].retry.kind, RetryKind::Expo);
        // Everything else is the base scenario.
        assert_eq!(variants[3].cache.policy, base[0].cache.policy);
        assert_eq!(variants[3].demand_factor, base[0].demand_factor);
    }
}
