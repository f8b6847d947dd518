//! The §5.1 benchmark harness: sequential replay of the sampled workload.
//!
//! Three independent 20 Mbps ADSL lines, one per AP; the 1000 sampled Unicom
//! requests are split across the APs (~333 each) and replayed sequentially
//! (request *i+1* starts when request *i* completes or fails), with each
//! AP's pre-download speed restricted to the sampled user's recorded access
//! bandwidth. Every attempt runs through [`crate::SmartApBackend`] in its
//! benchmark mode, so the harness exercises the same [`crate::ProxyBackend`]
//! layer as the other evaluators.

use odx_faults::{FaultPlan, FaultsConfig};
use odx_p2p::FailureCause;
use odx_sim::{RngFactory, SimDuration};
use odx_smartap::ApModel;
use odx_stats::Ecdf;
use odx_telemetry::{Lifecycle, LifecycleReport, Observers, Registry, Stage, TaskEnd};
use odx_trace::{PopularityClass, SampledRequest};
use serde::Serialize;

use crate::{ApContext, CloudContentState, ExecCtx, ProxyBackend, ProxyRequest, SmartApBackend};

/// One replayed task.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ApTaskRecord {
    /// Which AP replayed it.
    pub ap: ApModel,
    /// The request replayed.
    pub request: SampledRequest,
    /// Whether the pre-download succeeded.
    pub success: bool,
    /// Failure cause when it did not.
    pub cause: Option<FailureCause>,
    /// Average pre-download speed (KBps); zero on failure.
    pub rate_kbps: f64,
    /// Pre-downloading delay.
    pub duration: SimDuration,
    /// WAN traffic consumed (MB).
    pub traffic_mb: f64,
    /// Storage iowait during the transfer.
    pub iowait: f64,
    /// Whether the storage path was the binding constraint (Bottleneck 4).
    pub storage_limited: bool,
}

/// Results of the three-AP replay.
#[derive(Debug, Clone)]
pub struct ApBenchReport {
    records: Vec<ApTaskRecord>,
}

impl ApBenchReport {
    /// All task records.
    pub fn records(&self) -> &[ApTaskRecord] {
        &self.records
    }

    /// Records replayed by one AP.
    pub fn records_for(&self, ap: ApModel) -> impl Iterator<Item = &ApTaskRecord> {
        self.records.iter().filter(move |r| r.ap == ap)
    }

    /// Pre-download speed ECDF across all APs (failures at ~0 KBps) —
    /// Fig 13.
    pub fn speed_ecdf(&self) -> Ecdf {
        Ecdf::new(self.records.iter().map(|r| r.rate_kbps).collect())
    }

    /// Pre-download delay ECDF in minutes — Fig 14.
    pub fn delay_ecdf(&self) -> Ecdf {
        Ecdf::new(self.records.iter().map(|r| r.duration.as_mins_f64()).collect())
    }

    /// Overall failure ratio (§5.2: 16.8 %).
    pub fn failure_ratio(&self) -> f64 {
        self.records.iter().filter(|r| !r.success).count() as f64 / self.records.len().max(1) as f64
    }

    /// Failure ratio over requests for unpopular files (§5.2: 42 %).
    pub fn unpopular_failure_ratio(&self) -> f64 {
        let unpopular: Vec<_> = self
            .records
            .iter()
            .filter(|r| r.request.class() == PopularityClass::Unpopular)
            .collect();
        if unpopular.is_empty() {
            return 0.0;
        }
        unpopular.iter().filter(|r| !r.success).count() as f64 / unpopular.len() as f64
    }

    /// Failure-cause shares `[insufficient seeds, poor connection, bug]`
    /// (§5.2: 86 % / 10 % / 4 %).
    pub fn cause_shares(&self) -> [f64; 3] {
        let mut counts = [0usize; 3];
        for r in self.records.iter().filter(|r| !r.success) {
            match r.cause {
                Some(FailureCause::InsufficientSeeds) => counts[0] += 1,
                Some(FailureCause::PoorConnection) => counts[1] += 1,
                Some(FailureCause::SystemBug) => counts[2] += 1,
                None => {}
            }
        }
        let total: usize = counts.iter().sum();
        if total == 0 {
            return [0.0; 3];
        }
        [
            counts[0] as f64 / total as f64,
            counts[1] as f64 / total as f64,
            counts[2] as f64 / total as f64,
        ]
    }

    /// Maximum observed speed per AP (Fig 13's per-model maxima).
    pub fn max_speed_kbps(&self, ap: ApModel) -> f64 {
        self.records_for(ap).map(|r| r.rate_kbps).fold(0.0, f64::max)
    }

    /// Fraction of successful transfers that were storage-limited.
    pub fn storage_limited_fraction(&self) -> f64 {
        let ok: Vec<_> = self.records.iter().filter(|r| r.success).collect();
        if ok.is_empty() {
            return 0.0;
        }
        ok.iter().filter(|r| r.storage_limited).count() as f64 / ok.len() as f64
    }
}

/// The benchmark harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct SmartApBenchmark;

impl SmartApBenchmark {
    /// Replay `sample` across an AP fleet (request `i` goes to AP `i mod
    /// 3`, preserving the ~333-per-AP split), restricted to each request's
    /// recorded access bandwidth, counting `ap.tasks`, `ap.failures` and
    /// `ap.storage_limited` into `registry`. This is the harness's one run
    /// path. Each AP line runs on its own virtual clock (task *i+1* starts
    /// where task *i* ended), and the fault plan — compiled from a
    /// dedicated `"smartap-faults"` stream, so zero intensity is free — is
    /// keyed on it. Traces carry an arrival instant plus a pre-download
    /// span per task, and failures dump the flight recorder with the §5.2
    /// cause taxonomy. A series samples the `ap.*` counters on the busiest
    /// line's clock. `profile` is a no-op for this sequential harness.
    pub fn replay_observed(
        sample: &[SampledRequest],
        fleet: &[ApContext; 3],
        faults: &FaultsConfig,
        rngs: &RngFactory,
        registry: &Registry,
        observers: Observers<'_>,
    ) -> (ApBenchReport, Option<LifecycleReport>) {
        let plan = FaultPlan::compile(faults, &mut rngs.stream("smartap-faults"));
        let tasks = registry.counter("ap.tasks");
        let failures = registry.counter("ap.failures");
        let storage_limited = registry.counter("ap.storage_limited");
        let series = observers.series;
        if let Some(series) = &series {
            for name in ["ap.tasks", "ap.failures", "ap.storage_limited"] {
                series.track_counter(name, registry.counter(name));
            }
        }
        let lifecycle = observers.trace.map(Lifecycle::new);
        let mut backends: Vec<SmartApBackend> =
            fleet.iter().map(|&ap| SmartApBackend::bench(ap)).collect();
        let mut cloud = CloudContentState::new();
        let mut records = Vec::with_capacity(sample.len());
        // One virtual clock per AP line: the benchmark replays each AP's
        // share sequentially, so a task starts where the previous one on
        // the same AP ended.
        let mut ap_clock = [SimDuration::ZERO; 3];
        for (i, req) in sample.iter().enumerate() {
            let slot = i % fleet.len();
            let mut rng = rngs.stream_indexed("smartap-bench", i as u64);
            let preq = ProxyRequest::from_sampled(req, false, Some(fleet[slot]));
            let mut ctx = ExecCtx { rng: &mut rng, cloud: &mut cloud };
            let mut out = backends[slot].execute(&preq, &mut ctx);
            // Fault windows are keyed on the line's clock at task start.
            out.apply_ap_fault(&plan, ap_clock[slot].as_millis());
            if let Some(lifecycle) = &lifecycle {
                let task = i as u64;
                let start = ap_clock[slot].as_millis();
                let end = (ap_clock[slot] + out.duration).as_millis();
                lifecycle.tasks.instant(task, Stage::Arrival, start, None);
                let detail = if out.storage_limited { Some("storage_limited") } else { None };
                lifecycle.tasks.span(task, Stage::Predownload, start, end, detail);
                lifecycle.flight.record(start, "ap_task");
                if out.success {
                    lifecycle.tasks.finish(task, TaskEnd::Completed, end);
                } else {
                    lifecycle.tasks.finish(task, TaskEnd::Failed, end);
                    if lifecycle.tasks.sampled(task) {
                        lifecycle.flight.dump(
                            task,
                            match out.cause {
                                Some(FailureCause::InsufficientSeeds) => "failure:seeds",
                                Some(FailureCause::PoorConnection) => "failure:connection",
                                _ => "failure:bug",
                            },
                            end,
                        );
                    }
                }
            }
            ap_clock[slot] = ap_clock[slot] + out.duration;
            // Every grid point the fleet clock has now passed is sampled
            // before this task's counters move.
            if let Some(series) = &series {
                let now_ms = ap_clock.iter().map(|c| c.as_millis()).max().unwrap_or(0);
                while series.next_due_ms() < now_ms {
                    series.sample_due();
                }
            }
            tasks.inc();
            if !out.success {
                failures.inc();
            }
            if out.storage_limited {
                storage_limited.inc();
            }
            records.push(ApTaskRecord {
                ap: fleet[slot].model,
                request: *req,
                success: out.success,
                cause: out.cause,
                rate_kbps: out.rate_kbps,
                duration: out.duration,
                traffic_mb: out.source_traffic_mb,
                iowait: out.iowait,
                storage_limited: out.storage_limited,
            });
        }
        if let Some(series) = &series {
            series.finish(ap_clock.iter().map(|c| c.as_millis()).max().unwrap_or(0));
        }
        (ApBenchReport { records }, lifecycle.map(|lifecycle| lifecycle.report()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odx_telemetry::{SeriesRecorder, TraceConfig};
    use odx_trace::{
        sample_benchmark_workload, Catalog, CatalogConfig, Population, PopulationConfig, Workload,
        WorkloadConfig,
    };
    use rand::SeedableRng;

    /// An unobserved replay of `fleet` under `faults` into a fresh registry.
    fn replay(
        sample: &[SampledRequest],
        fleet: &[ApContext; 3],
        faults: &FaultsConfig,
        seed: u64,
    ) -> ApBenchReport {
        let rngs = RngFactory::new(seed);
        let observers = Observers::default();
        SmartApBenchmark::replay_observed(sample, fleet, faults, &rngs, &Registry::new(), observers)
            .0
    }

    /// The unfaulted §5.1 bench fleet.
    fn plain(sample: &[SampledRequest], seed: u64) -> ApBenchReport {
        replay(sample, &ApContext::bench_fleet(), &FaultsConfig::default(), seed)
    }

    fn bench_sample(n: usize, seed: u64) -> Vec<SampledRequest> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let catalog = Catalog::generate(&CatalogConfig::scaled(0.02), &mut rng);
        let population = Population::generate(&PopulationConfig::scaled(0.02), &mut rng);
        let workload =
            Workload::generate(&catalog, &population, &WorkloadConfig::default(), &mut rng);
        sample_benchmark_workload(&workload, &catalog, &population, n, &mut rng)
    }

    fn report(n: usize, seed: u64) -> ApBenchReport {
        plain(&bench_sample(n, seed), seed)
    }

    #[test]
    fn thousand_request_replay_matches_fig13_14() {
        // Use a larger sample than the paper's 1000 to tame sampling noise;
        // the repro harness runs the paper-exact 1000.
        let r = report(6000, 140);
        let speed = r.speed_ecdf().summary().unwrap();
        // Fig 13: median 27 KBps, average 64 KBps.
        assert!((10.0..45.0).contains(&speed.median), "median {}", speed.median);
        assert!((45.0..95.0).contains(&speed.mean), "mean {}", speed.mean);
        // Fig 14: median 77 min, average 402 min.
        let delay = r.delay_ecdf().summary().unwrap();
        assert!((40.0..130.0).contains(&delay.median), "median {}", delay.median);
        assert!(delay.mean > 2.5 * delay.median, "mean {} median {}", delay.mean, delay.median);
    }

    #[test]
    fn overall_failure_ratio_matches() {
        let r = report(6000, 141);
        let f = r.failure_ratio();
        assert!((f - 0.168).abs() < 0.04, "failure {f}");
    }

    #[test]
    fn unpopular_failure_ratio_matches() {
        let r = report(6000, 142);
        let f = r.unpopular_failure_ratio();
        assert!((f - 0.42).abs() < 0.06, "unpopular failure {f}");
    }

    #[test]
    fn failure_causes_split_86_10_4() {
        let r = report(8000, 143);
        let [seeds, conn, bug] = r.cause_shares();
        assert!((seeds - 0.86).abs() < 0.06, "seeds {seeds}");
        assert!((conn - 0.10).abs() < 0.05, "connection {conn}");
        assert!((bug - 0.04).abs() < 0.03, "bug {bug}");
    }

    #[test]
    fn newifi_max_speed_is_ntfs_capped() {
        let r = report(8000, 144);
        let newifi = r.max_speed_kbps(ApModel::Newifi);
        let hiwifi = r.max_speed_kbps(ApModel::HiWiFi);
        assert!(newifi <= 965.0, "Newifi max {newifi}"); // model puts the NTFS cap at 0.96 MBps (paper: 0.93)
        assert!(hiwifi > newifi, "HiWiFi max {hiwifi} should beat Newifi {newifi}");
    }

    #[test]
    fn replay_splits_requests_across_aps() {
        let r = report(999, 145);
        for ap in ApModel::ALL {
            assert_eq!(r.records_for(ap).count(), 333);
        }
    }

    #[test]
    fn series_replay_ends_at_the_final_counter_values() {
        let sample = bench_sample(300, 147);
        let run = |interval_ms| {
            let registry = Registry::new();
            let series = SeriesRecorder::new(interval_ms);
            let observers = Observers { series: Some(series.clone()), ..Observers::default() };
            let (report, _) = SmartApBenchmark::replay_observed(
                &sample,
                &ApContext::bench_fleet(),
                &FaultsConfig::default(),
                &RngFactory::new(147),
                &registry,
                observers,
            );
            (report, series.snapshot(), registry.snapshot())
        };
        let (report, series, snapshot) = run(3_600_000);
        assert!(series.times.len() > 1, "a 300-task replay spans multiple sim-hours");
        // The final sample equals the end-of-run counters, which equal
        // the report's own tallies.
        let last = |name: &str| series.series[name].final_value().unwrap();
        assert_eq!(last("ap.tasks") as u64, 300);
        assert_eq!(snapshot.counters["ap.tasks"], 300);
        assert_eq!(
            last("ap.failures") as u64,
            report.records().iter().filter(|r| !r.success).count() as u64
        );
        // Same seed, same cadence → byte-identical series.
        assert_eq!(series.to_json(), run(3_600_000).1.to_json());
        // The observed replay's records match the unobserved harness.
        assert_eq!(plain(&sample, 147).failure_ratio(), report.failure_ratio());
    }

    #[test]
    fn replay_is_deterministic() {
        let a = report(300, 146);
        let b = report(300, 146);
        assert_eq!(a.failure_ratio(), b.failure_ratio());
        assert_eq!(
            a.records()[..50].iter().map(|r| r.rate_kbps).collect::<Vec<_>>(),
            b.records()[..50].iter().map(|r| r.rate_kbps).collect::<Vec<_>>()
        );
    }

    #[test]
    fn traced_replay_matches_untraced_and_tiles_durations() {
        let sample = bench_sample(300, 148);
        let observers = Observers { trace: Some(&TraceConfig::full()), ..Observers::default() };
        let (traced, lifecycle) = SmartApBenchmark::replay_observed(
            &sample,
            &ApContext::bench_fleet(),
            &FaultsConfig::default(),
            &RngFactory::new(148),
            &Registry::new(),
            observers,
        );
        let lifecycle = lifecycle.expect("tracing was requested");
        // Tracing must not perturb the replay itself.
        assert_eq!(plain(&sample, 148).failure_ratio(), traced.failure_ratio());
        assert_eq!(lifecycle.traces.traces.len(), sample.len());
        for (trace, record) in lifecycle.traces.traces.iter().zip(traced.records()) {
            assert_eq!(trace.completion_ms(), Some(record.duration.as_millis()));
            assert_eq!(trace.stage_ms(Stage::Predownload), record.duration.as_millis());
            let expected = if record.success { TaskEnd::Completed } else { TaskEnd::Failed };
            assert_eq!(trace.end.map(|(end, _)| end), Some(expected));
        }
        let failures = traced.records().iter().filter(|r| !r.success).count() as u64;
        assert_eq!(lifecycle.flight.dumps.len() as u64 + lifecycle.flight.dropped_dumps, failures);
    }

    #[test]
    fn ap_fault_windows_slow_and_kill_tasks_but_zero_intensity_is_free() {
        let sample = bench_sample(3000, 149);
        let fleet = ApContext::bench_fleet();
        let plain = plain(&sample, 149);
        // Zero intensity must not perturb a single record, whatever the
        // other knobs say.
        let zero = FaultsConfig { window_s: 60.0, ap_slowdown: 0.9, ..FaultsConfig::default() };
        let quiet = replay(&sample, &fleet, &zero, 149);
        assert_eq!(format!("{:?}", plain.records()), format!("{:?}", quiet.records()));
        // An aggressive plan kills some tasks and stalls others.
        let faults = FaultsConfig { intensity: 0.2, ..FaultsConfig::default() };
        let faulted = replay(&sample, &fleet, &faults, 149);
        assert!(
            faulted.failure_ratio() > plain.failure_ratio(),
            "power cycles should raise failures: {} vs {}",
            faulted.failure_ratio(),
            plain.failure_ratio()
        );
        assert!(
            faulted.storage_limited_fraction() > plain.storage_limited_fraction(),
            "disk stalls should hit the storage wall more often"
        );
    }

    #[test]
    fn usb3_fleet_lifts_the_newifi_storage_cap() {
        use odx_storage::{DeviceKind, FsKind};
        let sample = bench_sample(6000, 147);
        let fleet = ApContext::bench_fleet().map(|c| ApContext {
            device: DeviceKind::UsbHdd,
            fs: FsKind::Ext4,
            ..c
        });
        let stock = plain(&sample, 147);
        let upgraded = replay(&sample, &fleet, &FaultsConfig::default(), 147);
        assert!(
            upgraded.max_speed_kbps(ApModel::Newifi) > stock.max_speed_kbps(ApModel::Newifi),
            "USB-HDD/EXT4 should beat the stock NTFS flash drive"
        );
        assert!(
            upgraded.storage_limited_fraction() <= stock.storage_limited_fraction(),
            "upgraded fleet should hit the storage wall no more often"
        );
    }
}
