//! Determinism contracts for the virtual-time metric series at the
//! facade level: shard-merged sweep series equal independently replayed
//! single-shard series, and the final sample of every series equals the
//! end-of-run snapshot value (the tiling-style invariant).

use odx::backend::Scenario;
use odx::sweep::{run_sweep, SweepSpec};
use odx::telemetry::{
    MetricSeries, Observers, Registry, SeriesRecorder, SeriesSet, SeriesSnapshot,
};
use odx::Study;
use proptest::prelude::*;

fn preset(name: &str) -> Scenario {
    Study::scenarios().get(name).unwrap().clone()
}

/// Replay the week recording its series at the scenario's cadence.
fn series(study: &Study, scenario: &Scenario, registry: &Registry) -> SeriesSnapshot {
    let recorder = SeriesRecorder::new(scenario.series_interval_ms());
    let observers = Observers { series: Some(recorder.clone()), ..Observers::default() };
    study.replay_cloud(scenario, registry, observers);
    recorder.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// (a) A sweep's shard-merged series equals the set assembled from
    /// independent single-shard replays — for any worker count, and with
    /// no sweep machinery involved at all.
    #[test]
    fn shard_merged_series_equal_single_shard_series(seed in 0u64..50_000) {
        let scenarios = vec![preset("paper-default"), preset("ablate-cache")];
        let seeds = vec![seed, seed + 1];
        let spec = |jobs| SweepSpec {
            scenarios: scenarios.clone(),
            seeds: seeds.clone(),
            scale: 0.0005,
            jobs,
            trace: None,
            series_interval_ms: Some(scenarios[0].series_interval_ms()),
            progress: false,
        };
        let merged = run_sweep(&spec(3)).series().expect("series recorded");
        prop_assert_eq!(&merged, &run_sweep(&spec(1)).series().expect("series recorded"));
        let mut manual = SeriesSet::new();
        for scenario in &scenarios {
            for &cell_seed in &seeds {
                let study = Study::generate_scenario(0.0005, cell_seed, scenario);
                manual.insert(&scenario.name, cell_seed, series(&study, scenario, &Registry::new()));
            }
        }
        prop_assert_eq!(merged.to_json(), manual.to_json());
        prop_assert_eq!(merged.to_csv(), manual.to_csv());
    }

    /// (b) The final sample of every series equals the end-of-run
    /// snapshot value: counter deltas decode back to the counter total,
    /// gauges and quantiles end at the last written value.
    #[test]
    fn last_sample_equals_final_snapshot(seed in 0u64..50_000) {
        let scenario = preset("paper-default");
        let study = Study::generate_scenario(0.0005, seed, &scenario);
        let registry = Registry::new();
        let series = series(&study, &scenario, &registry);
        let snap = registry.snapshot();
        prop_assert!(!series.series.is_empty(), "the cloud tracks its headline metrics");
        for (name, metric) in &series.series {
            let got = metric.final_value().expect("finish() appended a sample");
            let want = match metric {
                MetricSeries::Counter(_) => snap.counters.get(name).copied().unwrap_or(0) as f64,
                MetricSeries::Gauge(_) => snap.gauges.get(name).copied().unwrap_or(0.0),
                MetricSeries::Quantile(q, _) => {
                    prop_assert_eq!(*q, 0.5, "the cloud tracks the fetch-rate median");
                    let base = name.strip_suffix(".p50").expect("quantile naming convention");
                    snap.histograms.get(base).expect("histogram exists").p50 as f64
                }
            };
            prop_assert_eq!(got, want, "{} must end at its snapshot value", name);
        }
    }
}
