//! Observing a run never changes it. For every backend (cloud week, smart-AP
//! bench, ODR evaluation), every subset of {trace, series, profile}, and
//! fault intensity 0 or 0.25, the observed run must produce the same report
//! and the same deterministic registry snapshot as the unobserved run.

use odx::backend::Scenario;
use odx::telemetry::{Observers, Registry, SeriesRecorder, TraceConfig};
use odx::Study;
use proptest::prelude::*;

/// Sampled requests per smart-AP / ODR run.
const SAMPLE: usize = 200;

#[derive(Debug, Clone, Copy)]
enum Backend {
    Cloud,
    SmartAp,
    Odr,
}

/// The observer subset encoded by bits 0 (trace), 1 (series), 2 (profile).
fn observers(mask: u8, trace: &TraceConfig, interval_ms: u64) -> Observers<'_> {
    Observers {
        trace: (mask & 1 != 0).then_some(trace),
        series: (mask & 2 != 0).then(|| SeriesRecorder::new(interval_ms)),
        profile: mask & 4 != 0,
    }
}

/// One run's deterministic outputs: the report rendered with `Debug`, and
/// the registry snapshot's JSON (the wall section is excluded from it).
fn run(study: &Study, scenario: &Scenario, backend: Backend, mask: u8) -> (String, String) {
    let registry = Registry::new();
    let trace = TraceConfig::sampled(3);
    let observers = observers(mask, &trace, scenario.series_interval_ms());
    let report = match backend {
        Backend::Cloud => format!("{:?}", study.replay_cloud(scenario, &registry, observers).0),
        Backend::SmartAp => {
            let (report, _) = study.replay_smart_aps(SAMPLE, scenario, &registry, observers);
            format!("{:?}", report.records())
        }
        Backend::Odr => {
            let (report, _) = study.replay_odr(SAMPLE, scenario, &registry, observers);
            format!("{:?} {:?}", report.tasks(), report.baseline_ap().records())
        }
    };
    (report, registry.snapshot().to_json())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn observing_a_run_never_changes_it(seed in 0u64..50_000) {
        let study = Study::generate(0.001, seed);
        for intensity in [0.0, 0.25] {
            let mut scenario = Study::paper_default();
            scenario.faults.intensity = intensity;
            for backend in [Backend::Cloud, Backend::SmartAp, Backend::Odr] {
                let (report, snapshot) = run(&study, &scenario, backend, 0);
                for mask in 1..8 {
                    let (observed, observed_snapshot) = run(&study, &scenario, backend, mask);
                    prop_assert!(
                        observed == report,
                        "{:?} report changed under observers {:03b} at intensity {}",
                        backend, mask, intensity
                    );
                    prop_assert!(
                        observed_snapshot == snapshot,
                        "{:?} snapshot changed under observers {:03b} at intensity {}",
                        backend, mask, intensity
                    );
                }
            }
        }
    }
}
