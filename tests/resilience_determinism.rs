//! Resilience-sweep determinism: fault-injected grids are byte-identical
//! across worker counts, a zero-intensity fault plan
//! reproduces the pre-fault golden sweep exports byte for byte, and
//! exponential backoff rescues tasks that `retry.policy=none` loses
//! under the same fault plan.

use odx::backend::ScenarioRegistry;
use odx::faults::RetryKind;
use odx::sweep::{resilience_variants, run_sweep, SweepSpec};
use proptest::prelude::*;

fn grid(seed: u64, intensity: f64, jobs: usize) -> SweepSpec {
    let registry = ScenarioRegistry::builtin();
    let scenarios = [registry.get("cache-pressure").expect("builtin preset").clone()];
    let variants =
        resilience_variants(&scenarios, &[0.0, intensity], &[RetryKind::None, RetryKind::Expo]);
    SweepSpec {
        scenarios: variants,
        seeds: vec![seed],
        scale: 0.0005,
        jobs,
        trace: None,
        series_interval_ms: None,
        progress: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A fault-injected resilience grid exports byte-identical JSON and
    /// CSV for `--jobs 1/2/8` — injection holds the standing determinism
    /// bar.
    #[test]
    fn resilience_bytes_do_not_depend_on_worker_count_or_scheduler(
        seed in 0u64..100_000,
        intensity in 0.05f64..0.3,
    ) {
        let j1 = run_sweep(&grid(seed, intensity, 1));
        let j2 = run_sweep(&grid(seed, intensity, 2));
        let j8 = run_sweep(&grid(seed, intensity, 8));
        prop_assert_eq!(j1.to_json(), j2.to_json());
        prop_assert_eq!(j2.to_json(), j8.to_json());
        prop_assert_eq!(j1.to_csv(), j2.to_csv());
        prop_assert_eq!(j2.to_csv(), j8.to_csv());
    }
}

/// A zero-intensity fault plan (and an inert retry config) reproduces the
/// pre-fault golden sweep exports byte for byte, even with every other
/// `faults.*` / `retry.*` knob moved off its default: no windows, no RNG
/// draws, no extra events.
#[test]
fn zero_intensity_plan_reproduces_the_golden_sweep_exports() {
    let registry = ScenarioRegistry::builtin();
    let mut scenario = registry.get("paper-default").expect("builtin preset").clone();
    scenario.faults.window_s = 60.0;
    scenario.faults.net_slowdown = 0.9;
    scenario.faults.cloud_slowdown = 0.9;
    scenario.retry.base_delay_s = 1.0;
    scenario.retry.max_attempts = 9;
    let report = run_sweep(&SweepSpec {
        scenarios: vec![scenario],
        seeds: vec![2015, 2016],
        scale: 0.002,
        jobs: 2,
        trace: None,
        series_interval_ms: None,
        progress: false,
    });
    assert_eq!(
        report.to_json(),
        include_str!("golden/sweep_lru_paper_default_s2015x2_scale0002.json"),
        "a zero-intensity plan must not move a single byte of the golden sweep"
    );
    assert_eq!(
        report.to_csv(),
        include_str!("golden/sweep_lru_paper_default_s2015x2_scale0002.csv"),
        "a zero-intensity plan must not move a single byte of the golden CSV"
    );
}

/// Retry must pay off: on `cache-pressure` under the same
/// fault plan, exponential backoff shows a lower failure share than
/// `retry.policy=none`.
#[test]
fn expo_backoff_beats_no_retry_on_cache_pressure() {
    let report = run_sweep(&grid(2015, 0.2, 2));
    let cell = |name: &str| {
        report
            .cells
            .iter()
            .find(|c| c.scenario == name)
            .unwrap_or_else(|| panic!("grid cell `{name}`"))
    };
    let none = cell("cache-pressure/fault=0.2/retry=none");
    let expo = cell("cache-pressure/fault=0.2/retry=expo");
    assert!(
        expo.failure_ratio < none.failure_ratio,
        "expo should rescue stagnated tasks: {} vs {}",
        expo.failure_ratio,
        none.failure_ratio
    );
    // Same seed, same plan: both cells replayed the same workload.
    assert_eq!(expo.requests, none.requests);
}
