//! Determinism under parallelism: a sweep's merged deterministic exports
//! are byte-identical for any worker count.

use odx::sweep::{run_sweep, SweepSpec};
use odx::Study;
use proptest::prelude::*;

fn spec(seed: u64, n_scenarios: usize, jobs: usize) -> SweepSpec {
    SweepSpec {
        scenarios: Study::scenarios().all()[..n_scenarios].to_vec(),
        seeds: vec![seed, seed + 1],
        scale: 0.0005,
        jobs,
        trace: None,
        series_interval_ms: None,
        progress: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `--jobs 1`, `--jobs 2`, and `--jobs 8` produce byte-identical JSON
    /// and CSV snapshots for arbitrary seeds and grid widths.
    #[test]
    fn sweep_bytes_do_not_depend_on_worker_count(
        seed in 0u64..100_000,
        n_scenarios in 1usize..4,
    ) {
        let j1 = run_sweep(&spec(seed, n_scenarios, 1));
        let j2 = run_sweep(&spec(seed, n_scenarios, 2));
        let j8 = run_sweep(&spec(seed, n_scenarios, 8));
        prop_assert_eq!(j1.to_json(), j2.to_json());
        prop_assert_eq!(j2.to_json(), j8.to_json());
        prop_assert_eq!(j1.to_csv(), j2.to_csv());
        prop_assert_eq!(j2.to_csv(), j8.to_csv());
    }
}

#[test]
fn sweep_report_shape_is_sane() {
    let report = run_sweep(&spec(2015, 2, 2));
    assert_eq!(report.cells.len(), 4, "2 scenarios × 2 seeds");
    // Cells come out (scenario, seed)-sorted regardless of execution order.
    let keys: Vec<_> = report.cells.iter().map(|c| (c.scenario.clone(), c.seed)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
    // The JSON carries one object per cell; the CSV one row plus header.
    assert_eq!(report.to_json().matches("\"scenario\"").count(), 4);
    assert_eq!(report.to_csv().lines().count(), 5);
    assert!(report.total_events() > 0);
}
