//! Lifecycle-tracing contracts at the facade level: same-seed exports are
//! byte-identical, sampling drops only whole tasks, and the attribution
//! waterfall's timed stages exactly tile every task's completion time.

use odx::sweep::{run_sweep, SweepSpec};
use odx::telemetry::{
    validate_chrome_trace, LifecycleReport, Observers, Registry, Stage, TraceConfig,
};
use odx::Study;
use proptest::prelude::*;

/// Replay the `paper-default` week with lifecycle tracing.
fn traced(study: &Study, trace: &TraceConfig) -> LifecycleReport {
    let observers = Observers { trace: Some(trace), ..Observers::default() };
    let (_, lifecycle) = study.replay_cloud(&Study::paper_default(), &Registry::new(), observers);
    lifecycle.expect("tracing was requested")
}

fn traced_run(seed: u64, trace: &TraceConfig) -> (String, String, String) {
    let lifecycle = traced(&Study::generate(0.0005, seed), trace);
    (
        lifecycle.traces.to_chrome_json(),
        lifecycle.attribution().to_json(),
        lifecycle.flight.to_json(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Two independent same-seed traced replays export byte-identical
    /// Chrome trace JSON, attribution JSON, and flight-recorder JSON —
    /// and the trace is valid Chrome trace-event format.
    #[test]
    fn same_seed_exports_are_byte_identical(seed in 0u64..50_000) {
        let (chrome_a, attr_a, flight_a) = traced_run(seed, &TraceConfig::full());
        let (chrome_b, attr_b, flight_b) = traced_run(seed, &TraceConfig::full());
        prop_assert_eq!(&chrome_a, &chrome_b);
        prop_assert_eq!(attr_a, attr_b);
        prop_assert_eq!(flight_a, flight_b);
        let stats = validate_chrome_trace(&chrome_a);
        prop_assert!(stats.is_ok(), "invalid chrome trace: {:?}", stats.err());
        prop_assert!(stats.unwrap().events > 0);
    }

    /// Sampling `1/N` keeps exactly the tasks with `task % N == 0`, and
    /// each kept trace equals its counterpart from the full run — sampling
    /// drops whole tasks, never individual spans.
    #[test]
    fn sampling_drops_whole_tasks_only(seed in 0u64..50_000, n in 2u64..9) {
        let study = Study::generate(0.0005, seed);
        let full = traced(&study, &TraceConfig::full());
        let sampled = traced(&study, &TraceConfig::sampled(n));
        prop_assert!(!sampled.traces.traces.is_empty());
        for trace in &sampled.traces.traces {
            prop_assert_eq!(trace.task % n, 0, "task {} escaped the 1/{} filter", trace.task, n);
            prop_assert_eq!(Some(trace), full.traces.get(trace.task));
        }
        let expected: Vec<u64> =
            full.traces.traces.iter().map(|t| t.task).filter(|t| t % n == 0).collect();
        let got: Vec<u64> = sampled.traces.traces.iter().map(|t| t.task).collect();
        prop_assert_eq!(got, expected);
    }
}

/// The tiling invariant at the facade level: the waterfall's timed stages
/// sum exactly to the summed completion times, per task and in aggregate —
/// so the `repro attribute` shares always add to 100 %.
#[test]
fn waterfall_stage_sums_equal_completion_times() {
    let lifecycle = traced(&Study::generate(0.001, 2015), &TraceConfig::full());
    let attribution = lifecycle.attribution();
    assert!(attribution.tasks > 0);
    assert!(attribution.total_completion_ms > 0);
    assert_eq!(attribution.total_stage_ms(), attribution.total_completion_ms);
    for trace in &lifecycle.traces.traces {
        // completion_ms() is already the arrival→terminal duration.
        let completion = trace.completion_ms().expect("every task terminates");
        let timed: u64 = [Stage::Predownload, Stage::Queue, Stage::Fetch]
            .iter()
            .map(|&s| trace.stage_ms(s))
            .sum();
        assert_eq!(
            timed, completion,
            "task {}: timed stages must tile arrival→completion",
            trace.task
        );
    }
}

/// A traced sweep merges shard attributions into the same totals a direct
/// per-cell sum would give, independent of worker count.
#[test]
fn sweep_attribution_merges_across_shards() {
    let spec = |jobs| SweepSpec {
        scenarios: vec![Study::scenarios().get("paper-default").unwrap().clone()],
        seeds: vec![2015, 2016, 2017],
        scale: 0.0005,
        jobs,
        trace: Some(TraceConfig::sampled(3)),
        series_interval_ms: None,
        progress: false,
    };
    let j1 = run_sweep(&spec(1));
    let j4 = run_sweep(&spec(4));
    let merged = j1.attribution().unwrap();
    assert_eq!(merged, j4.attribution().unwrap());
    assert_eq!(merged.tasks, j1.cells.iter().map(|c| c.attribution.as_ref().unwrap().tasks).sum());
    assert_eq!(merged.total_stage_ms(), merged.total_completion_ms);
}
