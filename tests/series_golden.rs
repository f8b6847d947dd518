//! Golden pin for the virtual-time series above one arrival-accounting
//! window. `tests/golden/series_paper_default_s2015_scale002.json` is
//! `repro series --scenario paper-default --seeds 1 --scale 0.02 --jobs 1`
//! as exported before arrivals stopped passing through the future-event
//! list. At this scale the week has about 80 k arrivals, so
//! `sim.queue_depth` is sampled across the 65,536-arrival window boundary
//! that every smaller determinism test stays below.

use odx::sweep::{run_sweep, SweepSpec};
use odx::Study;

fn series_json() -> String {
    let scenario = Study::scenarios().get("paper-default").expect("builtin preset").clone();
    let spec = SweepSpec {
        series_interval_ms: Some(scenario.series_interval_ms()),
        scenarios: vec![scenario],
        seeds: vec![2015],
        scale: 0.02,
        jobs: 1,
        trace: None,
        progress: false,
    };
    run_sweep(&spec).series().expect("series recorded").to_json()
}

#[test]
fn heap_series_matches_the_golden_across_an_arrival_window() {
    assert!(
        series_json() == include_str!("golden/series_paper_default_s2015_scale002.json"),
        "series drifted from the golden"
    );
}
