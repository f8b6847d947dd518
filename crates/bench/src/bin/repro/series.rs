//! The two clocks (`DESIGN.md` §two-clocks): `series` samples the
//! telemetry registry on the virtual clock, `profile` times each event
//! handler on the wall clock.

use odx_telemetry::{render_rows, rows_from_walls, Observers, Registry};

use crate::grids::run_grid;
use crate::{export, section, Ctx};

/// `series`: replay the selected scenario(s) × seeds on the sweep pool
/// with virtual-time series recording and export the merged `(scenario,
/// seed)`-keyed set as byte-stable CSV + JSON, byte-identical for any
/// `--jobs`. The cadence is the active scenario's
/// `telemetry.series_interval_s` (default one sim-hour). `--out
/// series.csv` names the CSV (sibling `.json` alongside); `--out DIR`
/// writes `DIR/series.{csv,json}`; the default is `./series.{csv,json}`.
pub fn series(ctx: &Ctx) {
    let interval_ms = ctx.scenario.series_interval_ms();
    section(&format!(
        "Series — virtual-time metrics every {interval_ms} ms over {} scenario(s) × {} seed(s)",
        ctx.grid.len(),
        ctx.opts.seeds
    ));
    let report = run_grid(ctx, ctx.grid.clone(), None, Some(interval_ms));
    let set = report.series().expect("series recording was enabled");
    for ((scenario, seed), snapshot) in &set.cells {
        println!(
            "  {:<28} seed {:<6} {:>4} sample(s) × {} metric(s)",
            scenario,
            seed,
            snapshot.times.len(),
            snapshot.series.len()
        );
    }
    let csv = ctx.opts.out_file("series.csv");
    let json = csv.with_extension("json");
    let files = [(csv, set.to_csv()), (json, set.to_json())];
    export("series", &files, " — byte-identical for any --jobs");
}

/// `profile`: replay the cloud week with the per-handler wall profiler
/// attached and print the breakdown — wall seconds, events and percent of
/// replay per event-kind handler plus scheduler-pop cost; the `other`
/// residual makes the shares sum to exactly 100 % of replay wall. All of it
/// is wall-clock, so it replays into a private registry and lands in no
/// deterministic export.
pub fn profile(ctx: &Ctx) {
    section(&format!(
        "Profile — per-handler wall breakdown ({}, nondeterministic)",
        ctx.scenario.name
    ));
    let registry = Registry::new();
    let profiled = Observers { profile: true, ..Observers::default() };
    let (report, _) = ctx.study().replay_cloud(&ctx.scenario, &registry, profiled);
    let wall = registry.snapshot().wall;
    let (rows, run_secs) = rows_from_walls(&wall).expect("profiled replay flushed prof.* walls");
    for line in render_rows(&rows, run_secs).lines() {
        println!("  {line}");
    }
    println!(
        "  {} request(s) replayed in {run_secs:.2}s — shares sum to 100% of replay wall",
        report.counters.requests
    );
}
