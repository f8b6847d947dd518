//! Per-task lifecycle commands: `attribute` (the virtual-time latency
//! waterfall), `trace` (Chrome trace-event export plus flight-recorder
//! dumps) and `check-trace` (validate such an export).

use odx_telemetry::{validate_chrome_trace, LifecycleReport, Observers};

use crate::{export, fail, section, Ctx};

/// Replay the cloud week into the `--metrics` registry with per-task
/// lifecycle tracing under the shared CLI knobs.
fn traced_replay(ctx: &Ctx) -> LifecycleReport {
    let trace = ctx.opts.trace_config();
    let observers = Observers { trace: Some(&trace), ..Observers::default() };
    let (_, lifecycle) = ctx.study().replay_cloud(&ctx.scenario, &ctx.metrics, observers);
    lifecycle.expect("tracing was requested")
}

pub fn attribute(ctx: &Ctx) {
    section(&format!(
        "Attribute — virtual-time latency waterfall ({}, every {} task(s))",
        ctx.scenario.name,
        ctx.opts.trace_config().sample_every
    ));
    let lifecycle = traced_replay(ctx);
    let attribution = lifecycle.attribution();
    for line in attribution.waterfall().lines() {
        println!("  {line}");
    }
    let flight = &lifecycle.flight;
    println!(
        "  flight recorder: {} anomaly dump(s) ({} past the cap), {} events recorded",
        flight.dumps.len(),
        flight.dropped_dumps,
        flight.recorded
    );
    if let Some(dir) = ctx.opts.out_dir() {
        export("attribution", &[(dir.join("attribution.json"), attribution.to_json())], "");
    }
}

pub fn trace(ctx: &Ctx) {
    section(&format!("Trace — Chrome trace-event export ({})", ctx.scenario.name));
    let lifecycle = traced_replay(ctx);
    let chrome = lifecycle.traces.to_chrome_json();
    let stats = validate_chrome_trace(&chrome).expect("exporter emits valid Chrome trace JSON");
    println!(
        "  {} event(s): {} spans + {} instants across {} task lane(s)",
        stats.events, stats.complete, stats.instants, stats.lanes
    );
    let path = ctx.opts.out_file("trace.json");
    let note = " — load in Perfetto (ui.perfetto.dev) or chrome://tracing";
    export("trace", &[(&path, &chrome)], note);
    let flight = &lifecycle.flight;
    let note = format!(" — {} anomaly dump(s)", flight.dumps.len());
    export("flight dumps", &[(path.with_extension("flight.json"), flight.to_json())], &note);
}

pub fn check_trace(ctx: &Ctx) {
    section("Check — validate a Chrome trace-event file");
    let path = ctx.opts.json.as_ref().expect("the parser requires --json for check-trace");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(2, &format!("cannot read {}: {e}", path.display())));
    match validate_chrome_trace(&text) {
        Ok(stats) => println!(
            "  {} is valid: {} event(s), {} spans, {} instants, {} lane(s)",
            path.display(),
            stats.events,
            stats.complete,
            stats.instants,
            stats.lanes
        ),
        Err(e) => fail(1, &format!("{} is not a valid Chrome trace: {e}", path.display())),
    }
}
