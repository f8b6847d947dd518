//! The grid commands: `sweep`, `cache-compare` and `resilience` replay the
//! selected scenarios × seeds on the sweep pool; their merged output is
//! byte-identical for any `--jobs`.

use odx::backend::Scenario;
use odx::cache::PolicyKind;
use odx::sweep::{run_sweep, SweepReport, SweepSpec};
use odx_telemetry::TraceConfig;

use crate::{export, section, Ctx};

/// Run `scenarios` × the `--seeds` seeds counting up from `--seed` on
/// the sweep pool, at `--scale` on `--jobs` workers.
pub fn run_grid(
    ctx: &Ctx,
    scenarios: Vec<Scenario>,
    trace: Option<TraceConfig>,
    series_interval_ms: Option<u64>,
) -> SweepReport {
    let opts = &ctx.opts;
    run_sweep(&SweepSpec {
        scenarios,
        seeds: (0..opts.seeds as u64).map(|i| opts.seed + i).collect(),
        scale: opts.scale,
        jobs: opts.jobs,
        trace,
        series_interval_ms,
        progress: opts.progress,
    })
}

/// The grid commands' shared tail: the worker footer, the merged latency
/// attribution of a traced grid, and under `--out DIR` the deterministic
/// `<stem>.{json,csv}` snapshots (plus `attribution.json` when traced).
fn grid_tail(ctx: &Ctx, report: &SweepReport, stem: &str) {
    println!(
        "  {} cell(s) on {} worker(s) in {:.2}s — {:.0} events/sec aggregate",
        report.cells.len(),
        report.jobs,
        report.wall_secs,
        report.events_per_sec()
    );
    let attribution = report.attribution();
    if let Some(attribution) = &attribution {
        println!("  merged latency attribution across all cells:");
        for line in attribution.waterfall().lines() {
            println!("  {line}");
        }
    }
    if let Some(dir) = ctx.opts.out_dir() {
        let files = [
            (dir.join(format!("{stem}.json")), report.to_json()),
            (dir.join(format!("{stem}.csv")), report.to_csv()),
        ];
        export("deterministic snapshots", &files, "");
        if let Some(attribution) = &attribution {
            export(
                "merged attribution",
                &[(dir.join("attribution.json"), attribution.to_json())],
                "",
            );
        }
    }
}

pub fn sweep(ctx: &Ctx) {
    let (opts, scenarios) = (&ctx.opts, ctx.grid.clone());
    section(&format!(
        "Sweep — {} scenario(s) × {} seed(s) at scale {} on {} worker(s)",
        scenarios.len(),
        opts.seeds,
        opts.scale,
        opts.jobs
    ));
    // Sweeps stay untraced unless `--trace-sample N` opts in: tracing off
    // is the perf-neutral default for grid runs.
    let trace = (opts.trace_sample > 0).then(|| TraceConfig::sampled(opts.trace_sample));
    let report = run_grid(ctx, scenarios, trace, None);
    println!(
        "  {:<18} {:>6} {:>9} {:>6} {:>6} {:>8} {:>10}",
        "scenario", "seed", "requests", "hit%", "fail%", "impeded%", "events"
    );
    for c in &report.cells {
        println!(
            "  {:<18} {:>6} {:>9} {:>6.1} {:>6.1} {:>8.1} {:>10}",
            c.scenario,
            c.seed,
            c.requests,
            100.0 * c.hit_ratio,
            100.0 * c.failure_ratio,
            100.0 * c.impeded_ratio,
            c.sim_events
        );
    }
    grid_tail(ctx, &report, "sweep");
}

/// `cache-compare`: sweep every replacement policy (or just `--policy`)
/// across the selected scenarios × seeds on the shared sweep pool, then
/// print per-policy offloading means against the paper's §2.1/§4.1
/// headlines (89 % cache hit, 8.7 % pre-download failure). Cells merge in
/// spec order, so the table and the `--out` snapshots are byte-identical
/// for any `--jobs`.
pub fn cache_compare(ctx: &Ctx) {
    use odx::sweep::policy_variants;
    let (opts, scenarios) = (&ctx.opts, &ctx.grid);
    let policies: Vec<PolicyKind> = match opts.policy {
        Some(p) => vec![p],
        None => PolicyKind::ALL.to_vec(),
    };
    let variants = policy_variants(scenarios, &policies);
    section(&format!(
        "Cache compare — {} scenario(s) × {} polic{} × {} seed(s) at scale {} on {} worker(s)",
        scenarios.len(),
        policies.len(),
        if policies.len() == 1 { "y" } else { "ies" },
        opts.seeds,
        opts.scale,
        opts.jobs
    ));
    let report = run_grid(ctx, variants.clone(), None, None);
    println!(
        "  {:<28} {:>6} {:>9} {:>6} {:>6} {:>9} {:>10}",
        "scenario/policy", "seed", "requests", "hit%", "fail%", "misses", "events"
    );
    for c in &report.cells {
        println!(
            "  {:<28} {:>6} {:>9} {:>6.1} {:>6.1} {:>9} {:>10}",
            c.scenario,
            c.seed,
            c.requests,
            100.0 * c.hit_ratio,
            100.0 * c.failure_ratio,
            c.requests - c.cache_hits,
            c.sim_events
        );
    }
    println!("  means per policy vs the paper (hit 89.0 %, failure 8.7 %):");
    for variant in &variants {
        let cells: Vec<_> = report.cells.iter().filter(|c| c.scenario == variant.name).collect();
        if cells.is_empty() {
            continue;
        }
        let n = cells.len() as f64;
        let hit = 100.0 * cells.iter().map(|c| c.hit_ratio).sum::<f64>() / n;
        let fail = 100.0 * cells.iter().map(|c| c.failure_ratio).sum::<f64>() / n;
        println!(
            "  {:<28} hit {:>5.1}% (\u{0394}{:+5.1})   failure {:>5.1}% (\u{0394}{:+5.1})",
            variant.name,
            hit,
            hit - 89.0,
            fail,
            fail - 8.7
        );
    }
    grid_tail(ctx, &report, "cache_compare");
}

/// `resilience`: sweep a fault-intensity × retry-policy grid over the
/// selected scenario(s) and diff every cell against its scenario's
/// uninjected `fault=0/retry=none` baseline cell (same seed). Per-cell
/// rows show failure share, stagnated pre-downloads, and goodput
/// (completed fetches per request) with their deltas; per-variant means
/// summarize the grid. `--policy none|fixed|expo` narrows the retry axis
/// to baseline-vs-that-policy. The deterministic exports
/// (`resilience.{json,csv}` under `--out DIR`) are byte-identical for
/// any `--jobs` value.
pub fn resilience(ctx: &Ctx) {
    use odx::faults::RetryKind;
    use odx::sweep::resilience_variants;
    let (opts, scenarios) = (&ctx.opts, &ctx.grid);
    let intensities = [0.0, 0.1, 0.25];
    let policies: Vec<RetryKind> = match opts.retry_policy {
        Some(RetryKind::None) => vec![RetryKind::None],
        Some(p) => vec![RetryKind::None, p],
        None => RetryKind::ALL.to_vec(),
    };
    let variants = resilience_variants(scenarios, &intensities, &policies);
    section(&format!(
        "Resilience — {} scenario(s) × {} intensit{} × {} polic{} × {} seed(s) at scale {} on {} worker(s)",
        scenarios.len(),
        intensities.len(),
        if intensities.len() == 1 { "y" } else { "ies" },
        policies.len(),
        if policies.len() == 1 { "y" } else { "ies" },
        opts.seeds,
        opts.scale,
        opts.jobs
    ));
    let report = run_grid(ctx, variants.clone(), None, None);
    // Baseline lookup: the scenario's own zero-fault, no-retry cell at
    // the same seed (always in the grid — intensity 0 and `none` are).
    let baseline = |scenario: &str, seed: u64| {
        let base = scenario.split("/fault=").next().unwrap_or(scenario);
        let name = format!("{base}/fault=0/retry=none");
        report.cells.iter().find(|c| c.scenario == name && c.seed == seed)
    };
    let goodput = |c: &odx::sweep::SweepCell| c.completed_fetches as f64 / c.requests.max(1) as f64;
    println!(
        "  {:<40} {:>6} {:>9} {:>6} {:>7} {:>9} {:>7} {:>8}",
        "scenario/fault/retry", "seed", "requests", "fail%", "Δfail", "stagnant", "good%", "Δgood"
    );
    for c in &report.cells {
        let base = baseline(&c.scenario, c.seed).expect("zero-fault baseline cell in grid");
        println!(
            "  {:<40} {:>6} {:>9} {:>6.2} {:>+7.2} {:>9} {:>7.2} {:>+8.2}",
            c.scenario,
            c.seed,
            c.requests,
            100.0 * c.failure_ratio,
            100.0 * (c.failure_ratio - base.failure_ratio),
            c.predownload_failures,
            100.0 * goodput(c),
            100.0 * (goodput(c) - goodput(base)),
        );
    }
    println!("  means per grid cell vs the uninjected baseline:");
    for variant in &variants {
        let cells: Vec<_> = report.cells.iter().filter(|c| c.scenario == variant.name).collect();
        if cells.is_empty() {
            continue;
        }
        let n = cells.len() as f64;
        let fail = 100.0 * cells.iter().map(|c| c.failure_ratio).sum::<f64>() / n;
        let good = 100.0 * cells.iter().map(|c| goodput(c)).sum::<f64>() / n;
        let (bfail, bgood) = {
            let bases: Vec<_> =
                cells.iter().filter_map(|c| baseline(&c.scenario, c.seed)).collect();
            let bn = bases.len().max(1) as f64;
            (
                100.0 * bases.iter().map(|c| c.failure_ratio).sum::<f64>() / bn,
                100.0 * bases.iter().map(|c| goodput(c)).sum::<f64>() / bn,
            )
        };
        println!(
            "  {:<40} failure {:>5.2}% (\u{0394}{:+5.2})   goodput {:>5.2}% (\u{0394}{:+5.2})",
            variant.name,
            fail,
            fail - bfail,
            good,
            good - bgood
        );
    }
    grid_tail(ctx, &report, "resilience");
}
