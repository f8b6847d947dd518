//! `repro` — regenerate every table and figure of the paper and print the
//! measured values next to the published ones.
//!
//! ```sh
//! cargo run --release -p odx-bench --bin repro -- all --scale 0.1
//! cargo run --release -p odx-bench --bin repro -- fig8 fig9
//! cargo run --release -p odx-bench --bin repro -- headline --scenario ablate-cache
//! cargo run --release -p odx-bench --bin repro -- sweep --scenario all --seeds 5 --jobs 4
//! cargo run --release -p odx-bench --bin repro -- sweep --scenario all --seeds 5 --jobs 4 --progress
//! cargo run --release -p odx-bench --bin repro -- cache-compare --scenario all --seeds 3
//! cargo run --release -p odx-bench --bin repro -- attribute --scenario paper-default
//! cargo run --release -p odx-bench --bin repro -- series --out series.csv
//! cargo run --release -p odx-bench --bin repro -- profile
//! cargo run --release -p odx-bench --bin repro -- trace --out trace.json
//! cargo run --release -p odx-bench --bin repro -- scenario show cache-pressure
//! cargo run --release -p odx-bench --bin repro -- scenario dump --all
//! cargo run --release -p odx-bench --bin repro -- --scenario-file examples/campus-pressure.json sweep --scenario campus-pressure
//! cargo run --release -p odx-bench --bin repro -- headline --set cernet_share=0.3
//! cargo run --release -p odx-bench --bin repro -- list
//! ```
//!
//! Commands: `table1 fig5 fig6 fig7 fig8 fig9 fig10 fig11 headline fig13
//! fig14 table2 fig15 fig16 fig17 ablate-cache ablate-privileged
//! ablate-storage ablate-dedup ablate-ledbat ablate-concurrency sweep-userbase sweep-cache
//! attribute trace check-trace sweep cache-compare resilience series profile
//! export-traces list all`.
//! (`attribute`, `trace`, `check-trace`, `sweep`, `cache-compare`,
//! `resilience`, `series`, `profile`, and `export-traces` are opt-in — they are not part
//! of `all`; `list` prints the available commands, scenario presets, and
//! cache policies.)

//! `cache-compare` sweeps every cache replacement policy (or just
//! `--policy NAME`) across the selected scenarios × seeds on the sweep
//! pool and prints per-policy offloading ratios against the paper's
//! headline numbers; its merged output is byte-identical for any `--jobs`.
//! For every other command `--policy NAME` swaps the pool's replacement
//! policy in the active scenario (the default everywhere is `lru`, the
//! paper's pool).
//!
//! Scenarios are data (`DESIGN.md` §scenarios-as-data): the active
//! configuration is built in layers — the paper baseline, a preset or
//! user-file delta, then CLI overrides. `--scenario NAME` (default
//! `paper-default`) resolves a scenario from the registry and applies it
//! to workload generation and every replay; `sweep` and `cache-compare`
//! additionally accept the selector `all`, expanding to every registered
//! scenario (and, per scenario, its declared sweep `axes` grid).
//! `--scenario-file FILE` (repeatable) loads scenario JSON — one object or
//! an array, each a delta over the baseline or over `"base": NAME` — into
//! the registry for every subcommand; later definitions replace same-name
//! earlier ones. `--set dotted.path=value` (repeatable) overrides one
//! field of the active scenario(s), e.g. `--set cache.policy=gdsf --set
//! demand_factor=2`. Any unknown name, unreadable file, or out-of-bounds
//! value exits 2 naming the offending field and the nearest valid
//! alternative.
//!
//! The `scenario` subcommand inspects the registry without running
//! anything: `scenario show NAME` and `scenario dump --all` print
//! byte-stable canonical JSON (stdout carries nothing else), and
//! `scenario check [--json FILE]` validates a scenario document from a
//! file or stdin — so `repro scenario dump --all | repro scenario check`
//! round-trips.
//!
//! `--scale` (default 0.1) sets the workload scale (1.0 =
//! the paper's full 4.08 M-task week); `--seed` the master seed; `--seeds N`
//! the sweep's seed-axis length (seeds `seed..seed+N`); `--jobs N` the
//! sweep worker-thread count (the merged output is byte-identical for any
//! value); `--sample` the §5.1/§6.2 sample size (default 1000, the
//! paper's); `--trace-sample N` enables lifecycle tracing of every `1/N`th
//! task in `sweep` (and thins `attribute`/`trace`, which otherwise trace
//! every task); `--out DIR` additionally dumps each figure's plotted series
//! as TSV (and the sweep's merged `sweep.json`/`sweep.csv`; for `trace` a
//! path ending in `.json` names the trace file itself); `--metrics FILE`
//! writes the final telemetry-registry snapshot as JSON (byte-identical
//! across same-seed runs of the same commands); `--json FILE` names
//! `check-trace`'s input (and `scenario check`'s document).
//!
//! Lifecycle observability (`DESIGN.md` §observability): `attribute`
//! replays the cloud week with per-task causal tracing and prints the
//! latency-attribution waterfall — virtual-time per stage (pre-download,
//! admission queueing, fetch, …) whose timed stages exactly tile every
//! task's arrival→completion interval. `trace` exports the same replay as
//! Chrome trace-event JSON (load in Perfetto / `chrome://tracing`) plus the
//! flight-recorder anomaly dumps next to it; `check-trace` validates such
//! a file with the in-tree parser. Both exports are byte-identical across
//! same-seed runs.
//!
//! Two clocks (`DESIGN.md` §two-clocks): `series` replays the selected
//! scenario(s) × seeds while sampling the telemetry registry every
//! `telemetry.series_interval_s` of *virtual* time (default one sim-hour,
//! `--set telemetry.series_interval_s=N`) and exports the merged
//! `(scenario, seed)`-keyed set as byte-stable JSON + CSV — identical for
//! any `--jobs` and same-seed reruns. `profile` replays
//! with the per-handler *wall* profiler attached and prints the
//! nondeterministic breakdown (per-event-kind handler seconds, scheduler
//! pop cost, `other` residual) whose shares sum to exactly 100 % of
//! replay wall. `sweep --progress` streams live shard progress
//! (done/total, cumulative events/sec, ETA) to **stderr only**, leaving
//! stdout and every export byte-identical.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io::Write;
use std::path::{Path, PathBuf};

use odx::backend::{Scenario, ScenarioRegistry};
use odx::cache::PolicyKind;
use odx::cloud::{CloudConfig, WeekReport};
use odx::config::{Json, ScenarioSpec};
use odx::net::kbps_to_gbps;
use odx::odr::replay::OdrEvalReport;
use odx::smartap::{table2, ApModel};
use odx::stats::fit::{fit_se, fit_zipf, rank_frequency};
use odx::stats::Ecdf;
use odx::storage::{DeviceKind, FsKind};
use odx::sweep::{run_sweep, SweepReport, SweepSpec};
use odx::Study;
use odx_bench::{mmmm, peak_rss_mb, rel, row};
use odx_telemetry::{
    render_rows, rows_from_walls, validate_chrome_trace, LifecycleReport, Observers, Registry,
    TraceConfig,
};

const COMMANDS: &[&str] = &[
    "table1",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "headline",
    "fig13",
    "fig14",
    "table2",
    "fig15",
    "fig16",
    "fig17",
    "ablate-cache",
    "ablate-privileged",
    "ablate-storage",
    "ablate-dedup",
    "ablate-ledbat",
    "ablate-concurrency",
    "sweep-userbase",
    "sweep-cache",
    "attribute",
    "trace",
    "check-trace",
    "sweep",
    "cache-compare",
    "resilience",
    "series",
    "profile",
    "export-traces",
    "list",
    "all",
];

struct Options {
    commands: BTreeSet<String>,
    /// The `scenario` subcommand's arguments (`show NAME`, `dump`,
    /// `check`) when that mode was invoked; it runs before the banner so
    /// stdout carries nothing but canonical JSON.
    scenario_cmd: Option<Vec<String>>,
    /// The scenario registry the run resolves against: the built-in
    /// presets plus every `--scenario-file` definition.
    registry: ScenarioRegistry,
    /// The active scenario after layering: baseline → preset/file delta →
    /// `--set` overrides (axes stripped; sweeps expand them per cell).
    scenario: Scenario,
    /// The raw `--scenario` selector; unlike `scenario` it may be `all`,
    /// which only `sweep`/`cache-compare` know how to expand.
    scenario_selector: String,
    /// `--set dotted.path=value` overrides, in flag order. Applied to the
    /// active scenario and to every spec a sweep selector resolves to.
    sets: Vec<(String, Json)>,
    /// `--all` (only `scenario dump` reads it).
    dump_all: bool,
    scale: f64,
    seed: u64,
    /// Sweep seed-axis length: seeds `seed..seed+seeds`.
    seeds: usize,
    /// Sweep worker threads (output is identical for any value).
    jobs: usize,
    sample: usize,
    /// Lifecycle-trace sampling: trace every `1/N`th task (0 = sweeps stay
    /// untraced; `attribute`/`trace` default to tracing every task).
    trace_sample: u64,
    out: Option<PathBuf>,
    metrics: Option<PathBuf>,
    /// `--json FILE`: the document `check-trace` and `scenario check` read.
    json: Option<PathBuf>,
    /// `--policy`: restrict `cache-compare` to one policy, and swap the
    /// pool policy of the active scenario for every other command.
    policy: Option<PolicyKind>,
    /// `--policy` when its value names a retry policy instead of a cache
    /// policy: restricts the `resilience` grid to baseline vs that policy.
    retry_policy: Option<odx::faults::RetryKind>,
    /// `--progress`: live shard progress on stderr for `sweep`,
    /// `cache-compare`, and `series` (stdout stays byte-identical).
    progress: bool,
}

impl Options {
    /// The lifecycle [`TraceConfig`] for `attribute`/`trace`: every task
    /// unless `--trace-sample N` thinned it.
    fn trace_config(&self) -> TraceConfig {
        if self.trace_sample > 1 {
            TraceConfig::sampled(self.trace_sample)
        } else {
            TraceConfig::full()
        }
    }
}

/// Print the valid subcommands and scenario presets to `out`.
fn print_usage(out: &mut dyn Write) {
    let _ = writeln!(out, "subcommands:");
    let _ = writeln!(out, "  {}", COMMANDS.join(" "));
    let _ =
        writeln!(out, "  scenario show NAME | scenario dump --all | scenario check [--json FILE]");
    let _ = writeln!(
        out,
        "flags: --scenario NAME --scenario-file FILE --set dotted.path=value --policy NAME \
         --scale F --seed N --seeds N --jobs N --sample N \
         --trace-sample N --out DIR --metrics FILE --json FILE --progress"
    );
    let _ = writeln!(out, "scenarios (--scenario):");
    for s in Study::scenarios().all() {
        let _ = writeln!(out, "  {:<18} {}", s.name, s.summary);
    }
    let _ = writeln!(out, "  {:<18} every preset above (sweep / cache-compare)", "all");
    let _ = writeln!(out, "cache policies (--policy / cache-compare):");
    for p in PolicyKind::ALL {
        let _ = writeln!(out, "  {:<18} {}", p.name(), p.summary());
    }
    let _ = writeln!(
        out,
        "retry policies (--policy / resilience): {}",
        odx::faults::RetryKind::ALL.map(|k| k.name()).join(" ")
    );
}

/// Reject `what` with the usage listing on stderr and a non-zero exit.
fn usage_error(what: &str) -> ! {
    fail_usage(&format!("unknown {what}"));
}

/// Reject the invocation: `message` plus the usage listing on stderr,
/// exit 2 (the CLI-usage exit code — runtime failures exit 1).
fn fail_usage(message: &str) -> ! {
    let mut err = std::io::stderr();
    let _ = writeln!(err, "repro: {message}");
    print_usage(&mut err);
    std::process::exit(2);
}

/// `result`'s value, or exit 2 naming `path` when writing it failed: an
/// unwritable `--out` or `--metrics` path is bad input, not a crash.
fn check_write<T>(path: &Path, result: std::io::Result<T>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("repro: cannot write {}: {e}", path.display());
        std::process::exit(2)
    })
}

/// The value after `flag`, parsed as `T`. A missing or unparsable value
/// exits 2 naming the flag, like every other usage error.
fn flag_value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let Some(raw) = args.next() else { fail_usage(&format!("{flag} needs a value")) };
    raw.parse().unwrap_or_else(|_| fail_usage(&format!("{flag}: invalid value `{raw}`")))
}

/// Parse a `--set dotted.path=value` operand. The value is JSON when it
/// parses as JSON (`2`, `true`, `["a","b"]`) and a bare string otherwise
/// (`gdsf` needs no quoting).
fn parse_set(operand: &str) -> (String, Json) {
    let Some((path, raw)) = operand.split_once('=') else {
        fail_usage(&format!("--set needs dotted.path=value (got `{operand}`)"));
    };
    let value = Json::parse(raw).unwrap_or_else(|_| Json::Str(raw.to_owned()));
    (path.to_owned(), value)
}

fn parse_args() -> Options {
    let mut commands = BTreeSet::new();
    let mut positionals: Vec<String> = Vec::new();
    let mut scenario_selector = "paper-default".to_owned();
    let mut scenario_files: Vec<PathBuf> = Vec::new();
    let mut sets: Vec<(String, Json)> = Vec::new();
    let mut dump_all = false;
    let mut scale: f64 = 0.1;
    let mut seed = 2015;
    let mut seeds = 1;
    let mut jobs = 1;
    let mut sample = 1000;
    let mut trace_sample = 0;
    let mut out = None;
    let mut metrics = None;
    let mut json = None;
    let mut policy = None;
    let mut retry_policy = None;
    let mut progress = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => scenario_selector = flag_value(&mut args, "--scenario"),
            "--scenario-file" => scenario_files.push(flag_value(&mut args, "--scenario-file")),
            "--set" => sets.push(parse_set(&flag_value::<String>(&mut args, "--set"))),
            "--all" => dump_all = true,
            "--policy" => {
                // Cache and retry policy names share the flag (the two
                // namespaces are disjoint): `lru` narrows cache-compare,
                // `expo` narrows the resilience grid.
                let name: String = flag_value(&mut args, "--policy");
                match (PolicyKind::parse(&name), odx::faults::RetryKind::parse(&name)) {
                    (Some(p), _) => policy = Some(p),
                    (None, Some(r)) => retry_policy = Some(r),
                    (None, None) => usage_error(&format!("cache or retry policy `{name}`")),
                }
            }
            "--scale" => {
                scale = flag_value(&mut args, "--scale");
                if !(scale.is_finite() && scale > 0.0) {
                    fail_usage(&format!("--scale must be finite and > 0 (got `{scale}`)"));
                }
            }
            "--seed" => seed = flag_value(&mut args, "--seed"),
            "--seeds" => seeds = flag_value(&mut args, "--seeds"),
            "--jobs" => jobs = flag_value(&mut args, "--jobs"),
            "--sample" => {
                sample = flag_value(&mut args, "--sample");
                if sample == 0 {
                    fail_usage("--sample must be at least 1");
                }
            }
            "--trace-sample" => trace_sample = flag_value(&mut args, "--trace-sample"),
            "--out" => out = Some(flag_value(&mut args, "--out")),
            "--metrics" => metrics = Some(flag_value(&mut args, "--metrics")),
            "--json" => json = Some(flag_value(&mut args, "--json")),
            "--progress" => progress = true,
            flag if flag.starts_with('-') => usage_error(&format!("flag `{flag}`")),
            word => positionals.push(word.to_owned()),
        }
    }

    // Layer 1+2: built-in presets, then user scenario files (for *every*
    // subcommand — sweeps, cache-compare, and the scenario inspector all
    // resolve against the same registry).
    let mut registry = Study::scenarios();
    for file in &scenario_files {
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
            fail_usage(&format!("cannot read scenario file `{}`: {e}", file.display()))
        });
        registry
            .load_json(&text)
            .unwrap_or_else(|e| fail_usage(&format!("in `{}`: {e}", file.display())));
    }

    // `scenario show/dump/check` is an inspector mode, not a figure
    // command: record it and let `main` run it before the banner.
    let scenario_cmd = if positionals.first().map(String::as_str) == Some("scenario") {
        Some(positionals.split_off(1))
    } else {
        for cmd in &positionals {
            if !COMMANDS.contains(&cmd.as_str()) {
                usage_error(&format!("subcommand `{cmd}`"));
            }
            commands.insert(cmd.clone());
        }
        if commands.is_empty() {
            commands.insert("all".to_owned());
        }
        None
    };

    // Layer 3+4: resolve the `--scenario` selector against the registry
    // (`all` is a sweep-only selector — single-scenario commands keep the
    // baseline), then apply the `--set` overrides. Typed validation runs
    // in `from_spec`; any violation exits 2 naming the field.
    let mut spec = registry.spec("paper-default").cloned().expect("builtin baseline");
    if scenario_selector != "all" {
        spec = registry.spec(&scenario_selector).cloned().unwrap_or_else(|| {
            let err = odx::config::ConfigError::unknown(
                "--scenario",
                "scenario",
                &scenario_selector,
                registry.names(),
            );
            fail_usage(&err.message)
        });
    }
    for (path, value) in &sets {
        spec.set_path(path, value).unwrap_or_else(|e| fail_usage(&e.to_string()));
    }
    let mut scenario =
        Scenario::from_spec(&spec.without_axes()).unwrap_or_else(|e| fail_usage(&e.to_string()));
    // `--policy` reconfigures the active scenario's pool for the
    // single-scenario commands; `cache-compare` reads it as an axis filter.
    if let Some(policy) = policy {
        scenario.cache.policy = policy;
    }
    Options {
        commands,
        scenario_cmd,
        registry,
        scenario,
        scenario_selector,
        sets,
        dump_all,
        scale,
        seed,
        seeds: seeds.max(1),
        jobs: jobs.max(1),
        sample,
        trace_sample,
        out,
        metrics,
        json,
        policy,
        retry_policy,
        progress,
    }
}

fn main() {
    let opts = parse_args();
    // The scenario inspector runs before the banner: its stdout is
    // canonical JSON (or the check verdict) and nothing else, so
    // `repro scenario dump --all | repro scenario check` round-trips.
    if let Some(args) = &opts.scenario_cmd {
        scenario_cmd(&opts, args);
        return;
    }
    if opts.commands.contains("list") {
        print_usage(&mut std::io::stdout());
        return;
    }
    let want = |c: &str| opts.commands.contains("all") || opts.commands.contains(c);
    // Every replay of this process records here; `--metrics` dumps it.
    let registry = Registry::new();
    println!(
        "odx repro — scenario {} scale {} seed {} sample {}  (paper: scale 1.0 = 4,084,417 tasks)",
        opts.scenario.name, opts.scale, opts.seed, opts.sample
    );
    if let Some(dir) = &opts.out {
        // `trace --out trace.json` names a file, not a directory.
        if dir.extension().is_none() {
            check_write(dir, std::fs::create_dir_all(dir));
        } else if let Some(parent) = dir.parent().filter(|p| !p.as_os_str().is_empty()) {
            check_write(parent, std::fs::create_dir_all(parent));
        }
    }
    if let Some(path) = &opts.metrics {
        // Fail on an unwritable path now, not after every replay has run.
        check_write(path, std::fs::File::create(path));
    }

    // `sweep`, `resilience`, and the lifecycle commands are standalone: they
    // build their own per-cell studies, so they run before (and can skip)
    // the shared study below.
    if opts.commands.contains("check-trace") {
        check_trace_cmd(&opts);
    }
    if opts.commands.contains("attribute") {
        attribute_cmd(&opts, &registry);
    }
    if opts.commands.contains("trace") {
        trace_cmd(&opts, &registry);
    }
    if opts.commands.contains("sweep") {
        sweep_grid(&opts);
    }
    if opts.commands.contains("cache-compare") {
        cache_compare(&opts);
    }
    if opts.commands.contains("resilience") {
        resilience_cmd(&opts);
    }
    if opts.commands.contains("series") {
        series_cmd(&opts);
    }
    if opts.commands.contains("profile") {
        profile_cmd(&opts);
    }
    let only_standalone = opts.commands.iter().all(|c| {
        matches!(
            c.as_str(),
            "sweep"
                | "cache-compare"
                | "resilience"
                | "series"
                | "profile"
                | "attribute"
                | "trace"
                | "check-trace"
        )
    });
    if only_standalone {
        write_metrics(&opts, &registry);
        return;
    }

    let study = Study::generate_scenario(opts.scale, opts.seed, &opts.scenario);

    if want("table1") {
        table1();
    }
    if want("fig5") {
        fig5(&study, &opts);
    }
    if want("fig6") || want("fig7") {
        fig6_fig7(&study, &opts);
    }

    let needs_cloud =
        ["fig8", "fig9", "fig10", "fig11", "headline", "fig16"].iter().any(|c| want(c))
            || want("ablate-cache")
            || want("ablate-privileged");
    let cloud = needs_cloud.then(|| {
        // Wall-clock perf of the main replay rides along in the registry's
        // separate `wall` section (excluded from `--metrics`, printed by
        // `headline`).
        let events_before = registry.counter("sim.events").get();
        let start = std::time::Instant::now();
        let report = cloud_week(&study, &opts.scenario, &registry);
        let wall = start.elapsed().as_secs_f64();
        let events = registry.counter("sim.events").get() - events_before;
        registry.set_wall("sim.wall_secs", wall);
        registry.set_wall("sim.events_per_sec", events as f64 / wall.max(1e-9));
        report
    });

    if let Some(report) = &cloud {
        if want("fig8") {
            fig8(report, &opts);
        }
        if want("fig9") {
            fig9(report, &opts);
        }
        if want("fig10") {
            fig10(report);
        }
        if want("fig11") {
            fig11(report, &opts);
        }
        if want("headline") {
            headline(report, &registry);
        }
    }

    let needs_ap = want("fig13") || want("fig14") || want("headline");
    let aps = needs_ap.then(|| {
        study.replay_smart_aps(opts.sample, &opts.scenario, &registry, Observers::default()).0
    });
    if let Some(report) = &aps {
        if want("fig13") {
            fig13(report, &opts);
        }
        if want("fig14") {
            fig14(report, &opts);
        }
        if want("headline") {
            ap_headline(report);
        }
    }

    if want("table2") {
        print_table2();
    }
    if want("fig15") {
        fig15();
    }
    if want("fig16") || want("fig17") || want("headline") {
        let (eval, _) =
            study.replay_odr(opts.sample, &opts.scenario, &registry, Observers::default());
        if want("fig16") {
            fig16(cloud.as_ref(), &eval, opts.scale);
        }
        if want("fig17") {
            fig17(&eval, &opts);
        }
        if want("headline") {
            odr_headline(&eval);
            if let Some(report) = &cloud {
                fault_taxonomy(report);
            }
        }
    }
    if want("ablate-cache") {
        ablate_cache(&study, cloud.as_ref().expect("cloud replay present"), &registry);
    }
    if want("ablate-privileged") {
        ablate_privileged(&study, cloud.as_ref().expect("cloud replay present"), &registry);
    }
    if want("ablate-storage") {
        ablate_storage();
    }
    if want("sweep-userbase") {
        sweep_userbase(&study, &registry);
    }
    if want("ablate-dedup") {
        ablate_dedup(&study);
    }
    if want("ablate-ledbat") {
        ablate_ledbat(&study, &registry);
    }
    if want("ablate-concurrency") {
        ablate_concurrency(&study, opts.sample);
    }
    if want("sweep-cache") {
        sweep_cache(&study, &registry);
    }
    if opts.commands.contains("export-traces") {
        export_traces(&study, &opts, &registry);
    }

    write_metrics(&opts, &registry);
}

/// Replay the cloud week under `scenario` into `registry`, the one
/// `--metrics` dumps.
fn cloud_week(study: &Study, scenario: &Scenario, registry: &Registry) -> WeekReport {
    study.replay_cloud(scenario, registry, Observers::default()).0
}

/// Write `registry`'s deterministic snapshot if `--metrics` asked. Runs
/// at the end of every command path.
fn write_metrics(opts: &Options, registry: &Registry) {
    if let Some(path) = &opts.metrics {
        check_write(path, std::fs::write(path, registry.snapshot().to_json()));
        println!("\n[metrics snapshot → {}]", path.display());
    }
}

fn section(title: &str) {
    println!("\n=== {title} ===");
}

fn dump_cdf(opts: &Options, name: &str, ecdf: &Ecdf) {
    let Some(dir) = &opts.out else { return };
    let mut tsv = String::from("value\tcdf\n");
    for (x, p) in ecdf.curve(512) {
        let _ = writeln!(tsv, "{x}\t{p}");
    }
    let path = dir.join(name);
    check_write(&path, std::fs::write(&path, tsv));
    println!("  [series → {}]", path.display());
}

fn table1() {
    section("Table 1 — smart AP hardware configurations");
    println!(
        "  {:<8} {:>9} {:>8}  {:<40} {:<28}",
        "AP", "CPU (MHz)", "RAM (MB)", "storage", "WiFi"
    );
    for ap in ApModel::ALL {
        let s = ap.bench_storage();
        let wifi = if ap.has_80211ac() {
            "802.11 b/g/n/ac @ 2.4/5.0 GHz"
        } else {
            "802.11 b/g/n @ 2.4 GHz"
        };
        println!(
            "  {:<8} {:>9.0} {:>8}  {:<40} {:<28}",
            ap.to_string(),
            ap.cpu_mhz(),
            ap.ram_mb(),
            format!("{} ({})", s.device, s.fs),
            wifi
        );
    }
}

fn fig5(study: &Study, opts: &Options) {
    section("Fig 5 — CDF of requested file size (MB)");
    let ecdf = Ecdf::new(study.catalog.sizes_mb());
    let s = ecdf.summary().unwrap();
    println!(
        "{}",
        row("median", "115 MB", format!("{:.0} MB ({})", s.median, rel(s.median, 115.0)))
    );
    println!("{}", row("average", "390 MB", format!("{:.0} MB ({})", s.mean, rel(s.mean, 390.0))));
    println!("{}", row("max", "4 GB", format!("{:.0} MB", s.max)));
    println!(
        "{}",
        row("fraction below 8 MB", "25%", format!("{:.1}%", 100.0 * ecdf.fraction_below(8.0)))
    );
    dump_cdf(opts, "fig5_file_size_cdf.tsv", &ecdf);
}

fn fig6_fig7(study: &Study, opts: &Options) {
    section("Figs 6–7 — popularity rank-frequency: Zipf vs stretched-exponential");
    let ranked = rank_frequency(&study.catalog.weekly_counts());
    let zipf = fit_zipf(&ranked);
    let se = fit_se(&ranked, 0.01);
    println!(
        "{}",
        row("Zipf avg rel. fit error", "15.3%", format!("{:.1}%", 100.0 * zipf.avg_rel_error))
    );
    println!("{}", row("Zipf exponent a1", "1.034", format!("{:.3}", zipf.a)));
    println!(
        "{}",
        row("SE (c=0.01) avg rel. fit error", "13.7%", format!("{:.1}%", 100.0 * se.avg_rel_error))
    );
    println!(
        "{}",
        row(
            "SE fits better than Zipf",
            "yes",
            if se.avg_rel_error <= zipf.avg_rel_error { "yes".into() } else { "NO".to_string() }
        )
    );
    if let Some(dir) = &opts.out {
        let mut tsv = String::from("rank\tcount\tzipf_fit\tse_fit\n");
        for (i, y) in ranked.iter().enumerate() {
            let x = (i + 1) as f64;
            let _ = writeln!(tsv, "{x}\t{y}\t{}\t{}", zipf.predict(x), se.predict(x));
        }
        let path = dir.join("fig6_7_rank_frequency.tsv");
        check_write(&path, std::fs::write(&path, tsv));
        println!("  [series → {}]", path.display());
    }
}

fn fig8(report: &WeekReport, opts: &Options) {
    section("Fig 8 — CDFs of cloud speeds (KBps)");
    let pd = report.predownload_speed_ecdf();
    let fetch = report.fetch_speed_ecdf();
    let e2e = report.end_to_end_speed_ecdf();
    println!("{}", row("pre-downloading (misses)", "med 25 / mean 69", mmmm(pd.summary())));
    println!("{}", row("fetching", "med 287 / mean 504", mmmm(fetch.summary())));
    println!("{}", row("end-to-end", "med 233 / mean 380", mmmm(e2e.summary())));
    dump_cdf(opts, "fig8_predownload_speed_cdf.tsv", &pd);
    dump_cdf(opts, "fig8_fetch_speed_cdf.tsv", &fetch);
    dump_cdf(opts, "fig8_end_to_end_speed_cdf.tsv", &e2e);
}

fn fig9(report: &WeekReport, opts: &Options) {
    section("Fig 9 — CDFs of cloud delays (minutes)");
    let pd = report.predownload_delay_ecdf();
    let fetch = report.fetch_delay_ecdf();
    let e2e = report.end_to_end_delay_ecdf();
    println!("{}", row("pre-downloading (misses)", "med 82 / mean 370", mmmm(pd.summary())));
    println!("{}", row("fetching", "med 7 / mean 27", mmmm(fetch.summary())));
    println!("{}", row("end-to-end", "med 10 / mean 68", mmmm(e2e.summary())));
    dump_cdf(opts, "fig9_predownload_delay_cdf.tsv", &pd);
    dump_cdf(opts, "fig9_fetch_delay_cdf.tsv", &fetch);
    dump_cdf(opts, "fig9_end_to_end_delay_cdf.tsv", &e2e);
}

fn fig10(report: &WeekReport) {
    section("Fig 10 — request popularity vs pre-downloading failure ratio");
    println!("  (unpopular < 7/wk, popular 7–84, highly popular > 84; cloud with cache)");
    for (w, ratio) in &report.failure_by_popularity {
        let class = if *w < 7.0 {
            "unpopular"
        } else if *w <= 84.0 {
            "popular"
        } else {
            "highly popular"
        };
        println!("  ~{:>5.0} req/wk  {:>5.1}%  ({class})", w, 100.0 * ratio);
    }
    let first = report.failure_by_popularity.first().map(|p| p.1).unwrap_or(0.0);
    let last = report.failure_by_popularity.last().map(|p| p.1).unwrap_or(0.0);
    println!(
        "{}",
        row(
            "failure falls with popularity",
            "yes",
            if first > last { "yes".into() } else { "NO".into() }
        )
    );
}

fn fig11(report: &WeekReport, opts: &Options) {
    section("Fig 11 — cloud upload bandwidth burden over the week (5-min bins)");
    let cap_gbps = 30.0 * report_scale(report);
    let (peak_bin, _) = report.burden_kbps.peak_bin();
    println!(
        "{}",
        row(
            "peak burden vs 30 Gbps purchased (scaled)",
            "34 Gbps (exceeds)",
            format!("{:.2} Gbps vs {:.2} Gbps cap", report.peak_burden_gbps(), cap_gbps)
        )
    );
    println!("{}", row("peak lands on day", "7", format!("{}", peak_bin * 300 / 86_400 + 1)));
    println!(
        "{}",
        row(
            "burden share of highly popular files",
            "≈40%",
            format!("{:.0}%", 100.0 * report.hot_burden_fraction())
        )
    );
    println!(
        "{}",
        row("rejected fetch requests", "1.5%", format!("{:.2}%", 100.0 * report.rejection_ratio()))
    );
    if let Some(dir) = &opts.out {
        let mut tsv = String::from("t_secs\tburden_gbps\thot_gbps\n");
        for ((t, all), (_, hot)) in
            report.burden_kbps.points().into_iter().zip(report.burden_hot_kbps.points())
        {
            let _ = writeln!(tsv, "{t}\t{}\t{}", kbps_to_gbps(all), kbps_to_gbps(hot));
        }
        let path = dir.join("fig11_burden.tsv");
        check_write(&path, std::fs::write(&path, tsv));
        println!("  [series → {}]", path.display());
    }
}

/// Infer the replay scale from the report (capacity scaling is linear).
fn report_scale(report: &WeekReport) -> f64 {
    // requests / paper tasks
    report.counters.requests as f64 / 4_084_417.0
}

fn headline(report: &WeekReport, registry: &Registry) {
    section("§4 headline statistics (cloud)");
    println!("{}", row("cache hit ratio", "89%", format!("{:.1}%", 100.0 * report.hit_ratio())));
    println!(
        "{}",
        row(
            "pre-download failure ratio",
            "8.7%",
            format!("{:.1}%", 100.0 * report.failure_ratio())
        )
    );
    println!(
        "{}",
        row(
            "pre-download traffic / payload",
            "196%",
            format!("{:.0}%", 100.0 * report.traffic_overhead_factor())
        )
    );
    println!(
        "{}",
        row(
            "impeded fetches (< 125 KBps)",
            "28%",
            format!("{:.1}%", 100.0 * report.impeded_ratio())
        )
    );
    let fetches = report.fetches.len() as f64;
    println!(
        "{}",
        row(
            "  of which ISP barrier",
            "9.6%",
            format!("{:.1}%", 100.0 * report.counters.impeded_barrier as f64 / fetches)
        )
    );
    println!(
        "{}",
        row(
            "  of which low access bandwidth",
            "10.8%",
            format!("{:.1}%", 100.0 * report.counters.impeded_low_access as f64 / fetches)
        )
    );
    println!(
        "{}",
        row("  of which rejected", "1.5%", format!("{:.2}%", 100.0 * report.rejection_ratio()))
    );
    println!(
        "{}",
        row(
            "  of which dynamics/unknown",
            "6.1%",
            format!("{:.1}%", 100.0 * report.counters.impeded_dynamics as f64 / fetches)
        )
    );
    if let (Some(wall), Some(eps)) =
        (registry.wall("sim.wall_secs"), registry.wall("sim.events_per_sec"))
    {
        let rss = peak_rss_mb().map_or(String::new(), |mb| format!(" — peak RSS {mb:.0} MB"));
        println!("  perf: cloud replay {wall:.2}s wall — {eps:.0} events/sec{rss} (wall section, excluded from --metrics)");
    }
}

/// Replay the cloud week into `registry` with per-task lifecycle tracing
/// under the shared CLI knobs.
fn traced_cloud_replay(opts: &Options, registry: &Registry) -> LifecycleReport {
    let study = Study::generate_scenario(opts.scale, opts.seed, &opts.scenario);
    let trace = opts.trace_config();
    let observers = Observers { trace: Some(&trace), ..Observers::default() };
    let (_, lifecycle) = study.replay_cloud(&opts.scenario, registry, observers);
    lifecycle.expect("tracing was requested")
}

/// `--out` as the directory it names (ignoring `trace`'s file form).
fn out_dir(opts: &Options) -> Option<&PathBuf> {
    opts.out.as_ref().filter(|p| p.extension().is_none())
}

fn attribute_cmd(opts: &Options, registry: &Registry) {
    section(&format!(
        "Attribute — virtual-time latency waterfall ({}, every {} task(s))",
        opts.scenario.name,
        opts.trace_config().sample_every
    ));
    let lifecycle = traced_cloud_replay(opts, registry);
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
    if let Some(dir) = out_dir(opts) {
        let path = dir.join("attribution.json");
        check_write(&path, std::fs::write(&path, attribution.to_json()));
        println!("  [attribution → {}]", path.display());
    }
}

fn trace_cmd(opts: &Options, registry: &Registry) {
    section(&format!("Trace — Chrome trace-event export ({})", opts.scenario.name));
    let lifecycle = traced_cloud_replay(opts, registry);
    let chrome = lifecycle.traces.to_chrome_json();
    let stats = validate_chrome_trace(&chrome).expect("exporter emits valid Chrome trace JSON");
    let path = match &opts.out {
        Some(p) if p.extension().is_some() => p.clone(),
        Some(dir) => dir.join("trace.json"),
        None => PathBuf::from("trace.json"),
    };
    check_write(&path, std::fs::write(&path, &chrome));
    let flight_path = path.with_extension("flight.json");
    check_write(&flight_path, std::fs::write(&flight_path, lifecycle.flight.to_json()));
    println!(
        "  {} event(s): {} spans + {} instants across {} task lane(s)",
        stats.events, stats.complete, stats.instants, stats.lanes
    );
    println!(
        "  [trace → {} — load in Perfetto (ui.perfetto.dev) or chrome://tracing]",
        path.display()
    );
    println!(
        "  [flight dumps → {} — {} anomaly dump(s)]",
        flight_path.display(),
        lifecycle.flight.dumps.len()
    );
}

fn check_trace_cmd(opts: &Options) {
    section("Check — validate a Chrome trace-event file");
    let Some(path) = &opts.json else { usage_error("check-trace without --json FILE") };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("repro: cannot read {}: {e}", path.display());
        std::process::exit(2)
    });
    match validate_chrome_trace(&text) {
        Ok(stats) => println!(
            "  {} is valid: {} event(s), {} spans, {} instants, {} lane(s)",
            path.display(),
            stats.events,
            stats.complete,
            stats.instants,
            stats.lanes
        ),
        Err(e) => {
            eprintln!("repro: {} is not a valid Chrome trace: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// `scenario show NAME | dump --all | check [--json FILE]` — inspect and
/// validate the layered registry without running any replay. `show` and
/// `dump` print byte-stable canonical JSON; `check` validates a scenario
/// document from a file or stdin against a fresh copy of the registry.
fn scenario_cmd(opts: &Options, args: &[String]) {
    match args.first().map(String::as_str) {
        Some("show") => {
            let Some(name) = args.get(1) else {
                fail_usage("scenario show needs a scenario NAME");
            };
            let spec = opts.registry.spec(name).unwrap_or_else(|| {
                let err = odx::config::ConfigError::unknown(
                    "scenario show",
                    "scenario",
                    name,
                    opts.registry.names(),
                );
                fail_usage(&err.message)
            });
            println!("{}", spec.to_canonical_json());
        }
        Some("dump") => {
            if !opts.dump_all {
                fail_usage("scenario dump needs --all (one scenario: `scenario show NAME`)");
            }
            let dumps: Vec<String> =
                opts.registry.all_specs().iter().map(ScenarioSpec::to_canonical_json).collect();
            println!("[{}]", dumps.join(","));
        }
        Some("check") => {
            let text = match &opts.json {
                Some(path) => std::fs::read_to_string(path).unwrap_or_else(|e| {
                    fail_usage(&format!("cannot read `{}`: {e}", path.display()))
                }),
                None => std::io::read_to_string(std::io::stdin())
                    .unwrap_or_else(|e| fail_usage(&format!("cannot read stdin: {e}"))),
            };
            let mut probe = opts.registry.clone();
            match probe.load_json(&text) {
                Ok(n) => println!("ok: {n} scenario(s)"),
                Err(e) => {
                    eprintln!("repro: {e}");
                    std::process::exit(2);
                }
            }
        }
        _ => fail_usage("scenario needs show NAME, dump --all, or check [--json FILE]"),
    }
}

/// Expand the `--scenario` selector into concrete sweep scenarios against
/// the layered registry: each selected spec gets the `--set` overrides,
/// then its `axes` grid (a single cell when it declares none). Any
/// unknown name or invalid override exits 2 naming the field.
fn resolve_scenarios(opts: &Options) -> Vec<Scenario> {
    let specs: Vec<ScenarioSpec> = if opts.scenario_selector == "all" {
        opts.registry.all_specs().to_vec()
    } else {
        let spec = opts.registry.spec(&opts.scenario_selector).cloned().unwrap_or_else(|| {
            let err = odx::config::ConfigError::unknown(
                "--scenario",
                "scenario",
                &opts.scenario_selector,
                opts.registry.names(),
            );
            fail_usage(&err.message)
        });
        vec![spec]
    };
    let mut out = Vec::new();
    for mut spec in specs {
        for (path, value) in &opts.sets {
            spec.set_path(path, value).unwrap_or_else(|e| fail_usage(&e.to_string()));
        }
        let cells = spec.expand_axes().unwrap_or_else(|e| fail_usage(&e.to_string()));
        for cell in cells {
            out.push(Scenario::from_spec(&cell).unwrap_or_else(|e| fail_usage(&e.to_string())));
        }
    }
    out
}

/// Run `scenarios` × the `--seeds` seeds counting up from `--seed` on
/// the sweep pool, at `--scale` on `--jobs` workers.
fn run_grid(
    opts: &Options,
    scenarios: Vec<Scenario>,
    trace: Option<TraceConfig>,
    series_interval_ms: Option<u64>,
) -> SweepReport {
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
fn grid_tail(opts: &Options, report: &SweepReport, stem: &str) {
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
    if let Some(dir) = out_dir(opts) {
        let json_path = dir.join(format!("{stem}.json"));
        let csv_path = dir.join(format!("{stem}.csv"));
        check_write(&json_path, std::fs::write(&json_path, report.to_json()));
        check_write(&csv_path, std::fs::write(&csv_path, report.to_csv()));
        println!("  [deterministic snapshots → {} / {}]", json_path.display(), csv_path.display());
        if let Some(attribution) = &attribution {
            let attr_path = dir.join("attribution.json");
            check_write(&attr_path, std::fs::write(&attr_path, attribution.to_json()));
            println!("  [merged attribution → {}]", attr_path.display());
        }
    }
}

fn sweep_grid(opts: &Options) {
    let scenarios = resolve_scenarios(opts);
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
    let report = run_grid(opts, scenarios, trace, None);
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
    grid_tail(opts, &report, "sweep");
}

/// `cache-compare`: sweep every replacement policy (or just `--policy`)
/// across the selected scenarios × seeds on the shared sweep pool, then
/// print per-policy offloading means against the paper's §2.1/§4.1
/// headlines (89 % cache hit, 8.7 % pre-download failure). Cells merge in
/// spec order, so the table and the `--out` snapshots are byte-identical
/// for any `--jobs`.
fn cache_compare(opts: &Options) {
    use odx::sweep::policy_variants;
    let scenarios = resolve_scenarios(opts);
    let policies: Vec<PolicyKind> = match opts.policy {
        Some(p) => vec![p],
        None => PolicyKind::ALL.to_vec(),
    };
    let variants = policy_variants(&scenarios, &policies);
    section(&format!(
        "Cache compare — {} scenario(s) × {} polic{} × {} seed(s) at scale {} on {} worker(s)",
        scenarios.len(),
        policies.len(),
        if policies.len() == 1 { "y" } else { "ies" },
        opts.seeds,
        opts.scale,
        opts.jobs
    ));
    let report = run_grid(opts, variants.clone(), None, None);
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
    grid_tail(opts, &report, "cache_compare");
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
fn resilience_cmd(opts: &Options) {
    use odx::faults::RetryKind;
    use odx::sweep::resilience_variants;
    let scenarios = resolve_scenarios(opts);
    let intensities = [0.0, 0.1, 0.25];
    let policies: Vec<RetryKind> = match opts.retry_policy {
        Some(RetryKind::None) => vec![RetryKind::None],
        Some(p) => vec![RetryKind::None, p],
        None => RetryKind::ALL.to_vec(),
    };
    let variants = resilience_variants(&scenarios, &intensities, &policies);
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
    let report = run_grid(opts, variants.clone(), None, None);
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
    grid_tail(opts, &report, "resilience");
}

/// `series`: replay the selected scenario(s) × seeds on the sweep pool
/// with virtual-time series recording and export the merged `(scenario,
/// seed)`-keyed set as byte-stable JSON + CSV. The cadence is the active
/// scenario's `telemetry.series_interval_s` (default one sim-hour,
/// `--set telemetry.series_interval_s=N`); the exports are byte-identical
/// for any `--jobs` and same-seed reruns. `--out
/// series.csv` names the CSV (sibling `.json` alongside); `--out DIR`
/// writes `DIR/series.{csv,json}`; the default is `./series.{csv,json}`.
fn series_cmd(opts: &Options) {
    let scenarios = resolve_scenarios(opts);
    let interval_ms = opts.scenario.series_interval_ms();
    section(&format!(
        "Series — virtual-time metrics every {interval_ms} ms over {} scenario(s) × {} seed(s)",
        scenarios.len(),
        opts.seeds
    ));
    let report = run_grid(opts, scenarios, None, Some(interval_ms));
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
    let (csv_path, json_path) = match &opts.out {
        Some(p) if p.extension().is_some() => (p.clone(), p.with_extension("json")),
        Some(dir) => (dir.join("series.csv"), dir.join("series.json")),
        None => (PathBuf::from("series.csv"), PathBuf::from("series.json")),
    };
    check_write(&csv_path, std::fs::write(&csv_path, set.to_csv()));
    check_write(&json_path, std::fs::write(&json_path, set.to_json()));
    println!(
        "  [series → {} / {} — byte-identical for any --jobs]",
        csv_path.display(),
        json_path.display()
    );
}

/// `profile`: replay the cloud week with the per-handler wall profiler
/// attached and print the breakdown — wall seconds, events, and
/// percent-of-replay per event-kind handler plus scheduler-pop cost; the
/// `other` residual (series sampling, loop overhead) makes the shares sum
/// to exactly 100 % of replay wall. Everything here is wall-clock and
/// therefore nondeterministic; nothing lands in deterministic exports.
fn profile_cmd(opts: &Options) {
    section(&format!(
        "Profile — per-handler wall breakdown ({}, nondeterministic)",
        opts.scenario.name
    ));
    let study = Study::generate_scenario(opts.scale, opts.seed, &opts.scenario);
    let registry = Registry::new();
    let profiled = Observers { profile: true, ..Observers::default() };
    let (report, _) = study.replay_cloud(&opts.scenario, &registry, profiled);
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

fn fig13(report: &odx::backend::ApBenchReport, opts: &Options) {
    section("Fig 13 — smart AP pre-downloading speed CDF (KBps)");
    let ecdf = report.speed_ecdf();
    println!("{}", row("all APs", "med 27 / mean 64", mmmm(ecdf.summary())));
    for ap in ApModel::ALL {
        let paper = if ap == ApModel::Newifi { "930" } else { "2370" };
        println!(
            "{}",
            row(&format!("max on {ap}"), paper, format!("{:.0}", report.max_speed_kbps(ap)))
        );
    }
    dump_cdf(opts, "fig13_ap_speed_cdf.tsv", &ecdf);
}

fn fig14(report: &odx::backend::ApBenchReport, opts: &Options) {
    section("Fig 14 — smart AP pre-downloading delay CDF (minutes)");
    let ecdf = report.delay_ecdf();
    println!("{}", row("all APs", "med 77 / mean 402", mmmm(ecdf.summary())));
    dump_cdf(opts, "fig14_ap_delay_cdf.tsv", &ecdf);
}

fn ap_headline(report: &odx::backend::ApBenchReport) {
    section("§5.2 headline statistics (smart APs)");
    println!(
        "{}",
        row("overall failure ratio", "16.8%", format!("{:.1}%", 100.0 * report.failure_ratio()))
    );
    println!(
        "{}",
        row(
            "unpopular-file failure ratio",
            "42%",
            format!("{:.1}%", 100.0 * report.unpopular_failure_ratio())
        )
    );
    let [seeds, conn, bug] = report.cause_shares();
    println!(
        "{}",
        row(
            "failure causes (seeds/connection/bugs)",
            "86% / 10% / 4%",
            format!("{:.0}% / {:.0}% / {:.0}%", 100.0 * seeds, 100.0 * conn, 100.0 * bug)
        )
    );
}

fn odr_headline(eval: &OdrEvalReport) {
    use odx::odr::Decision;
    section("§6.2 headline statistics (ODR)");
    println!("{}", row("impeded fetches", "9%", format!("{:.1}%", 100.0 * eval.impeded_ratio())));
    println!(
        "{}",
        row(
            "cloud upload bytes vs all-cloud",
            "-35%",
            format!("{:+.0}%", 100.0 * (eval.cloud_upload_fraction() - 1.0))
        )
    );
    println!(
        "{}",
        row("incorrect redirections", "<1%", format!("{:.2}%", 100.0 * eval.incorrect_ratio()))
    );
    let counts = eval.decision_counts();
    println!("  decisions per proxy:");
    for d in [
        Decision::UserDevice,
        Decision::Cloud,
        Decision::SmartAp,
        Decision::CloudThenSmartAp,
        Decision::CloudPredownload,
    ] {
        println!("    {:<18} {:>6}", d.to_string(), counts.get(&d).copied().unwrap_or(0));
    }
}

/// The fault/retry taxonomy of the cloud replay, printed next to the
/// §6.2 decision counts when — and only when — a fault plan or retry
/// policy actually fired. Default runs inject nothing and print nothing,
/// keeping the headline output byte-identical to pre-fault builds.
fn fault_taxonomy(report: &WeekReport) {
    let c = &report.counters;
    if c.fault_windows == 0 && c.retry_attempts == 0 {
        return;
    }
    section("fault injection & recovery (active plan)");
    println!("    {:<34} {:>8}", "injected fault windows", c.fault_windows);
    println!("    {:<34} {:>8}", "  forced pre-download failures", c.fault_forced_failures);
    println!("    {:<34} {:>8}", "  slowed pre-downloads", c.fault_slowed_predownloads);
    println!("    {:<34} {:>8}", "  degraded fetches", c.fault_degraded_fetches);
    println!("    {:<34} {:>8}", "retries attempted", c.retry_attempts);
    println!("    {:<34} {:>8}", "  tasks rescued", c.retry_rescued);
    println!("    {:<34} {:>8}", "  retries exhausted", c.retry_exhausted);
}

fn print_table2() {
    section("Table 2 — max pre-download speed (MBps) and iowait per (device, fs)");
    let paper: &[(DeviceKind, FsKind, f64, f64)] = &[
        (DeviceKind::SdCard, FsKind::Fat, 2.37, 0.421),
        (DeviceKind::SataHdd, FsKind::Ext4, 2.37, 0.297),
        (DeviceKind::UsbFlash, FsKind::Fat, 2.12, 0.663),
        (DeviceKind::UsbFlash, FsKind::Ntfs, 0.93, 0.151),
        (DeviceKind::UsbFlash, FsKind::Ext4, 2.13, 0.55),
        (DeviceKind::UsbHdd, FsKind::Fat, 2.37, 0.42),
        (DeviceKind::UsbHdd, FsKind::Ntfs, 1.13, 0.098),
        (DeviceKind::UsbHdd, FsKind::Ext4, 2.37, 0.174),
    ];
    println!(
        "  {:<8} {:<22} {:<6} {:>14} {:>16}",
        "AP", "device", "fs", "speed (paper)", "iowait (paper)"
    );
    for r in table2::table2() {
        let reference = paper.iter().find(|(d, f, _, _)| *d == r.device && *f == r.fs);
        let (ps, pi) = reference.map(|(_, _, s, i)| (*s, *i)).unwrap_or((f64::NAN, f64::NAN));
        println!(
            "  {:<8} {:<22} {:<6} {:>6.2} ({:>5.2}) {:>8.1}% ({:>5.1}%)",
            r.ap.to_string(),
            r.device.to_string(),
            r.fs.to_string(),
            r.max_speed_mbps,
            ps,
            100.0 * r.iowait,
            100.0 * pi
        );
    }
    let best = table2::best_newifi_setup();
    println!(
        "{}",
        row("best Newifi setup", "USB HDD + EXT4", format!("{} + {}", best.device, best.fs))
    );
}

fn fig15() {
    section("Fig 15 — ODR decision table (the workflow state machine)");
    use odx::odr::{ApContext, OdrEngine, OdrRequest};
    use odx::trace::{PopularityClass, Protocol};
    let engine = OdrEngine::default();
    println!(
        "  {:<15} {:<10} {:<7} {:<8} {:>7}  decision",
        "popularity", "protocol", "cached", "isp", "access"
    );
    let grid = [
        (
            PopularityClass::HighlyPopular,
            Protocol::BitTorrent,
            true,
            odx::net::Isp::Telecom,
            2500.0,
        ),
        (PopularityClass::HighlyPopular, Protocol::BitTorrent, true, odx::net::Isp::Telecom, 400.0),
        (PopularityClass::HighlyPopular, Protocol::Http, true, odx::net::Isp::Telecom, 400.0),
        (PopularityClass::HighlyPopular, Protocol::Http, false, odx::net::Isp::Telecom, 400.0),
        (PopularityClass::Popular, Protocol::BitTorrent, true, odx::net::Isp::Telecom, 400.0),
        (PopularityClass::Popular, Protocol::BitTorrent, true, odx::net::Isp::Other, 400.0),
        (PopularityClass::Popular, Protocol::BitTorrent, true, odx::net::Isp::Telecom, 80.0),
        (PopularityClass::Unpopular, Protocol::BitTorrent, false, odx::net::Isp::Telecom, 400.0),
        (PopularityClass::Unpopular, Protocol::Ftp, true, odx::net::Isp::Telecom, 400.0),
    ];
    for (pop, proto, cached, isp, access) in grid {
        let verdict = engine.decide(&OdrRequest {
            popularity: pop,
            protocol: proto,
            cached_in_cloud: cached,
            isp,
            access_kbps: access,
            ap: Some(ApContext::bench(ApModel::Newifi)),
        });
        println!(
            "  {:<15} {:<10} {:<7} {:<8} {:>7.0}  {}",
            pop.to_string(),
            proto.to_string(),
            cached,
            isp.to_string(),
            access,
            verdict.decision
        );
    }
}

fn fig16(cloud: Option<&WeekReport>, eval: &OdrEvalReport, scale: f64) {
    section("Fig 16 — the four bottlenecks: baseline vs ODR");
    let base_impeded = cloud.map(|c| c.impeded_ratio()).unwrap_or(0.28);
    println!(
        "{}",
        row(
            "B1 impeded fetches",
            "28% → 9%",
            format!("{:.1}% → {:.1}%", 100.0 * base_impeded, 100.0 * eval.impeded_ratio())
        )
    );
    if let Some(cloud) = cloud {
        let cap = kbps_to_gbps(CloudConfig::at_scale(scale).scaled_upload_kbps());
        let peak = cloud.peak_burden_gbps();
        let odr_peak = peak * eval.cloud_upload_fraction();
        println!(
            "{}",
            row(
                "B2 purchased / peak burden",
                "0.88 → 1.36",
                format!("{:.2} → {:.2}", cap / peak, cap / odr_peak)
            )
        );
    }
    println!(
        "{}",
        row(
            "B2 cloud upload bytes (vs all-cloud)",
            "-35%",
            format!("{:+.0}%", 100.0 * (eval.cloud_upload_fraction() - 1.0))
        )
    );
    println!(
        "{}",
        row(
            "B3 unpopular failures (AP → ODR)",
            "42% → 13%",
            format!(
                "{:.1}% → {:.1}%",
                100.0 * eval.baseline_ap().unpopular_failure_ratio(),
                100.0 * eval.unpopular_failure_ratio()
            )
        )
    );
    println!(
        "{}",
        row(
            "B4 storage restrictions (at-risk → ODR)",
            "avoided",
            format!(
                "{:.1}% → {:.1}%",
                100.0 * eval.baseline_b4_ratio(),
                100.0 * eval.storage_limited_ratio()
            )
        )
    );
    println!(
        "{}",
        row("incorrect redirections", "<1%", format!("{:.2}%", 100.0 * eval.incorrect_ratio()))
    );
}

fn fig17(eval: &OdrEvalReport, opts: &Options) {
    section("Fig 17 — fetching speeds using ODR (KBps)");
    let ecdf = eval.fetch_speed_ecdf();
    println!("{}", row("ODR fetches", "med 368 / mean 509 / max 2370", mmmm(ecdf.summary())));
    dump_cdf(opts, "fig17_odr_fetch_speed_cdf.tsv", &ecdf);
}

fn ablate_cache(study: &Study, baseline: &WeekReport, registry: &Registry) {
    section("Ablation — remove the cloud storage pool (§4.1 counterfactual)");
    let scenario = Study::scenarios().get("ablate-cache").expect("builtin preset").clone();
    let report = cloud_week(study, &scenario, registry);
    println!(
        "{}",
        row("failure ratio with pool", "8.7%", format!("{:.1}%", 100.0 * baseline.failure_ratio()))
    );
    println!(
        "{}",
        row(
            "failure ratio without pool",
            "16.4%",
            format!("{:.1}%", 100.0 * report.failure_ratio())
        )
    );
}

fn ablate_privileged(study: &Study, baseline: &WeekReport, registry: &Registry) {
    section("Ablation — disable privileged-path construction");
    let scenario = Study::scenarios().get("ablate-privileged").expect("builtin preset").clone();
    let report = cloud_week(study, &scenario, registry);
    println!(
        "{}",
        row(
            "impeded fetches, privileged paths on",
            "28%",
            format!("{:.1}%", 100.0 * baseline.impeded_ratio())
        )
    );
    println!(
        "{}",
        row(
            "impeded fetches, every fetch cross-ISP",
            "(not measured)",
            format!("{:.1}%", 100.0 * report.impeded_ratio())
        )
    );
    println!(
        "{}",
        row(
            "fetch median, privileged on → off",
            "287 → (collapses)",
            format!(
                "{:.0} → {:.0} KBps",
                baseline.fetch_speed_ecdf().median().unwrap(),
                report.fetch_speed_ecdf().median().unwrap()
            )
        )
    );
}

fn ablate_storage() {
    section("Ablation — storage sweep: when does the write path bind?");
    println!("  effective rate (MBps) by offered network rate, Newifi-class CPU (580 MHz):");
    println!(
        "  {:<22} {:<6} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "device", "fs", "0.5", "1.0", "2.37", "5.0", "10.0"
    );
    for device in DeviceKind::ALL {
        for fs in FsKind::ALL {
            let rates: Vec<String> = [0.5, 1.0, 2.37, 5.0, 10.0]
                .iter()
                .map(|&offered| {
                    let eff =
                        odx::storage::effective_rate_kbps(device, fs, 580.0, offered * 1000.0)
                            / 1000.0;
                    format!("{eff:>7.2}")
                })
                .collect();
            println!("  {:<22} {:<6} {}", device.to_string(), fs.to_string(), rates.join(""));
        }
    }
    println!("  (cells < offered indicate the storage path, not the network, is binding)");
}

fn sweep_cache(study: &Study, registry: &Registry) {
    section("Extension — storage-pool size vs cache hits and failures");
    println!("  (the paper's pool is 2 PB ≈ catalog-sized; how small could it be?)");
    let mut scenario = Study::paper_default();
    for fraction in [0.0001_f64, 0.001, 0.01, 0.1, 1.0] {
        scenario.cache_capacity_factor = fraction;
        let report = cloud_week(study, &scenario, registry);
        println!(
            "  pool ×{fraction:<7}: hit {:>5.1}%  failure {:>4.1}%  impeded {:>5.1}%",
            100.0 * report.hit_ratio(),
            100.0 * report.failure_ratio(),
            100.0 * report.impeded_ratio()
        );
    }
    println!("  (hits collapse once the LRU can no longer hold the working set)");
}

fn ablate_concurrency(study: &Study, sample_size: usize) {
    section("Extension — sequential vs concurrent AP replay (aria2 job slots)");
    use odx::smartap::concurrent::replay_concurrent;
    let sample = study.benchmark_sample(sample_size.min(300));
    println!(
        "  ({} tasks on MiWiFi; same pre-drawn sources, only concurrency varies)",
        sample.len()
    );
    for slots in [1usize, 2, 4, 8] {
        let report =
            replay_concurrent(ApModel::MiWiFi, &sample, slots, &study.rngs.child("concurrency"));
        println!(
            "  {slots} slot(s): makespan {:>9}  failure {:>5.1}%",
            format!("{}", report.makespan),
            100.0 * report.failure_ratio()
        );
    }
    println!("  (the paper's sequential §5.1 methodology = 1 slot)");
}

fn export_traces(study: &Study, opts: &Options, registry: &Registry) {
    section("Export — the dataset's three traces as TSV");
    let dir = opts.out.clone().unwrap_or_else(|| PathBuf::from("out"));
    check_write(&dir, std::fs::create_dir_all(&dir));
    let report = cloud_week(study, &Study::paper_default(), registry);
    // Every trace streams row by row from its source; none is collected.
    let workload_records = study.workload.requests().iter().map(|r| {
        let user = study.population.user(r.user);
        let file = study.catalog.file(r.file);
        odx::trace::records::WorkloadRecord {
            user_id: r.user,
            isp: user.isp,
            access_kbps: user.reports_bandwidth.then_some(user.access_kbps),
            request_time: r.at,
            file_type: file.ftype,
            size_mb: file.size_mb,
            source_link: file.source_link(),
            protocol: file.protocol,
        }
    });
    write_trace(&dir, "workload_trace.tsv", workload_records);
    write_trace(&dir, "predownload_trace.tsv", report.predownloads.iter());
    write_trace(&dir, "fetch_trace.tsv", report.fetches.iter());
}

/// Stream `records` into `dir/name` as one TSV trace.
fn write_trace<R: odx::trace::io::ToTsv>(
    dir: &std::path::Path,
    name: &str,
    records: impl IntoIterator<Item = R>,
) {
    let path = dir.join(name);
    let file = check_write(&path, std::fs::File::create(&path));
    let mut f = std::io::BufWriter::new(file);
    check_write(&path, odx::trace::io::write_tsv(&mut f, records).and_then(|()| f.flush()));
    println!("  wrote {}", path.display());
}

fn ablate_dedup(study: &Study) {
    section("Ablation — chunk-level vs file-level deduplication (§2.1)");
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(99);
    let est = odx::cloud::dedup::estimate(
        &study.catalog,
        &odx::cloud::dedup::DedupConfig::default(),
        &mut rng,
    );
    println!(
        "{}",
        row(
            "extra saving of chunk-level dedup",
            "< 1%",
            format!("{:.2}%", 100.0 * est.extra_saving())
        )
    );
    println!(
        "{}",
        row(
            "index entries: chunks vs files",
            "(much larger)",
            format!("{} vs {}", est.chunk_count, study.catalog.len())
        )
    );
}

fn ablate_ledbat(study: &Study, registry: &Registry) {
    section("Extension — LEDBAT-style cloud seeding of hot swarms (§6.1 discussion)");
    use odx::p2p::multiplier::{BandwidthMultiplier, SeedGovernor};
    use odx::sim::SimTime;
    let report = cloud_week(study, &Study::paper_default(), registry);
    let cap_kbps = CloudConfig::at_scale(study.scale).scaled_upload_kbps();
    let mult = BandwidthMultiplier::default();
    let mut governor = SeedGovernor::new(cap_kbps, 300.0);

    // Walk the measured burden series: whatever headroom the fetch traffic
    // leaves becomes background seeding budget, which the multiplier turns
    // into aggregate swarm distribution bandwidth.
    let mut seed_amount_kb = 0.0;
    let mut distributed_kb = 0.0;
    let swarm_size = 120.0; // a typical highly-popular swarm
    for (t, burden) in report.burden_kbps.points() {
        let now = SimTime::from_millis((t * 1000.0) as u64);
        let allowance = governor.allowance_kbps(now, burden);
        let kb = allowance * report.burden_kbps.bin_width();
        if governor.consume(now, kb) {
            seed_amount_kb += kb;
            distributed_kb += kb * mult.multiplier(swarm_size);
        }
    }
    let week_secs = 7.0 * 86_400.0;
    println!(
        "{}",
        row(
            "idle capacity usable for seeding",
            "(unquantified)",
            format!("{:.2} Gbps average", kbps_to_gbps(seed_amount_kb / week_secs))
        )
    );
    println!(
        "{}",
        row(
            "aggregate distribution via multiplier",
            "(unquantified)",
            format!(
                "{:.1} Gbps average ({:.1}x the seeding spend)",
                kbps_to_gbps(distributed_kb / week_secs),
                mult.multiplier(swarm_size)
            )
        )
    );
    println!("  (LEDBAT yields to foreground fetches, so rejections are unaffected)");
}

fn sweep_userbase(study: &Study, registry: &Registry) {
    section("Extension — user-base growth vs fetch rejections (Bottleneck 2's trend)");
    println!("  demand grows while the purchased 30 Gbps (scaled) stays fixed:");
    let preset = Study::scenarios().get("sweep-userbase").expect("builtin preset").clone();
    for factor in [1.0_f64, 1.25, 1.5, 2.0] {
        // Same workload, proportionally less capacity = proportionally more
        // demand per unit capacity.
        let mut scenario = preset.clone();
        scenario.demand_factor = factor;
        let report = cloud_week(study, &scenario, registry);
        println!(
            "  demand ×{factor:<4} → rejected {:>5.2}%   impeded {:>5.1}%",
            100.0 * report.rejection_ratio(),
            100.0 * report.impeded_ratio()
        );
    }
    println!("  (paper: \"the cloud will have to reject more (>1.5%) fetching requests\")");
}
