//! The week-replay workloads: the Xuanfeng cloud week (§4) generated from
//! the seed and replayed on the discrete-event simulator through
//! `XuanfengCloud::replay_observed`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use odx::backend::Scenario;
use odx::cloud::{CloudConfig, Observers, WeekReport, XuanfengCloud};
use odx::config::Json;
use odx::faults::{FaultDomain, FaultPlan};
use odx::sim::RngFactory;
use odx::telemetry::{Registry, SeriesRecorder};
use odx::trace::{Catalog, CatalogConfig, Population, PopulationConfig, Workload, WorkloadConfig};
use odx::Study;
use rand::SeedableRng;

use crate::report::{fnv64, median, Report};
use crate::spans::{SpanId, Spans};
use crate::{peak_rss_mb, Args};

/// Study generations per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest replays in an untraced run, so every digest has a partner.
const MIN_REPLAYS: usize = 2;
/// Rounds of observed and unobserved replays in the traced run.
const TRACE_ROUNDS: usize = 2;
/// A traced run starts another round only if it would still end within
/// this long, keeping the run well inside its time limit on a slow host.
const TRACE_BUDGET: Duration = Duration::from_secs(100);
/// The cloud event handlers the profiler times, by event label.
const HANDLERS: [&str; 5] = ["arrive", "fetch_begin", "fetch_end", "predl_done", "retry_predl"];

/// A week workload: a built-in scenario, its overrides, and the scale.
struct Week {
    scenario: &'static str,
    sets: &'static [(&'static str, &'static str)],
    scale: f64,
}

fn week(name: &str) -> Week {
    match name {
        "week-default" => Week { scenario: "paper-default", sets: &[], scale: 1.0 },
        "week-pressure-faults" => Week {
            scenario: "cache-pressure",
            sets: &[
                ("cache.policy", "gdsf"),
                ("faults.intensity", "0.25"),
                ("retry.policy", "expo"),
            ],
            scale: 0.3,
        },
        other => unreachable!("not a week workload: {other}"),
    }
}

/// Resolve a built-in scenario with `--set`-style overrides, the way
/// `repro --scenario NAME --set path=value` does.
pub fn scenario(name: &str, sets: &[(&str, &str)]) -> Scenario {
    let registry = Study::scenarios();
    let mut spec = registry.spec(name).cloned().expect("built-in scenario");
    for (path, raw) in sets {
        let value = Json::parse(raw).unwrap_or_else(|_| Json::Str((*raw).to_string()));
        spec.set_path(path, &value).expect("valid scenario override");
    }
    Scenario::from_spec(&spec.without_axes()).expect("valid scenario")
}

/// Generate a study the way `Study::generate_scenario` does, timing the
/// three `trace` generators separately. Returns the study and the
/// catalog, population and workload seconds.
pub fn generate_split(
    scale: f64,
    seed: u64,
    scenario: &Scenario,
    spans: &mut Spans,
    parent: Option<SpanId>,
) -> (Study, [f64; 3]) {
    let rngs = RngFactory::new(seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(rngs.child("study").master());
    let (catalog, c) = spans.time("trace.catalog", parent, || {
        Catalog::generate(&CatalogConfig::scaled(scale), &mut rng)
    });
    let mut pop_cfg = PopulationConfig::scaled(scale);
    pop_cfg.isp_mix = scenario.isp_mix();
    let (population, p) =
        spans.time("trace.population", parent, || Population::generate(&pop_cfg, &mut rng));
    let (workload, w) = spans.time("trace.workload", parent, || {
        Workload::generate(&catalog, &population, &WorkloadConfig::default(), &mut rng)
    });
    let study = Study { scale, rngs, catalog, population, workload };
    (study, [c.as_secs_f64(), p.as_secs_f64(), w.as_secs_f64()])
}

/// Digest of a workload's request stream, to check that the split
/// generation reproduces `Study::generate_scenario`.
pub fn workload_digest(workload: &Workload) -> String {
    let mut bytes = Vec::with_capacity(workload.len() * 16);
    for r in workload.requests() {
        bytes.extend_from_slice(&r.user.to_le_bytes());
        bytes.extend_from_slice(&r.file.to_le_bytes());
        bytes.extend_from_slice(&r.at.as_millis().to_le_bytes());
    }
    fnv64(&bytes)
}

/// Conservation checks on one replay: every task arrives once, gets one
/// pre-download record, and ends in exactly one of failure, rejection or
/// a completed fetch.
fn conservation(report: &WeekReport, tasks: usize) -> Vec<String> {
    let c = &report.counters;
    let n = tasks as u64;
    let mut errors = Vec::new();
    if c.requests != n {
        errors.push(format!("counters.requests {} != workload length {n}", c.requests));
    }
    if report.predownloads.len() as u64 != n {
        errors.push(format!(
            "{} pre-download records != workload length {n}",
            report.predownloads.len()
        ));
    }
    let ends = c.predownload_failures + c.rejected_fetches + c.completed_fetches;
    if ends != c.requests {
        errors.push(format!(
            "failures + rejections + completed fetches {ends} != requests {}",
            c.requests
        ));
    }
    errors
}

/// One replay: its report, wall time, and the digest of the registry's
/// deterministic snapshot.
struct Replay {
    report: WeekReport,
    wall: Duration,
    digest: String,
    registry: Registry,
}

fn replay(
    study: &Study,
    scenario: &Scenario,
    observers: Observers<'_>,
    spans: &mut Spans,
) -> Replay {
    let registry = Registry::new();
    let cfg = CloudConfig::for_scenario(study.scale, scenario);
    let start = Instant::now();
    let (report, _) = XuanfengCloud::replay_observed(
        &study.catalog,
        &study.population,
        &study.workload,
        cfg,
        &study.rngs,
        &registry,
        observers,
    );
    let wall = start.elapsed();
    spans.record("cloud.replay", None, None, start, study.workload.len() as u64);
    let digest = fnv64(registry.snapshot().to_json().as_bytes());
    Replay { report, wall, digest, registry }
}

/// Check a replay, count it as one operation, and compare its digest with
/// the run's first.
fn check(replay: &Replay, tasks: usize, first: &mut Option<String>, report: &mut Report) {
    let mut errors = conservation(&replay.report, tasks);
    match first {
        Some(d) if *d != replay.digest => {
            errors.push(format!("snapshot digest {} != first replay's {d}", replay.digest))
        }
        Some(_) => {}
        None => *first = Some(replay.digest.clone()),
    }
    report.op(errors);
}

/// Print the simulated statistics beside the timings, with the paper's
/// values for reference only (the model is not validated against it).
fn fingerprint(replay: &Replay, report: &mut Report) {
    let events = replay.registry.counter("sim.events").get() as f64;
    report.info("tasks", replay.report.counters.requests as f64, "count");
    report.info("fingerprint.cloud.hit_ratio", replay.report.hit_ratio(), "ratio");
    report.info("fingerprint.failure_ratio", replay.report.failure_ratio(), "ratio");
    report.info("fingerprint.cloud.reject_ratio", replay.report.rejection_ratio(), "ratio");
    report.info("fingerprint.sim.events", events, "count");
    report.info("paper.hit_ratio", 0.89, "ratio");
    report.info("paper.failure_ratio", 0.087, "ratio");
    report.info("paper.reject_ratio", 0.015, "ratio");
}

/// Run a week workload.
pub fn run(name: &str, args: &Args, spans: &mut Spans) -> Report {
    let week = week(name);
    let scenario = scenario(week.scenario, week.sets);
    let mut report = Report::default();
    if args.trace {
        traced(&week, &scenario, args, spans, &mut report);
    } else {
        timed(&week, &scenario, args, spans, &mut report);
    }
    report
}

/// The end-to-end run: set up [`SETUP_REPS`] times, then replay the week
/// with no observers until `--seconds` is spent.
fn timed(week: &Week, scenario: &Scenario, args: &Args, spans: &mut Spans, report: &mut Report) {
    let root = spans.open("setup", None);
    let mut setup_s = Vec::new();
    let mut study = None;
    for _ in 0..SETUP_REPS {
        drop(study.take());
        let (s, wall) = spans.time("study.generate", Some(root), || {
            Study::generate_scenario(week.scale, args.seed, scenario)
        });
        setup_s.push(wall.as_secs_f64());
        study = Some(s);
    }
    spans.close(root);
    let study = study.expect("at least one setup");
    let tasks = study.workload.len();

    let deadline = Instant::now() + args.seconds;
    let mut walls = Vec::new();
    let mut first = None;
    loop {
        let r = replay(&study, scenario, Observers::default(), spans);
        check(&r, tasks, &mut first, report);
        if walls.is_empty() {
            fingerprint(&r, report);
        }
        walls.push(r.wall.as_secs_f64());
        drop(r);
        if walls.len() >= MIN_REPLAYS
            && Instant::now() + Duration::from_secs_f64(walls[walls.len() - 1]) > deadline
        {
            break;
        }
    }
    report.digest(first.expect("at least one replay"));

    let mut rates: Vec<f64> = walls.iter().map(|w| tasks as f64 / w).collect();
    let mut ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    let tasks_per_s = median(&mut rates);
    report.info("replays", walls.len() as f64, "count");
    report.info("tasks_per_s", tasks_per_s, "1/s");
    report.metric("setup_s", median(&mut setup_s), "s");
    report.metric("throughput_per_s", tasks_per_s, "1/s");
    report.metric("latency_p50_ms", median(&mut ms), "ms");
    let rss = peak_rss_mb(report);
    report.metric("peak_rss_mb", rss, "MB");
}

/// The deterministic counts and ratios of one replay.
fn counts(replay: &Replay, report: &mut Report) {
    let c = &replay.report.counters;
    report.metric("sim.events", replay.registry.counter("sim.events").get() as f64, "count");
    report.metric("cloud.hit_ratio", replay.report.hit_ratio(), "ratio");
    report.metric("cloud.failure_ratio", replay.report.failure_ratio(), "ratio");
    report.metric("cloud.reject_ratio", replay.report.rejection_ratio(), "ratio");
    let would_fail = c.retry_rescued + c.predownload_failures;
    report.metric(
        "cloud.retry_rescue_ratio",
        if would_fail == 0 { 0.0 } else { c.retry_rescued as f64 / would_fail as f64 },
        "ratio",
    );
}

/// The traced run: split setup timings, [`TRACE_ROUNDS`] rounds of an
/// unobserved, a profiled and a series-recording replay, then standalone
/// cache and fault-plan probes over the workload's own arrival stream.
fn traced(week: &Week, scenario: &Scenario, args: &Args, spans: &mut Spans, report: &mut Report) {
    let root = spans.open("setup", None);
    let (reference, _) = spans.time("study.generate", Some(root), || {
        Study::generate_scenario(week.scale, args.seed, scenario)
    });
    let reference_digest = workload_digest(&reference.workload);
    drop(reference);
    let mut parts: [Vec<f64>; 3] = Default::default();
    let mut study = None;
    for _ in 0..SETUP_REPS {
        drop(study.take());
        let (s, secs) = generate_split(week.scale, args.seed, scenario, spans, Some(root));
        for (part, s) in parts.iter_mut().zip(secs) {
            part.push(s);
        }
        study = Some(s);
    }
    spans.close(root);
    let study = study.expect("at least one setup");
    if workload_digest(&study.workload) != reference_digest {
        report.fail("split generation no longer reproduces Study::generate_scenario".to_string());
    }
    let tasks = study.workload.len();
    for (name, part) in
        ["trace.catalog_s", "trace.population_s", "trace.workload_s"].iter().zip(&mut parts)
    {
        report.metric(name, median(part), "s");
    }

    // Rounds of (unobserved, profiled, series-recording) replays; each
    // kind's fastest wall is its estimate, since interference only adds
    // time, and the profile comes from the fastest profiled replay.
    let mut first = None;
    let mut best = [f64::INFINITY; 3];
    let mut profile = BTreeMap::new();
    let start = Instant::now();
    for round in 0..TRACE_ROUNDS {
        if round > 0 && start.elapsed() * (round as u32 + 1) / round as u32 > TRACE_BUDGET {
            break;
        }
        let base = replay(&study, scenario, Observers::default(), spans);
        check(&base, tasks, &mut first, report);
        best[0] = best[0].min(base.wall.as_secs_f64());
        if round == 0 {
            fingerprint(&base, report);
            counts(&base, report);
        }
        drop(base);

        let observers = Observers { profile: true, ..Observers::default() };
        let profiled = replay(&study, scenario, observers, spans);
        check(&profiled, tasks, &mut first, report);
        if profiled.wall.as_secs_f64() < best[1] {
            best[1] = profiled.wall.as_secs_f64();
            profile = profiled.registry.snapshot().wall;
        }
        drop(profiled);

        let series = SeriesRecorder::new(scenario.series_interval_ms());
        let observers = Observers { series: Some(series), ..Observers::default() };
        let recorded = replay(&study, scenario, observers, spans);
        check(&recorded, tasks, &mut first, report);
        best[2] = best[2].min(recorded.wall.as_secs_f64());
    }
    report.metric("telemetry.profile_overhead", best[1] / best[0] - 1.0, "ratio");
    report.metric("telemetry.series_overhead", best[2] / best[0] - 1.0, "ratio");
    let get = |key: &str| profile.get(key).copied().unwrap_or(0.0);
    let pops = get("prof.sched.pops");
    report.metric("sim.pop_s", get("prof.sched.pop_secs"), "s");
    report.metric(
        "sim.pop_ns",
        if pops > 0.0 { get("prof.sched.pop_secs") * 1e9 / pops } else { 0.0 },
        "ns",
    );
    report.metric("sim.other_s", get("prof.other_secs"), "s");
    for label in HANDLERS {
        let (secs, events) = (format!("cloud.{label}_s"), format!("cloud.{label}_events"));
        report.metric(&secs, get(&format!("prof.handler.{label}.secs")), "s");
        report.metric(&events, get(&format!("prof.handler.{label}.events")), "count");
    }
    report.digest(first.expect("at least one replay"));

    let cfg = CloudConfig::for_scenario(study.scale, scenario);
    cache_probe(&study, &cfg, spans, report);
    faults_probe(&study, &cfg, spans, report);
}

/// Median cost of one `Instant::now()` pair, subtracted from per-call
/// timings so they report the call, not the clock.
fn clock_overhead_ns() -> f64 {
    let mut samples: Vec<f64> = (0..1001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    median(&mut samples)
}

/// The workload's `(file, size, arrival)` stream through the scenario's
/// cache policy at its budget: `lookup`, then `insert` on a miss.
fn cache_probe(study: &Study, cfg: &CloudConfig, spans: &mut Spans, report: &mut Report) {
    let overhead = clock_overhead_ns();
    let mut cache = cfg.cache.policy.build(cfg.scaled_cache_mb(), study.catalog.len());
    let (mut lookup_ns, mut insert_ns) = (0.0, 0.0);
    let (mut hits, mut inserts, mut evictions) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    for r in study.workload.requests() {
        let key = u64::from(r.file);
        let now_ms = r.at.as_millis();
        let t0 = Instant::now();
        let hit = black_box(cache.lookup(key, now_ms)).is_some();
        let t1 = Instant::now();
        lookup_ns += (t1 - t0).as_nanos() as f64 - overhead;
        if hit {
            hits += 1;
            continue;
        }
        let evicted = cache.insert(key, study.catalog.file(r.file).size_mb, now_ms);
        insert_ns += (Instant::now() - t1).as_nanos() as f64 - overhead;
        inserts += 1;
        evictions += evicted.len() as u64;
    }
    let lookups = study.workload.len() as u64;
    spans.record("cache.probe", None, None, start, lookups + inserts);
    report.info("clock_overhead_ns", overhead, "ns");
    report.metric("cache.lookup_ns", (lookup_ns / lookups.max(1) as f64).max(0.0), "ns");
    report.metric("cache.insert_ns", (insert_ns / inserts.max(1) as f64).max(0.0), "ns");
    report.metric("cache.evictions", evictions as f64, "count");
    report.metric("cache.hit_ratio", hits as f64 / lookups.max(1) as f64, "ratio");
}

/// Compile the scenario's fault plan from the replay's stream, then ask it
/// for the active cloud and network windows at every arrival.
fn faults_probe(study: &Study, cfg: &CloudConfig, spans: &mut Spans, report: &mut Report) {
    let (plan, compile) = spans.time("faults.compile", None, || {
        FaultPlan::compile(&cfg.faults, &mut study.rngs.stream("faults"))
    });
    let start = Instant::now();
    let mut active = 0u64;
    for r in study.workload.requests() {
        let at = r.at.as_millis();
        active += u64::from(black_box(plan.active(FaultDomain::Cloud, at)).is_some());
        active += u64::from(black_box(plan.active(FaultDomain::Net, at)).is_some());
    }
    let calls = 2 * study.workload.len() as u64;
    let elapsed = start.elapsed();
    spans.record("faults.active", None, None, start, calls);
    black_box(active);
    report.metric("faults.compile_s", compile.as_secs_f64(), "s");
    report.metric("faults.active_ns", elapsed.as_nanos() as f64 / calls.max(1) as f64, "ns");
    report.metric("faults.windows", plan.len() as f64, "count");
}
