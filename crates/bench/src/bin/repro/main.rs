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
//! Every command is one row of [`TABLE`], in the order any command set
//! prints them; `repro list` prints the commands, flags, scenario presets
//! and cache/retry policies. `all` (the default) runs every row marked
//! `all`; the grid, lifecycle, `series`, `profile` and `export-traces`
//! commands are opt-in.
//!
//! Scenarios are data (`DESIGN.md` §scenarios-as-data): the active
//! configuration is the paper baseline, then a preset or `--scenario-file`
//! delta (`--scenario NAME`, default `paper-default`), then `--set
//! dotted.path=value` overrides and a cache `--policy`. Every command and
//! `list` resolve against the one layered registry. The grid commands
//! (`sweep`, `cache-compare`, `resilience`, `series`) also take the
//! selector `all` and expand each scenario's `axes` grid; their merged
//! output is byte-identical for any `--jobs`. Any unknown name, unreadable
//! file or out-of-bounds value exits 2 naming the field and the nearest
//! valid alternative. The `scenario` inspector (`show NAME`, `dump --all`,
//! `check [--json FILE]`) runs nothing and prints only canonical JSON or
//! its verdict, so `repro scenario dump --all | repro scenario check`
//! round-trips.
//!
//! `--out DIR` also writes each figure's plotted series as TSV and each
//! grid's merged `<grid>.{json,csv}`; `--out FILE` (a path with an
//! extension) names the one file `trace` or `series` writes. `--metrics
//! FILE` dumps the run's telemetry registry, byte-identical across
//! same-seed runs of the same commands. `attribute`, `trace` and
//! `check-trace` cover per-task lifecycles (`DESIGN.md` §observability);
//! `series` samples the registry on the virtual clock and `profile` times
//! the handlers on the wall clock (`DESIGN.md` §two-clocks). `--progress`
//! writes to stderr only, leaving stdout and every export byte-identical.

mod ablations;
mod cli;
mod figures;
mod grids;
mod lifecycle;
mod scenario;
mod series;

use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::path::Path;

use odx::backend::{ApBenchReport, Scenario, ScenarioRegistry};
use odx::cloud::WeekReport;
use odx::odr::replay::OdrEvalReport;
use odx::Study;
use odx_telemetry::{Observers, Registry};

use cli::{Mode, Options, UsageError};

/// Shared inputs a row reads besides the study, which every row may draw
/// lazily: the cloud, smart-AP and ODR replays, and the grid commands'
/// expanded scenario list.
pub const CLOUD: u8 = 1;
pub const APS: u8 = 2;
pub const ODR: u8 = 4;
pub const GRID: u8 = 8;

/// One command: the words that select it, whether `all` runs it, the
/// shared inputs it reads, and its printer.
pub struct Row {
    /// `fig6`/`fig7` share one row; `headline` owns three, printed at the
    /// §4, §5.2 and §6.2 places.
    pub names: &'static [&'static str],
    pub all: bool,
    pub needs: u8,
    pub run: fn(&Ctx),
}

/// Every command, in output order: a command set prints its rows in this
/// order, whatever order argv named them in.
pub const TABLE: &[Row] = &[
    Row { names: &["check-trace"], all: false, needs: 0, run: lifecycle::check_trace },
    Row { names: &["attribute"], all: false, needs: 0, run: lifecycle::attribute },
    Row { names: &["trace"], all: false, needs: 0, run: lifecycle::trace },
    Row { names: &["sweep"], all: false, needs: GRID, run: grids::sweep },
    Row { names: &["cache-compare"], all: false, needs: GRID, run: grids::cache_compare },
    Row { names: &["resilience"], all: false, needs: GRID, run: grids::resilience },
    Row { names: &["series"], all: false, needs: GRID, run: series::series },
    Row { names: &["profile"], all: false, needs: 0, run: series::profile },
    Row { names: &["table1"], all: true, needs: 0, run: figures::table1 },
    Row { names: &["fig5"], all: true, needs: 0, run: figures::fig5 },
    Row { names: &["fig6", "fig7"], all: true, needs: 0, run: figures::fig6_fig7 },
    Row { names: &["fig8"], all: true, needs: CLOUD, run: figures::fig8 },
    Row { names: &["fig9"], all: true, needs: CLOUD, run: figures::fig9 },
    Row { names: &["fig10"], all: true, needs: CLOUD, run: figures::fig10 },
    Row { names: &["fig11"], all: true, needs: CLOUD, run: figures::fig11 },
    Row { names: &["headline"], all: true, needs: CLOUD, run: figures::headline_cloud },
    Row { names: &["fig13"], all: true, needs: APS, run: figures::fig13 },
    Row { names: &["fig14"], all: true, needs: APS, run: figures::fig14 },
    Row { names: &["headline"], all: true, needs: APS, run: figures::headline_aps },
    Row { names: &["table2"], all: true, needs: 0, run: figures::table2 },
    Row { names: &["fig15"], all: true, needs: 0, run: figures::fig15 },
    Row { names: &["fig16"], all: true, needs: CLOUD | ODR, run: figures::fig16 },
    Row { names: &["fig17"], all: true, needs: ODR, run: figures::fig17 },
    Row { names: &["headline"], all: true, needs: CLOUD | ODR, run: figures::headline_odr },
    Row { names: &["ablate-cache"], all: true, needs: CLOUD, run: ablations::cache },
    Row { names: &["ablate-privileged"], all: true, needs: CLOUD, run: ablations::privileged },
    Row { names: &["ablate-storage"], all: true, needs: 0, run: ablations::storage },
    Row { names: &["sweep-userbase"], all: true, needs: 0, run: ablations::sweep_userbase },
    Row { names: &["ablate-dedup"], all: true, needs: 0, run: ablations::dedup },
    Row { names: &["ablate-ledbat"], all: true, needs: 0, run: ablations::ledbat },
    Row { names: &["ablate-concurrency"], all: true, needs: 0, run: ablations::concurrency },
    Row { names: &["sweep-cache"], all: true, needs: 0, run: ablations::sweep_cache },
    Row { names: &["export-traces"], all: false, needs: 0, run: figures::export_traces },
];

/// What the rows of one invocation share: the options, the layered
/// scenarios, the `--metrics` registry every replay records into, and the
/// lazily built study and shared replays.
pub struct Ctx {
    pub opts: Options,
    /// The built-in presets plus every `--scenario-file` definition.
    pub scenarios: ScenarioRegistry,
    /// The active scenario: baseline → preset/file delta → `--set` →
    /// `--policy` (axes stripped).
    pub scenario: Scenario,
    /// The grid commands' scenarios (empty unless a `GRID` row runs).
    pub grid: Vec<Scenario>,
    pub metrics: Registry,
    /// The union of the selected rows' needs.
    needs: u8,
    study: OnceCell<Study>,
    cloud: OnceCell<WeekReport>,
    aps: OnceCell<ApBenchReport>,
    odr: OnceCell<OdrEvalReport>,
}

impl Ctx {
    fn new(opts: Options) -> Result<Ctx, UsageError> {
        let (scenarios, scenario) = cli::layer(&opts)?;
        let needs = match &opts.mode {
            Mode::Run(rows) => rows.iter().fold(0, |needs, &i| needs | TABLE[i].needs),
            Mode::List | Mode::Inspect(_) => 0,
        };
        let grid = if needs & GRID != 0 { cli::grid(&scenarios, &opts)? } else { Vec::new() };
        Ok(Ctx {
            opts,
            scenarios,
            scenario,
            grid,
            metrics: Registry::new(),
            needs,
            study: OnceCell::new(),
            cloud: OnceCell::new(),
            aps: OnceCell::new(),
            odr: OnceCell::new(),
        })
    }

    /// The week under the active scenario, generated on first use.
    pub fn study(&self) -> &Study {
        self.study.get_or_init(|| {
            Study::generate_scenario(self.opts.scale, self.opts.seed, &self.scenario)
        })
    }

    /// Built-in preset `name` as the layered registry holds it: a
    /// `--scenario-file` may redefine it, but not remove it.
    pub fn preset(&self, name: &str) -> &Scenario {
        self.scenarios.get(name).expect("built-in preset")
    }

    /// Replay the cloud week under `scenario` into the `--metrics`
    /// registry.
    pub fn replay(&self, scenario: &Scenario) -> WeekReport {
        self.study().replay_cloud(scenario, &self.metrics, Observers::default()).0
    }

    /// Panic in debug builds when a row reads a shared replay its table
    /// entry does not declare: the declarations fix the replay order.
    fn declared(&self, need: u8) {
        debug_assert!(self.needs & need != 0, "a row reads undeclared shared input {need}");
    }

    // The shared replays run in one order — cloud, smart APs, ODR — for
    // every command set, whichever row asks first, and before the
    // ablations' own replays. `--metrics` shows the cloud week's place: its
    // `sim.run` span ids follow replay order and its gauges are
    // last-writer-wins. The smart-AP and ODR replays open no span and set
    // no gauge today; the fixed order keeps that true if they start to.

    /// The cloud week under the active scenario, timed for `headline`'s
    /// perf line (the registry's wall section, excluded from `--metrics`).
    pub fn cloud(&self) -> &WeekReport {
        self.declared(CLOUD);
        self.cloud.get_or_init(|| {
            let events_before = self.metrics.counter("sim.events").get();
            let start = std::time::Instant::now();
            let report = self.replay(&self.scenario);
            let wall = start.elapsed().as_secs_f64();
            let events = self.metrics.counter("sim.events").get() - events_before;
            self.metrics.set_wall("sim.wall_secs", wall);
            self.metrics.set_wall("sim.events_per_sec", events as f64 / wall.max(1e-9));
            report
        })
    }

    /// The §5.1 smart-AP benchmark over `--sample` requests.
    pub fn aps(&self) -> &ApBenchReport {
        self.declared(APS);
        if self.needs & CLOUD != 0 {
            self.cloud();
        }
        self.aps.get_or_init(|| {
            let (sample, scenario) = (self.opts.sample, &self.scenario);
            self.study().replay_smart_aps(sample, scenario, &self.metrics, Observers::default()).0
        })
    }

    /// The §6.2 ODR evaluation over `--sample` requests.
    pub fn odr(&self) -> &OdrEvalReport {
        self.declared(ODR);
        if self.needs & CLOUD != 0 {
            self.cloud();
        }
        if self.needs & APS != 0 {
            self.aps();
        }
        self.odr.get_or_init(|| {
            let (sample, scenario) = (self.opts.sample, &self.scenario);
            self.study().replay_odr(sample, scenario, &self.metrics, Observers::default()).0
        })
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(UsageError(message)) = cli::parse_args(&argv).and_then(run) {
        eprintln!("repro: {message}");
        cli::print_usage(&mut std::io::stderr(), &ScenarioRegistry::builtin());
        std::process::exit(2);
    }
}

fn run(opts: Options) -> Result<(), UsageError> {
    let ctx = Ctx::new(opts)?;
    let rows: &BTreeSet<usize> = match &ctx.opts.mode {
        Mode::List => {
            cli::print_usage(&mut std::io::stdout(), &ctx.scenarios);
            return Ok(());
        }
        Mode::Inspect(cmd) => return scenario::inspect(&ctx, cmd),
        Mode::Run(rows) => rows,
    };
    let opts = &ctx.opts;
    println!(
        "odx repro — scenario {} scale {} seed {} sample {}  (paper: scale 1.0 = 4,084,417 tasks)",
        ctx.scenario.name, opts.scale, opts.seed, opts.sample
    );
    // Fail on an unwritable output path now, not after every replay.
    match &opts.out {
        cli::Out::Dir(dir) => check_write(dir, std::fs::create_dir_all(dir)),
        cli::Out::File(file) => {
            if let Some(parent) = file.parent().filter(|p| !p.as_os_str().is_empty()) {
                check_write(parent, std::fs::create_dir_all(parent));
            }
        }
        cli::Out::Unset => {}
    }
    if let Some(path) = &opts.metrics {
        check_write(path, std::fs::File::create(path));
    }
    for &i in rows {
        (TABLE[i].run)(&ctx);
    }
    if let Some(path) = &opts.metrics {
        check_write(path, std::fs::write(path, ctx.metrics.snapshot().to_json()));
        println!("\n[metrics snapshot → {}]", path.display());
    }
    Ok(())
}

pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Print one `paper vs measured` row.
pub fn print_row(label: &str, paper: &str, measured: String) {
    println!("{}", odx_bench::row(label, paper, measured));
}

/// Write each `(path, contents)`, then print `  [label → path / path…note]`.
pub fn export(label: &str, files: &[(impl AsRef<Path>, impl AsRef<[u8]>)], note: &str) {
    let mut paths = Vec::new();
    for (path, contents) in files {
        check_write(path.as_ref(), std::fs::write(path, contents));
        paths.push(path.as_ref().display().to_string());
    }
    println!("  [{label} → {}{note}]", paths.join(" / "));
}

/// Report bad input met while running — an unwritable output, an
/// unreadable or invalid document — and exit with `code` (2 for input the
/// caller can fix, 1 for a document that fails validation).
pub fn fail(code: i32, message: &str) -> ! {
    eprintln!("repro: {message}");
    std::process::exit(code)
}

/// `result`'s value, or exit 2 naming `path` when writing it failed: an
/// unwritable `--out` or `--metrics` path is bad input, not a crash.
pub fn check_write<T>(path: &Path, result: std::io::Result<T>) -> T {
    result.unwrap_or_else(|e| fail(2, &format!("cannot write {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn selected(argv: &[&str]) -> BTreeSet<usize> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        match cli::parse_args(&argv).map(|opts| opts.mode) {
            Ok(Mode::Run(rows)) => rows,
            Ok(other) => panic!("{argv:?} parsed to {other:?}"),
            Err(e) => panic!("{argv:?}: {}", e.0),
        }
    }

    #[test]
    fn every_row_name_selects_its_row() {
        for (i, row) in TABLE.iter().enumerate() {
            for name in row.names {
                assert!(selected(&[name, "--json", "t.json"]).contains(&i), "`{name}`");
            }
        }
    }

    #[test]
    fn all_expands_to_exactly_the_all_rows() {
        let all: BTreeSet<usize> = (0..TABLE.len()).filter(|&i| TABLE[i].all).collect();
        assert_eq!(selected(&["all"]), all);
        assert_eq!(selected(&[]), all, "no command means `all`");
    }

    #[test]
    fn only_headline_owns_more_than_one_row() {
        let names: Vec<&str> = TABLE.iter().flat_map(|row| row.names).copied().collect();
        let shared: BTreeSet<&str> = names
            .iter()
            .copied()
            .filter(|n| names.iter().filter(|m| *m == n).count() > 1)
            .collect();
        assert_eq!(shared, BTreeSet::from(["headline"]));
        assert_eq!(TABLE.iter().filter(|row| row.names == ["headline"]).count(), 3);
    }
}
