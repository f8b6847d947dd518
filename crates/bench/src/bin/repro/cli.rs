//! The front end: [`parse_args`] turns argv into [`Options`] without
//! reading the environment, the file system or the clock, and [`layer`]
//! then loads the `--scenario-file`s and resolves the active scenario.
//! Every bad invocation comes back as a [`UsageError`]; `main` alone
//! prints it with the usage listing and exits 2.

use std::collections::BTreeSet;
use std::io::Write;
use std::path::{Path, PathBuf};

use odx::backend::{Scenario, ScenarioRegistry};
use odx::cache::PolicyKind;
use odx::config::{ConfigError, Json, ScenarioSpec};
use odx::faults::RetryKind;
use odx_telemetry::TraceConfig;

use crate::TABLE;

/// A bad invocation: what `main` prints (after `repro: `) above the usage
/// listing before it exits 2.
#[derive(Debug)]
pub struct UsageError(pub String);

impl From<ConfigError> for UsageError {
    fn from(e: ConfigError) -> Self {
        UsageError(e.to_string())
    }
}

/// What the invocation asks for.
#[derive(Debug)]
pub enum Mode {
    /// `list`: the usage listing on stdout.
    List,
    /// `scenario …`: inspect the registry; runs before the banner, so
    /// stdout carries nothing but canonical JSON or the check verdict.
    Inspect(Inspect),
    /// Run these [`TABLE`] rows, by index, in table order.
    Run(BTreeSet<usize>),
}

/// The `scenario` inspector's subcommands.
#[derive(Debug)]
pub enum Inspect {
    /// `scenario show NAME`.
    Show(String),
    /// `scenario dump --all`.
    Dump,
    /// `scenario check [--json FILE]` (stdin without `--json`).
    Check,
}

/// `--out PATH`: a directory, or a file when the path has an extension
/// (`trace --out trace.json`, `series --out series.csv`).
pub enum Out {
    Unset,
    Dir(PathBuf),
    File(PathBuf),
}

pub struct Options {
    pub mode: Mode,
    /// `--scenario-file` paths, in flag order; [`layer`] loads them.
    pub scenario_files: Vec<PathBuf>,
    /// The raw `--scenario` selector; `all` expands only for the grid
    /// commands (every other command keeps the baseline).
    pub selector: String,
    /// `--set dotted.path=value` overrides, in flag order.
    pub sets: Vec<(String, Json)>,
    pub scale: f64,
    pub seed: u64,
    /// Grid seed-axis length: seeds `seed..seed+seeds`.
    pub seeds: usize,
    /// Grid worker threads (output is identical for any value).
    pub jobs: usize,
    pub sample: usize,
    /// Lifecycle-trace sampling: trace every `1/N`th task (0 = grids stay
    /// untraced; `attribute`/`trace` default to tracing every task).
    pub trace_sample: u64,
    pub out: Out,
    pub metrics: Option<PathBuf>,
    /// `--json FILE`: the document `check-trace` and `scenario check` read.
    pub json: Option<PathBuf>,
    /// A cache policy: narrows `cache-compare`, and swaps the pool policy
    /// of the active scenario for every other command.
    pub policy: Option<PolicyKind>,
    /// A retry policy: narrows `resilience` to baseline vs that policy.
    pub retry_policy: Option<RetryKind>,
    /// `--progress`: live shard progress on stderr (stdout unchanged).
    pub progress: bool,
}

impl Options {
    /// The lifecycle [`TraceConfig`] for `attribute`/`trace`: every task
    /// unless `--trace-sample N` thinned it.
    pub fn trace_config(&self) -> TraceConfig {
        if self.trace_sample > 1 {
            TraceConfig::sampled(self.trace_sample)
        } else {
            TraceConfig::full()
        }
    }

    /// The directory `--out DIR` names: where the multi-file exports go
    /// (none without `--out`, or when it names a file).
    pub fn out_dir(&self) -> Option<&Path> {
        match &self.out {
            Out::Dir(dir) => Some(dir),
            Out::Unset | Out::File(_) => None,
        }
    }

    /// Where a single-file export goes: the file `--out FILE` names, else
    /// `name` in `--out DIR` or in the working directory.
    pub fn out_file(&self, name: &str) -> PathBuf {
        match &self.out {
            Out::File(file) => file.clone(),
            Out::Dir(dir) => dir.join(name),
            Out::Unset => PathBuf::from(name),
        }
    }
}

/// The value after `flag`, parsed as `T`; missing or unparsable names the
/// flag.
fn value<'a, T: std::str::FromStr>(
    args: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<T, UsageError> {
    let raw = args.next().ok_or_else(|| UsageError(format!("{flag} needs a value")))?;
    raw.parse().map_err(|_| UsageError(format!("{flag}: invalid value `{raw}`")))
}

/// Parse a `--set dotted.path=value` operand. The value is JSON when it
/// parses as JSON (`2`, `true`, `["a","b"]`) and a bare string otherwise
/// (`gdsf` needs no quoting).
fn parse_set(operand: &str) -> Result<(String, Json), UsageError> {
    let Some((path, raw)) = operand.split_once('=') else {
        return Err(UsageError(format!("--set needs dotted.path=value (got `{operand}`)")));
    };
    let value = Json::parse(raw).unwrap_or_else(|_| Json::Str(raw.to_owned()));
    Ok((path.to_owned(), value))
}

/// Parse argv (without the program name). Pure: no environment, no file
/// system, no exit.
pub fn parse_args(argv: &[String]) -> Result<Options, UsageError> {
    let mut opts = Options {
        mode: Mode::List,
        scenario_files: Vec::new(),
        selector: "paper-default".to_owned(),
        sets: Vec::new(),
        scale: 0.1,
        seed: 2015,
        seeds: 1,
        jobs: 1,
        sample: 1000,
        trace_sample: 0,
        out: Out::Unset,
        metrics: None,
        json: None,
        policy: None,
        retry_policy: None,
        progress: false,
    };
    let mut words = Vec::new();
    let mut dump_all = false;
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => opts.selector = value(&mut args, "--scenario")?,
            "--scenario-file" => opts.scenario_files.push(value(&mut args, "--scenario-file")?),
            "--set" => opts.sets.push(parse_set(&value::<String>(&mut args, "--set")?)?),
            "--all" => dump_all = true,
            "--policy" => {
                // Cache and retry policy names share the flag (the two
                // namespaces are disjoint).
                let name: String = value(&mut args, "--policy")?;
                match (PolicyKind::parse(&name), RetryKind::parse(&name)) {
                    (Some(p), _) => opts.policy = Some(p),
                    (None, Some(r)) => opts.retry_policy = Some(r),
                    (None, None) => {
                        return Err(UsageError(format!("unknown cache or retry policy `{name}`")))
                    }
                }
            }
            "--scale" => {
                opts.scale = value(&mut args, "--scale")?;
                if !(opts.scale.is_finite() && opts.scale > 0.0) {
                    let got = opts.scale;
                    return Err(UsageError(format!(
                        "--scale must be finite and > 0 (got `{got}`)"
                    )));
                }
            }
            "--seed" => opts.seed = value(&mut args, "--seed")?,
            "--seeds" => opts.seeds = value::<usize>(&mut args, "--seeds")?.max(1),
            "--jobs" => opts.jobs = value::<usize>(&mut args, "--jobs")?.max(1),
            "--sample" => {
                opts.sample = value(&mut args, "--sample")?;
                if opts.sample == 0 {
                    return Err(UsageError("--sample must be at least 1".to_owned()));
                }
            }
            "--trace-sample" => opts.trace_sample = value(&mut args, "--trace-sample")?,
            "--out" => {
                let path: PathBuf = value(&mut args, "--out")?;
                opts.out =
                    if path.extension().is_some() { Out::File(path) } else { Out::Dir(path) };
            }
            "--metrics" => opts.metrics = Some(value(&mut args, "--metrics")?),
            "--json" => opts.json = Some(value(&mut args, "--json")?),
            "--progress" => opts.progress = true,
            flag if flag.starts_with('-') => {
                return Err(UsageError(format!("unknown flag `{flag}`")))
            }
            word => words.push(word),
        }
    }
    opts.mode = mode(&words, dump_all, opts.json.is_some())?;
    Ok(opts)
}

/// The mode the positional words select.
fn mode(words: &[&str], dump_all: bool, has_json: bool) -> Result<Mode, UsageError> {
    let usage = |message: &str| Err(UsageError(message.to_owned()));
    if words.first() == Some(&"scenario") {
        return Ok(Mode::Inspect(match words.get(1).copied() {
            Some("show") => match words.get(2) {
                Some(name) => Inspect::Show((*name).to_owned()),
                None => return usage("scenario show needs a scenario NAME"),
            },
            Some("dump") if dump_all => Inspect::Dump,
            Some("dump") => {
                return usage("scenario dump needs --all (one scenario: `scenario show NAME`)")
            }
            Some("check") => Inspect::Check,
            _ => return usage("scenario needs show NAME, dump --all, or check [--json FILE]"),
        }));
    }
    let mut rows = BTreeSet::new();
    let mut list = false;
    for &word in words {
        let named = |i: &usize| TABLE[*i].names.contains(&word) || (word == "all" && TABLE[*i].all);
        let matched: Vec<usize> = (0..TABLE.len()).filter(named).collect();
        if matched.is_empty() && word != "list" {
            return Err(UsageError(format!("unknown subcommand `{word}`")));
        }
        list |= word == "list";
        rows.extend(matched);
    }
    if list {
        return Ok(Mode::List);
    }
    if words.is_empty() {
        rows.extend((0..TABLE.len()).filter(|&i| TABLE[i].all));
    }
    if !has_json && rows.iter().any(|&i| TABLE[i].names.contains(&"check-trace")) {
        return usage("check-trace needs --json FILE");
    }
    Ok(Mode::Run(rows))
}

/// The scenario registry and active scenario the invocation runs under:
/// the built-in presets, then every `--scenario-file` (later definitions
/// replace same-name earlier ones), then the `--scenario` selector with
/// the `--set` overrides and a cache `--policy`.
pub fn layer(opts: &Options) -> Result<(ScenarioRegistry, Scenario), UsageError> {
    let mut registry = ScenarioRegistry::builtin();
    for file in &opts.scenario_files {
        let text = std::fs::read_to_string(file).map_err(|e| {
            UsageError(format!("cannot read scenario file `{}`: {e}", file.display()))
        })?;
        registry
            .load_json(&text)
            .map_err(|e| UsageError(format!("in `{}`: {e}", file.display())))?;
    }
    let name = if opts.selector == "all" { "paper-default" } else { &opts.selector };
    let mut scenario = Scenario::from_spec(&layered(&registry, name, &opts.sets)?.without_axes())?;
    if let Some(policy) = opts.policy {
        scenario.cache.policy = policy;
    }
    Ok((registry, scenario))
}

/// The grid commands' scenarios: each one the selector names (every
/// registered scenario for `all`) with the `--set` overrides, expanded
/// over its `axes` grid (one cell when it declares none).
pub fn grid(registry: &ScenarioRegistry, opts: &Options) -> Result<Vec<Scenario>, UsageError> {
    let names = if opts.selector == "all" { registry.names() } else { vec![opts.selector.clone()] };
    let mut out = Vec::new();
    for name in &names {
        for cell in layered(registry, name, &opts.sets)?.expand_axes()? {
            out.push(Scenario::from_spec(&cell)?);
        }
    }
    Ok(out)
}

/// Scenario `name`'s spec with every `--set` override applied in order.
fn layered(
    registry: &ScenarioRegistry,
    name: &str,
    sets: &[(String, Json)],
) -> Result<ScenarioSpec, UsageError> {
    let mut spec = registry.spec(name).cloned().ok_or_else(|| {
        UsageError(ConfigError::unknown("--scenario", "scenario", name, registry.names()).message)
    })?;
    for (path, value) in sets {
        spec.set_path(path, value)?;
    }
    Ok(spec)
}

/// Print the commands (in the order they run), flags, scenario presets
/// and policies to `out`.
pub fn print_usage(out: &mut dyn Write, registry: &ScenarioRegistry) {
    let mut names: Vec<&str> = Vec::new();
    for name in TABLE.iter().flat_map(|row| row.names).chain(&["list", "all"]) {
        if !names.contains(name) {
            names.push(name);
        }
    }
    let _ = writeln!(out, "subcommands:");
    let _ = writeln!(out, "  {}", names.join(" "));
    let _ =
        writeln!(out, "  scenario show NAME | scenario dump --all | scenario check [--json FILE]");
    let _ = writeln!(
        out,
        "flags: --scenario NAME --scenario-file FILE --set dotted.path=value --policy NAME \
         --scale F --seed N --seeds N --jobs N --sample N \
         --trace-sample N --out DIR --metrics FILE --json FILE --progress"
    );
    let _ = writeln!(out, "scenarios (--scenario):");
    for s in registry.all() {
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
        RetryKind::ALL.map(|k| k.name()).join(" ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const FLAGS: &[&str] = &[
        "--scenario",
        "--scenario-file",
        "--set",
        "--all",
        "--policy",
        "--scale",
        "--seed",
        "--seeds",
        "--jobs",
        "--sample",
        "--trace-sample",
        "--out",
        "--metrics",
        "--json",
        "--progress",
    ];
    const WORDS: &[&str] = &[
        "scenario",
        "show",
        "dump",
        "check",
        "list",
        "all",
        "0",
        "-1",
        "NaN",
        "inf",
        "1e-9",
        "2",
        "lru",
        "expo",
        "x.json",
        "dir",
        "a=1",
        "=",
        "demand_factor=2",
        "-",
        "--",
        "ïñ",
        "",
    ];

    /// One argv token: a flag, a command, an inspector word, a number or
    /// junk.
    fn token() -> impl Strategy<Value = String> {
        let commands: Vec<&str> = TABLE.iter().flat_map(|row| row.names).copied().collect();
        prop_oneof![
            (0..FLAGS.len()).prop_map(|i| FLAGS[i].to_owned()),
            (0..commands.len()).prop_map(move |i| commands[i].to_owned()),
            (0..WORDS.len()).prop_map(|i| WORDS[i].to_owned()),
            "[a-z0-9.=]{0,6}",
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Any argv — a trailing value-less flag included — parses to
        /// options inside their documented bounds or to a usage error with
        /// a message; it never panics.
        #[test]
        fn parse_args_never_panics(
            argv in prop::collection::vec(token(), 0..8),
            trailing in prop::option::of(0..FLAGS.len()),
        ) {
            let mut argv = argv;
            argv.extend(trailing.map(|i| FLAGS[i].to_owned()));
            match parse_args(&argv) {
                Ok(opts) => {
                    prop_assert!(opts.scale.is_finite() && opts.scale > 0.0);
                    prop_assert!(opts.sample >= 1 && opts.seeds >= 1 && opts.jobs >= 1);
                    if let Mode::Run(rows) = &opts.mode {
                        prop_assert!(!rows.is_empty() && rows.iter().all(|&i| i < TABLE.len()));
                    }
                }
                Err(UsageError(message)) => prop_assert!(!message.is_empty()),
            }
        }
    }

    fn parse(argv: &[&str]) -> Result<Options, UsageError> {
        parse_args(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn out_resolves_its_dir_and_file_forms() {
        let opts = parse(&["--out", "d"]).unwrap();
        assert_eq!(opts.out_dir(), Some(Path::new("d")));
        assert_eq!(opts.out_file("trace.json"), Path::new("d/trace.json"));
        let opts = parse(&["--out", "d/t.json"]).unwrap();
        assert_eq!(opts.out_dir(), None);
        assert_eq!(opts.out_file("trace.json"), Path::new("d/t.json"));
        let opts = parse(&[]).unwrap();
        assert_eq!(opts.out_dir(), None);
        assert_eq!(opts.out_file("trace.json"), Path::new("trace.json"));
    }

    #[test]
    fn check_trace_needs_json_at_parse_time() {
        let err = parse(&["check-trace"]).err().expect("rejected");
        assert_eq!(err.0, "check-trace needs --json FILE");
        assert!(parse(&["check-trace", "--json", "t.json"]).is_ok());
    }
}
