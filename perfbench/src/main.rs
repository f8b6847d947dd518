//! Standalone benchmark for the odx week replay and the ODR `/decide`
//! service. It drives the program only through its public APIs.
//!
//! ```sh
//! perfbench --workload week-default --seed 1 --seconds 20 --trace 0 \
//!     --spans .bench_out/spans.jsonl
//! ```
//!
//! `run.py` next to this package builds it, runs it once per workload in a
//! fresh process and turns the last output line into the benchmark result.
//! With `--trace 0` the run measures the end-to-end metrics with every
//! observer off; with `--trace 1` it makes the separate traced run that
//! reports the per-layer metrics. See `README.md` for the metric map.

mod decide;
mod report;
mod spans;
mod week;

use std::path::PathBuf;
use std::time::Duration;

use report::Report;
use spans::Spans;

/// Command-line arguments.
pub struct Args {
    /// Workload name (see [`WORKLOADS`]).
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Where the in-memory spans are written when the run ends.
    pub spans: Option<PathBuf>,
}

/// The workloads this benchmark knows.
pub const WORKLOADS: [&str; 3] = ["week-default", "week-pressure-faults", "decide-service"];

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 [--spans FILE]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                let s: f64 = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(s > 0.0 && s.is_finite()) {
                    usage("--seconds must be positive");
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        spans,
    }
}

fn main() {
    let args = parse_args();
    let mut spans = Spans::new();
    let mut report = match args.workload.as_str() {
        "decide-service" => decide::run(&args, &mut spans),
        name => week::run(name, &args, &mut spans),
    };
    if let Some(path) = &args.spans {
        if let Err(e) = spans.write(path) {
            report.fail(format!("cannot write spans to {}: {e}", path.display()));
        }
    }
    report.finish(args.trace);
}

/// Peak resident set size of this process (MB), the `VmHWM` high-water
/// mark. Each workload runs in its own process, so this is the workload's.
pub fn peak_rss_mb(report: &mut Report) -> f64 {
    odx_bench::peak_rss_mb().unwrap_or_else(|| {
        report.fail("peak RSS is unavailable: /proc/self/status has no VmHWM".to_string());
        f64::NAN
    })
}
