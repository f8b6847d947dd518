//! Per-task causal lifecycle tracing.
//!
//! Every task flowing through a proxy backend can carry a [`TaskTrace`]:
//! an ordered set of virtual-time spans covering the pipeline stages of
//! the paper's Figure 1 (arrival → dedup lookup → cache hit/miss →
//! pre-download → queueing → upload admission → fetch → terminal
//! outcome). Traces are recorded by a [`TaskTracer`] owned by the replay,
//! stamped exclusively with simulation time, and therefore byte-identical
//! across same-seed runs.
//!
//! Tracing is sampling-controlled: a tracer built with `sample_every = N`
//! records every N-th task and drops the others *whole* — a task is
//! either fully traced or absent, never partially recorded. The check is
//! a modulo on an immutable field, so unsampled tasks never touch the
//! mutex.
//!
//! The [`Attribution`] consumer decomposes each task's completion time
//! into per-stage contributions; the invariant is that the timed stages
//! (pre-download, queueing, fetch) exactly tile the interval from arrival
//! to the terminal event, so stage sums equal summed completion times.
//! Attributions merge losslessly, which is what lets per-shard sweeps
//! compose into one waterfall.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::flight::{FlightRecorder, FlightSnapshot};

/// A pipeline stage of one offline-downloading task.
///
/// Stages are ordered as the pipeline executes them; `Decision` is ODR's
/// routing point (absent from the plain cloud pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// The request arrives (instant).
    Arrival,
    /// ODR routes the request to a proxy (instant).
    Decision,
    /// The storage pool is consulted (instant; detail `hit` / `miss`).
    CacheLookup,
    /// The in-flight pre-download table is consulted (instant; detail
    /// `joined` / `initiated`).
    DedupLookup,
    /// Pre-downloading from the original source, including stagnation and
    /// retry time (timed).
    Predownload,
    /// Queueing between content readiness and the fetch start — user
    /// think/notification time in the cloud model (timed).
    Queue,
    /// Per-ISP upload-pool admission (instant; detail names the serving
    /// ISP, or `reject`).
    Admission,
    /// The user-facing fetch transfer (timed).
    Fetch,
}

impl Stage {
    /// Every stage in pipeline order.
    pub const ALL: [Stage; 8] = [
        Stage::Arrival,
        Stage::Decision,
        Stage::CacheLookup,
        Stage::DedupLookup,
        Stage::Predownload,
        Stage::Queue,
        Stage::Admission,
        Stage::Fetch,
    ];

    /// Stable lower-case label used by every exporter.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Arrival => "arrival",
            Stage::Decision => "decision",
            Stage::CacheLookup => "cache_lookup",
            Stage::DedupLookup => "dedup_lookup",
            Stage::Predownload => "predownload",
            Stage::Queue => "queue",
            Stage::Admission => "admission",
            Stage::Fetch => "fetch",
        }
    }

    /// Index into [`Stage::ALL`]-shaped arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// How a task's lifecycle ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskEnd {
    /// The fetch completed.
    Completed,
    /// The upload pool rejected the fetch.
    Rejected,
    /// The pre-download stagnated and was abandoned.
    Stagnated,
    /// The task failed for another reason (AP failure taxonomy, ODR
    /// misroute).
    Failed,
}

impl TaskEnd {
    /// Every terminal outcome.
    pub const ALL: [TaskEnd; 4] =
        [TaskEnd::Completed, TaskEnd::Rejected, TaskEnd::Stagnated, TaskEnd::Failed];

    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            TaskEnd::Completed => "completed",
            TaskEnd::Rejected => "rejected",
            TaskEnd::Stagnated => "stagnated",
            TaskEnd::Failed => "failed",
        }
    }

    /// Index into [`TaskEnd::ALL`]-shaped arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span of a task's lifecycle. Instant stages have
/// `start_ms == end_ms`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpan {
    /// The pipeline stage.
    pub stage: Stage,
    /// Span start (virtual milliseconds).
    pub start_ms: u64,
    /// Span end (virtual milliseconds; equals `start_ms` for instants).
    pub end_ms: u64,
    /// Optional static detail (`hit`, `joined`, an ISP name, …).
    pub detail: Option<&'static str>,
}

impl TaskSpan {
    /// The span's duration in milliseconds.
    pub fn duration_ms(&self) -> u64 {
        self.end_ms.saturating_sub(self.start_ms)
    }
}

/// The full recorded lifecycle of one task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskTrace {
    /// Task id (the replay's request index).
    pub task: u64,
    /// Recorded spans, sorted by `(start_ms, stage order)` at snapshot.
    pub spans: Vec<TaskSpan>,
    /// Terminal outcome and its virtual time, once the task ended.
    pub end: Option<(TaskEnd, u64)>,
}

impl TaskTrace {
    /// Virtual arrival time: the start of the first recorded span.
    pub fn arrival_ms(&self) -> Option<u64> {
        self.spans.first().map(|s| s.start_ms)
    }

    /// Completion time (arrival → terminal event), if the task ended.
    pub fn completion_ms(&self) -> Option<u64> {
        let (_, at) = self.end?;
        Some(at.saturating_sub(self.arrival_ms()?))
    }

    /// Total recorded milliseconds in `stage`.
    pub fn stage_ms(&self, stage: Stage) -> u64 {
        self.spans.iter().filter(|s| s.stage == stage).map(TaskSpan::duration_ms).sum()
    }
}

/// Sampling and bounds for lifecycle tracing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record every `sample_every`-th task (1 = every task). Clamped to
    /// ≥ 1 by the constructors.
    pub sample_every: u64,
    /// Flight-recorder ring size (recent sim events kept per backend).
    pub flight_capacity: usize,
    /// Maximum anomaly dumps retained before counting drops.
    pub max_dumps: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::full()
    }
}

impl TraceConfig {
    /// Trace every task.
    pub fn full() -> TraceConfig {
        TraceConfig::sampled(1)
    }

    /// Trace every `n`-th task (`--trace-sample 1/N`; `n` clamps to ≥ 1).
    pub fn sampled(n: u64) -> TraceConfig {
        TraceConfig { sample_every: n.max(1), flight_capacity: 64, max_dumps: 256 }
    }
}

struct TaskTracerState {
    traces: BTreeMap<u64, TaskTrace>,
}

/// Records [`TaskTrace`]s for the sampled subset of a replay's tasks.
pub struct TaskTracer {
    sample_every: u64,
    state: Mutex<TaskTracerState>,
}

impl TaskTracer {
    /// A tracer recording every `sample_every`-th task.
    pub fn new(sample_every: u64) -> TaskTracer {
        TaskTracer {
            sample_every: sample_every.max(1),
            state: Mutex::new(TaskTracerState { traces: BTreeMap::new() }),
        }
    }

    /// Whether `task` falls in the sample. Tasks outside the sample are
    /// dropped whole: every recording call no-ops for them.
    pub fn sampled(&self, task: u64) -> bool {
        task % self.sample_every == 0
    }

    fn with_trace(&self, task: u64, f: impl FnOnce(&mut TaskTrace)) {
        if !self.sampled(task) {
            return;
        }
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        f(state.traces.entry(task).or_insert_with(|| TaskTrace {
            task,
            spans: Vec::new(),
            end: None,
        }))
    }

    /// Record an instant stage at `at_ms`.
    pub fn instant(&self, task: u64, stage: Stage, at_ms: u64, detail: Option<&'static str>) {
        self.span(task, stage, at_ms, at_ms, detail);
    }

    /// Record a timed stage covering `start_ms..end_ms`.
    pub fn span(
        &self,
        task: u64,
        stage: Stage,
        start_ms: u64,
        end_ms: u64,
        detail: Option<&'static str>,
    ) {
        self.with_trace(task, |t| {
            t.spans.push(TaskSpan { stage, start_ms, end_ms, detail });
        });
    }

    /// Record the task's terminal outcome at `at_ms`.
    pub fn finish(&self, task: u64, end: TaskEnd, at_ms: u64) {
        self.with_trace(task, |t| t.end = Some((end, at_ms)));
    }

    /// Copy out every recorded trace, tasks ascending, spans ordered by
    /// `(start_ms, stage order)` — a deterministic export whatever the
    /// recording interleaving was.
    pub fn snapshot(&self) -> TaskTraceSet {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut traces: Vec<TaskTrace> = state.traces.values().cloned().collect();
        for trace in &mut traces {
            trace.spans.sort_by_key(|s| (s.start_ms, s.stage.index()));
        }
        TaskTraceSet { traces, sample_every: self.sample_every, scenario: String::new() }
    }
}

/// A deterministic point-in-time export of a [`TaskTracer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskTraceSet {
    /// Recorded traces, sorted by task id.
    pub traces: Vec<TaskTrace>,
    /// The sampling rate they were recorded under.
    pub sample_every: u64,
    /// The scenario name the traced run replayed, stamped by the replay
    /// layer into the Chrome-trace metadata header (empty until stamped).
    pub scenario: String,
}

impl TaskTraceSet {
    /// Stamp the run context (the scenario name) for the Chrome-trace
    /// `otherData` header.
    pub fn set_context(&mut self, scenario: &str) {
        self.scenario = scenario.to_string();
    }

    /// Decompose the recorded completion times into per-stage totals.
    pub fn attribution(&self) -> Attribution {
        let mut attribution = Attribution::default();
        for trace in &self.traces {
            attribution.add_trace(trace);
        }
        attribution
    }

    /// The trace for `task`, if recorded.
    pub fn get(&self, task: u64) -> Option<&TaskTrace> {
        self.traces.iter().find(|t| t.task == task)
    }
}

/// Per-stage aggregate of an [`Attribution`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageAgg {
    /// Tasks that recorded this stage at least once.
    pub tasks: u64,
    /// Total milliseconds spent in the stage across all tasks.
    pub total_ms: u64,
    /// The largest single-task total for the stage.
    pub max_ms: u64,
}

/// Latency attribution: each task's completion time decomposed into
/// per-stage contributions, aggregated over a trace set.
///
/// Invariant (asserted by the test suite): the timed stages tile each
/// task's lifetime exactly, so [`Attribution::total_stage_ms`] equals
/// [`Attribution::total_completion_ms`]. Attributions merge losslessly
/// across sweep shards via [`Attribution::merge`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Tasks aggregated (ended tasks only).
    pub tasks: u64,
    /// Per-stage aggregates, indexed like [`Stage::ALL`].
    pub stages: [StageAgg; Stage::ALL.len()],
    /// Terminal-outcome counts, indexed like [`TaskEnd::ALL`].
    pub ends: [u64; TaskEnd::ALL.len()],
    /// Summed completion times (arrival → terminal) in milliseconds.
    pub total_completion_ms: u64,
}

impl Attribution {
    fn add_trace(&mut self, trace: &TaskTrace) {
        let Some((end, _)) = trace.end else { return };
        self.tasks += 1;
        self.ends[end.index()] += 1;
        self.total_completion_ms += trace.completion_ms().unwrap_or(0);
        for stage in Stage::ALL {
            let ms = trace.stage_ms(stage);
            let touched = trace.spans.iter().any(|s| s.stage == stage);
            if touched {
                let agg = &mut self.stages[stage.index()];
                agg.tasks += 1;
                agg.total_ms += ms;
                agg.max_ms = agg.max_ms.max(ms);
            }
        }
    }

    /// Fold `other` into `self` (exact: counts and totals add, maxima
    /// take the max). Commutative and associative, so shard merge order
    /// cannot change the result.
    pub fn merge(&mut self, other: &Attribution) {
        self.tasks += other.tasks;
        self.total_completion_ms += other.total_completion_ms;
        for (mine, theirs) in self.ends.iter_mut().zip(other.ends) {
            *mine += theirs;
        }
        for (mine, theirs) in self.stages.iter_mut().zip(&other.stages) {
            mine.tasks += theirs.tasks;
            mine.total_ms += theirs.total_ms;
            mine.max_ms = mine.max_ms.max(theirs.max_ms);
        }
    }

    /// Total milliseconds across every timed stage — equals
    /// [`Attribution::total_completion_ms`] when the instrumentation
    /// tiles task lifetimes correctly.
    pub fn total_stage_ms(&self) -> u64 {
        self.stages.iter().map(|s| s.total_ms).sum()
    }

    /// The per-scenario latency waterfall as a fixed-width text table:
    /// one row per pipeline stage (tasks touched, total stage seconds,
    /// mean milliseconds, share of completion time, bar), then the
    /// terminal-outcome taxonomy.
    pub fn waterfall(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<14} {:>9} {:>12} {:>11} {:>7}  waterfall",
            "stage", "tasks", "total (s)", "mean (ms)", "share"
        );
        let denom = self.total_completion_ms.max(1) as f64;
        for stage in Stage::ALL {
            let agg = self.stages[stage.index()];
            if agg.tasks == 0 {
                continue;
            }
            let share = agg.total_ms as f64 / denom;
            let bar = "#".repeat((share * 40.0).round() as usize);
            let _ = writeln!(
                out,
                "  {:<14} {:>9} {:>12.1} {:>11.1} {:>6.1}%  {}",
                stage.label(),
                agg.tasks,
                agg.total_ms as f64 / 1000.0,
                agg.total_ms as f64 / agg.tasks.max(1) as f64,
                100.0 * share,
                bar
            );
        }
        let _ = writeln!(
            out,
            "  {:<14} {:>9} {:>12.1} {:>11.1} {:>6.1}%",
            "= completion",
            self.tasks,
            self.total_completion_ms as f64 / 1000.0,
            self.total_completion_ms as f64 / self.tasks.max(1) as f64,
            100.0
        );
        let _ = write!(out, "  outcomes:");
        for end in TaskEnd::ALL {
            let _ = write!(out, " {} {}", end.label(), self.ends[end.index()]);
        }
        out.push('\n');
        out
    }

    /// Deterministic compact-JSON export (stage order fixed, integers
    /// only), mergeable offline by summing fields.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"tasks\":{},\"total_completion_ms\":{},\"stages\":{{",
            self.tasks, self.total_completion_ms
        );
        let mut first = true;
        for stage in Stage::ALL {
            let agg = self.stages[stage.index()];
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\":{{\"tasks\":{},\"total_ms\":{},\"max_ms\":{}}}",
                stage.label(),
                agg.tasks,
                agg.total_ms,
                agg.max_ms
            );
        }
        out.push_str("},\"ends\":{");
        for (i, end) in TaskEnd::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", end.label(), self.ends[end.index()]);
        }
        out.push_str("}}");
        out
    }
}

/// The lifecycle-tracing bundle a traced replay owns: the per-task tracer
/// plus the backend's flight recorder.
pub struct Lifecycle {
    /// The per-task span recorder.
    pub tasks: TaskTracer,
    /// The bounded ring of recent sim events, dumped on anomalies.
    pub flight: FlightRecorder,
}

impl Lifecycle {
    /// Build the bundle from a [`TraceConfig`].
    pub fn new(cfg: &TraceConfig) -> Lifecycle {
        Lifecycle {
            tasks: TaskTracer::new(cfg.sample_every),
            flight: FlightRecorder::new(cfg.flight_capacity, cfg.max_dumps),
        }
    }

    /// Snapshot both halves into a deterministic report.
    pub fn report(&self) -> LifecycleReport {
        LifecycleReport { traces: self.tasks.snapshot(), flight: self.flight.snapshot() }
    }
}

/// Point-in-time export of a [`Lifecycle`]: the task traces plus the
/// flight-recorder state (anomaly dumps with their causal event history).
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleReport {
    /// The sampled task traces.
    pub traces: TaskTraceSet,
    /// The flight recorder's anomaly dumps.
    pub flight: FlightSnapshot,
}

impl LifecycleReport {
    /// Latency attribution over the recorded traces.
    pub fn attribution(&self) -> Attribution {
        self.traces.attribution()
    }

    /// Stamp the run context (the scenario name) into both exports'
    /// metadata headers: the Chrome trace's `otherData` and the flight
    /// dump's top-level fields. The replay layer calls this so dumps
    /// from different scenarios are distinguishable at a glance.
    pub fn set_context(&mut self, scenario: &str) {
        self.traces.set_context(scenario);
        self.flight.set_context(scenario);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_tracer() -> TaskTracer {
        let tracer = TaskTracer::new(1);
        // Task 0: hit → queue → fetch, completes at 1300.
        tracer.instant(0, Stage::Arrival, 100, None);
        tracer.instant(0, Stage::CacheLookup, 100, Some("hit"));
        tracer.span(0, Stage::Queue, 100, 400, None);
        tracer.instant(0, Stage::Admission, 400, Some("telecom"));
        tracer.span(0, Stage::Fetch, 400, 1300, None);
        tracer.finish(0, TaskEnd::Completed, 1300);
        // Task 1: miss → pre-download stagnates at 5000.
        tracer.instant(1, Stage::Arrival, 200, None);
        tracer.instant(1, Stage::CacheLookup, 200, Some("miss"));
        tracer.span(1, Stage::Predownload, 200, 5000, Some("seeds"));
        tracer.finish(1, TaskEnd::Stagnated, 5000);
        tracer
    }

    #[test]
    fn stage_sums_equal_completion_times() {
        let attribution = demo_tracer().snapshot().attribution();
        assert_eq!(attribution.tasks, 2);
        assert_eq!(attribution.total_stage_ms(), attribution.total_completion_ms);
        assert_eq!(attribution.total_completion_ms, 1200 + 4800);
        assert_eq!(attribution.ends[TaskEnd::Completed.index()], 1);
        assert_eq!(attribution.ends[TaskEnd::Stagnated.index()], 1);
    }

    #[test]
    fn sampling_drops_whole_tasks() {
        let tracer = TaskTracer::new(3);
        for task in 0..10u64 {
            tracer.instant(task, Stage::Arrival, task, None);
            tracer.span(task, Stage::Fetch, task, task + 5, None);
            tracer.finish(task, TaskEnd::Completed, task + 5);
        }
        let set = tracer.snapshot();
        let ids: Vec<u64> = set.traces.iter().map(|t| t.task).collect();
        assert_eq!(ids, vec![0, 3, 6, 9]);
        for trace in &set.traces {
            // Sampled tasks carry their complete span set and terminal.
            assert_eq!(trace.spans.len(), 2);
            assert!(trace.end.is_some());
        }
    }

    #[test]
    fn snapshot_orders_spans_by_start_then_stage() {
        let tracer = TaskTracer::new(1);
        tracer.span(7, Stage::Fetch, 50, 90, None);
        tracer.instant(7, Stage::Arrival, 10, None);
        tracer.instant(7, Stage::Admission, 50, None);
        let set = tracer.snapshot();
        let stages: Vec<Stage> = set.traces[0].spans.iter().map(|s| s.stage).collect();
        assert_eq!(stages, vec![Stage::Arrival, Stage::Admission, Stage::Fetch]);
    }

    #[test]
    fn merge_is_exact_and_commutative() {
        let whole = demo_tracer().snapshot().attribution();
        // Split the same recording into two single-task attributions.
        let set = demo_tracer().snapshot();
        let halves: Vec<Attribution> = set
            .traces
            .iter()
            .map(|t| {
                TaskTraceSet { traces: vec![t.clone()], sample_every: 1, scenario: String::new() }
                    .attribution()
            })
            .collect();
        let mut ab = halves[0].clone();
        ab.merge(&halves[1]);
        let mut ba = halves[1].clone();
        ba.merge(&halves[0]);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }

    #[test]
    fn waterfall_and_json_are_deterministic() {
        let a = demo_tracer().snapshot().attribution();
        let b = demo_tracer().snapshot().attribution();
        assert_eq!(a.waterfall(), b.waterfall());
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.waterfall().contains("predownload"));
        assert!(a.to_json().starts_with("{\"tasks\":2"));
        assert!(a.to_json().contains("\"stagnated\":1"));
    }
}
