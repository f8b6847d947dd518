//! Event-driven replay of the measurement week on the Xuanfeng model.
//!
//! Drives the full pipeline of Figure 1 for every request in a workload:
//! arrival → cache lookup → (pre-download | instant hit) → fetch admission →
//! fetch completion, producing the per-request pre-downloading and fetching
//! traces plus the 5-minute upload-burden series of Figure 11.

use odx_faults::{FaultDomain, FaultKind, FaultPlan, FaultWindow, RetryPolicy};
use odx_net::{Isp, HD_THRESHOLD_KBPS};
use odx_p2p::FailureCause;
use odx_sim::{Ctx, RngFactory, SimDuration, SimRng, SimTime, Simulation, World};
use odx_stats::dist::u01;
use odx_stats::{BinnedSeries, Ecdf};
use odx_telemetry::{
    Histogram, Lifecycle, LifecycleReport, Observers, Registry, SeriesRecorder, Stage, TaskEnd,
};
use odx_trace::{Catalog, PopularityClass, Population, Workload};

use odx_cache::CachePolicy;

use crate::ledger::{fetched_mb, FetchLedger, PredlGroup, PredownloadLedger};
use crate::{CloudConfig, CloudWeekBackend, ContentDb, PredownloadOutcome};

/// Aggregate counters of the replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Requests processed.
    pub requests: u64,
    /// Requests satisfied directly from the pool (or an in-flight
    /// pre-download another user started).
    pub cache_hits: u64,
    /// Requests whose pre-download failed.
    pub predownload_failures: u64,
    /// Failures by cause: [insufficient seeds, poor connection, system bug].
    pub failures_by_cause: [u64; 3],
    /// Fetch requests rejected by the upload pool.
    pub rejected_fetches: u64,
    /// Fetches completed (admitted and finished).
    pub completed_fetches: u64,
    /// Fetches below the 125 KBps HD threshold (including rejected).
    pub impeded_fetches: u64,
    /// Impeded fetches crossing the ISP barrier.
    pub impeded_barrier: u64,
    /// Impeded fetches whose user access link is below the threshold.
    pub impeded_low_access: u64,
    /// Impeded fetches degraded by transient dynamics.
    pub impeded_dynamics: u64,
    /// Cloud-side pre-download traffic (MB).
    pub predownload_traffic_mb: f64,
    /// Payload bytes pre-downloaded (MB).
    pub predownload_payload_mb: f64,
    /// Injected fault windows that opened during the replay.
    pub fault_windows: u64,
    /// Pre-downloads forced to stagnate by a cloud outage window.
    pub fault_forced_failures: u64,
    /// Pre-downloads slowed by a cloud brownout window.
    pub fault_slowed_predownloads: u64,
    /// Fetches degraded by a net fault window.
    pub fault_degraded_fetches: u64,
    /// Stagnated pre-downloads re-dispatched by the retry policy.
    pub retry_attempts: u64,
    /// Requests rescued by a retry (waiters of a task that succeeded
    /// after at least one re-dispatch).
    pub retry_rescued: u64,
    /// Tasks whose retry budget ran out (they failed their waiters).
    pub retry_exhausted: u64,
}

/// Everything the week replay produces.
#[derive(Debug)]
pub struct WeekReport {
    /// One record per request (cache hits included with zero delay).
    pub predownloads: PredownloadLedger,
    /// One record per attempted fetch (rejected ones have zero speed), plus
    /// the end-to-end view of tasks that completed both phases.
    pub fetches: FetchLedger,
    /// Cloud upload burden (KBps) in 5-minute bins — Fig 11's upper curve.
    pub burden_kbps: BinnedSeries,
    /// Burden attributable to highly popular files — Fig 11's lower curve.
    pub burden_hot_kbps: BinnedSeries,
    /// Aggregate counters.
    pub counters: Counters,
    /// Per-popularity failure ratio bins for Fig 10: `(popularity,
    /// failure_ratio)` per weekly-request-count bucket.
    pub failure_by_popularity: Vec<(f64, f64)>,
}

// The headline ratios behind both `WeekReport`'s and the registry's.
impl Counters {
    fn hit_ratio(&self) -> f64 {
        self.cache_hits as f64 / self.requests.max(1) as f64
    }

    fn failure_ratio(&self) -> f64 {
        self.predownload_failures as f64 / self.requests.max(1) as f64
    }

    fn rejection_ratio(&self) -> f64 {
        self.rejected_fetches as f64 / self.fetch_attempts()
    }

    fn impeded_ratio(&self) -> f64 {
        self.impeded_fetches as f64 / self.fetch_attempts()
    }

    /// Every fetch attempt is rejected or completes.
    fn fetch_attempts(&self) -> f64 {
        (self.rejected_fetches + self.completed_fetches).max(1) as f64
    }
}

impl WeekReport {
    /// Cache-hit ratio over all requests (§2.1: 89 %).
    pub fn hit_ratio(&self) -> f64 {
        self.counters.hit_ratio()
    }

    /// Per-request pre-download failure ratio (§4.1: 8.7 %).
    pub fn failure_ratio(&self) -> f64 {
        self.counters.failure_ratio()
    }

    /// Fraction of fetch attempts rejected (§4.2: 1.5 %).
    pub fn rejection_ratio(&self) -> f64 {
        self.counters.rejection_ratio()
    }

    /// Fraction of fetches below the HD threshold (§4.2: 28 %).
    pub fn impeded_ratio(&self) -> f64 {
        self.counters.impeded_ratio()
    }

    /// Pre-download speed ECDF over cache misses (failures contribute ~0),
    /// the Fig 8 upper curve.
    pub fn predownload_speed_ecdf(&self) -> Ecdf {
        Ecdf::new(self.predownloads.iter().filter(|r| !r.cache_hit).map(|r| r.avg_kbps).collect())
    }

    /// Pre-download delay ECDF over cache misses (minutes), Fig 9's lower
    /// curve.
    pub fn predownload_delay_ecdf(&self) -> Ecdf {
        Ecdf::new(
            self.predownloads
                .iter()
                .filter(|r| !r.cache_hit)
                .map(|r| r.delay().as_mins_f64())
                .collect(),
        )
    }

    /// Fetch speed ECDF including rejected fetches at 0 KBps, Fig 8's lower
    /// curve.
    pub fn fetch_speed_ecdf(&self) -> Ecdf {
        Ecdf::new(self.fetches.iter().map(|r| r.avg_kbps).collect())
    }

    /// Fetch delay ECDF (minutes) over completed fetches, Fig 9's upper
    /// curve.
    pub fn fetch_delay_ecdf(&self) -> Ecdf {
        Ecdf::new(
            self.fetches.iter().filter(|r| !r.rejected).map(|r| r.delay().as_mins_f64()).collect(),
        )
    }

    /// End-to-end speed ECDF (KBps).
    pub fn end_to_end_speed_ecdf(&self) -> Ecdf {
        Ecdf::new(self.fetches.end_to_end().map(|e| e.speed_kbps()).collect())
    }

    /// End-to-end delay ECDF (minutes).
    pub fn end_to_end_delay_ecdf(&self) -> Ecdf {
        Ecdf::new(self.fetches.end_to_end().map(|e| e.delay().as_mins_f64()).collect())
    }

    /// Heap bytes of the per-task ledger: every column of both traces.
    pub fn ledger_bytes(&self) -> usize {
        self.predownloads.heap_bytes() + self.fetches.heap_bytes()
    }

    /// Overall pre-download traffic divided by payload (§4.1: ≈ 196 % for
    /// the P2P-dominated mix).
    pub fn traffic_overhead_factor(&self) -> f64 {
        self.counters.predownload_traffic_mb / self.counters.predownload_payload_mb.max(1e-9)
    }

    /// Peak burden in Gbps (Fig 11: > 30 on day 7).
    pub fn peak_burden_gbps(&self) -> f64 {
        odx_net::kbps_to_gbps(self.burden_kbps.peak())
    }

    /// Mean fraction of the burden spent on highly popular files (§4.2:
    /// ≈ 40 %).
    pub fn hot_burden_fraction(&self) -> f64 {
        if self.burden_kbps.total_amount() <= 0.0 {
            return 0.0;
        }
        self.burden_hot_kbps.total_amount() / self.burden_kbps.total_amount()
    }
}

/// Event alphabet of the cloud replay (public because `World::Event`
/// appears in the trait implementation; construct via the replay API).
pub enum Ev {
    /// A request arrives (index into the workload).
    Arrive(u32),
    /// A pre-download finishes (success or give-up) for a file index.
    PredlDone {
        /// Catalog index.
        file: u32,
    },
    /// A user starts fetching (request index).
    FetchBegin {
        /// Workload request index.
        req: u32,
    },
    /// A fetch completes and its reservation is released.
    FetchEnd {
        /// Workload request index.
        req: u32,
        /// Pool that served the flow.
        server_isp: Isp,
        /// Bandwidth reserved in that pool (KBps).
        reserved_kbps: f64,
        /// User-visible fetch rate (KBps).
        rate_kbps: f64,
        /// When the fetch began.
        began: SimTime,
    },
    /// An injected fault window opens (scheduled up front from the
    /// compiled plan; purely observational — active-window queries go
    /// through the plan, so the handler only counts and the event's
    /// label stamps the window into the flight-recorder ring).
    FaultWindow {
        /// What the window injects (carries the `'static` label).
        kind: FaultKind,
    },
    /// A stagnated pre-download's backoff expires: re-dispatch it for
    /// the waiters still parked on the file.
    RetryPredl {
        /// Catalog index.
        file: u32,
    },
}

/// Sentinel terminating the per-file waiter lists in the task arena.
const NO_WAITER: u32 = u32::MAX;

/// The replay's one book: each fact an event handler learns, counted
/// once in a plain field. [`Counters`] and every name the replay writes
/// into the registry are functions of it, so the per-event cost is an
/// add: no atomic, no lock.
#[derive(Default)]
struct Tally {
    /// Arrivals served from the pool.
    pool_hits: u64,
    /// Arrivals that joined another user's in-flight pre-download.
    joined: u64,
    /// Arrivals that started a pre-download.
    initiated: u64,
    /// Joiners of pre-downloads that finally failed: [`Counters`] takes
    /// them back out of its hits, `cloud.cache.hit` keeps them.
    failed_joiners: u64,
    predownload_success: u64,
    /// Pre-download attempts that stagnated, retried or not.
    stagnations: u64,
    /// Failed requests by cause: [insufficient seeds, poor connection,
    /// system bug].
    failures_by_cause: [u64; 3],
    rejected: u64,
    completed: u64,
    impeded: u64,
    impeded_barrier: u64,
    impeded_low_access: u64,
    impeded_dynamics: u64,
    predownload_traffic_mb: f64,
    predownload_payload_mb: f64,
    fault_windows: u64,
    fault_forced: u64,
    fault_slowed: u64,
    fault_degraded: u64,
    retry_attempts: u64,
    retry_rescued: u64,
    retry_exhausted: u64,
    /// Admitted fetches per serving pool, in `Isp::major_index` order.
    admitted: [u64; 4],
    cross_isp: u64,
    /// Keys evicted by pre-download inserts, refused insertees included.
    evictions: u64,
    /// Bytes of completed fetches, each rounded to a whole byte.
    fetched_bytes: u64,
    // The two histograms hold only what the last drain has not taken.
    fetch_rate_kbps: Histogram,
    predownload_delay_ms: Histogram,
}

impl Tally {
    fn requests(&self) -> u64 {
        self.pool_hits + self.joined + self.initiated
    }

    fn counters(&self) -> Counters {
        Counters {
            requests: self.requests(),
            cache_hits: self.pool_hits + self.joined - self.failed_joiners,
            predownload_failures: self.failures_by_cause.iter().sum(),
            failures_by_cause: self.failures_by_cause,
            rejected_fetches: self.rejected,
            completed_fetches: self.completed,
            impeded_fetches: self.impeded,
            impeded_barrier: self.impeded_barrier,
            impeded_low_access: self.impeded_low_access,
            impeded_dynamics: self.impeded_dynamics,
            predownload_traffic_mb: self.predownload_traffic_mb,
            predownload_payload_mb: self.predownload_payload_mb,
            fault_windows: self.fault_windows,
            fault_forced_failures: self.fault_forced,
            fault_slowed_predownloads: self.fault_slowed,
            fault_degraded_fetches: self.fault_degraded,
            retry_attempts: self.retry_attempts,
            retry_rescued: self.retry_rescued,
            retry_exhausted: self.retry_exhausted,
        }
    }
}

/// Reads one count off the tally.
type Fact = fn(&Tally) -> u64;

/// Every registry counter the replay writes, with whether the series
/// recorder samples it and the tally fact it reads (`*` stands for the
/// cache policy's name). Several names restate others: the pool's own
/// hits are `cloud.cache.hit` less the dedup joins, and `backend.cloud.*`
/// restates the fetch outcomes.
const REGISTRY_COUNTERS: [(&str, bool, Fact); 31] = [
    ("cloud.requests", true, Tally::requests),
    ("cloud.cache.hit", true, |t| t.pool_hits + t.joined),
    ("cloud.cache.miss", true, |t| t.initiated),
    ("cloud.dedup.joined", true, |t| t.joined),
    ("cloud.predownload.success", true, |t| t.predownload_success),
    ("cloud.predownload.stagnation", true, |t| t.stagnations),
    ("cloud.predownload.fail.seeds", true, |t| t.failures_by_cause[0]),
    ("cloud.predownload.fail.connection", true, |t| t.failures_by_cause[1]),
    ("cloud.predownload.fail.bug", true, |t| t.failures_by_cause[2]),
    ("cloud.fetch.completed", true, |t| t.completed),
    ("cloud.fetch.impeded", true, |t| t.impeded),
    ("cloud.fault.window", true, |t| t.fault_windows),
    ("cloud.fault.predownload.forced", true, |t| t.fault_forced),
    ("cloud.fault.predownload.slowed", true, |t| t.fault_slowed),
    ("cloud.fault.fetch.degraded", true, |t| t.fault_degraded),
    ("cloud.retry.attempt", true, |t| t.retry_attempts),
    ("cloud.retry.rescued", true, |t| t.retry_rescued),
    ("cloud.retry.exhausted", true, |t| t.retry_exhausted),
    ("cloud.upload.admit.unicom", true, |t| t.admitted[0]),
    ("cloud.upload.admit.telecom", true, |t| t.admitted[1]),
    ("cloud.upload.admit.mobile", true, |t| t.admitted[2]),
    ("cloud.upload.admit.cernet", true, |t| t.admitted[3]),
    ("cloud.upload.cross_isp", false, |t| t.cross_isp),
    ("cloud.upload.reject", true, |t| t.rejected),
    ("backend.cloud.requests", false, |t| t.completed + t.rejected),
    ("backend.cloud.success", false, |t| t.completed),
    ("backend.cloud.failure", false, |t| t.rejected),
    ("backend.cloud.bytes", false, |t| t.fetched_bytes),
    ("cache.*.hit", false, |t| t.pool_hits),
    ("cache.*.miss", false, |t| t.joined + t.initiated),
    ("cache.*.eviction", false, |t| t.evictions),
];

/// Register the cloud replay's headline metrics on a series recorder:
/// engine throughput, the sampled `REGISTRY_COUNTERS` rows (among them
/// the per-ISP upload admissions, the paper's per-ISP weekly curves), the
/// headline ratio gauges, and the median fetch rate.
fn register_cloud_series(series: &SeriesRecorder, registry: &Registry) {
    let sampled = REGISTRY_COUNTERS.iter().filter(|(_, sampled, _)| *sampled);
    for name in std::iter::once("sim.events").chain(sampled.map(|(name, _, _)| *name)) {
        series.track_counter(name, registry.counter(name));
    }
    const GAUGES: [&str; 5] = [
        "sim.queue_depth",
        "cloud.hit_ratio",
        "cloud.failure_ratio",
        "cloud.rejection_ratio",
        "cloud.impeded_ratio",
    ];
    for name in GAUGES {
        series.track_gauge(name, registry.gauge(name));
    }
    series.track_quantile(
        "cloud.fetch.rate_kbps.p50",
        registry.histogram("cloud.fetch.rate_kbps"),
        0.5,
    );
}

/// The cloud world driven by the simulation engine.
pub struct XuanfengCloud<'a> {
    cfg: CloudConfig,
    catalog: &'a Catalog,
    population: &'a Population,
    workload: &'a Workload,
    db: ContentDb,
    pool: Box<dyn CachePolicy>,
    backend: CloudWeekBackend,
    rng_think: SimRng,
    // Compiled fault schedule plus the runtime streams it draws from.
    // Zero-intensity plans are empty and the streams stay untouched, so
    // a fault-free replay is byte-identical to one built before this
    // machinery existed.
    plan: FaultPlan,
    rng_faults: SimRng,
    rng_retry: SimRng,
    retry_policy: RetryPolicy,
    // Attempts burned so far on the file's in-flight pre-download;
    // reset on final success/failure. File-indexed like the arena.
    retry_attempts: Vec<u32>,
    // The task arena: a preallocated struct-of-arrays replacing the old
    // `FxHashMap<u32, Pending>` and its per-task waiter Vecs. File-indexed
    // (catalog size): the in-flight pre-download's outcome plus the
    // head/tail of that file's waiter list. Task-indexed (workload size):
    // the intrusive next pointer chaining waiters in arrival order. The
    // per-event path is two array reads — no hashing, no rehash stalls,
    // no waiter-Vec growth. Waiter arrival times are not stored: an
    // arrival fires at exactly `workload.requests()[req].at` (scheduled
    // from time zero, never clamped), so they are recovered from the
    // workload on completion.
    pending_outcome: Vec<Option<PredownloadOutcome>>,
    waiter_head: Vec<u32>,
    waiter_tail: Vec<u32>,
    next_waiter: Vec<u32>,
    predownloads: PredownloadLedger,
    fetches: FetchLedger,
    burden: BinnedSeries,
    burden_hot: BinnedSeries,
    tally: Tally,
    // What each `REGISTRY_COUNTERS` row last wrote into `registry`: a
    // drain adds only the growth since, as replays may share a registry.
    drained: [u64; REGISTRY_COUNTERS.len()],
    registry: Registry,
    // (failures, attempts) per popularity bucket for Fig 10.
    failure_bins: Vec<(u64, u64)>,
    // Precomputed Fig 10 bucket per file: every arrival and failure
    // bins by popularity, and reading a byte-sized bin from this dense
    // side table (≲1 MB, L2-resident) replaces a `FileMeta` fetch from
    // the much larger catalog — one fewer DRAM miss per event.
    fig10_bin: Vec<u16>,
    // Per-task lifecycle tracing; None keeps the hot path one branch.
    lifecycle: Option<Lifecycle>,
}

/// Static label for a pre-download failure cause (§5.2 taxonomy).
fn cause_label(cause: FailureCause) -> &'static str {
    match cause {
        FailureCause::InsufficientSeeds => "seeds",
        FailureCause::PoorConnection => "connection",
        FailureCause::SystemBug => "bug",
    }
}

const FIG10_BIN_WIDTH: f64 = 10.0;
const FIG10_BINS: usize = 21;

impl<'a> XuanfengCloud<'a> {
    /// Build the world around a generated workload, recording every
    /// metric into `registry`.
    pub fn new(
        cfg: CloudConfig,
        catalog: &'a Catalog,
        population: &'a Population,
        workload: &'a Workload,
        rngs: &RngFactory,
        registry: &Registry,
    ) -> Self {
        let mut db = ContentDb::new(catalog);
        // The scenario picks the replacement policy; LRU is the paper's
        // pool. Preallocate for the catalog so warming never regrows.
        // Warm-up evictions are setup, not part of the replayed week, so
        // the tally does not count them.
        let mut pool = cfg.cache.policy.build(cfg.scaled_cache_mb(), catalog.len());
        if cfg.cache_enabled {
            let mut warm_rng = rngs.stream("cloud-warm");
            for idx in db.warm(catalog, cfg.warm_cache_pivot, &mut warm_rng) {
                // Warm evictions only happen under pressure-scaled budgets,
                // but whenever they do the DB flag must follow the pool.
                for evicted in pool.insert(u64::from(idx), catalog.file(idx).size_mb, 0) {
                    db.state_mut(evicted as u32).cached = false;
                }
            }
        }
        let backend = CloudWeekBackend::new(&cfg, rngs);
        let horizon_secs = (odx_trace::WEEK + SimDuration::from_days(2)).as_secs_f64();
        let plan = FaultPlan::compile(&cfg.faults, &mut rngs.stream("faults"));
        XuanfengCloud {
            retry_policy: RetryPolicy::new(cfg.retry),
            cfg,
            catalog,
            population,
            workload,
            db,
            pool,
            backend,
            rng_think: rngs.stream("cloud-think"),
            plan,
            rng_faults: rngs.stream("faults-runtime"),
            rng_retry: rngs.stream("retry"),
            retry_attempts: vec![0; catalog.len()],
            pending_outcome: vec![None; catalog.len()],
            waiter_head: vec![NO_WAITER; catalog.len()],
            waiter_tail: vec![NO_WAITER; catalog.len()],
            next_waiter: vec![NO_WAITER; workload.len()],
            predownloads: PredownloadLedger::with_capacity(workload.len()),
            fetches: FetchLedger::new(population.users(), workload.len()),
            burden: BinnedSeries::new(horizon_secs, 300.0),
            burden_hot: BinnedSeries::new(horizon_secs, 300.0),
            tally: Tally::default(),
            drained: [0; REGISTRY_COUNTERS.len()],
            registry: registry.clone(),
            failure_bins: vec![(0, 0); FIG10_BINS],
            fig10_bin: catalog
                .files()
                .iter()
                .map(|f| {
                    ((f64::from(f.weekly_requests) / FIG10_BIN_WIDTH) as usize).min(FIG10_BINS - 1)
                        as u16
                })
                .collect(),
            lifecycle: None,
        }
    }

    fn trace_instant(&self, task: u32, stage: Stage, at: SimTime, detail: Option<&'static str>) {
        if let Some(lifecycle) = &self.lifecycle {
            lifecycle.tasks.instant(u64::from(task), stage, at.as_millis(), detail);
        }
    }

    fn trace_span(
        &self,
        task: u32,
        stage: Stage,
        start: SimTime,
        end: SimTime,
        detail: Option<&'static str>,
    ) {
        if let Some(lifecycle) = &self.lifecycle {
            lifecycle.tasks.span(
                u64::from(task),
                stage,
                start.as_millis(),
                end.as_millis(),
                detail,
            );
        }
    }

    /// Record a task's terminal outcome; anomalous terminals also dump
    /// the flight recorder's recent-event ring.
    fn trace_finish(&self, task: u32, end: TaskEnd, at: SimTime, anomaly: Option<&'static str>) {
        if let Some(lifecycle) = &self.lifecycle {
            lifecycle.tasks.finish(u64::from(task), end, at.as_millis());
            if let Some(kind) = anomaly {
                if lifecycle.tasks.sampled(u64::from(task)) {
                    lifecycle.flight.dump(u64::from(task), kind, at.as_millis());
                }
            }
        }
    }

    /// Run the full replay, recording metrics and sim spans into
    /// `registry`, with an explicit [`Observers`] bundle: any combination
    /// of lifecycle tracing, virtual-time series recording, and wall
    /// profiling. With a fresh registry per call, two same-seed replays
    /// produce byte-identical metric snapshots. The deterministic outputs
    /// (week report, metric snapshot, series, lifecycle) are
    /// byte-identical to an unobserved same-seed replay; only the wall
    /// section differs. Lifecycle tracing covers arrival, cache/dedup
    /// lookups, pre-downloading, queueing, upload admission, and the
    /// fetch, and anomalous terminals dump the flight recorder.
    #[allow(clippy::too_many_arguments)]
    pub fn replay_observed(
        catalog: &Catalog,
        population: &Population,
        workload: &Workload,
        cfg: CloudConfig,
        rngs: &RngFactory,
        registry: &Registry,
        observers: Observers<'_>,
    ) -> (WeekReport, Option<LifecycleReport>) {
        let mut world = XuanfengCloud::new(cfg, catalog, population, workload, rngs, registry);
        world.lifecycle = observers.trace.map(Lifecycle::new);
        let flight = world.lifecycle.as_ref().map(|lifecycle| lifecycle.flight.clone());
        // Snapshot the compiled fault windows before the world moves into
        // the simulation; they are scheduled up front, before any
        // follow-up, in domain-then-start order, so every window's
        // `(time, seq)` is a pure function of the plan. An empty plan
        // schedules nothing and leaves seq allocation untouched.
        let fault_windows: Vec<FaultWindow> = FaultDomain::ALL
            .iter()
            .flat_map(|domain| world.plan.windows(*domain))
            .copied()
            .collect();
        if let Some(series) = &observers.series {
            register_cloud_series(series, registry);
        }
        // Arrivals never enter the scheduler, which holds only fault
        // windows and in-flight follow-ups; the slab grows on demand if
        // those pile past this presize.
        let capacity = workload.len().min(2 * 65_536) + 16;
        let mut sim = Simulation::with_capacity(world, capacity);
        sim.attach_telemetry(registry.clone());
        if let Some(flight) = flight {
            sim.attach_flight_recorder(flight);
        }
        if let Some(series) = &observers.series {
            sim.attach_series(series.clone());
        }
        if observers.profile {
            sim.attach_profiler();
        }
        for window in &fault_windows {
            sim.schedule_at(
                SimTime::from_millis(window.start_ms),
                Ev::FaultWindow { kind: window.kind },
            );
        }
        // Arrivals win same-time ties against everything scheduled, exactly
        // as if each had been scheduled up front ahead of the fault windows.
        sim.run_merged(workload.requests(), |r| r.at, |i| Ev::Arrive(i as u32));
        let final_now_ms = sim.now().as_millis();
        let mut world = sim.into_world();
        world.drain();
        let lifecycle = world.lifecycle.take().map(|lifecycle| lifecycle.report());
        let report = world.into_report();
        // The final sample lands after the last drain, so
        // each series ends exactly at its end-of-run snapshot value.
        if let Some(series) = &observers.series {
            series.finish(final_now_ms);
        }
        (report, lifecycle)
    }

    fn into_report(mut self) -> WeekReport {
        let failure_by_popularity = self
            .failure_bins
            .iter()
            .enumerate()
            .filter(|(_, (_, attempts))| *attempts > 0)
            .map(|(i, (fails, attempts))| {
                ((i as f64 + 0.5) * FIG10_BIN_WIDTH, *fails as f64 / *attempts as f64)
            })
            .collect();
        self.predownloads.shrink_to_fit();
        self.fetches.shrink_to_fit();
        WeekReport {
            predownloads: self.predownloads,
            fetches: self.fetches,
            burden_kbps: self.burden,
            burden_hot_kbps: self.burden_hot,
            counters: self.tally.counters(),
            failure_by_popularity,
        }
    }

    /// Write everything the tally gained since the last drain into the
    /// registry: counters as deltas, histograms as merges, and the ratio
    /// and pool gauges as current values. Series grid points and the end
    /// of the run call it, so sampled metrics are current mid-run and
    /// the final sample equals the snapshot.
    fn drain(&mut self) {
        let registry = &self.registry;
        let policy = self.pool.kind().name();
        for ((name, _, fact), drained) in REGISTRY_COUNTERS.iter().zip(&mut self.drained) {
            let value = fact(&self.tally);
            registry.counter(&name.replace('*', policy)).add(value - *drained);
            *drained = value;
        }
        let rates = std::mem::take(&mut self.tally.fetch_rate_kbps);
        registry.histogram("cloud.fetch.rate_kbps").merge(&rates);
        registry.histogram("backend.cloud.speed_kbps").merge(&rates);
        registry
            .histogram("cloud.predownload.delay_ms")
            .merge(&std::mem::take(&mut self.tally.predownload_delay_ms));
        let counters = self.tally.counters();
        registry.gauge("cloud.hit_ratio").set(counters.hit_ratio());
        registry.gauge("cloud.failure_ratio").set(counters.failure_ratio());
        registry.gauge("cloud.rejection_ratio").set(counters.rejection_ratio());
        registry.gauge("cloud.impeded_ratio").set(counters.impeded_ratio());
        // The pool's hit ratio covers every replay on this registry.
        registry.gauge(&format!("cache.{policy}.bytes_mb")).set(self.pool.used_mb());
        let hits = registry.counter(&format!("cache.{policy}.hit")).get() as f64;
        let misses = registry.counter(&format!("cache.{policy}.miss")).get() as f64;
        let ratio = if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 };
        registry.gauge(&format!("cache.{policy}.hit_ratio")).set(ratio);
    }

    fn record_failure_stats(&mut self, file: u32, requests: u64, cause: FailureCause) {
        let slot = match cause {
            FailureCause::InsufficientSeeds => 0,
            FailureCause::PoorConnection => 1,
            FailureCause::SystemBug => 2,
        };
        self.tally.failures_by_cause[slot] += requests;
        // Everyone but the initiator joined.
        self.tally.failed_joiners += requests - 1;
        self.failure_bins[self.fig10_bin[file as usize] as usize].0 += requests;
    }

    fn note_request(&mut self, file: u32) {
        self.failure_bins[self.fig10_bin[file as usize] as usize].1 += 1;
    }

    fn think_after_hit(&mut self) -> SimDuration {
        // View-as-download users start fetching almost immediately.
        SimDuration::from_secs_f64(30.0 + 270.0 * u01(&mut self.rng_think))
    }

    fn think_after_predownload(&mut self) -> SimDuration {
        // The user gets a notification and comes back a while later.
        let mins = -(1.0 - u01(&mut self.rng_think)).ln() * 20.0;
        SimDuration::from_secs_f64((mins * 60.0).min(6.0 * 3600.0))
    }

    /// Dispatch a pre-download through the fault plan. The backend draw
    /// happens first either way, so the cloud-source stream order is
    /// identical with and without a plan; an active outage window then
    /// overrides the outcome with a forced stagnation, and a brownout
    /// window stretches a success by its severity.
    fn predownload_with_faults(&mut self, file_idx: u32, now: SimTime) -> PredownloadOutcome {
        let meta = *self.catalog.file(file_idx);
        let prior = self.db.state(file_idx).failed_attempts;
        let outcome = self.backend.predownload(&meta, prior);
        if self.plan.is_empty() {
            return outcome;
        }
        let Some(window) = self.plan.active(FaultDomain::Cloud, now.as_millis()) else {
            return outcome;
        };
        match window.kind {
            FaultKind::CloudOutage => {
                self.tally.fault_forced += 1;
                PredownloadOutcome::Failure {
                    cause: FailureCause::SystemBug,
                    duration: self.cfg.stagnation_timeout
                        + SimDuration::from_secs_f64(u01(&mut self.rng_faults) * 3600.0),
                    traffic_mb: meta.size_mb * u01(&mut self.rng_faults) * 0.15,
                }
            }
            FaultKind::CloudBrownout => match outcome {
                PredownloadOutcome::Success { rate_kbps, duration, traffic_mb } => {
                    self.tally.fault_slowed += 1;
                    PredownloadOutcome::Success {
                        rate_kbps: rate_kbps * window.severity,
                        duration: SimDuration::from_secs_f64(
                            duration.as_secs_f64() / window.severity,
                        ),
                        traffic_mb,
                    }
                }
                failure => failure,
            },
            _ => outcome,
        }
    }

    fn begin_fetch(&mut self, ctx: &mut Ctx<Ev>, req: u32) {
        let request = &self.workload.requests()[req as usize];
        let user = self.population.user(request.user);
        let file = self.catalog.file(request.file);
        let mut plan = self.backend.plan_fetch(user);

        let now = ctx.now();
        let Some(server_isp) = plan.admission.server_isp() else {
            // Rejected outright.
            self.tally.rejected += 1;
            self.tally.impeded += 1;
            self.trace_instant(req, Stage::Admission, now, Some("reject"));
            self.trace_finish(req, TaskEnd::Rejected, now, Some("rejection"));
            self.fetches.push(req, request.user, now, now, 0.0, 0.0);
            // Fig 11 includes the estimated burden of rejected fetches at
            // the population's average fetch speed (504 KBps).
            let est_secs = odx_net::transfer_secs(file.size_mb, 504.0);
            let hot = file.class() == PopularityClass::HighlyPopular;
            self.burden.add_rate_interval(now.as_secs_f64(), now.as_secs_f64() + est_secs, 504.0);
            if hot {
                self.burden_hot.add_rate_interval(
                    now.as_secs_f64(),
                    now.as_secs_f64() + est_secs,
                    504.0,
                );
            }
            return;
        };
        if let Some(i) = server_isp.major_index() {
            self.tally.admitted[i] += 1;
        }
        if plan.crossed_barrier {
            self.tally.cross_isp += 1;
        }
        if let Some(window) = self.plan.active(FaultDomain::Net, now.as_millis()) {
            // User-visible rate only: the ISP pool reservation keeps the
            // admission grant, so release stays consistent.
            plan.rate_kbps *= window.severity;
            self.tally.fault_degraded += 1;
        }

        let acquired_mb = file.size_mb * plan.fetched_fraction;
        let secs = odx_net::transfer_secs(acquired_mb, plan.rate_kbps);
        if plan.rate_kbps < HD_THRESHOLD_KBPS {
            self.tally.impeded += 1;
            if plan.crossed_barrier {
                self.tally.impeded_barrier += 1;
            } else if user.access_kbps < HD_THRESHOLD_KBPS {
                self.tally.impeded_low_access += 1;
            } else if plan.dynamics_degraded {
                self.tally.impeded_dynamics += 1;
            }
        }
        self.trace_instant(req, Stage::Admission, now, Some(server_isp.lowercase_name()));
        ctx.schedule_in(
            SimDuration::from_secs_f64(secs),
            Ev::FetchEnd {
                req,
                server_isp,
                reserved_kbps: plan.admission.rate_kbps(),
                rate_kbps: plan.rate_kbps,
                began: now,
            },
        );
    }
}

impl World for XuanfengCloud<'_> {
    type Event = Ev;

    fn event_label(&self, event: &Ev) -> &'static str {
        match event {
            Ev::Arrive(_) => "arrive",
            Ev::PredlDone { .. } => "predl_done",
            Ev::FetchBegin { .. } => "fetch_begin",
            Ev::FetchEnd { .. } => "fetch_end",
            Ev::FaultWindow { kind } => kind.label(),
            Ev::RetryPredl { .. } => "retry_predl",
        }
    }

    /// Make every sampled metric current at a series grid point, so
    /// mid-run samples show the ratios evolving.
    fn pre_sample(&mut self, _at_ms: u64) {
        self.drain();
    }

    fn handle(&mut self, ctx: &mut Ctx<Ev>, ev: Ev) {
        match ev {
            Ev::Arrive(req) => {
                let request = &self.workload.requests()[req as usize];
                let file_idx = request.file;
                self.note_request(file_idx);
                let now = ctx.now();
                self.trace_instant(req, Stage::Arrival, now, None);

                if self.pool.lookup(u64::from(file_idx), now.as_millis()).is_some() {
                    debug_assert!(self.db.state(file_idx).cached, "pool/DB flag drift");
                    self.tally.pool_hits += 1;
                    self.predownloads.push_hit(now);
                    let think = self.think_after_hit();
                    self.trace_instant(req, Stage::CacheLookup, now, Some("hit"));
                    self.trace_span(req, Stage::Queue, now, now + think, None);
                    ctx.schedule_in(think, Ev::FetchBegin { req });
                } else if self.waiter_head[file_idx as usize] != NO_WAITER {
                    // Another user's pre-download is already in flight; this
                    // request will be satisfied (or fail) with it. Append to
                    // the file's waiter list (arrival order preserved).
                    let tail = self.waiter_tail[file_idx as usize];
                    self.next_waiter[tail as usize] = req;
                    self.waiter_tail[file_idx as usize] = req;
                    self.tally.joined += 1;
                    self.trace_instant(req, Stage::CacheLookup, now, Some("miss"));
                    self.trace_instant(req, Stage::DedupLookup, now, Some("joined"));
                } else {
                    self.tally.initiated += 1;
                    self.trace_instant(req, Stage::CacheLookup, now, Some("miss"));
                    self.trace_instant(req, Stage::DedupLookup, now, Some("initiated"));
                    let outcome = self.predownload_with_faults(file_idx, now);
                    ctx.schedule_in(outcome.duration(), Ev::PredlDone { file: file_idx });
                    self.pending_outcome[file_idx as usize] = Some(outcome);
                    self.waiter_head[file_idx as usize] = req;
                    self.waiter_tail[file_idx as usize] = req;
                }
            }
            Ev::PredlDone { file } => {
                let outcome =
                    self.pending_outcome[file as usize].take().expect("pending entry exists");
                let meta = *self.catalog.file(file);
                let now = ctx.now();
                match outcome {
                    PredownloadOutcome::Success { rate_kbps, traffic_mb, .. } => {
                        let attempts = std::mem::take(&mut self.retry_attempts[file as usize]);
                        self.tally.predownload_success += 1;
                        if self.cfg.cache_enabled {
                            self.db.state_mut(file).cached = true;
                            // The eviction list may include `file` itself if
                            // the policy refused admission; the flag loop
                            // handles both cases uniformly.
                            let evicted =
                                self.pool.insert(u64::from(file), meta.size_mb, now.as_millis());
                            self.tally.evictions += evicted.len() as u64;
                            for key in evicted {
                                self.db.state_mut(key as u32).cached = false;
                            }
                        }
                        self.tally.predownload_traffic_mb += traffic_mb;
                        self.tally.predownload_payload_mb += meta.size_mb;
                        self.predownloads.push_group(PredlGroup::success(
                            now,
                            meta.size_mb,
                            rate_kbps,
                            traffic_mb,
                        ));
                        let mut cursor = self.waiter_head[file as usize];
                        let mut i = 0usize;
                        while cursor != NO_WAITER {
                            let req = cursor;
                            // Arrivals fire at exactly their workload time.
                            let arrived = self.workload.requests()[req as usize].at;
                            let peak_kbps = rate_kbps * self.backend.predl_peak_factor();
                            self.predownloads.push_waiter(arrived, i == 0, Some(peak_kbps));
                            let delay_ms = now.since(arrived).as_millis();
                            self.tally.predownload_delay_ms.record(delay_ms);
                            self.fetches.set_predownload_delay(req, delay_ms);
                            let think = self.think_after_predownload();
                            let detail = if i == 0 { "initiator" } else { "joined" };
                            self.trace_span(req, Stage::Predownload, arrived, now, Some(detail));
                            self.trace_span(req, Stage::Queue, now, now + think, None);
                            ctx.schedule_in(think, Ev::FetchBegin { req });
                            cursor = self.next_waiter[req as usize];
                            i += 1;
                        }
                        if attempts > 0 {
                            // Every waiter on a retried file would have been
                            // failed under `retry.policy=none`.
                            self.tally.retry_rescued += i as u64;
                        }
                    }
                    PredownloadOutcome::Failure { cause, traffic_mb, .. } => {
                        // Failed attempts are abandoned by the stagnation
                        // timeout rule, one firing per attempt. Each burns
                        // its wasted traffic and a content-DB failed attempt
                        // (so the shared retry decay applies to a
                        // re-dispatch).
                        self.tally.stagnations += 1;
                        self.db.state_mut(file).failed_attempts += 1;
                        self.tally.predownload_traffic_mb += traffic_mb;
                        // A granted backoff re-dispatches the pre-download
                        // instead of failing the waiters: no failure records
                        // are cut and the waiter list stays parked on the
                        // file.
                        let attempt = self.retry_attempts[file as usize];
                        if let Some(delay) =
                            self.retry_policy.backoff_delay(attempt, &mut self.rng_retry)
                        {
                            self.retry_attempts[file as usize] = attempt + 1;
                            self.tally.retry_attempts += 1;
                            ctx.schedule_in(delay, Ev::RetryPredl { file });
                            return;
                        }
                        if self.retry_policy.is_active() && attempt > 0 {
                            self.tally.retry_exhausted += 1;
                            self.retry_attempts[file as usize] = 0;
                        }
                        self.predownloads.push_group(PredlGroup::failure(now, traffic_mb, cause));
                        let mut cursor = self.waiter_head[file as usize];
                        let mut n = 0u64;
                        while cursor != NO_WAITER {
                            let req = cursor;
                            let arrived = self.workload.requests()[req as usize].at;
                            self.predownloads.push_waiter(arrived, n == 0, None);
                            self.trace_span(
                                req,
                                Stage::Predownload,
                                arrived,
                                now,
                                Some(cause_label(cause)),
                            );
                            self.trace_finish(req, TaskEnd::Stagnated, now, Some("stagnation"));
                            cursor = self.next_waiter[req as usize];
                            n += 1;
                        }
                        self.record_failure_stats(file, n, cause);
                    }
                }
                self.waiter_head[file as usize] = NO_WAITER;
                self.waiter_tail[file as usize] = NO_WAITER;
            }
            Ev::FetchBegin { req } => self.begin_fetch(ctx, req),
            Ev::FetchEnd { req, server_isp, reserved_kbps, rate_kbps, began } => {
                self.backend.release(server_isp, reserved_kbps);
                let now = ctx.now();
                let request = &self.workload.requests()[req as usize];
                let bytes = fetched_mb(rate_kbps, now.since(began)) * 1e6;
                self.tally.completed += 1;
                if bytes > 0.0 {
                    self.tally.fetched_bytes += bytes.round() as u64;
                }
                self.tally.fetch_rate_kbps.record_f64(rate_kbps);
                let peak_kbps = rate_kbps * self.backend.fetch_peak_factor();
                self.fetches.push(req, request.user, began, now, rate_kbps, peak_kbps);
                self.trace_span(req, Stage::Fetch, began, now, None);
                self.trace_finish(req, TaskEnd::Completed, now, None);
                let file = self.catalog.file(request.file);
                let hot = file.class() == PopularityClass::HighlyPopular;
                self.burden.add_rate_interval(
                    began.as_secs_f64(),
                    now.as_secs_f64(),
                    reserved_kbps,
                );
                if hot {
                    self.burden_hot.add_rate_interval(
                        began.as_secs_f64(),
                        now.as_secs_f64(),
                        reserved_kbps,
                    );
                }
            }
            Ev::FaultWindow { .. } => {
                // Observational only: active-window queries go through the
                // plan, so the handler just counts and the event's label
                // stamps the opening into the flight-recorder ring.
                self.tally.fault_windows += 1;
            }
            Ev::RetryPredl { file } => {
                let now = ctx.now();
                let outcome = self.predownload_with_faults(file, now);
                ctx.schedule_in(outcome.duration(), Ev::PredlDone { file });
                self.pending_outcome[file as usize] = Some(outcome);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odx_telemetry::TraceConfig;
    use odx_trace::{CatalogConfig, PopulationConfig, WorkloadConfig};
    use rand::SeedableRng;

    /// An unobserved replay into a fresh registry.
    fn replay(
        catalog: &Catalog,
        population: &Population,
        workload: &Workload,
        cfg: CloudConfig,
        rngs: &RngFactory,
    ) -> WeekReport {
        let registry = Registry::new();
        let observers = Observers::default();
        XuanfengCloud::replay_observed(
            catalog, population, workload, cfg, rngs, &registry, observers,
        )
        .0
    }

    /// A traced replay at `scale` into `registry`.
    fn replay_traced(
        scale: f64,
        seed: u64,
        registry: &Registry,
        trace: &TraceConfig,
    ) -> (WeekReport, LifecycleReport) {
        let rngs = RngFactory::new(seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let catalog = Catalog::generate(&CatalogConfig::scaled(scale), &mut rng);
        let population = Population::generate(&PopulationConfig::scaled(scale), &mut rng);
        let workload =
            Workload::generate(&catalog, &population, &WorkloadConfig::default(), &mut rng);
        let observers = Observers { trace: Some(trace), ..Observers::default() };
        let cfg = CloudConfig::at_scale(scale);
        let (report, lifecycle) = XuanfengCloud::replay_observed(
            &catalog,
            &population,
            &workload,
            cfg,
            &rngs,
            registry,
            observers,
        );
        (report, lifecycle.expect("tracing was requested"))
    }

    fn replay_at(scale: f64, seed: u64) -> WeekReport {
        replay_with(scale, seed, CloudConfig::at_scale(scale))
    }

    #[test]
    fn replay_accounts_for_every_request() {
        let report = replay_at(0.005, 110);
        assert_eq!(report.predownloads.len() as u64, report.counters.requests);
        assert!(report.counters.requests > 10_000);
        // Every successful task either fetched or was rejected.
        let successes = report.predownloads.iter().filter(|r| r.success).count();
        assert_eq!(successes, report.fetches.len());
    }

    #[test]
    fn cache_hit_ratio_near_paper() {
        let report = replay_at(0.005, 111);
        let hit = report.hit_ratio();
        assert!((hit - 0.89).abs() < 0.05, "hit ratio {hit}");
    }

    #[test]
    fn failure_ratios_near_paper() {
        let report = replay_at(0.005, 112);
        let failure = report.failure_ratio();
        assert!((failure - 0.087).abs() < 0.04, "failure ratio {failure}");
    }

    fn replay_with(scale: f64, seed: u64, cfg: CloudConfig) -> WeekReport {
        let rngs = RngFactory::new(seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let catalog = Catalog::generate(&CatalogConfig::scaled(scale), &mut rng);
        let population = Population::generate(&PopulationConfig::scaled(scale), &mut rng);
        let workload =
            Workload::generate(&catalog, &population, &WorkloadConfig::default(), &mut rng);
        replay(&catalog, &population, &workload, cfg, &rngs)
    }

    #[test]
    fn fault_injection_raises_failures_and_degrades_fetches() {
        let baseline = replay_with(0.005, 2015, CloudConfig::at_scale(0.005));
        let mut cfg = CloudConfig::at_scale(0.005);
        cfg.faults.intensity = 0.15;
        let faulted = replay_with(0.005, 2015, cfg);
        assert!(faulted.counters.fault_windows > 0, "windows should open");
        assert!(faulted.counters.fault_degraded_fetches > 0, "net windows should bite");
        assert!(
            faulted.counters.fault_forced_failures > 0
                || faulted.counters.fault_slowed_predownloads > 0,
            "cloud windows should bite"
        );
        assert!(
            faulted.failure_ratio() > baseline.failure_ratio(),
            "injection should raise failures: {} vs {}",
            faulted.failure_ratio(),
            baseline.failure_ratio()
        );
    }

    #[test]
    fn expo_backoff_rescues_tasks_under_the_same_fault_plan() {
        let mut cfg = CloudConfig::at_scale(0.005);
        cfg.faults.intensity = 0.15;
        let no_retry = replay_with(0.005, 2015, cfg);
        cfg.retry.kind = odx_faults::RetryKind::Expo;
        let expo = replay_with(0.005, 2015, cfg);
        assert!(expo.counters.retry_attempts > 0, "retries should fire");
        assert!(expo.counters.retry_rescued > 0, "some retries should succeed");
        assert!(
            expo.failure_ratio() < no_retry.failure_ratio(),
            "backoff should rescue tasks: {} vs {}",
            expo.failure_ratio(),
            no_retry.failure_ratio()
        );
        // The fault plan itself is retry-independent: same windows opened.
        assert_eq!(expo.counters.fault_windows, no_retry.counters.fault_windows);
    }

    #[test]
    fn zero_intensity_plan_is_byte_identical_to_the_default_replay() {
        let baseline = replay_with(0.005, 2015, CloudConfig::at_scale(0.005));
        // Any zero-intensity config — whatever the other knobs say — must
        // compile to an empty plan, consume no draws, schedule no events.
        let mut cfg = CloudConfig::at_scale(0.005);
        cfg.faults.window_s = 60.0;
        cfg.faults.net_slowdown = 0.9;
        cfg.retry.base_delay_s = 5.0;
        let quiet = replay_with(0.005, 2015, cfg);
        assert_eq!(format!("{baseline:?}"), format!("{quiet:?}"));
    }

    #[test]
    fn no_cache_ablation_roughly_doubles_failures() {
        let rngs = RngFactory::new(113);
        let mut rng = rand::rngs::StdRng::seed_from_u64(113);
        let catalog = Catalog::generate(&CatalogConfig::scaled(0.005), &mut rng);
        let population = Population::generate(&PopulationConfig::scaled(0.005), &mut rng);
        let workload =
            Workload::generate(&catalog, &population, &WorkloadConfig::default(), &mut rng);
        let mut cfg = CloudConfig::at_scale(0.005);
        let with_cache = replay(&catalog, &population, &workload, cfg, &rngs).failure_ratio();
        cfg.cache_enabled = false;
        let without_cache = replay(&catalog, &population, &workload, cfg, &rngs).failure_ratio();
        // §4.1: 8.7 % with the pool vs 16.4 % without.
        assert!(
            without_cache > with_cache * 1.4,
            "cache should mask failures: {with_cache} vs {without_cache}"
        );
        assert!((without_cache - 0.164).abs() < 0.05, "no-cache failure {without_cache}");
    }

    #[test]
    fn fetch_speeds_match_fig8_shape() {
        // Scale 0.005 suffers per-ISP pool granularity (tens of concurrent
        // flows per pool), so the bands here are wide; the integration tests
        // and the repro harness check the tight Fig 8 numbers at scale ≥ 0.05.
        let report = replay_at(0.005, 114);
        let s = report.fetch_speed_ecdf().summary().unwrap();
        assert!((s.median - 287.0).abs() / 287.0 < 0.45, "median {}", s.median);
        assert!((s.mean - 504.0).abs() / 504.0 < 0.35, "mean {}", s.mean);
        assert!(s.max <= 6250.0);
        let impeded = report.impeded_ratio();
        assert!((impeded - 0.28).abs() < 0.15, "impeded {impeded}");
    }

    #[test]
    fn predownload_speeds_match_fig8_shape() {
        let report = replay_at(0.005, 115);
        let s = report.predownload_speed_ecdf().summary().unwrap();
        assert!(s.median < 60.0, "median {}", s.median);
        assert!(s.mean > s.median, "heavy tail");
        assert!(s.max <= 2500.0);
    }

    #[test]
    fn traffic_overhead_near_196_percent() {
        let report = replay_at(0.005, 116);
        let factor = report.traffic_overhead_factor();
        assert!((factor - 1.96).abs() < 0.25, "overhead factor {factor}");
    }

    #[test]
    fn end_to_end_sits_between_phases() {
        let report = replay_at(0.005, 117);
        let pd = report.predownload_delay_ecdf().median().unwrap();
        let fetch = report.fetch_delay_ecdf().median().unwrap();
        let e2e = report.end_to_end_delay_ecdf().median().unwrap();
        assert!(fetch <= e2e + 1e-9, "fetch {fetch} <= e2e {e2e}");
        assert!(e2e <= pd, "e2e {e2e} <= pd {pd} (most requests are hits)");
    }

    #[test]
    fn failure_ratio_decreases_with_popularity() {
        let report = replay_at(0.005, 118);
        let bins = &report.failure_by_popularity;
        assert!(bins.len() >= 3);
        let first = bins.first().unwrap().1;
        let last = bins.last().unwrap().1;
        assert!(
            first > last + 0.05,
            "unpopular files should fail more: first bin {first}, last bin {last}"
        );
    }

    #[test]
    fn burden_peaks_late_in_week() {
        let report = replay_at(0.005, 119);
        let (peak_bin, peak) = report.burden_kbps.peak_bin();
        assert!(peak > 0.0);
        let peak_day = peak_bin as f64 * 300.0 / 86_400.0;
        assert!(peak_day > 3.5, "peak on day {peak_day:.1} should be late in the week");
        let hot_frac = report.hot_burden_fraction();
        assert!((hot_frac - 0.40).abs() < 0.12, "hot burden fraction {hot_frac}");
    }

    #[test]
    fn metrics_snapshot_is_byte_identical_across_same_seed_replays() {
        let run = || {
            let registry = Registry::new();
            let rngs = RngFactory::new(121);
            let mut rng = rand::rngs::StdRng::seed_from_u64(121);
            let catalog = Catalog::generate(&CatalogConfig::scaled(0.002), &mut rng);
            let population = Population::generate(&PopulationConfig::scaled(0.002), &mut rng);
            let workload =
                Workload::generate(&catalog, &population, &WorkloadConfig::default(), &mut rng);
            let (report, _) = XuanfengCloud::replay_observed(
                &catalog,
                &population,
                &workload,
                CloudConfig::at_scale(0.002),
                &rngs,
                &registry,
                Observers::default(),
            );
            (registry.snapshot(), report)
        };
        let (snap_a, report) = run();
        let (snap_b, _) = run();
        assert_eq!(snap_a.to_json(), snap_b.to_json());

        // The snapshot agrees with the report the harness prints.
        assert_eq!(snap_a.counters["cloud.requests"], report.counters.requests);
        assert_eq!(snap_a.counters["cloud.fetch.completed"], report.counters.completed_fetches);
        assert_eq!(snap_a.counters["cloud.upload.reject"], report.counters.rejected_fetches);
        assert!((snap_a.gauges["cloud.hit_ratio"] - report.hit_ratio()).abs() < 1e-12);
        assert!((snap_a.gauges["cloud.rejection_ratio"] - report.rejection_ratio()).abs() < 1e-12);
        // Per-ISP admissions plus rejections cover every fetch attempt.
        let admitted: u64 = Isp::MAJORS
            .iter()
            .map(|isp| snap_a.counters[&format!("cloud.upload.admit.{}", isp.lowercase_name())])
            .sum();
        assert_eq!(admitted + snap_a.counters["cloud.upload.reject"], report.fetches.len() as u64);
        // The sim hooks saw every scheduled event.
        assert!(snap_a.counters["sim.events"] >= report.counters.requests);
    }

    #[test]
    fn derived_metric_names_obey_their_identities_under_faults_and_retries() {
        let scale = 0.005;
        let mut cfg = CloudConfig::at_scale(scale);
        cfg.faults.intensity = 0.15;
        cfg.retry.kind = odx_faults::RetryKind::Expo;
        let registry = Registry::new();
        let rngs = RngFactory::new(2015);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2015);
        let catalog = Catalog::generate(&CatalogConfig::scaled(scale), &mut rng);
        let population = Population::generate(&PopulationConfig::scaled(scale), &mut rng);
        let workload =
            Workload::generate(&catalog, &population, &WorkloadConfig::default(), &mut rng);
        let (report, _) = XuanfengCloud::replay_observed(
            &catalog,
            &population,
            &workload,
            cfg,
            &rngs,
            &registry,
            Observers::default(),
        );
        let snap = registry.snapshot();
        let c = |name: &str| snap.counters[name];
        assert!(c("cloud.fault.window") > 0 && c("cloud.retry.attempt") > 0);

        // The pool's own counts: every dedup join missed the pool.
        let pool = format!("cache.{}", cfg.cache.policy.name());
        assert_eq!(c(&format!("{pool}.hit")), c("cloud.cache.hit") - c("cloud.dedup.joined"));
        assert_eq!(c(&format!("{pool}.miss")), c("cloud.cache.miss") + c("cloud.dedup.joined"));
        // The backend bundle restates the fetch outcomes.
        let (completed, rejected) = (c("cloud.fetch.completed"), c("cloud.upload.reject"));
        assert_eq!(c("backend.cloud.success"), completed);
        assert_eq!(c("backend.cloud.failure"), rejected);
        assert_eq!(c("backend.cloud.requests"), completed + rejected);
        assert_eq!(
            snap.histograms["backend.cloud.speed_kbps"],
            snap.histograms["cloud.fetch.rate_kbps"]
        );
        let bytes: u64 = report
            .fetches
            .iter()
            .filter(|f| !f.rejected)
            .map(|f| f.acquired_mb * 1e6)
            .filter(|b| *b > 0.0)
            .map(|b| b.round() as u64)
            .sum();
        assert_eq!(c("backend.cloud.bytes"), bytes);
        assert_eq!(rejected, report.counters.rejected_fetches);

        // The deliberate disagreement: the report takes back the joiners
        // of a failed pre-download, `cloud.cache.hit` keeps them. Every
        // failed group but its initiator is a joiner, and each group
        // ends in exactly one stagnation that was not retried.
        let failed_rows = report.predownloads.iter().filter(|r| !r.success).count() as u64;
        let failed_groups = c("cloud.predownload.stagnation") - c("cloud.retry.attempt");
        let failed_joiners = failed_rows - failed_groups;
        assert!(failed_joiners > 0);
        assert_eq!(c("cloud.cache.hit") - report.counters.cache_hits, failed_joiners);
    }

    #[test]
    fn lifecycle_spans_tile_completion_times_exactly() {
        let (report, lifecycle) = replay_traced(0.002, 122, &Registry::new(), &TraceConfig::full());
        assert_eq!(lifecycle.traces.traces.len(), report.counters.requests as usize);
        // Per task: the timed stages tile arrival → terminal exactly.
        let mut ended = 0u64;
        for trace in &lifecycle.traces.traces {
            let Some(completion) = trace.completion_ms() else { continue };
            ended += 1;
            let timed: u64 = [Stage::Predownload, Stage::Queue, Stage::Fetch]
                .into_iter()
                .map(|s| trace.stage_ms(s))
                .sum();
            assert_eq!(timed, completion, "task {} spans do not tile", trace.task);
        }
        assert!(ended > 0);
        // And therefore in aggregate: the attribution's stage total equals
        // its completion total (the waterfall sums to 100 %).
        let attribution = lifecycle.attribution();
        assert_eq!(attribution.total_stage_ms(), attribution.total_completion_ms);
        assert_eq!(attribution.tasks, ended);
        assert_eq!(
            attribution.ends[TaskEnd::Stagnated.index()],
            report.counters.predownload_failures
        );
        assert_eq!(attribution.ends[TaskEnd::Rejected.index()], report.counters.rejected_fetches);
        assert_eq!(attribution.ends[TaskEnd::Completed.index()], report.counters.completed_fetches);
        // Every anomalous terminal produced a flight dump (up to the cap).
        let anomalies = report.counters.predownload_failures + report.counters.rejected_fetches;
        assert_eq!(lifecycle.flight.dumps.len() as u64 + lifecycle.flight.dropped_dumps, anomalies);
        assert!(lifecycle.flight.dumps.iter().all(|d| !d.recent.is_empty()));
    }

    #[test]
    fn lifecycle_trace_is_deterministic_and_sampling_drops_whole_tasks() {
        let run =
            |sample| replay_traced(0.001, 123, &Registry::new(), &TraceConfig::sampled(sample)).1;
        let full_a = run(1);
        let full_b = run(1);
        assert_eq!(full_a.traces.to_chrome_json(), full_b.traces.to_chrome_json());
        assert_eq!(full_a.attribution(), full_b.attribution());
        assert_eq!(full_a.flight.to_json(), full_b.flight.to_json());
        // Sampling keeps every 7th task, each with its complete span set.
        let sampled = run(7);
        assert!(!sampled.traces.traces.is_empty());
        for trace in &sampled.traces.traces {
            assert_eq!(trace.task % 7, 0);
            let full = full_a.traces.get(trace.task).expect("task exists in the full trace");
            assert_eq!(trace, full, "sampling must never truncate a task's spans");
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let a = replay_at(0.002, 120);
        let b = replay_at(0.002, 120);
        assert_eq!(a.counters.requests, b.counters.requests);
        assert_eq!(a.counters.cache_hits, b.counters.cache_hits);
        assert_eq!(a.counters.rejected_fetches, b.counters.rejected_fetches);
        assert_eq!(a.fetches.len(), b.fetches.len());
        assert!(a.predownloads.iter().eq(b.predownloads.iter()), "pre-download records differ");
        assert!(a.fetches.iter().eq(b.fetches.iter()), "fetch records differ");
        assert!(a.fetches.end_to_end().eq(b.fetches.end_to_end()), "end-to-end views differ");
    }

    #[test]
    fn ledger_stays_under_64_bytes_per_request() {
        // The record vectors this ledger replaced cost ~139 B per request
        // at scale 1.0; a field that bloats it back should fail here.
        let report = replay_at(0.02, 2015);
        let per_request = report.ledger_bytes() as f64 / report.counters.requests as f64;
        assert!(per_request <= 64.0, "ledger costs {per_request:.1} B per request");
    }
}
