//! The simulation driver: owns the clock, the event queue, and a user-defined
//! world, and dispatches events to the world, merged with an optional
//! time-sorted arrival stream, until both are spent.

use std::time::Instant;

use crate::event::EventId;
use crate::time::{SimDuration, SimTime};
use crate::wheel::TimingWheel;
use odx_telemetry::{Counter, FlightRecorder, Gauge, HandlerProfiler, Registry, SeriesRecorder};

/// Cached metric handles for an instrumented [`Simulation`].
struct SimTelemetry {
    registry: Registry,
    events: Counter,
    queue_depth: Gauge,
}

impl SimTelemetry {
    fn new(registry: Registry) -> SimTelemetry {
        SimTelemetry {
            events: registry.counter("sim.events"),
            queue_depth: registry.gauge("sim.queue_depth"),
            registry,
        }
    }
}

/// A simulated system. The world reacts to events and may schedule more via
/// the [`Ctx`] passed to [`World::handle`].
pub trait World {
    /// The event alphabet of this world.
    type Event;

    /// React to `event` firing at `ctx.now()`.
    fn handle(&mut self, ctx: &mut Ctx<Self::Event>, event: Self::Event);

    /// A static label describing `event`, recorded into an attached
    /// flight recorder before dispatch. Worlds that want meaningful
    /// flight dumps override this; the default keeps uninstrumented
    /// worlds zero-cost.
    fn event_label(&self, _event: &Self::Event) -> &'static str {
        "event"
    }

    /// Called by the engine at virtual time `at_ms` immediately before an
    /// attached [`SeriesRecorder`] takes a grid sample, and only then.
    /// Worlds that batch metric updates in plain local fields (as the
    /// cloud replay's tally does) override this to drain them into the
    /// registry so sampled counters are current mid-run. The default
    /// no-op keeps unsampled worlds zero-cost.
    fn pre_sample(&mut self, _at_ms: u64) {}
}

/// Scheduling context handed to event handlers: the current time plus the
/// ability to schedule and cancel future events.
pub struct Ctx<'a, E> {
    now: SimTime,
    queue: &'a mut TimingWheel<E>,
}

impl<E> Ctx<'_, E> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule an event `delay` from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventId {
        self.queue.schedule(self.now + delay, event)
    }

    /// Schedule an event at an absolute time. Times in the past are clamped
    /// to "now" (the event still fires, after currently pending events at
    /// `now`).
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        self.queue.schedule(at.max(self.now), event)
    }

    /// Cancel a pending event.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }
}

/// The accounting window behind `sim.queue_depth` in
/// [`Simulation::run_merged`]. Arrivals never enter the scheduler, but the
/// gauge still counts the ones an arrival-streaming loop would have
/// admitted: whole windows of this many sorted arrivals, each admitted
/// once its first arrival's time is at or before the head of the
/// future-event list. Keeping that rule keeps the depth series of every
/// replay where it was; nothing else depends on the window.
const DEPTH_WINDOW: usize = 65_536;

/// An attached series recorder plus its cached next-due time, so the hot
/// loop's due check is one comparison instead of a mutex round-trip.
struct SeriesState {
    recorder: SeriesRecorder,
    next_due_ms: u64,
}

/// The top-level driver combining a [`World`], a [`TimingWheel`] and a clock.
pub struct Simulation<W: World> {
    world: W,
    queue: TimingWheel<W::Event>,
    now: SimTime,
    processed: u64,
    /// Events already flushed into `sim.events` (batched-flush cursor).
    flushed: u64,
    telemetry: Option<SimTelemetry>,
    flight: Option<FlightRecorder>,
    series: Option<SeriesState>,
    prof: Option<HandlerProfiler>,
}

impl<W: World> Simulation<W> {
    /// Create a simulation at time zero with an empty agenda.
    pub fn new(world: W) -> Self {
        Self::with_capacity(world, 0)
    }

    /// Like [`Simulation::new`], but with the event payload slab
    /// preallocated for `capacity` concurrently pending events, so a
    /// replay that knows its peak agenda never reallocates it.
    pub fn with_capacity(world: W, capacity: usize) -> Self {
        Simulation {
            world,
            queue: TimingWheel::with_capacity(capacity),
            now: SimTime::ZERO,
            processed: 0,
            flushed: 0,
            telemetry: None,
            flight: None,
            series: None,
            prof: None,
        }
    }

    /// Attach a telemetry registry. Each processed event bumps the
    /// `sim.events` counter, the `sim.queue_depth` gauge tracks pending
    /// events, and every run records a `sim.run` span stamped with
    /// virtual time.
    pub fn attach_telemetry(&mut self, registry: Registry) {
        self.telemetry = Some(SimTelemetry::new(registry));
    }

    /// Attach a flight recorder. Each processed event is recorded as
    /// `(virtual ms, World::event_label)` before dispatch, so anomaly
    /// dumps carry the causal event history leading up to them. Costs
    /// nothing when not attached (the hot loop checks one `Option`).
    pub fn attach_flight_recorder(&mut self, flight: FlightRecorder) {
        self.flight = Some(flight);
    }

    /// Attach a virtual-time series recorder. Before dispatching an event
    /// at time `t`, the run loops take one sample per due grid point
    /// strictly before `t`: engine tallies flush, [`World::pre_sample`]
    /// drains world-local batches, then the recorder reads every tracked
    /// metric. Sample values therefore depend only on the deterministic
    /// event order — never on wall time or worker count.
    /// The caller still owns `finish`: call
    /// [`SeriesRecorder::finish`] at the end-of-run clock after final
    /// flushes so the last sample equals the end-of-run snapshot.
    pub fn attach_series(&mut self, recorder: SeriesRecorder) {
        let next_due_ms = recorder.next_due_ms();
        self.series = Some(SeriesState { recorder, next_due_ms });
    }

    /// Attach an in-process wall profiler: every pop and handler dispatch
    /// is timed with `Instant` into per-event-kind buckets (plain local
    /// adds, flushed to the registry's wall section once per run). The
    /// disabled path costs one `Option` check per event.
    pub fn attach_profiler(&mut self) {
        self.prof = Some(HandlerProfiler::new());
    }

    /// The attached profiler's buckets, if profiling is on.
    pub fn profiler(&self) -> Option<&HandlerProfiler> {
        self.prof.as_ref()
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Immutable access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Consume the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedule an event at an absolute time (setup entry point).
    pub fn schedule_at(&mut self, at: SimTime, event: W::Event) -> EventId {
        self.queue.schedule(at.max(self.now), event)
    }

    /// Schedule an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: W::Event) -> EventId {
        self.queue.schedule(self.now + delay, event)
    }

    /// Fire `event` at `time`: advance the clock, record the event in an
    /// attached flight recorder, run its handler. `pop_start` is set iff
    /// the profiler is on and marks when choosing this event began; the
    /// choice and the handler are then timed (three `Instant::now` reads
    /// per event; buckets are plain local adds, flushed per run).
    fn dispatch(&mut self, time: SimTime, event: W::Event, pop_start: Option<Instant>) {
        debug_assert!(time >= self.now, "event queue must be monotone");
        self.now = time;
        let Some(pop_start) = pop_start else {
            if let Some(flight) = &self.flight {
                flight.record(time.as_millis(), self.world.event_label(&event));
            }
            let mut ctx = Ctx { now: time, queue: &mut self.queue };
            self.world.handle(&mut ctx, event);
            self.processed += 1;
            return;
        };
        let after_pop = Instant::now();
        let label = self.world.event_label(&event);
        if let Some(flight) = &self.flight {
            flight.record(time.as_millis(), label);
        }
        let mut ctx = Ctx { now: time, queue: &mut self.queue };
        self.world.handle(&mut ctx, event);
        self.processed += 1;
        let after_handle = Instant::now();
        let prof = self.prof.as_mut().expect("a pop start implies a profiler");
        prof.note_pop((after_pop - pop_start).as_secs_f64());
        prof.note_handler(label, (after_handle - after_pop).as_secs_f64());
    }

    /// Take one series sample per due grid point strictly before
    /// `next_ms` (the next event's virtual time): flush the engine's
    /// batched tallies, let the world drain its own
    /// ([`World::pre_sample`]), then read every tracked metric.
    /// `sim.queue_depth` reads the scheduler's live events plus
    /// `admitted_arrivals` (see [`DEPTH_WINDOW`]).
    fn sample_due_before(&mut self, next_ms: u64, admitted_arrivals: usize) {
        loop {
            let due = match &self.series {
                Some(series) if series.next_due_ms < next_ms => series.next_due_ms,
                _ => return,
            };
            if let Some(telemetry) = &self.telemetry {
                if self.processed > self.flushed {
                    telemetry.events.add(self.processed - self.flushed);
                }
                telemetry.queue_depth.set((self.queue.len() + admitted_arrivals) as f64);
                self.flushed = self.processed;
            }
            self.world.pre_sample(due);
            let series = self.series.as_mut().expect("series checked above");
            series.next_due_ms = series.recorder.sample_due();
        }
    }

    /// Batch-apply the telemetry updates of the events fired since the
    /// last flush: the run loop writes `sim.events` and `sim.queue_depth`
    /// once at its end, not per event, which leaves the same snapshot
    /// (only the final counter total and the last gauge write are
    /// observable after a run). No-op when nothing fired, so an idle run
    /// leaves the gauge untouched.
    fn flush_run_telemetry(&mut self) {
        if self.processed > self.flushed {
            if let Some(telemetry) = &self.telemetry {
                telemetry.events.add(self.processed - self.flushed);
                telemetry.queue_depth.set(self.queue.len() as f64);
            }
            self.flushed = self.processed;
        }
        if let (Some(prof), Some(telemetry)) = (&self.prof, &self.telemetry) {
            prof.flush_walls(&telemetry.registry);
        }
    }

    /// Run until no events remain. Returns the number of events processed.
    pub fn run_to_completion(&mut self) -> u64 {
        self.run_merged::<()>(&[], |_| SimTime::ZERO, |_| unreachable!("no arrivals"))
    }

    /// Run to completion, dispatching the time-sorted `arrivals` alongside
    /// the scheduler: arrival `i` fires as `arrive(i)` at `at(&arrivals[i])`
    /// without ever entering the future-event list. Each step fires the
    /// next arrival if its time is at or before the scheduler's head and
    /// pops the scheduler otherwise, so arrivals win same-time ties in
    /// index order — the `(time, seq)` order of scheduling every arrival
    /// up front before anything else. Records one `sim.run` span from the
    /// clock at entry to the clock at exit. Series samples of
    /// `sim.queue_depth` count the scheduler's live events plus the
    /// arrivals a loop streaming them into the scheduler would hold:
    /// windows of 65,536 sorted arrivals, each admitted once its first
    /// time is at or before the head.
    ///
    /// # Panics
    ///
    /// If an arrival is earlier than the event fired before it (the
    /// stream is not sorted by time, or starts behind the clock); the
    /// message names the arrival's index.
    pub fn run_merged<A>(
        &mut self,
        arrivals: &[A],
        at: impl Fn(&A) -> SimTime,
        arrive: impl Fn(usize) -> W::Event,
    ) -> u64 {
        self.run_merged_windowed(arrivals, at, arrive, DEPTH_WINDOW)
    }

    /// [`run_merged`] with an explicit depth-accounting window.
    ///
    /// [`run_merged`]: Simulation::run_merged
    fn run_merged_windowed<A>(
        &mut self,
        arrivals: &[A],
        at: impl Fn(&A) -> SimTime,
        arrive: impl Fn(usize) -> W::Event,
        window: usize,
    ) -> u64 {
        let before = self.processed;
        let run_start = self.prof.as_ref().map(|_| Instant::now());
        let span = self
            .telemetry
            .as_ref()
            .map(|t| t.registry.tracer().open("sim.run", self.now.as_millis()));
        let mut next = 0;
        loop {
            let mut pop_start = self.prof.as_ref().map(|_| Instant::now());
            let arrival_at = arrivals.get(next).map(&at);
            let (time, is_arrival) = match (arrival_at, self.queue.peek_time()) {
                (Some(a), Some(head)) if a > head => (head, false),
                (Some(a), _) => (a, true),
                (None, Some(head)) => (head, false),
                (None, None) => break,
            };
            assert!(
                !is_arrival || time >= self.now,
                "arrival {next} at {} ms precedes the previous event at {} ms: \
                 arrivals must be sorted by time",
                time.as_millis(),
                self.now.as_millis()
            );
            if self.series.as_ref().is_some_and(|s| s.next_due_ms < time.as_millis()) {
                let admitted = admitted_arrivals(arrivals, &at, next, time, window);
                self.sample_due_before(time.as_millis(), admitted);
                // Sampling is not part of the choice: restart its timer.
                pop_start = pop_start.map(|_| Instant::now());
            }
            let event = if is_arrival {
                next += 1;
                arrive(next - 1)
            } else {
                self.queue.pop().expect("the peeked head is live").1
            };
            self.dispatch(time, event, pop_start);
        }
        if let (Some(start), Some(prof)) = (run_start, &mut self.prof) {
            prof.note_run(start.elapsed().as_secs_f64());
        }
        self.flush_run_telemetry();
        if let (Some(telemetry), Some(span)) = (&self.telemetry, span) {
            telemetry.registry.tracer().close("sim.run", span, self.now.as_millis());
        }
        self.processed - before
    }
}

/// How many of `arrivals[next..]` an arrival-streaming loop would hold in
/// its future-event list just before the event at `head` fires, admitting
/// whole `window`s once their first arrival's time is at or before the
/// head. The window holding `next` is in unless `next` starts it; later
/// windows follow while their first time is `<= head`. Heads never
/// decrease, so a window admitted earlier still passes this test: the
/// count is a pure function of `next` and `head`.
fn admitted_arrivals<A>(
    arrivals: &[A],
    at: impl Fn(&A) -> SimTime,
    next: usize,
    head: SimTime,
    window: usize,
) -> usize {
    let mut end = next.next_multiple_of(window);
    while end < arrivals.len() && at(&arrivals[end]) <= head {
        end += window;
    }
    end.min(arrivals.len()) - next
}

#[cfg(test)]
mod tests {
    use super::*;
    use odx_telemetry::MetricSeries;

    /// A handler log: `(virtual ms, event name)` per fired event.
    type Log = Vec<(u64, &'static str)>;

    #[derive(Default)]
    struct Recorder {
        log: Log,
    }

    #[derive(Debug, Clone, Copy)]
    enum Ev {
        Mark(&'static str),
        /// Logs, then re-fires 10 ms later until `more` runs out.
        Chain(&'static str, u64),
        /// Logs, then schedules `n` marks at its own millisecond.
        Fan(&'static str, u64),
    }

    impl Ev {
        fn name(self) -> &'static str {
            match self {
                Ev::Mark(name) | Ev::Chain(name, _) | Ev::Fan(name, _) => name,
            }
        }

        /// What handling `self` schedules, as `(delay ms, event)`.
        fn follow_ups(self) -> Vec<(u64, Ev)> {
            match self {
                Ev::Chain(name, more) if more > 0 => vec![(10, Ev::Chain(name, more - 1))],
                Ev::Fan(name, n) => (0..n).map(|_| (0, Ev::Mark(name))).collect(),
                _ => Vec::new(),
            }
        }
    }

    impl World for Recorder {
        type Event = Ev;
        fn handle(&mut self, ctx: &mut Ctx<Ev>, ev: Ev) {
            self.log.push((ctx.now().as_millis(), ev.name()));
            for (delay, follow_up) in ev.follow_ups() {
                ctx.schedule_in(SimDuration::from_millis(delay), follow_up);
            }
        }
    }

    #[test]
    fn events_fire_in_order_and_advance_clock() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule_at(SimTime::from_millis(20), Ev::Mark("b"));
        sim.schedule_at(SimTime::from_millis(10), Ev::Mark("a"));
        let n = sim.run_to_completion();
        assert_eq!(n, 2);
        assert_eq!(sim.world().log, vec![(10, "a"), (20, "b")]);
        assert_eq!(sim.now(), SimTime::from_millis(20));
    }

    #[test]
    fn handlers_can_schedule_follow_ups() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule_at(SimTime::ZERO, Ev::Chain("x", 3));
        sim.run_to_completion();
        assert_eq!(sim.world().log.len(), 4);
        assert_eq!(sim.world().log.last(), Some(&(30, "x")));
    }

    #[test]
    fn schedule_in_past_clamps_to_now() {
        let mut sim = Simulation::new(Recorder::default());
        sim.schedule_at(SimTime::from_millis(50), Ev::Mark("first"));
        sim.run_to_completion();
        sim.schedule_at(SimTime::from_millis(1), Ev::Mark("late"));
        sim.run_to_completion();
        assert_eq!(sim.world().log, vec![(50, "first"), (50, "late")]);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = Simulation::new(Recorder::default());
            for i in 0..50 {
                sim.schedule_at(SimTime::from_millis(i % 7), Ev::Chain("c", i % 3));
            }
            sim.run_to_completion();
            sim.into_world().log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn flight_recorder_sees_every_event_with_labels() {
        struct Labeled(Recorder);
        impl World for Labeled {
            type Event = Ev;
            fn handle(&mut self, ctx: &mut Ctx<Ev>, ev: Ev) {
                self.0.handle(ctx, ev)
            }
            fn event_label(&self, event: &Ev) -> &'static str {
                match event {
                    Ev::Mark(_) => "mark",
                    Ev::Chain(..) | Ev::Fan(..) => "chain",
                }
            }
        }
        let flight = FlightRecorder::new(8, 4);
        let mut sim = Simulation::new(Labeled(Recorder::default()));
        sim.attach_flight_recorder(flight.clone());
        sim.schedule_at(SimTime::from_millis(10), Ev::Mark("a"));
        sim.schedule_at(SimTime::from_millis(20), Ev::Chain("c", 1));
        sim.run_to_completion();
        flight.dump(0, "failure", sim.now().as_millis());
        let snap = flight.snapshot();
        assert_eq!(snap.recorded, 3);
        let labels: Vec<&str> = snap.dumps[0].recent.iter().map(|e| e.label).collect();
        assert_eq!(labels, vec!["mark", "chain", "chain"]);
    }

    /// Everything a run exposes: handler log, clock, `sim.events`, the
    /// trace (the `sim.run` span), and the series, which tracks
    /// `sim.events` and `sim.queue_depth` every 7 ms.
    #[derive(Debug, PartialEq)]
    struct Observed {
        log: Log,
        now: SimTime,
        processed: u64,
        events: u64,
        trace: Vec<odx_telemetry::SpanEvent>,
        series: odx_telemetry::SeriesSnapshot,
    }

    const GRID_MS: u64 = 7;

    /// Run `setup` plus `arrivals` and observe it: with
    /// `window: None`, every arrival is scheduled up front ahead of the
    /// setup events; otherwise `run_merged` streams them with that depth
    /// window.
    fn observe(setup: &[(u64, Ev)], arrivals: &[(u64, Ev)], window: Option<usize>) -> Observed {
        let registry = odx_telemetry::Registry::new();
        let series = odx_telemetry::SeriesRecorder::new(GRID_MS);
        series.track_counter("sim.events", registry.counter("sim.events"));
        series.track_gauge("sim.queue_depth", registry.gauge("sim.queue_depth"));
        let mut sim = Simulation::with_capacity(Recorder::default(), 8);
        sim.attach_telemetry(registry.clone());
        sim.attach_series(series.clone());
        if window.is_none() {
            for &(at, ev) in arrivals {
                sim.schedule_at(SimTime::from_millis(at), ev);
            }
        }
        for &(at, ev) in setup {
            sim.schedule_at(SimTime::from_millis(at), ev);
        }
        let n = match window {
            None => sim.run_to_completion(),
            Some(window) => sim.run_merged_windowed(
                arrivals,
                |a| SimTime::from_millis(a.0),
                |i| arrivals[i].1,
                window,
            ),
        };
        assert_eq!(n, sim.processed());
        series.finish(sim.now().as_millis());
        let snap = registry.snapshot();
        Observed {
            now: sim.now(),
            processed: sim.processed(),
            events: snap.counters["sim.events"],
            trace: snap.trace.events,
            series: series.snapshot(),
            log: sim.into_world().log,
        }
    }

    /// The arrival-streaming loop `run_merged` replaced, written out on a
    /// plain `(time, seq)` heap: arrivals hold seqs `0..N` and enter a
    /// `window` at a time once the window's first time is at or before
    /// the heap's head (or the heap is empty); everything else draws seqs
    /// from `N` up. Returns the handler log and the heap size at every
    /// `GRID_MS` grid point sampled before an event.
    fn streamed_model(
        setup: &[(u64, Ev)],
        arrivals: &[(u64, Ev)],
        window: usize,
    ) -> (Log, Vec<(u64, usize)>) {
        use std::cmp::Reverse;
        let mut events: Vec<Ev> = Vec::new();
        let mut heap = std::collections::BinaryHeap::new();
        let mut next_seq = arrivals.len();
        for &(at, ev) in setup {
            events.push(ev);
            heap.push(Reverse((at, next_seq, events.len() - 1)));
            next_seq += 1;
        }
        let (mut admitted, mut due) = (0, GRID_MS);
        let (mut log, mut depths) = (Vec::new(), Vec::new());
        loop {
            while admitted < arrivals.len()
                && heap.peek().map_or(true, |Reverse((head, ..))| arrivals[admitted].0 <= *head)
            {
                for (i, &(at, ev)) in arrivals.iter().enumerate().skip(admitted).take(window) {
                    events.push(ev);
                    heap.push(Reverse((at, i, events.len() - 1)));
                }
                admitted = (admitted + window).min(arrivals.len());
            }
            let Some(Reverse((now, _, idx))) = heap.pop() else { break };
            while due < now {
                depths.push((due, heap.len() + 1));
                due += GRID_MS;
            }
            let ev = events[idx];
            log.push((now, ev.name()));
            for (delay, follow_up) in ev.follow_ups() {
                events.push(follow_up);
                heap.push(Reverse((now + delay, next_seq, events.len() - 1)));
                next_seq += 1;
            }
        }
        (log, depths)
    }

    /// `run_merged` against eager up-front scheduling and against the
    /// streamed model, for depth windows from 1 up
    /// to the production window.
    fn assert_merge_parity(setup: &[(u64, Ev)], arrivals: &[(u64, Ev)]) {
        let eager = observe(setup, arrivals, None);
        let eager_events = &eager.series.series["sim.events"];
        for window in [1, 2, 3, 7, DEPTH_WINDOW] {
            let (model_log, model_depths) = streamed_model(setup, arrivals, window);
            assert_eq!(model_log, eager.log, "the streamed model orders like eager scheduling");
            let merged = observe(setup, arrivals, Some(window));
            let ctx = format!("window {window}");
            assert_eq!(merged.log, eager.log, "{ctx}");
            assert_eq!(merged.now, eager.now, "{ctx}");
            assert_eq!(merged.processed, eager.processed, "{ctx}");
            assert_eq!(merged.events, eager.events, "{ctx}");
            assert_eq!(merged.trace, eager.trace, "{ctx}: one sim.run span, same bounds");
            assert_eq!(merged.series.times, eager.series.times, "{ctx}");
            assert_eq!(&merged.series.series["sim.events"], eager_events, "{ctx}");
            let Some(MetricSeries::Gauge(depth)) = merged.series.series.get("sim.queue_depth")
            else {
                panic!("sim.queue_depth is tracked as a gauge");
            };
            let (last, grid) = depth.split_last().expect("finish() appended a sample");
            let got: Vec<(u64, usize)> =
                merged.series.times.iter().zip(grid).map(|(&t, &d)| (t, d as usize)).collect();
            assert_eq!(got, model_depths, "{ctx}: depth counts admitted arrivals");
            assert_eq!(*last, 0.0, "{ctx}: nothing is pending at the end");
        }
    }

    #[test]
    fn merged_arrivals_match_eager_with_zero_delay_fan_out() {
        // Three arrivals share millisecond 5 and two fan out at it: every
        // arrival at 5 fires before any fan-out mark, as under eager
        // scheduling where arrivals hold the lowest seqs.
        let arrivals = [
            (5, Ev::Fan("f", 3)),
            (5, Ev::Mark("a")),
            (5, Ev::Fan("g", 2)),
            (6, Ev::Fan("h", 1)),
            (20, Ev::Chain("c", 2)),
            (20, Ev::Fan("i", 2)),
        ];
        assert_merge_parity(&[], &arrivals);
    }

    #[test]
    fn merged_arrivals_win_ties_against_setup_events() {
        let setup =
            [(5, Ev::Mark("setup-a")), (10, Ev::Chain("setup-c", 2)), (30, Ev::Fan("s", 2))];
        let arrivals = [
            (0, Ev::Mark("first")),
            (5, Ev::Chain("x", 1)),
            (10, Ev::Mark("y")),
            (15, Ev::Mark("z")),
            (30, Ev::Fan("w", 1)),
            (30, Ev::Mark("v")),
        ];
        assert_merge_parity(&setup, &arrivals);
    }

    #[test]
    fn merged_follow_ups_can_land_behind_the_wheel_cursor() {
        // The setup event at 100 s is the scheduler's head while arrivals
        // run: peeking it moves the wheel's cursor there, so every chain
        // link the arrivals schedule lands behind the cursor.
        let setup = [(100_000, Ev::Mark("far")), (100_000, Ev::Chain("far-c", 1))];
        let mut arrivals: Vec<(u64, Ev)> =
            (0..60).map(|i| (i * 37 % 2_000, Ev::Chain("c", i % 4))).collect();
        arrivals.sort_by_key(|a| a.0);
        assert_merge_parity(&setup, &arrivals);
    }

    #[test]
    fn merged_depth_accounting_crosses_many_windows() {
        // Forty arrivals over 200 ms against a 7 ms grid: windows of 1–7
        // are admitted and drained many times between samples.
        let mut arrivals: Vec<(u64, Ev)> = (0..40u64)
            .map(|i| {
                let ev = match i % 3 {
                    0 => Ev::Chain("s", 2),
                    1 => Ev::Fan("f", 2),
                    _ => Ev::Mark("m"),
                };
                ((i * 13) % 200, ev)
            })
            .collect();
        arrivals.sort_by_key(|a| a.0);
        let setup = [(3, Ev::Chain("setup", 5)), (90, Ev::Mark("mid")), (250, Ev::Mark("tail"))];
        assert_merge_parity(&setup, &arrivals);
    }

    #[test]
    #[should_panic(expected = "arrival 2 at 3 ms precedes the previous event at 9 ms")]
    fn merged_arrivals_must_be_sorted() {
        let arrivals = [(5, Ev::Mark("a")), (9, Ev::Mark("b")), (3, Ev::Mark("c"))];
        let mut sim = Simulation::new(Recorder::default());
        sim.run_merged(&arrivals, |a| SimTime::from_millis(a.0), |i| arrivals[i].1);
    }

    #[test]
    fn merged_profiler_times_one_choice_per_event() {
        let registry = odx_telemetry::Registry::new();
        let mut sim = Simulation::new(Recorder::default());
        sim.attach_telemetry(registry.clone());
        sim.attach_profiler();
        sim.schedule_at(SimTime::from_millis(4), Ev::Chain("setup", 1));
        let arrivals = [(1, Ev::Fan("f", 2)), (4, Ev::Chain("c", 2))];
        let n = sim.run_merged(&arrivals, |a| SimTime::from_millis(a.0), |i| arrivals[i].1);
        // Setup chain 2 + fan-out 3 + arrival chain 3; no trailing empty pop.
        assert_eq!(n, 8);
        assert_eq!(registry.wall("prof.sched.pops"), Some(8.0));
        assert_eq!(sim.profiler().expect("profiler attached").events(), 8);
    }

    #[test]
    fn series_samples_on_the_virtual_grid_before_events() {
        let registry = odx_telemetry::Registry::new();
        let series = odx_telemetry::SeriesRecorder::new(25);
        series.track_counter("sim.events", registry.counter("sim.events"));
        series.track_gauge("sim.queue_depth", registry.gauge("sim.queue_depth"));
        let mut sim = Simulation::with_capacity(Recorder::default(), 16);
        sim.attach_telemetry(registry.clone());
        sim.attach_series(series.clone());
        for at in [10u64, 30, 60, 100] {
            sim.schedule_at(SimTime::from_millis(at), Ev::Mark("m"));
        }
        sim.run_to_completion();
        series.finish(sim.now().as_millis());
        let json = series.snapshot().to_json();
        // Grid points 25, 50, 75 are each due strictly before a later
        // event fires; the final sample lands at the end-of-run clock.
        assert!(json.contains("\"times\":[25,50,75,100]"), "{json}");
        // Counter deltas: 1 event (t=10) by t=25, 1 more (t=30) by t=50,
        // 1 (t=60) by 75, and the final event at t=100 in the last row.
        assert!(json.contains("\"sim.events\":{\"kind\":\"counter_delta\",\"values\":[1,1,1,1]}"));
    }

    #[test]
    fn pre_sample_runs_once_per_grid_point_with_due_times() {
        #[derive(Default)]
        struct Sampled {
            inner: Recorder,
            pre_samples: Vec<u64>,
        }
        impl World for Sampled {
            type Event = Ev;
            fn handle(&mut self, ctx: &mut Ctx<Ev>, ev: Ev) {
                self.inner.handle(ctx, ev)
            }
            fn pre_sample(&mut self, at_ms: u64) {
                self.pre_samples.push(at_ms);
            }
        }
        let series = odx_telemetry::SeriesRecorder::new(40);
        let mut sim = Simulation::new(Sampled::default());
        sim.attach_series(series);
        sim.schedule_at(SimTime::from_millis(5), Ev::Mark("a"));
        sim.schedule_at(SimTime::from_millis(130), Ev::Mark("b"));
        sim.run_to_completion();
        // Due points 40, 80, 120 all precede the event at 130; the event
        // at 5 precedes every grid point, and no sample fires at/after
        // the last event without an explicit finish().
        assert_eq!(sim.world().pre_samples, vec![40, 80, 120]);
    }

    #[test]
    fn profiler_buckets_every_event_by_label() {
        struct Labeled(Recorder);
        impl World for Labeled {
            type Event = Ev;
            fn handle(&mut self, ctx: &mut Ctx<Ev>, ev: Ev) {
                self.0.handle(ctx, ev)
            }
            fn event_label(&self, event: &Ev) -> &'static str {
                match event {
                    Ev::Mark(_) => "mark",
                    Ev::Chain(..) | Ev::Fan(..) => "chain",
                }
            }
        }
        let registry = odx_telemetry::Registry::new();
        let mut sim = Simulation::new(Labeled(Recorder::default()));
        sim.attach_telemetry(registry.clone());
        sim.attach_profiler();
        sim.schedule_at(SimTime::from_millis(1), Ev::Mark("a"));
        sim.schedule_at(SimTime::from_millis(2), Ev::Chain("c", 2));
        sim.run_to_completion();
        let prof = sim.profiler().expect("profiler attached");
        assert_eq!(prof.events(), 4);
        assert!(prof.run_secs() > 0.0);
        // Buckets flushed into the wall section; deterministic exports
        // stay clean of them.
        assert_eq!(registry.wall("prof.handler.mark.events"), Some(1.0));
        assert_eq!(registry.wall("prof.handler.chain.events"), Some(3.0));
        assert!(registry.wall("prof.sched.pops").unwrap() >= 4.0);
        assert!(registry.wall("prof.run_secs").is_some());
        let snap = registry.snapshot();
        assert_eq!(snap.counters["sim.events"], 4);
        assert!(!snap.to_json().contains("prof."));
    }

    #[test]
    fn telemetry_hooks_record_events_and_spans() {
        let registry = odx_telemetry::Registry::new();
        let mut sim = Simulation::new(Recorder::default());
        sim.attach_telemetry(registry.clone());
        sim.schedule_at(SimTime::from_millis(10), Ev::Mark("a"));
        sim.schedule_at(SimTime::from_millis(20), Ev::Mark("b"));
        sim.run_to_completion();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["sim.events"], 2);
        assert_eq!(snap.gauges["sim.queue_depth"], 0.0);
        // One sim.run span, opened at t=0 and closed at the clock's
        // final virtual time.
        let events = &snap.trace.events;
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "sim.run");
        assert_eq!(events[0].kind, odx_telemetry::SpanKind::Open);
        assert_eq!(events[0].at_ms, 0);
        assert_eq!(events[1].kind, odx_telemetry::SpanKind::Close);
        assert_eq!(events[1].at_ms, 20);
    }
}
