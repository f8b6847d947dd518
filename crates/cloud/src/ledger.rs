//! The week ledger: the replay's per-task records, stored as push-order
//! columns.
//!
//! The paper's dataset has a pre-downloading and a fetching trace (§3);
//! [`PredownloadRecord`] and [`FetchRecord`] are their row schemas. The
//! replay cuts one pre-downloading row per request and one fetching row per
//! fetch attempt, millions per week, and most of each row repeats what the
//! replay already knows. The ledger keeps only what cannot be derived, at
//! full width (`u64` times, `f64` values), and its iterators rebuild the
//! rows in push order:
//!
//! * **Pre-downloading.** Every row stores its arrival time and a
//!   `WaiterKind` byte. A pool hit is fully determined by that (its
//!   finish is its start). Every pre-download that completes stores one
//!   `PredlGroup` row shared by all its waiters (finish, size, rate,
//!   traffic, cause), and each waiter of a successful one stores its own
//!   peak speed: that is a separate RNG draw per waiter, not a function of
//!   the rate.
//! * **Fetching.** Every row stores the request, the user, start, finish,
//!   the average rate and the drawn peak rate. The user's ISP and reported
//!   bandwidth come from a copy of the population's user table. Acquired
//!   bytes are recomputed by `fetched_mb`, the function the fetch handler
//!   itself calls, and traffic as `acquired × 1.085`: the float
//!   expressions the handler's stored rows used, so every rebuilt value
//!   has the same bits.
//! * **End to end.** One view per completed fetch, rebuilt from the fetch
//!   row plus the per-request pre-downloading delay arena the replay fills
//!   anyway.

use odx_p2p::FailureCause;
use odx_sim::{SimDuration, SimTime};
use odx_trace::records::{FetchRecord, PredownloadRecord};
use odx_trace::User;

/// End-to-end view of one completed offline-downloading task (§4.3): total
/// delay is pre-downloading delay plus fetching delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// File size (MB).
    pub size_mb: f64,
    /// Pre-downloading delay (zero on cache hits).
    pub pd_delay: SimDuration,
    /// Fetching delay.
    pub fetch_delay: SimDuration,
}

impl EndToEnd {
    /// End-to-end delay.
    pub fn delay(&self) -> SimDuration {
        self.pd_delay + self.fetch_delay
    }

    /// End-to-end speed (KBps): size over total delay.
    pub fn speed_kbps(&self) -> f64 {
        let secs = self.delay().as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.size_mb * 1000.0 / secs
        }
    }
}

/// Bytes a fetch at `rate_kbps` acquires over `delay` (MB).
pub(crate) fn fetched_mb(rate_kbps: f64, delay: SimDuration) -> f64 {
    rate_kbps * delay.as_secs_f64() / 1000.0
}

/// How a request's pre-downloading row was cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum WaiterKind {
    /// Served from the pool on arrival: no group, zero delay.
    Hit,
    /// Started the pre-download: opens the next [`PredlGroup`].
    Initiator,
    /// Joined the in-flight pre-download of the current group.
    Joiner,
}

/// The outcome one completed pre-download shares with all its waiters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PredlGroup {
    finish: SimTime,
    size_mb: f64,
    rate_kbps: f64,
    traffic_mb: f64,
    /// `None` on success.
    cause: Option<FailureCause>,
}

impl PredlGroup {
    pub(crate) fn success(finish: SimTime, size_mb: f64, rate_kbps: f64, traffic_mb: f64) -> Self {
        PredlGroup { finish, size_mb, rate_kbps, traffic_mb, cause: None }
    }

    pub(crate) fn failure(finish: SimTime, traffic_mb: f64, cause: FailureCause) -> Self {
        PredlGroup { finish, size_mb: 0.0, rate_kbps: 0.0, traffic_mb, cause: Some(cause) }
    }
}

/// The pre-downloading trace: one row per request, in push order.
#[derive(Debug, Default)]
pub struct PredownloadLedger {
    arrivals: Vec<SimTime>,
    kinds: Vec<WaiterKind>,
    groups: Vec<PredlGroup>,
    /// One per waiter of a successful group, in push order.
    peaks_kbps: Vec<f64>,
}

impl PredownloadLedger {
    pub(crate) fn with_capacity(requests: usize) -> Self {
        PredownloadLedger {
            arrivals: Vec::with_capacity(requests),
            kinds: Vec::with_capacity(requests),
            ..PredownloadLedger::default()
        }
    }

    /// Number of rows (one per processed request).
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether no request has been processed.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// A pool hit at `at`.
    pub(crate) fn push_hit(&mut self, at: SimTime) {
        self.arrivals.push(at);
        self.kinds.push(WaiterKind::Hit);
    }

    /// A completed pre-download; the rows of its waiters follow, initiator
    /// first.
    pub(crate) fn push_group(&mut self, group: PredlGroup) {
        self.groups.push(group);
    }

    /// A waiter of the last pushed group that arrived at `arrived`;
    /// `peak_kbps` is its drawn peak speed, present exactly when the group
    /// succeeded.
    pub(crate) fn push_waiter(
        &mut self,
        arrived: SimTime,
        initiator: bool,
        peak_kbps: Option<f64>,
    ) {
        debug_assert_eq!(
            peak_kbps.is_some(),
            self.groups.last().is_some_and(|g| g.cause.is_none()),
            "a waiter has a peak speed exactly when its group succeeded"
        );
        self.arrivals.push(arrived);
        self.kinds.push(if initiator { WaiterKind::Initiator } else { WaiterKind::Joiner });
        self.peaks_kbps.extend(peak_kbps);
    }

    /// The rows, rebuilt in push order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = PredownloadRecord> + '_ {
        let mut groups = self.groups.iter();
        let mut group = None;
        let mut peaks = self.peaks_kbps.iter();
        self.arrivals.iter().zip(&self.kinds).map(move |(&start, &kind)| {
            let g: &PredlGroup = match kind {
                WaiterKind::Hit => {
                    return PredownloadRecord {
                        start,
                        finish: start,
                        acquired_mb: 0.0,
                        traffic_mb: 0.0,
                        cache_hit: true,
                        avg_kbps: 0.0,
                        peak_kbps: 0.0,
                        success: true,
                        failure_cause: None,
                    }
                }
                WaiterKind::Initiator => group.insert(groups.next().expect("initiator's group")),
                WaiterKind::Joiner => group.expect("joiner follows its initiator"),
            };
            let initiator = kind == WaiterKind::Initiator;
            match g.cause {
                // The initiator's row carries the transfer; joiners were
                // satisfied by the same process.
                None => PredownloadRecord {
                    start,
                    finish: g.finish,
                    acquired_mb: g.size_mb,
                    traffic_mb: if initiator { g.traffic_mb } else { 0.0 },
                    cache_hit: !initiator,
                    avg_kbps: if initiator { g.rate_kbps } else { 0.0 },
                    peak_kbps: *peaks.next().expect("one peak per successful waiter"),
                    success: true,
                    failure_cause: None,
                },
                Some(cause) => PredownloadRecord {
                    start,
                    finish: g.finish,
                    acquired_mb: 0.0,
                    traffic_mb: g.traffic_mb,
                    cache_hit: false,
                    avg_kbps: 0.0,
                    peak_kbps: 0.0,
                    success: false,
                    failure_cause: Some(cause),
                },
            }
        })
    }

    /// Release the capacity reserved for rows that were never pushed.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.arrivals.shrink_to_fit();
        self.kinds.shrink_to_fit();
        self.groups.shrink_to_fit();
        self.peaks_kbps.shrink_to_fit();
    }

    /// Heap bytes of the columns.
    pub(crate) fn heap_bytes(&self) -> usize {
        heap_bytes(&self.arrivals)
            + heap_bytes(&self.kinds)
            + heap_bytes(&self.groups)
            + heap_bytes(&self.peaks_kbps)
    }
}

/// The fetching trace: one row per fetch attempt, in push order, plus the
/// per-request pre-downloading delays its end-to-end view needs.
#[derive(Debug)]
pub struct FetchLedger {
    reqs: Vec<u32>,
    user_ids: Vec<u32>,
    starts: Vec<SimTime>,
    finishes: Vec<SimTime>,
    /// Zero exactly for rejected fetches (an admitted rate is positive).
    avg_kbps: Vec<f64>,
    peaks_kbps: Vec<f64>,
    /// The population's user table, copied once.
    users: Vec<User>,
    /// Request-indexed; zero for requests served from the pool.
    pd_delay_ms: Vec<u64>,
}

impl FetchLedger {
    pub(crate) fn new(users: &[User], requests: usize) -> Self {
        FetchLedger {
            reqs: Vec::with_capacity(requests),
            user_ids: Vec::with_capacity(requests),
            starts: Vec::with_capacity(requests),
            finishes: Vec::with_capacity(requests),
            avg_kbps: Vec::with_capacity(requests),
            peaks_kbps: Vec::with_capacity(requests),
            users: users.to_vec(),
            pd_delay_ms: vec![0; requests],
        }
    }

    /// Number of fetch attempts (admitted and rejected).
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// Whether no fetch was attempted.
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    /// Request `req` waited `delay_ms` for its pre-download.
    pub(crate) fn set_predownload_delay(&mut self, req: u32, delay_ms: u64) {
        self.pd_delay_ms[req as usize] = delay_ms;
    }

    /// A fetch by `user_id` for request `req`; a rejected one has zero
    /// rates and `finish == start`.
    pub(crate) fn push(
        &mut self,
        req: u32,
        user_id: u32,
        start: SimTime,
        finish: SimTime,
        avg_kbps: f64,
        peak_kbps: f64,
    ) {
        self.reqs.push(req);
        self.user_ids.push(user_id);
        self.starts.push(start);
        self.finishes.push(finish);
        self.avg_kbps.push(avg_kbps);
        self.peaks_kbps.push(peak_kbps);
    }

    /// The rows, rebuilt in push order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = FetchRecord> + '_ {
        (0..self.len()).map(move |i| {
            let user = &self.users[self.user_ids[i] as usize];
            let (start, finish, avg_kbps) = (self.starts[i], self.finishes[i], self.avg_kbps[i]);
            // A rejected row (zero rate, zero delay) rebuilds to zero bytes.
            let acquired_mb = fetched_mb(avg_kbps, finish.since(start));
            FetchRecord {
                user_id: self.user_ids[i],
                isp: user.isp,
                access_kbps: user.reports_bandwidth.then_some(user.access_kbps),
                start,
                finish,
                acquired_mb,
                // Payload plus 8.5 % protocol overhead.
                traffic_mb: acquired_mb * 1.085,
                avg_kbps,
                peak_kbps: self.peaks_kbps[i],
                rejected: avg_kbps == 0.0,
            }
        })
    }

    /// End-to-end views of the completed fetches, in push order.
    pub fn end_to_end(&self) -> impl Iterator<Item = EndToEnd> + '_ {
        (0..self.len()).filter(|&i| self.avg_kbps[i] != 0.0).map(move |i| {
            let fetch_delay = self.finishes[i].since(self.starts[i]);
            EndToEnd {
                size_mb: fetched_mb(self.avg_kbps[i], fetch_delay),
                pd_delay: SimDuration::from_millis(self.pd_delay_ms[self.reqs[i] as usize]),
                fetch_delay,
            }
        })
    }

    /// Release the capacity reserved for rows that were never pushed.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.reqs.shrink_to_fit();
        self.user_ids.shrink_to_fit();
        self.starts.shrink_to_fit();
        self.finishes.shrink_to_fit();
        self.avg_kbps.shrink_to_fit();
        self.peaks_kbps.shrink_to_fit();
    }

    /// Heap bytes of the columns.
    pub(crate) fn heap_bytes(&self) -> usize {
        heap_bytes(&self.reqs)
            + heap_bytes(&self.user_ids)
            + heap_bytes(&self.starts)
            + heap_bytes(&self.finishes)
            + heap_bytes(&self.avg_kbps)
            + heap_bytes(&self.peaks_kbps)
            + heap_bytes(&self.users)
            + heap_bytes(&self.pd_delay_ms)
    }
}

fn heap_bytes<T>(column: &Vec<T>) -> usize {
    column.capacity() * std::mem::size_of::<T>()
}
