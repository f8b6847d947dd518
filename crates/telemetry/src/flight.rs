//! Bounded flight recorder: the causal event history behind anomalies.
//!
//! A [`FlightRecorder`] keeps a fixed-size ring of the most recent sim
//! events a backend processed. When a task ends in stagnation, rejection,
//! or failure, the ring is dumped into a [`FlightDump`] — so every
//! anomaly in a report carries the event history that led up to it, at a
//! memory cost bounded by `capacity × max_dumps` regardless of workload
//! size. Timestamps are virtual milliseconds, so dumps are deterministic
//! for same-seed runs.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// One entry in the ring: a sim event the backend handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Virtual time in milliseconds.
    pub at_ms: u64,
    /// Static event label (e.g. `fetch_begin`).
    pub label: &'static str,
}

/// A ring snapshot taken when a task ended anomalously.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// The task whose terminal outcome triggered the dump.
    pub task: u64,
    /// Anomaly kind (`stagnation`, `rejection`, `failure`).
    pub kind: &'static str,
    /// Virtual time of the anomaly.
    pub at_ms: u64,
    /// The ring's contents, oldest first.
    pub recent: Vec<FlightEvent>,
}

#[derive(Debug)]
struct FlightInner {
    ring: VecDeque<FlightEvent>,
    capacity: usize,
    recorded: u64,
    dumps: Vec<FlightDump>,
    max_dumps: usize,
    dropped_dumps: u64,
}

/// A shared, bounded recorder of recent sim events.
///
/// Clones share the same ring (the handle is an `Arc`), so the DES
/// engine can record into the same recorder the backend dumps from.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<Mutex<FlightInner>>,
}

impl FlightRecorder {
    /// A recorder keeping `capacity` recent events and at most
    /// `max_dumps` anomaly dumps (both clamp to ≥ 1).
    pub fn new(capacity: usize, max_dumps: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Arc::new(Mutex::new(FlightInner {
                ring: VecDeque::with_capacity(capacity.max(1)),
                capacity: capacity.max(1),
                recorded: 0,
                dumps: Vec::new(),
                max_dumps: max_dumps.max(1),
                dropped_dumps: 0,
            })),
        }
    }

    /// Record one handled event, evicting the oldest past capacity.
    pub fn record(&self, at_ms: u64, label: &'static str) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.ring.len() == inner.capacity {
            inner.ring.pop_front();
        }
        inner.ring.push_back(FlightEvent { at_ms, label });
        inner.recorded += 1;
    }

    /// Dump the current ring for an anomalous terminal on `task`. Once
    /// `max_dumps` dumps are held, further dumps are counted as dropped
    /// instead of retained.
    pub fn dump(&self, task: u64, kind: &'static str, at_ms: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.dumps.len() >= inner.max_dumps {
            inner.dropped_dumps += 1;
            return;
        }
        let recent: Vec<FlightEvent> = inner.ring.iter().copied().collect();
        inner.dumps.push(FlightDump { task, kind, at_ms, recent });
    }

    /// Copy out the dumps and counters.
    pub fn snapshot(&self) -> FlightSnapshot {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        FlightSnapshot {
            scenario: String::new(),
            dumps: inner.dumps.clone(),
            recorded: inner.recorded,
            dropped_dumps: inner.dropped_dumps,
        }
    }
}

/// Point-in-time export of a [`FlightRecorder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightSnapshot {
    /// The scenario name the dumping run replayed, stamped by the replay
    /// layer. Empty until [`FlightSnapshot::set_context`] runs.
    pub scenario: String,
    /// Retained anomaly dumps, in dump order (dump order is virtual-time
    /// order, so this is deterministic).
    pub dumps: Vec<FlightDump>,
    /// Total events ever recorded into the ring.
    pub recorded: u64,
    /// Dumps discarded after `max_dumps` was reached.
    pub dropped_dumps: u64,
}

impl FlightSnapshot {
    /// Stamp the run context (the scenario name) into the snapshot's
    /// metadata header.
    pub fn set_context(&mut self, scenario: &str) {
        self.scenario = scenario.to_string();
    }

    /// Deterministic compact-JSON export of the dumps. The header stamps
    /// the run context so dumps from different scenarios are
    /// distinguishable at a glance.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + 64 * self.dumps.len());
        out.push_str("{\"scenario\":");
        crate::export::push_json_str(&mut out, &self.scenario);
        let _ = write!(
            out,
            ",\"recorded\":{},\"dropped_dumps\":{},\"dumps\":[",
            self.recorded, self.dropped_dumps
        );
        for (i, dump) in self.dumps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"task\":{},\"kind\":\"{}\",\"at_ms\":{},\"recent\":[",
                dump.task, dump.kind, dump.at_ms
            );
            for (j, event) in dump.recent.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"at_ms\":{},\"label\":\"{}\"}}", event.at_ms, event.label);
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_only_the_most_recent_events() {
        let flight = FlightRecorder::new(3, 8);
        for at in 0..10u64 {
            flight.record(at, "tick");
        }
        flight.dump(5, "failure", 10);
        let snap = flight.snapshot();
        assert_eq!(snap.recorded, 10);
        let times: Vec<u64> = snap.dumps[0].recent.iter().map(|e| e.at_ms).collect();
        assert_eq!(times, vec![7, 8, 9]);
    }

    #[test]
    fn dumps_are_bounded() {
        let flight = FlightRecorder::new(2, 2);
        flight.record(1, "a");
        for task in 0..5u64 {
            flight.dump(task, "rejection", task);
        }
        let snap = flight.snapshot();
        assert_eq!(snap.dumps.len(), 2);
        assert_eq!(snap.dropped_dumps, 3);
    }

    #[test]
    fn clones_share_the_ring() {
        let flight = FlightRecorder::new(4, 4);
        let engine_handle = flight.clone();
        engine_handle.record(1, "arrive");
        engine_handle.record(2, "fetch_begin");
        flight.dump(0, "stagnation", 3);
        let snap = flight.snapshot();
        assert_eq!(snap.dumps[0].recent.len(), 2);
        assert_eq!(snap.dumps[0].recent[1].label, "fetch_begin");
    }

    #[test]
    fn context_is_stamped_in_the_header() {
        let flight = FlightRecorder::new(2, 2);
        flight.record(1, "arrive");
        flight.dump(3, "stagnation", 4);
        let mut snap = flight.snapshot();
        assert!(snap.to_json().starts_with("{\"scenario\":\"\","));
        snap.set_context("paper-default");
        assert!(snap.to_json().starts_with("{\"scenario\":\"paper-default\","));
    }

    #[test]
    fn json_is_deterministic_and_well_formed() {
        let flight = FlightRecorder::new(2, 2);
        flight.record(1, "arrive");
        flight.dump(3, "stagnation", 4);
        let a = flight.snapshot().to_json();
        let b = flight.snapshot().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"kind\":\"stagnation\""));
        assert!(a.starts_with('{') && a.ends_with('}'));
    }
}
