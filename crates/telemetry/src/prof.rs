//! In-process wall profiler for the DES hot loop.
//!
//! BENCH_pr8 *claimed* a ~75 % handler / ~25 % scheduler split of replay
//! wall from end-to-end subtraction; this module measures it. A
//! [`HandlerProfiler`] buckets `Instant`-deltas per event kind (the
//! world's `event_label`) plus scheduler-pop cost, using the same cheap
//! batched-flush discipline as the cloud world's tally: the hot
//! loop only adds into plain local fields — no atomics, no locks, no
//! strings — and the totals flush into the registry's **wall** section
//! once per run.
//!
//! Everything here is wall-clock and therefore nondeterministic by
//! design; it lives next to `sim.wall_secs` in the wall section and
//! stays out of every deterministic export. The per-handler breakdown
//! ([`HandlerProfiler::report`]) charges residual run time (series
//! sampling, loop overhead) to an `other` row so the printed shares sum
//! to exactly 100 % of replay wall.
//!
//! `sched.pop` is the cost of choosing the next event. Under the engine's
//! merged arrival loop that is the arrival-or-scheduler choice — peek the
//! next arrival and the scheduler's head, then take the earlier — timed
//! once per dispatched event, with no trailing empty pop. Plain run loops
//! time each `TimingWheel::pop`, including the final empty one.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::registry::Registry;

/// Wall-time buckets for one engine's event loop: per-label handler
/// time, scheduler-pop time, and total run time. Owned by the engine;
/// updated with plain `f64`/`u64` adds on the hot path and flushed into
/// a [`Registry`]'s wall section after each run.
#[derive(Debug, Default)]
pub struct HandlerProfiler {
    /// Per-event-kind `(label, seconds, events)` buckets. Worlds expose a
    /// handful of labels, so a linear scan beats a hash map here.
    handlers: Vec<(&'static str, f64, u64)>,
    /// Seconds spent choosing the next event (see the module docs).
    pop_secs: f64,
    /// Choices timed.
    pops: u64,
    /// Total wall seconds of the run loops this profiler observed.
    run_secs: f64,
}

/// One row of the per-handler breakdown: label, seconds, events, and the
/// share of total run wall (0–1).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfRow {
    /// Bucket label: an event kind, `sched.pop`, or `other`.
    pub label: String,
    /// Wall seconds attributed to the bucket.
    pub secs: f64,
    /// Events (or pops) counted into the bucket; 0 for `other`.
    pub events: u64,
    /// `secs / total run secs`; all rows sum to 1.
    pub share: f64,
}

impl HandlerProfiler {
    /// An empty profiler.
    pub fn new() -> HandlerProfiler {
        HandlerProfiler::default()
    }

    /// Charge one scheduler pop.
    #[inline]
    pub fn note_pop(&mut self, secs: f64) {
        self.pop_secs += secs;
        self.pops += 1;
    }

    /// Charge one handled event to its kind's bucket.
    #[inline]
    pub fn note_handler(&mut self, label: &'static str, secs: f64) {
        for bucket in &mut self.handlers {
            if std::ptr::eq(bucket.0, label) || bucket.0 == label {
                bucket.1 += secs;
                bucket.2 += 1;
                return;
            }
        }
        self.handlers.push((label, secs, 1));
    }

    /// Charge a completed run loop's total wall time.
    pub fn note_run(&mut self, secs: f64) {
        self.run_secs += secs;
    }

    /// Total wall seconds across observed runs.
    pub fn run_secs(&self) -> f64 {
        self.run_secs
    }

    /// Events timed across all handler buckets.
    pub fn events(&self) -> u64 {
        self.handlers.iter().map(|h| h.2).sum()
    }

    /// Flush the buckets into `registry`'s wall section
    /// (`prof.handler.<label>.secs` / `.events`, `prof.sched.pop_secs` /
    /// `.pops`, `prof.other_secs`, `prof.run_secs`). Wall entries are
    /// nondeterministic and stay out of deterministic exports; calling
    /// again overwrites with the new cumulative totals.
    pub fn flush_walls(&self, registry: &Registry) {
        let mut accounted = self.pop_secs;
        for (label, secs, events) in &self.handlers {
            registry.set_wall(&format!("prof.handler.{label}.secs"), *secs);
            registry.set_wall(&format!("prof.handler.{label}.events"), *events as f64);
            accounted += secs;
        }
        registry.set_wall("prof.sched.pop_secs", self.pop_secs);
        registry.set_wall("prof.sched.pops", self.pops as f64);
        registry.set_wall("prof.other_secs", (self.run_secs - accounted).max(0.0));
        registry.set_wall("prof.run_secs", self.run_secs);
    }

    /// The breakdown as rows sorted by descending seconds: one row per
    /// event kind, one for `sched.pop`, and an `other` residual charging
    /// un-attributed loop time (series sampling, loop overhead) so shares
    /// sum to exactly 1.
    pub fn report(&self) -> Vec<ProfRow> {
        let total = self.run_secs.max(1e-12);
        let mut rows: Vec<ProfRow> = self
            .handlers
            .iter()
            .map(|(label, secs, events)| ProfRow {
                label: format!("handler.{label}"),
                secs: *secs,
                events: *events,
                share: secs / total,
            })
            .collect();
        rows.push(ProfRow {
            label: "sched.pop".to_string(),
            secs: self.pop_secs,
            events: self.pops,
            share: self.pop_secs / total,
        });
        let accounted: f64 = rows.iter().map(|r| r.secs).sum();
        let other = (self.run_secs - accounted).max(0.0);
        rows.push(ProfRow {
            label: "other".to_string(),
            secs: other,
            events: 0,
            share: other / total,
        });
        rows.sort_by(|a, b| b.secs.total_cmp(&a.secs).then_with(|| a.label.cmp(&b.label)));
        rows
    }
}

/// Render breakdown rows as an aligned table (label, seconds, events,
/// percent of run wall), ending with a 100 % total row whose event count
/// covers the handler buckets only (pops and `other` are not events).
pub fn render_rows(rows: &[ProfRow], run_secs: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:<24} {:>12} {:>12} {:>8}", "bucket", "secs", "events", "% wall");
    for row in rows {
        let _ = writeln!(
            out,
            "{:<24} {:>12.6} {:>12} {:>7.2}%",
            row.label,
            row.secs,
            row.events,
            row.share * 100.0
        );
    }
    let share_sum: f64 = rows.iter().map(|r| r.share).sum();
    let events: u64 =
        rows.iter().filter(|r| r.label.starts_with("handler.")).map(|r| r.events).sum();
    let _ = writeln!(
        out,
        "{:<24} {:>12.6} {:>12} {:>7.2}%",
        "total",
        run_secs,
        events,
        share_sum * 100.0
    );
    out
}

/// Rebuild the breakdown from a flushed wall section (the
/// `prof.*` entries [`HandlerProfiler::flush_walls`] wrote). Returns the
/// rows plus total run seconds, or `None` when no profile was flushed.
/// This is how callers print the table after the run that owned the
/// profiler has consumed its engine.
pub fn rows_from_walls(wall: &BTreeMap<String, f64>) -> Option<(Vec<ProfRow>, f64)> {
    let run_secs = *wall.get("prof.run_secs")?;
    let total = run_secs.max(1e-12);
    let mut rows = Vec::new();
    for (key, secs) in wall {
        let Some(rest) = key.strip_prefix("prof.handler.") else { continue };
        let Some(label) = rest.strip_suffix(".secs") else { continue };
        let events =
            wall.get(&format!("prof.handler.{label}.events")).copied().unwrap_or(0.0) as u64;
        rows.push(ProfRow {
            label: format!("handler.{label}"),
            secs: *secs,
            events,
            share: secs / total,
        });
    }
    let pop_secs = wall.get("prof.sched.pop_secs").copied().unwrap_or(0.0);
    rows.push(ProfRow {
        label: "sched.pop".to_string(),
        secs: pop_secs,
        events: wall.get("prof.sched.pops").copied().unwrap_or(0.0) as u64,
        share: pop_secs / total,
    });
    let other = wall.get("prof.other_secs").copied().unwrap_or(0.0);
    rows.push(ProfRow { label: "other".to_string(), secs: other, events: 0, share: other / total });
    rows.sort_by(|a, b| b.secs.total_cmp(&a.secs).then_with(|| a.label.cmp(&b.label)));
    Some((rows, run_secs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_accumulate_by_label() {
        let mut prof = HandlerProfiler::new();
        prof.note_handler("arrive", 0.25);
        prof.note_handler("fetch_end", 0.0625);
        prof.note_handler("arrive", 0.25);
        prof.note_pop(0.125);
        prof.note_run(1.0);
        assert_eq!(prof.events(), 3);
        assert_eq!(prof.run_secs(), 1.0);
        let rows = prof.report();
        let arrive = rows.iter().find(|r| r.label == "handler.arrive").unwrap();
        assert_eq!(arrive.secs, 0.5);
        assert_eq!(arrive.events, 2);
        assert_eq!(arrive.share, 0.5);
    }

    #[test]
    fn shares_sum_to_one_via_other_residual() {
        let mut prof = HandlerProfiler::new();
        prof.note_handler("arrive", 0.5);
        prof.note_pop(0.25);
        prof.note_run(1.0);
        let rows = prof.report();
        let other = rows.iter().find(|r| r.label == "other").unwrap();
        assert_eq!(other.secs, 0.25);
        let total: f64 = rows.iter().map(|r| r.share).sum();
        assert!((total - 1.0).abs() < 1e-12, "shares sum to {total}");
        assert!(render_rows(&rows, 1.0).contains("100.00%"));
    }

    #[test]
    fn flush_walls_lands_in_the_wall_section_only() {
        let registry = Registry::new();
        let mut prof = HandlerProfiler::new();
        prof.note_handler("arrive", 0.5);
        prof.note_pop(0.25);
        prof.note_run(1.0);
        prof.flush_walls(&registry);
        assert_eq!(registry.wall("prof.handler.arrive.secs"), Some(0.5));
        assert_eq!(registry.wall("prof.handler.arrive.events"), Some(1.0));
        assert_eq!(registry.wall("prof.sched.pop_secs"), Some(0.25));
        assert_eq!(registry.wall("prof.other_secs"), Some(0.25));
        assert_eq!(registry.wall("prof.run_secs"), Some(1.0));
        // Deterministic export stays clean.
        assert!(!registry.snapshot().to_json().contains("prof."));
    }

    #[test]
    fn rows_round_trip_through_the_wall_section() {
        let registry = Registry::new();
        let mut prof = HandlerProfiler::new();
        prof.note_handler("arrive", 0.5);
        prof.note_handler("fetch_end", 0.125);
        prof.note_pop(0.25);
        prof.note_run(1.0);
        prof.flush_walls(&registry);
        let wall = registry.snapshot().wall;
        let (rows, run_secs) = rows_from_walls(&wall).expect("profile was flushed");
        assert_eq!(run_secs, 1.0);
        assert_eq!(rows, prof.report(), "wall round-trip must preserve the breakdown");
        // No profile flushed → no rows.
        assert!(rows_from_walls(&Registry::new().snapshot().wall).is_none());
    }
}
