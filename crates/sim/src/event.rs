//! Event handles and the scheduler's entry record.
//!
//! Every [`EventId`] names a `(slot, generation)` pair in the timing
//! wheel's payload slab. Cancellation takes the payload out of the slab
//! and bumps the slot's generation — an O(1) array write with no hashing —
//! leaving the wheel's entry behind as a stale tombstone that `pop` /
//! `peek_time` recognise by its outdated generation and discard for free.
//! Because firing an event also bumps the slot's generation, cancelling an
//! already-fired id is *structurally* a no-op: the stale generation can
//! never match again, so it returns `false` and leaves no permanent
//! tombstone behind.

use std::cmp::Ordering;

use crate::time::SimTime;

/// Handle to a scheduled event, usable to cancel it before it fires.
///
/// Internally a `(slot, generation)` pair into the scheduler's slab; the
/// generation makes handles single-use, so a handle kept across its
/// event's firing can never alias a later event in the same slot
/// (generations would have to wrap around `u32` first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    pub(crate) slot: u32,
    pub(crate) generation: u32,
}

/// What the wheel's buckets (and its behind-cursor heap) store: the
/// ordering key plus the slab coordinates of the payload. Small and
/// `Copy`, so buckets and sift operations move 24 bytes instead of whole
/// payloads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WheelEntry {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) slot: u32,
    pub(crate) generation: u32,
}

// Orderings are inverted so `BinaryHeap` (a max-heap) pops the earliest
// `(time, seq)` first. `seq` is unique, so the ordering is total.
impl PartialEq for WheelEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for WheelEntry {}
impl PartialOrd for WheelEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WheelEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

#[cfg(test)]
mod tests {
    //! The handle protocol — cancel, stale handles, slot reuse — as the
    //! timing wheel implements it.

    use super::*;
    use crate::wheel::TimingWheel;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = TimingWheel::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel is a no-op");
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut q: TimingWheel<()> = TimingWheel::new();
        assert!(!q.cancel(EventId { slot: 42, generation: 0 }));
    }

    #[test]
    fn stale_handle_never_cancels_a_slot_reuser() {
        // After "a" fires, its slot is reused by "b"; the old handle must
        // not be able to cancel the newcomer.
        let mut q = TimingWheel::new();
        let a = q.schedule(t(1), "a");
        assert_eq!(q.pop(), Some((t(1), "a")));
        let b = q.schedule(t(2), "b");
        assert_eq!(b.slot, a.slot, "the freed slot is reused");
        assert!(!q.cancel(a));
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert!(!q.cancel(b), "fired ids stay dead");
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = TimingWheel::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(9), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(9)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = TimingWheel::new();
        let ids: Vec<_> = (0..10).map(|i| q.schedule(t(i), i)).collect();
        for id in &ids[..4] {
            q.cancel(*id);
        }
        assert_eq!(q.len(), 6);
        assert!(!q.is_empty());
    }

    #[test]
    fn slots_are_reused_after_fire_and_cancel() {
        let mut q = TimingWheel::new();
        let mut widest = 0;
        for round in 0..50u64 {
            let keep = q.schedule(t(round), round);
            let drop = q.schedule(t(round), round + 1000);
            widest = widest.max(keep.slot).max(drop.slot);
            q.cancel(drop);
            assert_eq!(q.pop(), Some((t(round), round)));
            assert!(!q.cancel(keep));
        }
        assert!(q.is_empty());
        assert!(widest < 4, "slab must recycle slots, got slot {widest}");
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = TimingWheel::with_capacity(16);
        q.schedule(t(2), "b");
        q.schedule(t(1), "a");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = TimingWheel::new();
        q.schedule(t(10), 1);
        assert_eq!(q.pop(), Some((t(10), 1)));
        q.schedule(t(5), 2); // earlier than the already-popped event is fine
        q.schedule(t(6), 3);
        assert_eq!(q.pop(), Some((t(5), 2)));
        assert_eq!(q.pop(), Some((t(6), 3)));
    }
}
