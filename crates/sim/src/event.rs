//! The event queue.
//!
//! A binary heap keyed on `(time, sequence)` — the sequence number makes the
//! pop order of same-timestamp events equal to their scheduling order, which
//! is what makes whole-week replays deterministic across runs and platforms.
//!
//! Payloads live in a generation-stamped slab next to the heap: the heap
//! entries are small `Copy` records (time, sequence, slot, generation) and
//! every [`EventId`] names a `(slot, generation)` pair. Cancellation takes
//! the payload out of the slab and bumps the slot's generation — an O(1)
//! array write with no hashing — leaving the heap entry behind as a stale
//! tombstone that `pop`/`peek_time` recognise by its outdated generation
//! and discard for free. Because firing an event also bumps the slot's
//! generation, cancelling an already-fired id is *structurally* a no-op:
//! the stale generation can never match again, so it returns `false` and
//! leaves no permanent tombstone behind.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Handle to a scheduled event, usable to cancel it before it fires.
///
/// Internally a `(slot, generation)` pair into the queue's slab; the
/// generation makes handles single-use, so a handle kept across its
/// event's firing can never alias a later event in the same slot
/// (generations would have to wrap around `u32` first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    pub(crate) slot: u32,
    pub(crate) generation: u32,
}

/// What the binary heap (and the timing wheel's buckets) actually store:
/// the ordering key plus the slab coordinates of the payload. Small and
/// `Copy`, so sift operations move 24 bytes instead of whole payloads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeapEntry {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) slot: u32,
    pub(crate) generation: u32,
}

// Orderings are inverted so `BinaryHeap` (a max-heap) pops the earliest
// `(time, seq)` first. `seq` is unique, so the ordering is total.
impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// One slab slot: the payload (while the event is live) and the slot's
/// current generation. Taking the payload — by firing or cancelling —
/// bumps the generation, invalidating every outstanding handle and heap
/// entry stamped with the old one.
struct Slot<E> {
    generation: u32,
    payload: Option<E>,
}

/// A deterministic future-event list.
///
/// `schedule` is O(log n), `cancel` is O(1) (a slab write, no hashing),
/// and `pop` is O(log n) amortised: cancelled events leave stale heap
/// entries behind, but each is discarded exactly once by a generation
/// comparison, never re-examined, and can never outlive the pop that
/// meets it. `len` counts live events exactly.
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    next_seq: u64,
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            live: 0,
        }
    }

    /// An empty queue with room for `capacity` concurrently pending events
    /// before either the heap or the slab reallocates. Replays that know
    /// their workload size preallocate here so the hot loop never grows.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            next_seq: 0,
            live: 0,
        }
    }

    /// Schedule `payload` to fire at `time`. Events scheduled for the same
    /// instant fire in scheduling order.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].payload = Some(payload);
                slot
            }
            None => {
                assert!(self.slots.len() < u32::MAX as usize, "event slab full");
                self.slots.push(Slot { generation: 0, payload: Some(payload) });
                (self.slots.len() - 1) as u32
            }
        };
        let generation = self.slots[slot as usize].generation;
        self.heap.push(HeapEntry { time, seq, slot, generation });
        self.live += 1;
        EventId { slot, generation }
    }

    /// Cancel a previously scheduled event. Cancelling an already-fired,
    /// already-cancelled, or unknown id is a no-op (returns `false`) — the
    /// slot's generation moved on when the event left the slab, so a stale
    /// handle can never match.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(slot) = self.slots.get_mut(id.slot as usize) else { return false };
        if slot.generation != id.generation || slot.payload.is_none() {
            return false;
        }
        slot.payload = None;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.slot);
        self.live -= 1;
        true
    }

    /// Release `entry`'s slot, returning its payload. Must only be called
    /// for entries whose generation matched (i.e. live events).
    fn take(&mut self, entry: HeapEntry) -> E {
        let slot = &mut self.slots[entry.slot as usize];
        let payload = slot.payload.take().expect("live heap entry has a payload");
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(entry.slot);
        self.live -= 1;
        payload
    }

    /// Whether `entry` still points at the live event it was pushed for.
    fn is_current(&self, entry: &HeapEntry) -> bool {
        self.slots[entry.slot as usize].generation == entry.generation
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.is_current(&entry) {
                return Some((entry.time, self.take(entry)));
            }
            // Stale tombstone from a cancelled event: discard and move on.
        }
        None
    }

    /// The firing time of the earliest pending (non-cancelled) event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(entry) = self.heap.peek() {
            if self.is_current(entry) {
                return Some(entry.time);
            }
            self.heap.pop();
        }
        None
    }

    /// Number of live (scheduled and neither fired nor cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel is a no-op");
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId { slot: 42, generation: 0 }));
    }

    #[test]
    fn cancel_after_fire_is_a_noop_and_does_not_skew_len() {
        // Regression: the pre-slab implementation returned `true` here and
        // left a permanent tombstone in its cancelled-set, so `len()` under-
        // counted forever after.
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert!(!q.cancel(a), "cancelling a fired event must be a no-op");
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        q.schedule(t(2), "b");
        q.schedule(t(3), "c");
        assert_eq!(q.len(), 2, "len must not be skewed by the stale cancel");
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert_eq!(q.pop(), Some((t(3), "c")));
    }

    #[test]
    fn stale_handle_never_cancels_a_slot_reuser() {
        // After "a" fires, its slot is reused by "b"; the old handle must
        // not be able to cancel the newcomer.
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        assert_eq!(q.pop(), Some((t(1), "a")));
        let b = q.schedule(t(2), "b");
        assert!(!q.cancel(a));
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert!(!q.cancel(b), "fired ids stay dead");
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(9), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(9)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10).map(|i| q.schedule(t(i), i)).collect();
        for id in &ids[..4] {
            q.cancel(*id);
        }
        assert_eq!(q.len(), 6);
        assert!(!q.is_empty());
    }

    #[test]
    fn slots_are_reused_after_fire_and_cancel() {
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            let keep = q.schedule(t(round), round);
            let drop = q.schedule(t(round), round + 1000);
            q.cancel(drop);
            assert_eq!(q.pop(), Some((t(round), round)));
            assert!(!q.cancel(keep));
        }
        assert!(q.is_empty());
        assert!(q.slots.len() <= 4, "slab must recycle slots, got {}", q.slots.len());
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(16);
        q.schedule(t(2), "b");
        q.schedule(t(1), "a");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        assert_eq!(q.pop(), Some((t(10), 1)));
        q.schedule(t(5), 2); // earlier than the already-popped event is fine
        q.schedule(t(6) + SimDuration::from_millis(0), 3);
        assert_eq!(q.pop(), Some((t(5), 2)));
        assert_eq!(q.pop(), Some((t(6), 3)));
    }
}
