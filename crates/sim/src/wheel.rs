//! The engine's future-event list: a deterministic hierarchical timing
//! wheel.
//!
//! Scheduling is an O(1) bucket push: five levels of power-of-two buckets
//! cover ~49.7 days of millisecond ticks (level 0: 256 × 1 ms, then four
//! levels of 64 slots each spanning 2^14, 2^20, 2^26 and 2^32 ms), and
//! anything beyond the horizon parks in an overflow list that is re-dealt
//! into the wheel when the cursor gets there. A full-week replay
//! (≈ 6.05 × 10^8 ms) fits entirely inside the wheel, so the overflow never
//! fires on the paper's workload.
//!
//! **Determinism.** Events pop in `(time, seq)` order: by time, and at one
//! instant in scheduling order. Every live entry in a level-0 bucket
//! shares one absolute millisecond (the bucket *is* that millisecond
//! within the current 256 ms window), and entries reach a bucket in
//! scheduling order — directly, or by cascades that re-deal a higher
//! bucket front to back — so draining a bucket front to back yields the
//! scheduling-order tie-break with no sort.
//! Buckets drain in increasing time because the cursor only moves forward
//! (higher levels cascade downward before their window is reached). An
//! event scheduled earlier than the cursor — legal on the raw API, and
//! routine under the engine's merged arrival loop, where an arrival
//! dispatched ahead of a peeked head schedules follow-ups that land before
//! it — parks in a small `(time, seq)` min-heap that drains before the
//! buckets: everything in it is earlier than the cursor, hence earlier
//! than everything in the wheel.
//!
//! **Cancellation** goes through a generation-stamped payload slab (see
//! [`EventId`]): cancel is an O(1) slab write, stale bucket entries are
//! discarded on drain by a generation comparison, and cancelling an
//! already-fired id is structurally a no-op.

use std::collections::BinaryHeap;

use crate::event::{EventId, WheelEntry};
use crate::time::SimTime;

/// Number of wheel levels (excluding the overflow list).
const LEVELS: usize = 5;
/// Bit position of each level's least-significant slot bit.
const SHIFT: [u32; LEVELS + 1] = [0, 8, 14, 20, 26, 32];
/// Slots per level (level 0 has 256, the rest 64).
const SLOTS: [usize; LEVELS] = [256, 64, 64, 64, 64];
/// Slot-index mask per level.
const MASK: [u64; LEVELS] = [255, 63, 63, 63, 63];

/// `LEVEL_OF[(t ^ cur).leading_zeros()]`: the level that holds a time whose
/// highest disagreement with the cursor is at that bit (`None` = beyond the
/// wheel horizon, park in overflow). `leading_zeros == 64` means `t == cur`,
/// which lives at level 0.
const LEVEL_OF: [Option<usize>; 65] = {
    let mut table = [None; 65];
    let mut lz = 0;
    while lz <= 64 {
        if lz == 64 {
            table[lz] = Some(0);
        } else {
            let h = 63 - lz as u32;
            let mut level = 0;
            while level < LEVELS {
                if h < SHIFT[level + 1] {
                    table[lz] = Some(level);
                    break;
                }
                level += 1;
            }
        }
        lz += 1;
    }
    table
};

/// One slab slot: the payload (while the event is live) and the slot's
/// current generation. Taking the payload — by firing or cancelling —
/// bumps the generation, invalidating every outstanding handle and bucket
/// entry stamped with the old one.
struct Slot<E> {
    generation: u32,
    payload: Option<E>,
}

/// A deterministic future-event list with O(1) schedule and cancel.
///
/// `pop` is amortised O(1): cancelled events leave stale entries behind,
/// but each is discarded exactly once by a generation comparison. `len`
/// counts live events exactly. The pop sequence for any interleaving of
/// `schedule`, `cancel`, `pop` and `peek_time` is property-tested against
/// a naive reference model (`crates/sim/tests/properties.rs`).
pub struct TimingWheel<E> {
    /// `buckets[level][slot]` — pending entries, possibly stale.
    buckets: Vec<Vec<Vec<WheelEntry>>>,
    /// Occupancy bitmaps: level 0 uses four words, levels 1–4 one each.
    occ: Vec<Vec<u64>>,
    /// Entries beyond the wheel horizon (≥ 2^32 ms past the cursor).
    overflow: Vec<WheelEntry>,
    /// Entries scheduled behind the cursor, popped in `(time, seq)` order
    /// before anything in the buckets (all of which are at or past it).
    early: BinaryHeap<WheelEntry>,
    /// Scan cursor in absolute ms: every bucket before it has drained.
    cur: u64,
    /// The drained bucket currently being popped, sorted by `seq`; all
    /// entries share the absolute time `cur` while `ready_loaded`.
    ready: Vec<WheelEntry>,
    ready_pos: usize,
    /// Whether `ready`/`cur` name a drained bucket (so same-time inserts
    /// go straight into `ready`, keeping it seq-sorted).
    ready_loaded: bool,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    next_seq: u64,
    live: usize,
}

impl<E> Default for TimingWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimingWheel<E> {
    /// An empty wheel with its cursor at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty wheel whose payload slab is preallocated for `capacity`
    /// concurrently pending events. Buckets grow lazily — they hold only
    /// what lands in their window, so no per-bucket preallocation is
    /// needed.
    pub fn with_capacity(capacity: usize) -> Self {
        TimingWheel {
            buckets: SLOTS.iter().map(|&n| vec![Vec::new(); n]).collect(),
            occ: SLOTS.iter().map(|&n| vec![0u64; n.div_ceil(64)]).collect(),
            overflow: Vec::new(),
            early: BinaryHeap::new(),
            cur: 0,
            ready: Vec::new(),
            ready_pos: 0,
            ready_loaded: false,
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
        self.live += 1;
        self.place(WheelEntry { time, seq, slot, generation });
        EventId { slot, generation }
    }

    /// Cancel a previously scheduled event: an O(1) slab write. The bucket
    /// entry stays behind as a stale tombstone discarded on drain.
    /// Cancelling an already-fired, already-cancelled, or unknown id is a
    /// no-op (returns `false`).
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

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if let Some(entry) = self.early_head() {
            self.early.pop();
            return Some((entry.time, self.take(entry)));
        }
        loop {
            while self.ready_pos < self.ready.len() {
                let entry = self.ready[self.ready_pos];
                self.ready_pos += 1;
                if self.is_current(&entry) {
                    return Some((entry.time, self.take(entry)));
                }
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// The firing time of the earliest pending (non-cancelled) event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if let Some(entry) = self.early_head() {
            return Some(entry.time);
        }
        loop {
            while self.ready_pos < self.ready.len() {
                let entry = self.ready[self.ready_pos];
                if self.is_current(&entry) {
                    return Some(entry.time);
                }
                self.ready_pos += 1;
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Number of live (scheduled and neither fired nor cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Whether `entry` still points at the live event it was placed for.
    fn is_current(&self, entry: &WheelEntry) -> bool {
        self.slots[entry.slot as usize].generation == entry.generation
    }

    /// Release live `entry`'s slot, returning its payload.
    fn take(&mut self, entry: WheelEntry) -> E {
        let slot = &mut self.slots[entry.slot as usize];
        let payload = slot.payload.take().expect("live wheel entry has a payload");
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(entry.slot);
        self.live -= 1;
        payload
    }

    /// The earliest live entry behind the cursor, discarding cancelled
    /// tombstones off the top of the early heap.
    fn early_head(&mut self) -> Option<WheelEntry> {
        while let Some(entry) = self.early.peek() {
            if self.is_current(entry) {
                return Some(*entry);
            }
            self.early.pop();
        }
        None
    }

    /// Route `entry` to its bucket. A level holds the entry iff the
    /// entry's time agrees with the cursor on every digit above that
    /// level; times behind the cursor go to the early heap.
    fn place(&mut self, entry: WheelEntry) {
        let t = entry.time.as_millis();
        if t < self.cur {
            self.early.push(entry);
            return;
        }
        if self.ready_loaded && t == self.cur {
            // Same instant as the bucket being drained: the newest seq
            // sorts last, so appending keeps `ready` seq-sorted.
            debug_assert!(self.ready.last().map_or(true, |e| e.seq < entry.seq));
            self.ready.push(entry);
            return;
        }
        // The level is a function of the highest bit where `t` and the
        // cursor disagree: level 0 holds times agreeing above bit 8, level
        // 1 above bit 14, … (one lookup instead of a compare ladder — this
        // runs once per placement and 2–3 times per event via cascades).
        match LEVEL_OF[(t ^ self.cur).leading_zeros() as usize] {
            Some(level) => {
                let slot = ((t >> SHIFT[level]) & MASK[level]) as usize;
                self.buckets[level][slot].push(entry);
                self.occ[level][slot / 64] |= 1 << (slot % 64);
            }
            None => self.overflow.push(entry),
        }
    }

    /// Move the cursor to the next non-empty bucket and load it into
    /// `ready` (seq-sorted survivors of one absolute millisecond).
    /// Returns `false` when no live events remain. Callers drain the
    /// early heap first, so every live event is in the wheel here.
    fn advance(&mut self) -> bool {
        if self.live == 0 {
            self.clear_stale();
            return false;
        }
        'outer: loop {
            // Level 0: the next occupied millisecond of the current
            // 256 ms window is the next bucket to drain.
            let from = ((self.cur & MASK[0]) as usize) + usize::from(self.ready_loaded);
            let mut scan = from;
            while let Some(slot) = self.next_occupied(0, scan) {
                let time = (self.cur & !MASK[0]) | slot as u64;
                self.occ[0][slot / 64] &= !(1 << (slot % 64));
                let mut bucket = std::mem::take(&mut self.buckets[0][slot]);
                self.ready.clear();
                self.ready_pos = 0;
                for e in bucket.drain(..) {
                    if self.slots[e.slot as usize].generation == e.generation {
                        debug_assert_eq!(e.time.as_millis(), time, "level-0 bucket is one ms");
                        self.ready.push(e);
                    }
                }
                self.buckets[0][slot] = bucket;
                if self.ready.is_empty() {
                    scan = slot + 1;
                    continue; // only tombstones — keep scanning
                }
                // Buckets fill in seq order (direct placements and
                // cascades both append in scheduling order), so no sort.
                debug_assert!(self.ready.windows(2).all(|w| w[0].seq < w[1].seq));
                self.cur = time;
                self.ready_loaded = true;
                return true;
            }
            // Window exhausted: cascade the next occupied slot of the
            // lowest level that has one down into the levels below it.
            for level in 1..LEVELS {
                let digit = ((self.cur >> SHIFT[level]) & MASK[level]) as usize;
                let mut scan = digit + 1;
                while let Some(slot) = self.next_occupied(level, scan) {
                    self.occ[level][slot / 64] &= !(1 << (slot % 64));
                    // The bucket's buffer is dropped with it: its slot comes
                    // round again only after a full lap of its level (49.7
                    // days at level 4), which a week never reaches, so a
                    // kept buffer would only hold memory.
                    let bucket = std::mem::take(&mut self.buckets[level][slot]);
                    if !bucket
                        .iter()
                        .any(|e| self.slots[e.slot as usize].generation == e.generation)
                    {
                        scan = slot + 1;
                        continue; // only tombstones — keep scanning
                    }
                    // Jump the cursor to the slot's window start, then
                    // re-deal its entries into the levels below. Every
                    // live entry lands strictly below `level` (its digit
                    // at `level` now matches the cursor's).
                    let base = (self.cur >> SHIFT[level + 1] << SHIFT[level + 1])
                        | ((slot as u64) << SHIFT[level]);
                    self.cur = base;
                    self.ready_loaded = false;
                    for e in bucket {
                        if self.slots[e.slot as usize].generation == e.generation {
                            self.place(e);
                        }
                    }
                    continue 'outer;
                }
            }
            // Whole wheel empty: re-deal the overflow against its minimum.
            self.overflow.retain(|e| self.slots[e.slot as usize].generation == e.generation);
            let Some(min) = self.overflow.iter().map(|e| e.time.as_millis()).min() else {
                debug_assert_eq!(self.live, 0, "live events must be reachable");
                return false;
            };
            self.cur = min;
            self.ready_loaded = false;
            for e in std::mem::take(&mut self.overflow) {
                self.place(e);
            }
        }
    }

    /// First occupied slot index `>= from` at `level`, if any.
    fn next_occupied(&self, level: usize, from: usize) -> Option<usize> {
        if from >= SLOTS[level] {
            return None;
        }
        let words = &self.occ[level];
        let mut word_idx = from / 64;
        let mut word = words[word_idx] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return Some(word_idx * 64 + word.trailing_zeros() as usize);
            }
            word_idx += 1;
            if word_idx >= words.len() {
                return None;
            }
            word = words[word_idx];
        }
    }

    /// Drop leftover tombstones once the wheel is empty, so an emptied
    /// wheel that is reused never scans (or re-deals) stale windows.
    fn clear_stale(&mut self) {
        debug_assert_eq!(self.live, 0);
        self.ready.clear();
        self.ready_pos = 0;
        self.ready_loaded = false;
        self.overflow.clear();
        self.early.clear();
        for level in 0..LEVELS {
            for word_idx in 0..self.occ[level].len() {
                let mut word = self.occ[level][word_idx];
                while word != 0 {
                    let slot = word_idx * 64 + word.trailing_zeros() as usize;
                    self.buckets[level][slot].clear();
                    word &= word - 1;
                }
                self.occ[level][word_idx] = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order_across_levels() {
        let mut w = TimingWheel::new();
        // One entry per level, plus one past the horizon (overflow).
        let times = [5u64, 300, 20_000, 2_000_000, 80_000_000, 5_000_000_000, 1 << 40];
        for (i, &ms) in times.iter().enumerate() {
            w.schedule(t(ms), i);
        }
        let mut sorted = times;
        sorted.sort_unstable();
        for &ms in &sorted {
            let (at, _) = w.pop().expect("entry");
            assert_eq!(at, t(ms));
        }
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let mut w = TimingWheel::new();
        for i in 0..100 {
            w.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(w.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancel_after_fire_is_a_noop_and_does_not_skew_len() {
        let mut w = TimingWheel::new();
        let a = w.schedule(t(1), "a");
        assert_eq!(w.pop(), Some((t(1), "a")));
        assert!(!w.cancel(a), "cancelling a fired event must be a no-op");
        assert_eq!(w.len(), 0);
        w.schedule(t(2), "b");
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop(), Some((t(2), "b")));
    }

    #[test]
    fn schedule_before_cursor_rewinds() {
        let mut w = TimingWheel::new();
        w.schedule(t(10), 1);
        assert_eq!(w.pop(), Some((t(10), 1)));
        w.schedule(t(5), 2); // earlier than the already-popped event is fine
        w.schedule(t(6), 3);
        w.schedule(t(400), 4); // ahead of the cursor: goes to the buckets
        assert_eq!(w.pop(), Some((t(5), 2)));
        assert_eq!(w.pop(), Some((t(6), 3)));
        assert_eq!(w.pop(), Some((t(400), 4)));
    }

    #[test]
    fn behind_cursor_entries_keep_seq_order_and_honour_cancel() {
        // The merged-arrival pattern: peek loads the bucket at 1000, then
        // several follow-ups land behind it, two at one instant, one of
        // them cancelled before it fires.
        let mut w = TimingWheel::new();
        w.schedule(t(1000), "head");
        assert_eq!(w.peek_time(), Some(t(1000)));
        w.schedule(t(300), "b");
        let dead = w.schedule(t(200), "dead");
        w.schedule(t(300), "c");
        w.schedule(t(200), "a");
        assert!(w.cancel(dead));
        assert_eq!(w.len(), 4);
        assert_eq!(w.peek_time(), Some(t(200)));
        assert_eq!(w.pop(), Some((t(200), "a")));
        w.schedule(t(250), "late"); // still behind the cursor
        assert_eq!(w.pop(), Some((t(250), "late")));
        assert_eq!(w.pop(), Some((t(300), "b")));
        assert_eq!(w.pop(), Some((t(300), "c")));
        assert_eq!(w.pop(), Some((t(1000), "head")));
        assert_eq!(w.pop(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn peek_then_earlier_schedule_still_pops_in_order() {
        // peek_time advances the cursor; a subsequent earlier schedule
        // must still fire first (an arrival's follow-up in the merged loop).
        let mut w = TimingWheel::new();
        w.schedule(t(1000), "late");
        assert_eq!(w.peek_time(), Some(t(1000)));
        w.schedule(t(7), "early");
        assert_eq!(w.peek_time(), Some(t(7)));
        assert_eq!(w.pop(), Some((t(7), "early")));
        assert_eq!(w.pop(), Some((t(1000), "late")));
    }

    #[test]
    fn cascade_releases_the_bucket_buffer() {
        // Hours ahead of the cursor sit at level 3 (2^20 ms slots); each
        // cascades through levels 2 and 1 before it fires. The bucket at
        // 2 h holds only a tombstone, so the scan discards it as well.
        let mut w = TimingWheel::new();
        let hour = 3_600_000;
        w.schedule(t(hour), 1);
        let dead = w.schedule(t(2 * hour), 2);
        w.schedule(t(3 * hour), 3);
        assert!(w.cancel(dead));
        assert_eq!(w.pop(), Some((t(hour), 1)));
        assert_eq!(w.pop(), Some((t(3 * hour), 3)));
        for (level, buckets) in w.buckets.iter().enumerate().skip(1) {
            for (slot, bucket) in buckets.iter().enumerate() {
                assert_eq!(bucket.capacity(), 0, "level {level} slot {slot} kept its buffer");
            }
        }
    }
}
