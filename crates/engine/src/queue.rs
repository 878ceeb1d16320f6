//! The central event queue: a bucketed calendar queue.
//!
//! Discrete-event simulation schedules almost every event a handful of
//! cycles ahead of the cycle being dispatched (cache latencies, crossbar
//! hops, DRAM timing), with a thin tail of far-future events (deep
//! channel backlogs, bank wakeups behind a refresh). A binary heap pays
//! O(log n) per push for that population; a calendar queue (Brown 1988,
//! the structure behind gem5-style schedulers) pays O(1) for the
//! near-future bulk and falls back to a heap only for the tail.
//!
//! The structure is a ring of per-cycle buckets covering a sliding
//! window `[base, base + window)`:
//!
//! - **In-window** schedules append to the singly-linked FIFO list of
//!   their cycle's bucket — O(1), FIFO by construction. Buckets are two
//!   flat `u32` arrays (list head/tail per bucket) indexing into one
//!   reusable slot slab, whose free slots are chained through the same
//!   `next` links, so the working set stays compact: the pending
//!   population lives in one contiguous allocation regardless of how
//!   many buckets it spreads across, and the pop-side scan for the next
//!   non-empty cycle walks a dense `u32` array.
//! - **Beyond-horizon** schedules go to an overflow `BinaryHeap`, keyed
//!   by `(cycle, seq)` so the global schedule order is preserved. As the
//!   window slides forward, overflow entries whose cycle enters the
//!   window are moved into their bucket (each cycle's bucket is
//!   provably empty at the moment the window first covers it, and the
//!   heap yields same-cycle entries in `seq` order, so the move cannot
//!   reorder same-cycle events).
//!
//! Time never runs backwards: a schedule below `base` (the cycle of the
//! last pop, or the limit a [`pop_before`](EventQueue::pop_before)
//! stopped at) panics. Same-cycle FIFO order is exact across both
//! regions: bucket lists only ever receive entries in increasing
//! schedule order, and the heap orders by `(cycle, seq)` with `seq`
//! assigned globally at `schedule` time.

use pei_types::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Default window width in cycles (= buckets, at one cycle per bucket):
/// generously covers cache, crossbar, and DRAM-timing deltas.
const DEFAULT_WINDOW: u64 = 1024;
/// Window bounds for [`EventQueue::with_horizon`]: small enough to test
/// wraparound, large enough to keep the ring O(100 KB).
const MIN_WINDOW: u64 = 8;
const MAX_WINDOW: u64 = 1 << 16;

/// Sentinel for "no slot" in bucket lists and slot links.
const NIL: u32 = u32::MAX;

/// A time-ordered event queue with stable FIFO ordering among events
/// scheduled for the same cycle.
///
/// Stability matters for determinism: the whole simulator is reproducible
/// bit-for-bit given the same configuration and seeds, which the test suite
/// relies on.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Per-bucket FIFO list head, `NIL` when the bucket is empty;
    /// `heads[c & mask]` is the list for cycle `c` while `c` is inside
    /// the window.
    heads: Box<[u32]>,
    /// Per-bucket FIFO list tail; meaningful only when the matching
    /// head is not `NIL`.
    tails: Box<[u32]>,
    /// `heads.len() - 1`; the length is a power of two.
    mask: u64,
    /// First cycle the window covers, and the earliest cycle
    /// [`schedule`](Self::schedule) accepts. Never decreases.
    base: Cycle,
    /// `(base & mask) as usize`, kept in sync with `base`.
    cursor: usize,
    /// Events currently held in buckets.
    in_window: usize,
    /// Slot storage for bucket entries; freed slots are recycled through
    /// the free list, so steady-state scheduling allocates nothing.
    slab: Vec<Slot<E>>,
    /// Head of the free-slot list (`NIL` when empty), chained through
    /// `Slot::next`.
    free: u32,
    /// Events at cycles `>= base + window`, ordered by `(at, seq)`.
    overflow: BinaryHeap<Reverse<Entry<E>>>,
    /// Cycle of the earliest overflow entry (`u64::MAX` when empty):
    /// lets the pop-side scan test "does the window need a refill?"
    /// with one integer compare instead of a heap peek per step.
    overflow_next: Cycle,
    /// Events ever scheduled; also each overflow entry's `seq`, the global
    /// schedule order.
    scheduled: u64,
}

/// A slab slot: one bucket-resident event and its FIFO successor, or,
/// when free, the next free slot. The cycle is implied by the bucket; no
/// per-slot `seq` is needed because bucket lists are appended to in
/// schedule order only.
#[derive(Debug)]
struct Slot<E> {
    next: u32,
    ev: Option<E>,
}

#[derive(Debug)]
struct Entry<E> {
    at: Cycle,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the default near-future window.
    pub fn new() -> Self {
        Self::with_window(DEFAULT_WINDOW)
    }

    /// Creates an empty queue sized for a caller-known event horizon:
    /// the window is the smallest power of two covering `horizon`
    /// cycles (clamped to `[8, 65536]`). Schedules beyond the window
    /// still work — they take the O(log n) overflow path instead of the
    /// O(1) bucket path — so the horizon is a performance hint, never a
    /// correctness bound.
    pub fn with_horizon(horizon: Cycle) -> Self {
        Self::with_window(horizon.clamp(MIN_WINDOW, MAX_WINDOW).next_power_of_two())
    }

    fn with_window(window: u64) -> Self {
        debug_assert!(window.is_power_of_two());
        EventQueue {
            heads: vec![NIL; window as usize].into_boxed_slice(),
            tails: vec![NIL; window as usize].into_boxed_slice(),
            mask: window - 1,
            base: 0,
            cursor: 0,
            in_window: 0,
            slab: Vec::new(),
            free: NIL,
            overflow: BinaryHeap::new(),
            overflow_next: u64::MAX,
            scheduled: 0,
        }
    }

    /// Window width in cycles.
    #[inline]
    fn window(&self) -> u64 {
        self.mask + 1
    }

    /// Appends `ev` to the FIFO list of the bucket for cycle `at`
    /// (which must be inside the window).
    #[inline]
    fn push_bucket(&mut self, at: Cycle, ev: E) {
        let idx = if self.free != NIL {
            let i = self.free;
            let s = &mut self.slab[i as usize];
            self.free = s.next;
            s.next = NIL;
            s.ev = Some(ev);
            i
        } else {
            assert!(self.slab.len() < NIL as usize, "event population overflow");
            self.slab.push(Slot {
                next: NIL,
                ev: Some(ev),
            });
            (self.slab.len() - 1) as u32
        };
        let b = (at & self.mask) as usize;
        if self.heads[b] == NIL {
            self.heads[b] = idx;
        } else {
            self.slab[self.tails[b] as usize].next = idx;
        }
        self.tails[b] = idx;
        self.in_window += 1;
    }

    /// Unlinks the head of the current bucket, returns its slot to the
    /// free list and yields its event.
    #[inline]
    fn pop_head(&mut self) -> E {
        let i = self.heads[self.cursor];
        let slot = &mut self.slab[i as usize];
        self.heads[self.cursor] = slot.next;
        slot.next = self.free;
        self.free = i;
        self.in_window -= 1;
        slot.ev.take().expect("bucket slot holds an event")
    }

    /// Moves overflow entries whose cycle the window now covers into
    /// their buckets. Called at every point `base` advances, before
    /// control returns to the caller, so outside `pop` the overflow
    /// never holds an in-window cycle — which is what lets `schedule`
    /// push straight onto a bucket without an ordering check.
    #[cold]
    fn refill(&mut self) {
        let end = self.base.saturating_add(self.window());
        while self.overflow_next < end {
            let Reverse(e) = self.overflow.pop().expect("overflow_next says non-empty");
            self.push_bucket(e.at, e.ev);
            self.overflow_next = self.overflow.peek().map_or(u64::MAX, |Reverse(t)| t.at);
        }
    }

    /// Schedules `ev` to fire at absolute cycle `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is below the cycle of the last pop (or the limit
    /// a `pop_before` advanced to): the queue never moves back in time.
    pub fn schedule(&mut self, at: Cycle, ev: E) {
        assert!(
            at >= self.base,
            "event scheduled at cycle {at}, below the queue's cycle {}",
            self.base
        );
        self.scheduled += 1;
        if at - self.base < self.window() {
            self.push_bucket(at, ev);
        } else {
            self.overflow_next = self.overflow_next.min(at);
            self.overflow.push(Reverse(Entry {
                at,
                seq: self.scheduled,
                ev,
            }));
        }
    }

    /// Removes and returns the earliest event together with its cycle.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.pop_through(Cycle::MAX)
    }

    /// Removes and returns the earliest event **strictly before**
    /// `limit`, or `None` if every pending event is at `limit` or
    /// later (or the queue is empty).
    ///
    /// This is the pause primitive of `System::run_paused`: the run loop
    /// calls `pop_before(pause_at)` until it returns `None`, including
    /// for events other dispatches schedule *into* the window while it
    /// drains. Events at or past `limit` are left untouched — the
    /// window `base` advances at most to `limit`, so a later
    /// [`pop`](Self::pop) or `pop_before` with a larger limit observes
    /// exactly the schedule order an unpaused drain would.
    pub fn pop_before(&mut self, limit: Cycle) -> Option<(Cycle, E)> {
        self.pop_through(limit.checked_sub(1)?)
    }

    /// The one scan behind [`pop`](Self::pop) and
    /// [`pop_before`](Self::pop_before): removes and returns the
    /// earliest event at or before cycle `last`; `base` advances at most
    /// to `last + 1`.
    #[inline]
    fn pop_through(&mut self, last: Cycle) -> Option<(Cycle, E)> {
        if self.in_window > 0 {
            // Slide the window to the first non-empty bucket. Each step
            // exposes exactly one new cycle at the far end, whose ring
            // slot is the bucket just verified empty — refill eagerly so
            // overflow entries land there ahead of any future schedule,
            // and any overflow entry up to `last` is in a bucket by the
            // time `base` reaches its cycle.
            loop {
                if self.base > last {
                    return None;
                }
                if self.heads[self.cursor] != NIL {
                    return Some((self.base, self.pop_head()));
                }
                self.base += 1;
                self.cursor = (self.cursor + 1) & self.mask as usize;
                if self.overflow_next < self.base.saturating_add(self.window()) {
                    self.refill();
                }
            }
        }
        // Window empty: jump it to the earliest overflow entry.
        if self.overflow_next > last {
            return None;
        }
        let Reverse(e) = self.overflow.pop()?;
        self.base = e.at;
        self.cursor = (e.at & self.mask) as usize;
        self.overflow_next = self.overflow.peek().map_or(u64::MAX, |Reverse(t)| t.at);
        if self.overflow_next < self.base.saturating_add(self.window()) {
            self.refill();
        }
        Some((e.at, e.ev))
    }

    /// Cycle of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        if self.in_window > 0 {
            for d in 0..self.window() {
                if self.heads[((self.base + d) & self.mask) as usize] != NIL {
                    return Some(self.base + d);
                }
            }
            unreachable!("in_window > 0 but every bucket is empty");
        }
        self.overflow.peek().map(|Reverse(e)| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.in_window + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever scheduled (a cheap progress/diagnostic metric).
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.schedule(3, 'c');
        q.schedule(1, 'a');
        q.schedule(3, 'd');
        q.schedule(2, 'b');
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![(1, 'a'), (2, 'b'), (3, 'c'), (3, 'd')]);
    }

    #[test]
    fn peek_and_len_track_state() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(9, ());
        q.schedule(4, ());
        assert_eq!(q.peek_time(), Some(4));
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_scheduled(), 2);
        q.pop();
        assert_eq!(q.peek_time(), Some(9));
    }

    #[test]
    fn large_volume_stays_sorted() {
        let mut q = EventQueue::new();
        // Deterministic pseudo-random schedule times.
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..10_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.schedule(x % 1000, i);
        }
        let mut last = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn overflow_events_come_back_in_order() {
        // Window of 8: everything past cycle 7 takes the overflow path.
        let mut q = EventQueue::<u32>::with_horizon(8);
        q.schedule(1_000_000, 3);
        q.schedule(2, 0);
        q.schedule(500, 2);
        q.schedule(20, 1);
        q.schedule(1_000_000, 4); // same far cycle: FIFO inside overflow
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            drained,
            vec![(2, 0), (20, 1), (500, 2), (1_000_000, 3), (1_000_000, 4)]
        );
    }

    #[test]
    fn refill_keeps_same_cycle_fifo_across_regions() {
        // An overflow entry for cycle 12 must still pop before a bucket
        // entry scheduled for cycle 12 after the window slid over it.
        let mut q = EventQueue::<&str>::with_horizon(8);
        q.schedule(12, "overflow-first"); // beyond window [0, 8)
        q.schedule(5, "warm");
        assert_eq!(q.pop(), Some((5, "warm"))); // window slides past 5
        q.schedule(12, "bucket-second"); // now in-window
        assert_eq!(q.pop(), Some((12, "overflow-first")));
        assert_eq!(q.pop(), Some((12, "bucket-second")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn window_wraparound_many_laps() {
        // Drive the ring through many laps with a mix of strides.
        let mut q = EventQueue::with_horizon(8);
        let mut now = 0u64;
        let mut popped = 0u64;
        q.schedule(0, 0u64);
        while let Some((t, i)) = q.pop() {
            assert!(t >= now, "time went backwards: {t} < {now}");
            now = t;
            popped += 1;
            if popped < 200 {
                q.schedule(now + 1 + (i % 5), popped); // near
                if popped.is_multiple_of(7) {
                    q.schedule(now + 100, popped + 1_000); // far
                }
            }
        }
        assert!(popped >= 200);
        assert_eq!(q.len(), 0);
    }

    #[test]
    #[should_panic(expected = "event scheduled at cycle 3, below the queue's cycle 50")]
    fn scheduling_below_the_last_pop_panics() {
        // Time never runs backwards: once a pop reached cycle 50, an
        // event for cycle 3 is a caller bug, not a late arrival.
        let mut q = EventQueue::new();
        q.schedule(50, 'b');
        assert_eq!(q.pop(), Some((50, 'b'))); // base is now 50
        q.schedule(50, 'c'); // the current cycle is still open
        q.schedule(3, 'a');
    }

    #[test]
    fn far_future_beyond_2_53_cycles() {
        let mut q = EventQueue::new();
        let far = 1u64 << 60;
        q.schedule(far + 1, 'b');
        q.schedule(far, 'a');
        q.schedule(far + 1, 'c');
        assert_eq!(q.pop(), Some((far, 'a')));
        // After the jump, near-future scheduling works at the new base.
        q.schedule(far + 1, 'd');
        assert_eq!(q.pop(), Some((far + 1, 'b')));
        assert_eq!(q.pop(), Some((far + 1, 'c')));
        assert_eq!(q.pop(), Some((far + 1, 'd')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn slots_are_recycled() {
        // Steady-state schedule/pop cycles must not grow the slab.
        let mut q = EventQueue::with_horizon(64);
        let mut now = 0;
        for round in 0..100u64 {
            for k in 0..8 {
                q.schedule(now + k % 3, (round, k));
            }
            for _ in 0..8 {
                now = q.pop().unwrap().0;
            }
        }
        assert!(q.is_empty());
        assert!(q.slab.len() <= 16, "slab grew to {}", q.slab.len());
    }

    #[test]
    fn pop_before_respects_the_limit() {
        let mut q = EventQueue::new();
        q.schedule(3, 'c');
        q.schedule(1, 'a');
        q.schedule(3, 'd');
        q.schedule(7, 'e');
        assert_eq!(q.pop_before(1), None); // 1 is not strictly before 1
        assert_eq!(q.pop_before(4), Some((1, 'a')));
        q.schedule(2, 'b'); // scheduled mid-drain, still inside the window
        assert_eq!(q.pop_before(4), Some((2, 'b')));
        assert_eq!(q.pop_before(4), Some((3, 'c')));
        assert_eq!(q.pop_before(4), Some((3, 'd')));
        assert_eq!(q.pop_before(4), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((7, 'e'))); // plain pop resumes cleanly
    }

    #[test]
    fn pop_before_crosses_the_overflow_region() {
        // Overflow entries below the limit must surface; at/after it
        // they must not, even when the bucket window is empty.
        let mut q = EventQueue::<u32>::with_horizon(8);
        q.schedule(1_000, 1);
        q.schedule(2_000, 2);
        assert_eq!(q.pop_before(1_000), None);
        assert_eq!(q.pop_before(1_001), Some((1_000, 1)));
        assert_eq!(q.pop_before(2_000), None);
        assert_eq!(q.pop_before(u64::MAX), Some((2_000, 2)));
        assert_eq!(q.pop_before(u64::MAX), None);
    }

    #[test]
    fn windowed_drain_matches_unwindowed_order() {
        // Popping through pause windows must reproduce the exact
        // sequence a plain pop-loop yields, including same-cycle FIFO
        // and overflow hand-back, for a small ring with wraparound.
        let build = || {
            let mut q = EventQueue::with_horizon(8);
            let mut x = 0x2545f4914f6cdd1du64;
            for i in 0..500u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                q.schedule(x % 97, i);
            }
            q
        };
        let mut a = build();
        let plain: Vec<_> = std::iter::from_fn(|| a.pop()).collect();
        let mut b = build();
        let mut windowed = Vec::new();
        for slice in 0.. {
            let end = (slice + 1) * 10;
            while let Some(e) = b.pop_before(end) {
                windowed.push(e);
            }
            if b.is_empty() {
                break;
            }
        }
        assert_eq!(plain, windowed);
    }

    #[test]
    fn horizon_is_clamped_and_rounded() {
        // Behavioural check only: tiny and huge horizons must both
        // yield working queues.
        for h in [0, 1, 7, 9, 1000, u64::MAX] {
            let mut q = EventQueue::with_horizon(h);
            q.schedule(5, 1);
            q.schedule(100_000, 2);
            q.schedule(5, 3);
            assert_eq!(q.pop(), Some((5, 1)));
            assert_eq!(q.pop(), Some((5, 3)));
            assert_eq!(q.pop(), Some((100_000, 2)));
        }
    }
}
