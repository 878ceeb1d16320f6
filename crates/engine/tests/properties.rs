//! Property-based tests of the simulation kernel.

use pei_engine::{BwChannel, EventQueue, Occupancy, SimRng};
use proptest::prelude::*;

proptest! {
    /// The event queue is a stable priority queue: pops are sorted by
    /// time, and same-time events keep insertion order.
    #[test]
    fn event_queue_stable_sort(times in proptest::collection::vec(0u64..50, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t > lt || (t == lt && i > li), "instability at {t}/{i}");
            }
            prop_assert_eq!(times[i], t);
            last = Some((t, i));
        }
    }

    /// Same-cycle FIFO order survives arbitrary interleavings of
    /// schedules and pops — including schedules issued *while popping*,
    /// which must land behind every event already queued for that cycle
    /// (the system relies on this when a handler re-schedules work for
    /// the cycle it is currently draining). Like the simulator, it
    /// schedules each event at an offset from the last popped cycle.
    #[test]
    fn event_queue_fifo_under_interleaving(
        ops in proptest::collection::vec((0u64..6, 0u32..4), 1..300),
    ) {
        use std::collections::{BTreeMap, VecDeque};
        // Reference model: per-cycle FIFO queues keyed by time; a pop
        // must return the front of the first non-empty cycle.
        let mut q = EventQueue::new();
        let mut model: BTreeMap<u64, VecDeque<usize>> = BTreeMap::new();
        let mut next_id = 0usize;
        let mut now = 0u64;
        for &(dt, kind) in &ops {
            if kind == 1 || kind == 2 {
                q.schedule(now + dt, next_id);
                model.entry(now + dt).or_default().push_back(next_id);
                next_id += 1;
            } else if let Some((pt, id)) = q.pop() {
                let (&mt, fifo) = model
                    .iter_mut()
                    .find(|(_, f)| !f.is_empty())
                    .expect("queue produced an event the model does not have");
                prop_assert_eq!(pt, mt, "popped out of time order");
                prop_assert_eq!(id, fifo.pop_front().unwrap(), "same-cycle FIFO violated");
                now = pt;
                if kind == 3 {
                    // Mid-drain schedule at the cycle being popped.
                    q.schedule(pt, next_id);
                    model.entry(pt).or_default().push_back(next_id);
                    next_id += 1;
                }
            } else {
                prop_assert!(model.values().all(|f| f.is_empty()), "queue empty, model not");
            }
        }
        while let Some((pt, id)) = q.pop() {
            let (&mt, fifo) = model
                .iter_mut()
                .find(|(_, f)| !f.is_empty())
                .expect("queue produced an event the model does not have");
            prop_assert_eq!(pt, mt, "drain popped out of time order");
            prop_assert_eq!(id, fifo.pop_front().unwrap(), "drain violated same-cycle FIFO");
        }
        prop_assert!(model.values().all(|f| f.is_empty()), "events lost in the queue");
    }

    /// Differential test: the calendar queue must agree, pop for pop,
    /// with a plainly-correct ordered-map model under arbitrary
    /// interleavings of schedules and pops. Each time is an offset from
    /// the last popped cycle, drawn from four bands — inside the window,
    /// just around the horizon boundary, beyond it, and past 2^53 — so
    /// bucket wraparound, the overflow refill path, and the window-jump
    /// path all get exercised, as do schedules issued mid-drain.
    #[test]
    fn calendar_queue_matches_ordered_model(
        ops in proptest::collection::vec(
            (
                prop_oneof![
                    0u64..20,                          // in-window
                    6u64..11,                          // horizon boundary (window = 8)
                    100u64..140,                       // beyond horizon
                    (1u64 << 53)..(1u64 << 53) + 4,    // far beyond, past f64 precision
                ],
                0u32..5,
            ),
            1..400,
        ),
    ) {
        use std::collections::BTreeMap;
        // Window of 8 cycles so a 400-op sequence wraps it many times.
        let mut q = pei_engine::EventQueue::with_horizon(8);
        // Reference model: (time, seq) -> id in an ordered map; the
        // front entry is by definition the correct next pop.
        let mut model: BTreeMap<(u64, u64), usize> = BTreeMap::new();
        let mut next_id = 0usize;
        let mut seq = 0u64;
        let mut now = 0u64;
        for &(dt, kind) in &ops {
            if kind <= 1 {
                seq += 1;
                q.schedule(now + dt, next_id);
                model.insert((now + dt, seq), next_id);
                next_id += 1;
            } else if let Some((pt, id)) = q.pop() {
                let (&(mt, mseq), &mid) = model.iter().next()
                    .expect("queue produced an event the model does not have");
                prop_assert_eq!((pt, id), (mt, mid), "pop diverged from model");
                model.remove(&(mt, mseq));
                now = pt;
                if kind == 4 {
                    // Mid-drain schedule at the cycle just popped.
                    seq += 1;
                    q.schedule(pt, next_id);
                    model.insert((pt, seq), next_id);
                    next_id += 1;
                }
            } else {
                prop_assert!(model.is_empty(), "queue empty, model not");
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.peek_time(), model.keys().next().map(|&(t, _)| t));
        }
        while let Some((pt, id)) = q.pop() {
            let (&(mt, mseq), &mid) = model.iter().next()
                .expect("drain produced an event the model does not have");
            prop_assert_eq!((pt, id), (mt, mid), "drain diverged from model");
            model.remove(&(mt, mseq));
        }
        prop_assert!(model.is_empty(), "events lost in the queue");
    }

    /// Channel deliveries are monotone in submission order and never
    /// faster than serialization allows.
    #[test]
    fn channel_monotone_and_bandwidth_bounded(
        sizes in proptest::collection::vec(1u64..256, 1..100),
        bw in 1u32..64,
    ) {
        let bw = bw as f64;
        let mut c = BwChannel::new(bw, 0);
        let mut prev = 0;
        for &s in &sizes {
            let at = c.transfer(0, s);
            prop_assert!(at >= prev, "delivery order inverted");
            prev = at;
        }
        let total: u64 = sizes.iter().sum();
        let min_cycles = (total as f64 / bw).floor() as u64;
        prop_assert!(prev >= min_cycles, "faster than the wire: {prev} < {min_cycles}");
        // And within one cycle of accounting slack per transfer.
        prop_assert!(prev <= min_cycles + sizes.len() as u64 + 2);
        prop_assert_eq!(c.bytes_carried(), total);
    }

    /// Occupancy reservations never overlap and conserve busy time.
    #[test]
    fn occupancy_no_overlap(reqs in proptest::collection::vec((0u64..1000, 1u64..50), 1..100)) {
        let mut o = Occupancy::new();
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        for &(now, dur) in &reqs {
            let start = o.reserve(now, dur);
            prop_assert!(start >= now);
            intervals.push((start, start + dur));
        }
        intervals.sort_unstable();
        for w in intervals.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "overlapping reservations");
        }
        let busy: u64 = reqs.iter().map(|&(_, d)| d).sum();
        prop_assert_eq!(o.busy_cycles(), busy);
    }

    /// The RNG's bounded generator is uniform enough and always in range.
    #[test]
    fn rng_range_respected(seed in any::<u64>(), bound in 1u64..10_000) {
        let mut r = SimRng::seed_from(seed);
        for _ in 0..100 {
            prop_assert!(r.gen_range(bound) < bound);
        }
    }

    /// Shuffle produces a permutation for any seed and length.
    #[test]
    fn shuffle_is_permutation(seed in any::<u64>(), n in 0usize..200) {
        let mut r = SimRng::seed_from(seed);
        let mut v: Vec<usize> = (0..n).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }
}
