//! Typed event counters: dense `u64` slots bumped on the hot path,
//! flushed into a [`StatsReport`] only at end of run.
//!
//! Components register each counter once at construction and get back a
//! copyable [`CounterId`] index; per-event bumps are then a single array
//! add — no `String` formatting and no `BTreeMap` walk until the final
//! report. See DESIGN.md §"Event kernel and outbox contract".

use crate::StatsReport;

/// Index of a registered counter (a dense slot in a [`Counters`] bank).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// A bank of named `u64` counters.
///
/// # Examples
///
/// ```
/// use pei_engine::{Counters, StatsReport};
///
/// let mut c = Counters::new();
/// let hits = c.register("hits");
/// let misses = c.register("misses");
/// c.inc(hits);
/// c.add(misses, 2);
/// assert_eq!(c.get(hits), 1);
///
/// let mut stats = StatsReport::new();
/// c.flush("l1.", &mut stats);
/// assert_eq!(stats.expect("l1.misses"), 2.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Counters {
    names: Vec<&'static str>,
    slots: Vec<u64>,
    /// Labeled point-in-time copies of `slots` (see
    /// [`snapshot`](Counters::snapshot)); empty unless a caller marks
    /// phases, so the default flush output is unchanged.
    snapshots: Vec<(&'static str, Vec<u64>)>,
}

impl Counters {
    /// Creates an empty bank.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Registers a counter under `name`, returning its slot id.
    /// Construction-time only; names need not be unique (duplicates
    /// would sum in [`flush`](Counters::flush), so don't).
    pub fn register(&mut self, name: &'static str) -> CounterId {
        let id = CounterId(self.names.len() as u32);
        self.names.push(name);
        self.slots.push(0);
        id
    }

    /// Adds one to the counter. Hot path: one indexed add.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.slots[id.0 as usize] += 1;
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.slots[id.0 as usize] += n;
    }

    /// Current value.
    pub fn get(&self, id: CounterId) -> u64 {
        self.slots[id.0 as usize]
    }

    /// Labels the current counter values as the end of phase `label`.
    /// Off the hot path (one `Vec` clone); call at phase boundaries
    /// only. [`flush`](Counters::flush) then additionally emits each
    /// phase's *interval* (the per-counter delta since the previous
    /// snapshot) as `{prefix}phase.{label}.{name}`, with the tail after
    /// the last snapshot labeled `steady`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pei_engine::{Counters, StatsReport};
    ///
    /// let mut c = Counters::new();
    /// let hits = c.register("hits");
    /// c.add(hits, 3);
    /// c.snapshot("warmup");
    /// c.add(hits, 10);
    ///
    /// let mut stats = StatsReport::new();
    /// c.flush("l1.", &mut stats);
    /// assert_eq!(stats.expect("l1.hits"), 13.0);
    /// assert_eq!(stats.expect("l1.phase.warmup.hits"), 3.0);
    /// assert_eq!(stats.expect("l1.phase.steady.hits"), 10.0);
    /// ```
    pub fn snapshot(&mut self, label: &'static str) {
        self.snapshots.push((label, self.slots.clone()));
    }

    /// Writes every counter into `stats` as `{prefix}{name}`,
    /// accumulating into existing keys, and each phase interval
    /// recorded via [`snapshot`](Counters::snapshot) as
    /// `{prefix}phase.{label}.{name}`. End-of-run only.
    pub fn flush(&self, prefix: &str, stats: &mut StatsReport) {
        for (name, &v) in self.names.iter().zip(&self.slots) {
            stats.bump(format!("{prefix}{name}"), v as f64);
        }
        if self.snapshots.is_empty() {
            return;
        }
        let zeros = vec![0u64; self.slots.len()];
        let mut prev = &zeros;
        for (label, snap) in &self.snapshots {
            self.flush_interval(prefix, label, prev, snap, stats);
            prev = snap;
        }
        self.flush_interval(prefix, "steady", prev, &self.slots, stats);
    }

    /// Emits `end - start` for every counter as
    /// `{prefix}phase.{label}.{name}`.
    fn flush_interval(
        &self,
        prefix: &str,
        label: &str,
        start: &[u64],
        end: &[u64],
        stats: &mut StatsReport,
    ) {
        for ((name, &s), &e) in self.names.iter().zip(start).zip(end) {
            stats.bump(format!("{prefix}phase.{label}.{name}"), (e - s) as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_inc_get() {
        let mut c = Counters::new();
        let a = c.register("a");
        let b = c.register("b");
        c.inc(a);
        c.inc(a);
        c.add(b, 10);
        assert_eq!(c.get(a), 2);
        assert_eq!(c.get(b), 10);
    }

    #[test]
    fn flush_prefixes_and_accumulates() {
        let mut c = Counters::new();
        let a = c.register("reads");
        c.add(a, 3);
        let mut stats = StatsReport::new();
        stats.add("dram.reads", 1.0);
        c.flush("dram.", &mut stats);
        assert_eq!(stats.expect("dram.reads"), 4.0);
    }

    #[test]
    fn snapshots_emit_phase_intervals() {
        let mut c = Counters::new();
        let a = c.register("reads");
        let b = c.register("writes");
        c.add(a, 5);
        c.snapshot("warmup");
        c.add(a, 2);
        c.add(b, 7);
        c.snapshot("mid");
        c.inc(b);
        let mut stats = StatsReport::new();
        c.flush("v.", &mut stats);
        // Totals are unchanged by snapshotting.
        assert_eq!(stats.expect("v.reads"), 7.0);
        assert_eq!(stats.expect("v.writes"), 8.0);
        // Intervals are deltas between consecutive snapshots.
        assert_eq!(stats.expect("v.phase.warmup.reads"), 5.0);
        assert_eq!(stats.expect("v.phase.warmup.writes"), 0.0);
        assert_eq!(stats.expect("v.phase.mid.reads"), 2.0);
        assert_eq!(stats.expect("v.phase.mid.writes"), 7.0);
        // The tail after the last snapshot is the steady interval.
        assert_eq!(stats.expect("v.phase.steady.reads"), 0.0);
        assert_eq!(stats.expect("v.phase.steady.writes"), 1.0);
    }

    #[test]
    fn no_snapshots_means_no_phase_keys() {
        let mut c = Counters::new();
        let a = c.register("reads");
        c.inc(a);
        let mut stats = StatsReport::new();
        c.flush("v.", &mut stats);
        assert_eq!(stats.len(), 1, "only the total must be emitted");
    }

    #[test]
    fn zero_counters_still_flush() {
        let mut c = Counters::new();
        c.register("idle");
        let mut stats = StatsReport::new();
        c.flush("x.", &mut stats);
        assert_eq!(stats.expect("x.idle"), 0.0);
    }
}
