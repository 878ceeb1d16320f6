//! The in-memory recorder the simulator captures into, and the
//! loaded-trace type.

use crate::record::{CompId, KindId, Record};
use crate::TraceError;
use std::collections::HashMap;

/// Buffers trace records in memory, optionally as a ring keeping only
/// the most recent `capacity` records (older records are evicted and
/// counted in [`dropped`](Recorder::dropped)).
///
/// Component and kind names are interned: [`comp`](Recorder::comp) and
/// [`kind`](Recorder::kind) return the same id for the same name, so a
/// caller interns once and [`record`](Recorder::record) takes only ids
/// (the hot path never hashes a string).
///
/// # Examples
///
/// ```
/// use pei_trace::Recorder;
///
/// let mut rec = Recorder::with_capacity(2);
/// let c = rec.comp("pmu");
/// let k = rec.kind("pmu.request");
/// for cycle in 0..5 {
///     rec.record(cycle, c, k, cycle);
/// }
/// assert_eq!(rec.dropped(), 3);
/// let cycles: Vec<u64> = rec.records().map(|r| r.cycle).collect();
/// assert_eq!(cycles, vec![3, 4]); // the ring keeps the newest two
/// ```
#[derive(Debug, Default)]
pub struct Recorder {
    comps: Vec<String>,
    comp_ids: HashMap<String, u16>,
    kinds: Vec<String>,
    kind_ids: HashMap<String, u16>,
    meta: Vec<(String, String)>,
    buf: Vec<Record>,
    /// Ring capacity; `None` = unbounded.
    cap: Option<usize>,
    /// Index of the oldest record within `buf` (ring mode only).
    start: usize,
    dropped: u64,
}

impl Recorder {
    /// An unbounded recorder: every record is kept.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// A ring recorder keeping only the most recent `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be at least 1");
        Recorder {
            cap: Some(capacity),
            ..Recorder::default()
        }
    }

    /// Interns a component name, returning its stable id.
    pub fn comp(&mut self, name: &str) -> CompId {
        CompId(intern(&mut self.comps, &mut self.comp_ids, name))
    }

    /// Interns an event-kind name, returning its stable id.
    pub fn kind(&mut self, name: &str) -> KindId {
        KindId(intern(&mut self.kinds, &mut self.kind_ids, name))
    }

    /// Captures one event. Hot path.
    #[inline]
    pub fn record(&mut self, cycle: u64, comp: CompId, kind: KindId, payload: u64) {
        let r = Record {
            cycle,
            comp,
            kind,
            payload,
        };
        match self.cap {
            Some(cap) if self.buf.len() == cap => {
                // Ring overwrite: replace the oldest slot and advance.
                self.buf[self.start] = r;
                self.start = (self.start + 1) % cap;
                self.dropped += 1;
            }
            _ => self.buf.push(r),
        }
    }

    /// Attaches a key → value metadata entry (run description, stats
    /// digest). Order is preserved; duplicate keys keep the last value.
    pub fn meta(&mut self, key: &str, value: &str) {
        if let Some(slot) = self.meta.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value.to_string();
        } else {
            self.meta.push((key.to_string(), value.to_string()));
        }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no records are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of records evicted by the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The ring capacity this recorder was built with (`None` =
    /// unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.cap
    }

    /// Held records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.buf[self.start..].iter().chain(&self.buf[..self.start])
    }

    /// Snapshots this recorder into an owned [`Trace`] (records in
    /// oldest-first order, tables and meta cloned).
    pub fn to_trace(&self) -> Trace {
        Trace {
            meta: self.meta.clone(),
            comps: self.comps.clone(),
            kinds: self.kinds.clone(),
            dropped: self.dropped,
            records: self.records().copied().collect(),
        }
    }
}

fn intern(table: &mut Vec<String>, ids: &mut HashMap<String, u16>, name: &str) -> u16 {
    if let Some(&id) = ids.get(name) {
        return id;
    }
    assert!(table.len() < u16::MAX as usize, "interned-table overflow");
    let id = table.len() as u16;
    table.push(name.to_string());
    ids.insert(name.to_string(), id);
    id
}

/// A fully loaded trace: name tables, metadata, and records in capture
/// order (oldest first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Ordered key → value metadata (run description, stats digest).
    pub meta: Vec<(String, String)>,
    /// Component name table; a [`CompId`] indexes it.
    pub comps: Vec<String>,
    /// Event-kind name table; a [`KindId`] indexes it.
    pub kinds: Vec<String>,
    /// Records evicted by the capture ring before these.
    pub dropped: u64,
    /// The captured records.
    pub records: Vec<Record>,
}

impl Trace {
    /// Looks up a metadata value by key.
    pub fn meta_get(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The component name of a record.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this trace's table.
    pub fn comp_name(&self, id: CompId) -> &str {
        &self.comps[id.0 as usize]
    }

    /// The kind name of a record.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for this trace's table.
    pub fn kind_name(&self, id: KindId) -> &str {
        &self.kinds[id.0 as usize]
    }

    /// Serializes to the `.petr` binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        crate::format::encode(self)
    }

    /// Parses a `.petr` byte image.
    ///
    /// # Errors
    ///
    /// [`TraceError`] on truncation, bad magic, or malformed tables.
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
        crate::format::decode(bytes)
    }

    /// Loads the `.petr` file at `path`.
    ///
    /// # Errors
    ///
    /// I/O errors are wrapped in [`TraceError::Io`]; malformed content
    /// reports the offending offset.
    pub fn load(path: &std::path::Path) -> Result<Trace, TraceError> {
        let bytes = std::fs::read(path).map_err(|e| TraceError::Io(e.to_string()))?;
        Trace::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_keeps_everything_in_order() {
        let mut rec = Recorder::new();
        let c = rec.comp("a");
        let k = rec.kind("x");
        // Interning is stable: the same name gets the same id.
        assert_ne!(rec.comp("b"), c);
        assert_eq!((rec.comp("a"), rec.kind("x")), (c, k));
        for i in 0..100 {
            rec.record(i, c, k, i * 2);
        }
        assert_eq!(rec.len(), 100);
        assert_eq!(rec.dropped(), 0);
        let t = rec.to_trace();
        assert!(t.records.windows(2).all(|w| w[0].cycle < w[1].cycle));
    }

    #[test]
    fn ring_wraps_multiple_times() {
        let mut rec = Recorder::with_capacity(3);
        let c = rec.comp("a");
        let k = rec.kind("x");
        for i in 0..10 {
            rec.record(i, c, k, 0);
        }
        assert_eq!(rec.dropped(), 7);
        let cycles: Vec<u64> = rec.records().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![7, 8, 9]);
    }

    #[test]
    fn meta_overwrites_by_key() {
        let mut rec = Recorder::new();
        rec.meta("k", "1");
        rec.meta("other", "x");
        rec.meta("k", "2");
        let t = rec.to_trace();
        assert_eq!(t.meta_get("k"), Some("2"));
        assert_eq!(t.meta.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        let _ = Recorder::with_capacity(0);
    }
}
