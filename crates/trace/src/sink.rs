//! The capture interface driven by the simulator.

use crate::record::{CompId, KindId};

/// Where trace records go.
///
/// `pei-system` holds an `Option<Box<dyn TraceSink>>`; when it is
/// `None` the per-event cost is a single branch (the zero-cost-when-off
/// guarantee, DESIGN.md §8). Component and kind names are interned
/// *once* when the tracer is attached — [`record`](TraceSink::record)
/// takes only pre-interned ids, so the hot path never hashes a string.
///
/// Interning is required to be stable: calling [`comp`](TraceSink::comp)
/// (or [`kind`](TraceSink::kind)) twice with the same name returns the
/// same id.
pub trait TraceSink: Send {
    /// Interns a component name, returning its stable id.
    fn comp(&mut self, name: &str) -> CompId;

    /// Interns an event-kind name, returning its stable id.
    fn kind(&mut self, name: &str) -> KindId;

    /// Captures one event. Hot path.
    fn record(&mut self, cycle: u64, comp: CompId, kind: KindId, payload: u64);

    /// Attaches a key → value metadata entry (run description, stats
    /// digest). Order is preserved; duplicate keys keep the last value.
    fn meta(&mut self, key: &str, value: &str);

    /// Serializes the sink's captured trace to `.petr` bytes, if it
    /// retains one. Sinks that discard records (like [`NullSink`])
    /// return `None`; [`crate::Recorder`] returns its
    /// buffer. This is how callers holding only the boxed sink a
    /// simulator hands back recover the capture without downcasting.
    fn to_petr(&self) -> Option<Vec<u8>> {
        None
    }
}

/// A sink that interns names and counts records but stores nothing:
/// the measurement baseline for the capture hooks themselves (hook
/// dispatch + virtual call, no buffer traffic).
#[derive(Debug, Default)]
pub struct NullSink {
    comps: Vec<String>,
    kinds: Vec<String>,
    records: u64,
}

impl NullSink {
    /// A fresh null sink.
    pub fn new() -> Self {
        NullSink::default()
    }

    /// Number of records that were offered to this sink.
    pub fn records(&self) -> u64 {
        self.records
    }
}

fn intern(table: &mut Vec<String>, name: &str) -> u16 {
    if let Some(i) = table.iter().position(|n| n == name) {
        return i as u16;
    }
    assert!(table.len() < u16::MAX as usize, "interned-table overflow");
    table.push(name.to_string());
    (table.len() - 1) as u16
}

impl TraceSink for NullSink {
    fn comp(&mut self, name: &str) -> CompId {
        CompId(intern(&mut self.comps, name))
    }

    fn kind(&mut self, name: &str) -> KindId {
        KindId(intern(&mut self.kinds, name))
    }

    fn record(&mut self, _cycle: u64, _comp: CompId, _kind: KindId, _payload: u64) {
        self.records += 1;
    }

    fn meta(&mut self, _key: &str, _value: &str) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_counts_and_interns_stably() {
        let mut s = NullSink::new();
        let a = s.comp("core0");
        let b = s.comp("core1");
        assert_ne!(a, b);
        assert_eq!(s.comp("core0"), a);
        let tick = s.kind("tick");
        assert_eq!(s.kind("tick"), tick);
        s.record(1, a, tick, 0);
        s.record(2, b, tick, 0);
        assert_eq!(s.records(), 2);
    }
}
