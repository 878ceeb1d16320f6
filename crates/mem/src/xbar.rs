//! The on-chip crossbar connecting private caches, L3 banks, the HMC
//! controller and the PMU (Table 2: crossbar, 2 GHz, 144-bit links).
//!
//! Each source port owns a serialized, bandwidth-limited channel; messages
//! from one source are therefore delivered FIFO, which the coherence
//! protocol relies on (a grant sent before a recall to the same core must
//! arrive first). Destination contention is folded into the per-source
//! serialization, a standard simplification for non-blocking crossbars.

use pei_engine::BwChannel;
use pei_types::Cycle;

/// A message's size class on the crossbar, in bytes: control-only or
/// carrying a 64-byte data payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XbarPayload {
    /// Address/command only (requests, recalls, acks): 8 bytes + routing.
    Control,
    /// Command plus one cache block (fills, writebacks): 72 bytes.
    Data,
    /// Command plus `n` bytes of PEI operands.
    Operands(u16),
}

impl XbarPayload {
    /// Bytes on the wire.
    pub fn bytes(self) -> u64 {
        match self {
            XbarPayload::Control => 8,
            XbarPayload::Data => 8 + pei_types::BLOCK_BYTES as u64,
            XbarPayload::Operands(n) => 8 + n as u64,
        }
    }
}

/// The crossbar switch.
///
/// # Examples
///
/// ```
/// use pei_mem::Crossbar;
/// use pei_mem::xbar::XbarPayload;
///
/// let mut x = Crossbar::new(4, 9.0, 8);
/// let t = x.send(0, 100, XbarPayload::Control);
/// assert!(t >= 108); // at least the propagation latency
/// ```
#[derive(Debug)]
pub struct Crossbar {
    ports: Vec<BwChannel>,
    latency: Cycle,
    messages: u64,
}

impl Crossbar {
    /// Creates a crossbar with `n_ports` source ports, each carrying
    /// `bytes_per_cycle`, with a fixed propagation `latency`.
    pub fn new(n_ports: usize, bytes_per_cycle: f64, latency: Cycle) -> Self {
        Crossbar {
            ports: (0..n_ports)
                .map(|_| BwChannel::new(bytes_per_cycle, latency))
                .collect(),
            latency,
            messages: 0,
        }
    }

    /// Sends a message from `src` at cycle `now`; returns the delivery
    /// cycle at the destination.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not a valid port index.
    #[inline]
    pub fn send(&mut self, src: usize, now: Cycle, payload: XbarPayload) -> Cycle {
        self.messages += 1;
        self.ports[src].transfer(now, payload.bytes())
    }

    /// Fixed propagation latency.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Number of source ports.
    pub fn ports(&self) -> usize {
        self.ports.len()
    }

    /// Total messages switched.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total bytes switched.
    pub fn bytes(&self) -> u64 {
        self.ports.iter().map(|p| p.bytes_carried()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_source_fifo() {
        let mut x = Crossbar::new(2, 8.0, 4);
        let a = x.send(0, 0, XbarPayload::Data);
        let b = x.send(0, 0, XbarPayload::Control);
        assert!(b > a, "same-source messages deliver in order");
    }

    #[test]
    fn independent_sources_do_not_contend() {
        let mut x = Crossbar::new(2, 8.0, 4);
        let a = x.send(0, 0, XbarPayload::Data);
        let b = x.send(1, 0, XbarPayload::Data);
        assert_eq!(a, b);
    }

    #[test]
    fn payload_sizes() {
        assert_eq!(XbarPayload::Control.bytes(), 8);
        assert_eq!(XbarPayload::Data.bytes(), 72);
        assert_eq!(XbarPayload::Operands(16).bytes(), 24);
    }

    #[test]
    fn counters_accumulate() {
        let mut x = Crossbar::new(1, 8.0, 0);
        x.send(0, 0, XbarPayload::Control);
        x.send(0, 0, XbarPayload::Data);
        assert_eq!(x.messages(), 2);
        assert_eq!(x.bytes(), 80);
    }
}
