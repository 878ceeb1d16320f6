//! Miss-status holding registers for the private caches.
//!
//! An MSHR entry exists per in-flight missing block; same-block requests
//! merge into the existing entry as waiters, and the file's capacity bounds
//! memory-level parallelism exactly as in Table 2 of the paper (16 MSHRs
//! per private cache).

use crate::msg::L3ReqKind;
use pei_engine::FastMap;
use pei_types::{BlockAddr, ReqId};

/// A request merged into an MSHR entry, waiting for the fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waiter {
    /// The original core request id to answer on fill.
    pub id: ReqId,
    /// Whether the waiter needs write permission.
    pub write: bool,
}

/// One in-flight miss.
#[derive(Debug, Clone)]
pub struct MshrEntry {
    /// The missing block.
    pub block: BlockAddr,
    /// The permission level requested from the L3.
    pub issued: L3ReqKind,
    /// Requests waiting on this fill.
    pub waiters: Vec<Waiter>,
}

impl MshrEntry {
    /// Whether any waiter needs write permission.
    pub fn wants_write(&self) -> bool {
        self.waiters.iter().any(|w| w.write)
    }
}

/// A capacity-bounded file of [`MshrEntry`]s keyed by block.
///
/// # Examples
///
/// ```
/// use pei_mem::MshrFile;
/// use pei_mem::msg::L3ReqKind;
/// use pei_types::{BlockAddr, ReqId};
///
/// let mut m = MshrFile::new(2);
/// assert!(m.alloc(BlockAddr(1), L3ReqKind::GetS, ReqId(1), false));
/// // Same-block request merges instead of allocating.
/// assert!(m.merge(BlockAddr(1), ReqId(2), true));
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct MshrFile {
    entries: FastMap<BlockAddr, MshrEntry>,
    capacity: usize,
    peak: usize,
    merges: u64,
}

impl MshrFile {
    /// Creates a file with room for `capacity` distinct missing blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be nonzero");
        MshrFile {
            entries: FastMap::default(),
            capacity,
            peak: 0,
            merges: 0,
        }
    }

    /// Whether a new distinct block can be tracked.
    pub fn has_room(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Allocates an entry for `block`. Returns `false` (and does nothing)
    /// if the file is full or the block is already tracked — use
    /// [`merge`](Self::merge) for the latter.
    pub fn alloc(&mut self, block: BlockAddr, issued: L3ReqKind, id: ReqId, write: bool) -> bool {
        if !self.has_room() || self.entries.contains_key(&block) {
            return false;
        }
        self.entries.insert(
            block,
            MshrEntry {
                block,
                issued,
                waiters: vec![Waiter { id, write }],
            },
        );
        self.peak = self.peak.max(self.entries.len());
        true
    }

    /// Merges a same-block request into an existing entry. Returns `false`
    /// if the block is not tracked.
    pub fn merge(&mut self, block: BlockAddr, id: ReqId, write: bool) -> bool {
        match self.entries.get_mut(&block) {
            Some(e) => {
                e.waiters.push(Waiter { id, write });
                self.merges += 1;
                true
            }
            None => false,
        }
    }

    /// Whether `block` has an in-flight miss.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.entries.contains_key(&block)
    }

    /// Immutable access to an entry.
    pub fn get(&self, block: BlockAddr) -> Option<&MshrEntry> {
        self.entries.get(&block)
    }

    /// Mutable access to an entry.
    pub fn get_mut(&mut self, block: BlockAddr) -> Option<&mut MshrEntry> {
        self.entries.get_mut(&block)
    }

    /// Removes and returns the entry for `block` (on fill).
    pub fn retire(&mut self, block: BlockAddr) -> Option<MshrEntry> {
        self.entries.remove(&block)
    }

    /// Number of in-flight misses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no misses are in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// High-water mark of simultaneous misses (statistics).
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Total merged (secondary) misses (statistics).
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Blocks with an outstanding entry, in no particular order
    /// (invariant-checker access; see `pei-system`'s checked mode).
    pub fn blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.entries.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(n: u64) -> BlockAddr {
        BlockAddr(n)
    }

    #[test]
    fn alloc_until_full_then_reject() {
        let mut m = MshrFile::new(2);
        assert!(m.alloc(blk(1), L3ReqKind::GetS, ReqId(1), false));
        assert!(m.alloc(blk(2), L3ReqKind::GetM, ReqId(2), true));
        assert!(!m.has_room());
        assert!(!m.alloc(blk(3), L3ReqKind::GetS, ReqId(3), false));
        assert_eq!(m.len(), 2);
        assert_eq!(m.peak(), 2);
    }

    #[test]
    fn double_alloc_same_block_rejected() {
        let mut m = MshrFile::new(4);
        assert!(m.alloc(blk(1), L3ReqKind::GetS, ReqId(1), false));
        assert!(!m.alloc(blk(1), L3ReqKind::GetS, ReqId(2), false));
    }

    #[test]
    fn merge_tracks_write_intent() {
        let mut m = MshrFile::new(4);
        m.alloc(blk(1), L3ReqKind::GetS, ReqId(1), false);
        assert!(!m.get(blk(1)).unwrap().wants_write());
        assert!(m.merge(blk(1), ReqId(2), true));
        assert!(m.get(blk(1)).unwrap().wants_write());
        assert_eq!(m.merges(), 1);
        assert!(!m.merge(blk(9), ReqId(3), false));
    }

    #[test]
    fn retire_frees_room() {
        let mut m = MshrFile::new(1);
        m.alloc(blk(1), L3ReqKind::GetS, ReqId(1), false);
        let e = m.retire(blk(1)).unwrap();
        assert_eq!(e.waiters.len(), 1);
        assert!(m.is_empty());
        assert!(m.has_room());
        assert!(m.retire(blk(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        MshrFile::new(0);
    }
}
