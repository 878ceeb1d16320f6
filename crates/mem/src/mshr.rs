//! Miss-status holding registers for the private caches.
//!
//! An MSHR entry exists per in-flight missing block; same-block requests
//! merge into the existing entry as waiters, and the file's capacity bounds
//! memory-level parallelism exactly as in Table 2 of the paper (16 MSHRs
//! per private cache).

use crate::msg::L3ReqKind;
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
    /// The request that allocated the entry, kept inline so that a miss
    /// with no merged requests allocates nothing.
    pub first: Waiter,
    /// Requests merged after it, in arrival order.
    pub merged: Vec<Waiter>,
}

impl MshrEntry {
    /// Requests waiting on this fill, in arrival order.
    pub fn waiters(&self) -> impl Iterator<Item = &Waiter> {
        std::iter::once(&self.first).chain(&self.merged)
    }

    /// Whether any waiter needs write permission.
    pub fn wants_write(&self) -> bool {
        self.waiters().any(|w| w.write)
    }
}

/// A capacity-bounded file of [`MshrEntry`]s keyed by block.
///
/// The file holds at most `capacity` entries (16 in Table 2), so it is a
/// flat vector searched linearly rather than a hash map.
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
    entries: Vec<MshrEntry>,
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
            entries: Vec::new(),
            capacity,
            peak: 0,
            merges: 0,
        }
    }

    #[inline]
    fn position(&self, block: BlockAddr) -> Option<usize> {
        self.entries.iter().position(|e| e.block == block)
    }

    /// Whether a new distinct block can be tracked.
    pub fn has_room(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Allocates an entry for `block`. Returns `false` (and does nothing)
    /// if the file is full or the block is already tracked — use
    /// [`merge`](Self::merge) for the latter.
    pub fn alloc(&mut self, block: BlockAddr, issued: L3ReqKind, id: ReqId, write: bool) -> bool {
        if !self.has_room() || self.contains(block) {
            return false;
        }
        self.entries.push(MshrEntry {
            block,
            issued,
            first: Waiter { id, write },
            merged: Vec::new(),
        });
        self.peak = self.peak.max(self.entries.len());
        true
    }

    /// Merges a same-block request into an existing entry. Returns `false`
    /// if the block is not tracked.
    pub fn merge(&mut self, block: BlockAddr, id: ReqId, write: bool) -> bool {
        match self.get_mut(block) {
            Some(e) => {
                e.merged.push(Waiter { id, write });
                self.merges += 1;
                true
            }
            None => false,
        }
    }

    /// Whether `block` has an in-flight miss.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.position(block).is_some()
    }

    /// Immutable access to an entry.
    pub fn get(&self, block: BlockAddr) -> Option<&MshrEntry> {
        self.position(block).map(|i| &self.entries[i])
    }

    /// Mutable access to an entry.
    pub fn get_mut(&mut self, block: BlockAddr) -> Option<&mut MshrEntry> {
        self.position(block).map(|i| &mut self.entries[i])
    }

    /// Removes and returns the entry for `block` (on fill).
    pub fn retire(&mut self, block: BlockAddr) -> Option<MshrEntry> {
        self.position(block).map(|i| self.entries.swap_remove(i))
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
        self.entries.iter().map(|e| e.block)
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
        assert_eq!(e.waiters().count(), 1);
        assert!(m.is_empty());
        assert!(m.has_room());
        assert!(m.retire(blk(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        MshrFile::new(0);
    }

    /// Seeded alloc/merge/retire sequences against a map model: every
    /// answer matches, and `blocks()` holds exactly the model's keys.
    #[test]
    fn matches_a_map_model() {
        use std::collections::BTreeMap;
        let mut rng = pei_engine::SimRng::seed_from(0x3542);
        for capacity in [1, 2, 4, 16] {
            let mut m = MshrFile::new(capacity);
            let mut model: BTreeMap<BlockAddr, (L3ReqKind, Vec<Waiter>)> = BTreeMap::new();
            let mut peak = 0;
            for step in 0..3000u64 {
                let b = blk(rng.gen_range(2 * capacity as u64 + 2));
                let w = Waiter {
                    id: ReqId(step),
                    write: rng.gen_range(2) == 0,
                };
                match rng.gen_range(4) {
                    0 => {
                        let kind = if w.write {
                            L3ReqKind::GetM
                        } else {
                            L3ReqKind::GetS
                        };
                        let fits = model.len() < capacity && !model.contains_key(&b);
                        assert_eq!(m.alloc(b, kind, w.id, w.write), fits);
                        if fits {
                            model.insert(b, (kind, vec![w]));
                            peak = peak.max(model.len());
                        }
                    }
                    1 => {
                        let known = model.get_mut(&b).map(|(_, ws)| ws.push(w)).is_some();
                        assert_eq!(m.merge(b, w.id, w.write), known);
                    }
                    2 => {
                        let e = m.retire(b);
                        let expected = model.remove(&b);
                        assert_eq!(
                            e.map(|e| (e.issued, e.waiters().copied().collect::<Vec<_>>())),
                            expected
                        );
                    }
                    _ => {
                        assert_eq!(m.contains(b), model.contains_key(&b));
                        assert_eq!(
                            m.get(b).map(|e| (e.block, e.wants_write())),
                            model.get(&b).map(|(_, ws)| (b, ws.iter().any(|w| w.write)))
                        );
                    }
                }
                assert_eq!(m.len(), model.len());
                assert_eq!(m.has_room(), model.len() < capacity);
                assert_eq!(m.peak(), peak);
                let mut blocks: Vec<_> = m.blocks().collect();
                blocks.sort();
                assert_eq!(blocks, model.keys().copied().collect::<Vec<_>>());
            }
        }
    }
}
