//! The PIM directory: atomicity management for in-flight PEIs (§4.3).
//!
//! A direct-mapped, tag-less table of reader-writer locks indexed by the
//! XOR-folded target block address. Tag-lessness means two different
//! blocks can map to the same entry and get (rarely) serialized — a false
//! positive the paper accepts for its 3.25 KB storage cost — but false
//! negatives (two writers on the same block simultaneously) are
//! impossible, because equal blocks always fold to the same entry.
//!
//! Grants are FIFO per entry, which provides both the paper's
//! "non-readable while a writer waits" starvation avoidance and its
//! multiple-readers concurrency.

use pei_engine::FastMap;
use pei_types::{BlockAddr, ReqId};
use std::collections::VecDeque;

/// Outcome of an acquire attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireResult {
    /// The lock was granted immediately.
    Granted,
    /// The PEI was queued; it will appear in a later
    /// [`PimDirectory::release`] result.
    Queued,
}

#[derive(Debug, Default)]
struct Entry {
    /// Number of reader PEIs currently executing.
    readers: u32,
    /// Whether a writer PEI is currently executing.
    writer: bool,
    /// FIFO of waiting PEIs: `(id, is_writer)`.
    queue: VecDeque<(ReqId, bool)>,
}

impl Entry {
    fn can_grant(&self, writer: bool) -> bool {
        if writer {
            self.readers == 0 && !self.writer && self.queue.is_empty()
        } else {
            !self.writer && self.queue.is_empty()
        }
    }

    /// Pops newly grantable waiters after a release into `granted`,
    /// returning how many were appended.
    fn drain_grants_into(&mut self, granted: &mut Vec<(ReqId, bool)>) -> u64 {
        let mut n = 0;
        while let Some(&(id, writer)) = self.queue.front() {
            let ok = if writer {
                self.readers == 0 && !self.writer
            } else {
                !self.writer
            };
            if !ok {
                break;
            }
            self.queue.pop_front();
            n += 1;
            if writer {
                self.writer = true;
                granted.push((id, true));
                break; // a writer is exclusive
            }
            self.readers += 1;
            granted.push((id, false));
        }
        n
    }
}

/// The PIM directory.
///
/// # Examples
///
/// ```
/// use pei_core::{PimDirectory, AcquireResult};
/// use pei_types::{BlockAddr, ReqId};
///
/// let mut dir = PimDirectory::new(2048, false);
/// assert_eq!(dir.acquire(ReqId(1), BlockAddr(5), true), AcquireResult::Granted);
/// // A second writer to the same block queues.
/// assert_eq!(dir.acquire(ReqId(2), BlockAddr(5), true), AcquireResult::Queued);
/// let mut granted = Vec::new();
/// dir.release(ReqId(1), &mut granted);
/// assert_eq!(granted, vec![(ReqId(2), true)]);
/// ```
#[derive(Debug)]
pub struct PimDirectory {
    entries: Vec<Entry>,
    index_bits: u32,
    /// Ideal mode (§7.6): per-block exact locks, no aliasing.
    ideal: bool,
    ideal_entries: FastMap<BlockAddr, Entry>,
    held: FastMap<ReqId, (BlockAddr, bool)>,
    // statistics
    grants: u64,
    queued: u64,
    peak_queue: usize,
}

impl PimDirectory {
    /// Creates a directory with `entries` reader-writer locks (a power of
    /// two; the paper uses 2048). With `ideal = true`, locks are exact
    /// per-block (infinite storage, no false-positive serialization).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize, ideal: bool) -> Self {
        assert!(
            entries.is_power_of_two(),
            "entry count must be a power of two"
        );
        PimDirectory {
            entries: (0..entries).map(|_| Entry::default()).collect(),
            index_bits: entries.trailing_zeros(),
            ideal,
            ideal_entries: FastMap::default(),
            held: FastMap::default(),
            grants: 0,
            queued: 0,
            peak_queue: 0,
        }
    }

    fn entry_mut(&mut self, block: BlockAddr) -> &mut Entry {
        if self.ideal {
            self.ideal_entries.entry(block).or_default()
        } else {
            let idx = block.xor_fold(self.index_bits) as usize;
            &mut self.entries[idx]
        }
    }

    /// Requests the lock for a PEI targeting `block`.
    ///
    /// # Panics
    ///
    /// Panics if `id` already holds or awaits a lock (PEI ids are unique).
    pub fn acquire(&mut self, id: ReqId, block: BlockAddr, writer: bool) -> AcquireResult {
        assert!(
            self.held.insert(id, (block, writer)).is_none(),
            "duplicate PEI id in PIM directory"
        );
        let entry = self.entry_mut(block);
        if entry.can_grant(writer) {
            if writer {
                entry.writer = true;
            } else {
                entry.readers += 1;
            }
            self.grants += 1;
            AcquireResult::Granted
        } else {
            entry.queue.push_back((id, writer));
            let qlen = entry.queue.len();
            self.queued += 1;
            self.peak_queue = self.peak_queue.max(qlen);
            AcquireResult::Queued
        }
    }

    /// Releases the lock held by `id`, appending the newly granted waiters
    /// to `granted` in FIFO order. The caller owns (and typically reuses)
    /// the buffer; it is not cleared here.
    ///
    /// # Panics
    ///
    /// Panics if `id` holds no lock.
    pub fn release(&mut self, id: ReqId, granted: &mut Vec<(ReqId, bool)>) {
        let (block, writer) = self.held.remove(&id).expect("release of unknown PEI id");
        let entry = self.entry_mut(block);
        if writer {
            debug_assert!(entry.writer);
            entry.writer = false;
        } else {
            debug_assert!(entry.readers > 0);
            entry.readers -= 1;
        }
        self.grants += entry.drain_grants_into(granted);
        if self.ideal {
            // Garbage-collect idle ideal entries.
            let e = self.ideal_entries.get(&block).expect("present");
            if e.readers == 0 && !e.writer && e.queue.is_empty() {
                self.ideal_entries.remove(&block);
            }
        }
    }

    /// Number of PEIs currently holding or awaiting locks.
    pub fn in_flight(&self) -> usize {
        self.held.len()
    }

    /// `(immediate grants, queued acquisitions, peak queue length)`.
    pub fn stats(&self) -> (u64, u64, usize) {
        (self.grants, self.queued, self.peak_queue)
    }

    /// Storage overhead in bits per entry, as reported in §6.1 (13 bits:
    /// readable + writeable + 10-bit reader counter + 1-bit writer
    /// counter). Our functional model tracks the same information.
    pub const BITS_PER_ENTRY: usize = 13;
}

fn save_entry(e: &mut pei_types::snap::Encoder, en: &Entry) {
    e.u32(en.readers);
    e.bool(en.writer);
    e.seq(en.queue.len());
    for &(id, w) in &en.queue {
        e.u64(id.0);
        e.bool(w);
    }
}

fn load_entry(d: &mut pei_types::snap::Decoder<'_>) -> pei_types::snap::SnapResult<Entry> {
    let readers = d.u32()?;
    let writer = d.bool()?;
    let n = d.seq(9)?;
    let mut queue = VecDeque::with_capacity(n);
    for _ in 0..n {
        queue.push_back((ReqId(d.u64()?), d.bool()?));
    }
    Ok(Entry {
        readers,
        writer,
        queue,
    })
}

impl pei_types::snap::SnapshotState for PimDirectory {
    fn save(&self, e: &mut pei_types::snap::Encoder) {
        e.seq(self.entries.len());
        for en in &self.entries {
            save_entry(e, en);
        }
        let mut ideal: Vec<_> = self.ideal_entries.iter().collect();
        ideal.sort_by_key(|(b, _)| b.0);
        e.seq(ideal.len());
        for (b, en) in ideal {
            e.u64(b.0);
            save_entry(e, en);
        }
        let mut held: Vec<_> = self.held.iter().collect();
        held.sort_by_key(|(id, _)| id.0);
        e.seq(held.len());
        for (id, &(b, w)) in held {
            e.u64(id.0);
            e.u64(b.0);
            e.bool(w);
        }
        e.u64(self.grants);
        e.u64(self.queued);
        e.usize(self.peak_queue);
    }

    fn load(&mut self, d: &mut pei_types::snap::Decoder<'_>) -> pei_types::snap::SnapResult<()> {
        let n = d.seq(9)?;
        pei_types::snap::check_len("PIM-directory entries", n, self.entries.len())?;
        for en in &mut self.entries {
            *en = load_entry(d)?;
        }
        let n = d.seq(17)?;
        self.ideal_entries = FastMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let block = BlockAddr(d.u64()?);
            let en = load_entry(d)?;
            self.ideal_entries.insert(block, en);
        }
        let n = d.seq(17)?;
        self.held = FastMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let id = ReqId(d.u64()?);
            let block = BlockAddr(d.u64()?);
            let writer = d.bool()?;
            self.held.insert(id, (block, writer));
        }
        self.grants = d.u64()?;
        self.queued = d.u64()?;
        self.peak_queue = d.usize()?;
        Ok(())
    }
}

#[cfg(test)]
impl PimDirectory {
    /// Test helper: ids currently *holding* (not queued) a lock on blocks
    /// equal to `block_mod` modulo 4 (used by the interleaving test).
    fn held_ids_for_test(&self, block_mod: u64) -> Vec<ReqId> {
        self.held
            .iter()
            .filter(|(id, (b, w))| {
                *w && b.0 == block_mod && {
                    // held but not queued: check it is not in any queue
                    let idx = b.xor_fold(self.index_bits) as usize;
                    !self.entries[idx].queue.iter().any(|(qid, _)| qid == *id)
                }
            })
            .map(|(id, _)| *id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> PimDirectory {
        PimDirectory::new(2048, false)
    }

    /// Test shorthand: release and collect the grants.
    fn rel(d: &mut PimDirectory, id: ReqId) -> Vec<(ReqId, bool)> {
        let mut granted = Vec::new();
        d.release(id, &mut granted);
        granted
    }

    #[test]
    fn readers_share() {
        let mut d = dir();
        assert_eq!(
            d.acquire(ReqId(1), BlockAddr(5), false),
            AcquireResult::Granted
        );
        assert_eq!(
            d.acquire(ReqId(2), BlockAddr(5), false),
            AcquireResult::Granted
        );
        assert!(rel(&mut d, ReqId(1)).is_empty());
        assert!(rel(&mut d, ReqId(2)).is_empty());
    }

    #[test]
    fn writer_excludes_readers_and_writers() {
        let mut d = dir();
        d.acquire(ReqId(1), BlockAddr(5), true);
        assert_eq!(
            d.acquire(ReqId(2), BlockAddr(5), false),
            AcquireResult::Queued
        );
        assert_eq!(
            d.acquire(ReqId(3), BlockAddr(5), true),
            AcquireResult::Queued
        );
        let granted = rel(&mut d, ReqId(1));
        // FIFO: the reader queued first goes first, alone (writer behind).
        assert_eq!(granted, vec![(ReqId(2), false)]);
        let granted = rel(&mut d, ReqId(2));
        assert_eq!(granted, vec![(ReqId(3), true)]);
    }

    #[test]
    fn waiting_writer_blocks_new_readers() {
        // §4.3: the entry is marked non-readable to avoid write starvation.
        let mut d = dir();
        d.acquire(ReqId(1), BlockAddr(5), false); // reader executing
        d.acquire(ReqId(2), BlockAddr(5), true); // writer waits
        assert_eq!(
            d.acquire(ReqId(3), BlockAddr(5), false),
            AcquireResult::Queued,
            "reader behind waiting writer must queue"
        );
        let granted = rel(&mut d, ReqId(1));
        assert_eq!(granted, vec![(ReqId(2), true)]);
        let granted = rel(&mut d, ReqId(2));
        assert_eq!(granted, vec![(ReqId(3), false)]);
    }

    #[test]
    fn consecutive_readers_granted_together() {
        let mut d = dir();
        d.acquire(ReqId(1), BlockAddr(5), true);
        d.acquire(ReqId(2), BlockAddr(5), false);
        d.acquire(ReqId(3), BlockAddr(5), false);
        let granted = rel(&mut d, ReqId(1));
        assert_eq!(granted, vec![(ReqId(2), false), (ReqId(3), false)]);
    }

    #[test]
    fn aliasing_blocks_serialize_in_real_mode() {
        // Two blocks that fold to the same index: block and
        // block + entries (fold is XOR of 11-bit slices, so adding the
        // table size flips only upper fold bits — craft a collision).
        let mut d = PimDirectory::new(2, false);
        // With 1-bit index, blocks 0 and 2 both fold to 0 (binary 10 -> 1^0=1; use 0 and 3: 11 -> 1^1 = 0).
        assert_eq!(BlockAddr(0).xor_fold(1), BlockAddr(3).xor_fold(1));
        d.acquire(ReqId(1), BlockAddr(0), true);
        assert_eq!(
            d.acquire(ReqId(2), BlockAddr(3), true),
            AcquireResult::Queued,
            "false-positive serialization"
        );
    }

    #[test]
    fn ideal_mode_has_no_aliasing() {
        let mut d = PimDirectory::new(2, true);
        d.acquire(ReqId(1), BlockAddr(0), true);
        assert_eq!(
            d.acquire(ReqId(2), BlockAddr(3), true),
            AcquireResult::Granted,
            "ideal directory must not alias"
        );
        rel(&mut d, ReqId(1));
        rel(&mut d, ReqId(2));
        assert_eq!(d.in_flight(), 0);
    }

    #[test]
    fn never_two_writers_same_block() {
        // Property-style check over a deterministic interleaving.
        let mut d = dir();
        let mut active_writers = pei_engine::FastSet::default();
        let mut queued = VecDeque::new();
        for i in 0..100u64 {
            let id = ReqId(i);
            match d.acquire(id, BlockAddr(i % 4), true) {
                AcquireResult::Granted => {
                    assert!(
                        active_writers.insert(i % 4),
                        "two writers on block {}",
                        i % 4
                    );
                }
                AcquireResult::Queued => queued.push_back(id),
            }
            if i % 3 == 2 {
                if let Some(&w) = active_writers.iter().next() {
                    let done: Vec<ReqId> = d.held_ids_for_test(w).into_iter().take(1).collect();
                    for id in done {
                        active_writers.remove(&w);
                        for (gid, _) in rel(&mut d, id) {
                            let blk = gid.0 % 4;
                            assert!(active_writers.insert(blk), "double grant on {blk}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate PEI id")]
    fn duplicate_id_rejected() {
        let mut d = dir();
        d.acquire(ReqId(1), BlockAddr(0), false);
        d.acquire(ReqId(1), BlockAddr(1), false);
    }

    #[test]
    #[should_panic(expected = "unknown PEI id")]
    fn release_unknown_rejected() {
        dir().release(ReqId(42), &mut Vec::new());
    }
}
