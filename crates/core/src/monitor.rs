//! The locality monitor: hardware data-locality prediction for PEIs (§4.3).
//!
//! A tag array with the same sets/ways as the last-level cache, holding
//! 10-bit partial tags (folded-XOR of the full tag), LRU replacement
//! information, and a 1-bit *ignore* flag per entry. It shadows every L3
//! access, and is additionally updated when a PIM operation is issued to
//! memory — so locality is monitored regardless of where PEIs execute.
//! Entries allocated *by* a PIM operation have their ignore flag set, so
//! the first hit to such an entry is ignored (going to memory once more)
//! before the block is considered cache-worthy.

use pei_engine::{CounterId, Counters, StatsReport};
use pei_types::BlockAddr;

#[derive(Debug, Clone, Copy, Default)]
struct MonEntry {
    valid: bool,
    partial_tag: u16,
    full_tag: u64,
    ignore: bool,
    lru: u8,
}

/// The locality monitor.
///
/// # Examples
///
/// ```
/// use pei_core::LocalityMonitor;
/// use pei_types::BlockAddr;
///
/// let mut mon = LocalityMonitor::new(1024, 16, 10, false);
/// assert!(!mon.query(BlockAddr(7)), "cold block predicts low locality");
/// mon.on_l3_access(BlockAddr(7));
/// assert!(mon.query(BlockAddr(7)), "L3-touched block predicts high locality");
/// ```
#[derive(Debug)]
pub struct LocalityMonitor {
    sets: usize,
    ways: usize,
    tag_bits: u32,
    /// Ideal mode (§7.6): full tags, i.e. no partial-tag false positives.
    ideal: bool,
    /// Whether the per-entry ignore bit is honored (§4.3; an ablation
    /// knob — disabling it makes the first hit to a PIM-allocated entry
    /// count as high locality).
    ignore_enabled: bool,
    entries: Vec<MonEntry>,
    counters: Counters,
    c: MonCounters,
}

/// The monitor's counter bank.
#[derive(Debug)]
struct MonCounters {
    queries: CounterId,
    hits: CounterId,
    ignored_first_hits: CounterId,
    partial_tag_aliases: CounterId,
}

impl MonCounters {
    fn register(c: &mut Counters) -> Self {
        MonCounters {
            queries: c.register("queries"),
            hits: c.register("hits"),
            ignored_first_hits: c.register("ignored_first_hits"),
            partial_tag_aliases: c.register("partial_tag_aliases"),
        }
    }
}

impl LocalityMonitor {
    /// Creates a monitor with the L3's geometry (`sets` × `ways`) and
    /// `tag_bits`-wide partial tags (the paper uses 10).
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, `ways` is zero, or
    /// `tag_bits` is not in `1..=16`.
    pub fn new(sets: usize, ways: usize, tag_bits: u32, ideal: bool) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways > 0, "way count must be nonzero");
        assert!((1..=16).contains(&tag_bits), "partial tags are 1..=16 bits");
        let mut counters = Counters::new();
        let c = MonCounters::register(&mut counters);
        LocalityMonitor {
            sets,
            ways,
            tag_bits,
            ideal,
            ignore_enabled: true,
            entries: vec![MonEntry::default(); sets * ways],
            counters,
            c,
        }
    }

    #[inline]
    fn set_of(&self, block: BlockAddr) -> usize {
        (block.0 as usize) & (self.sets - 1)
    }

    #[inline]
    fn tags_of(&self, block: BlockAddr) -> (u16, u64) {
        let full = block.0 >> self.sets.trailing_zeros();
        let partial = BlockAddr(full).xor_fold(self.tag_bits) as u16;
        (partial, full)
    }

    fn find(&self, block: BlockAddr) -> Option<usize> {
        let set = self.set_of(block);
        let (partial, full) = self.tags_of(block);
        (0..self.ways).find(|&w| {
            let e = &self.entries[set * self.ways + w];
            e.valid
                && if self.ideal {
                    e.full_tag == full
                } else {
                    e.partial_tag == partial
                }
        })
    }

    fn promote(&mut self, set: usize, way: usize) {
        let old = self.entries[set * self.ways + way].lru;
        for w in 0..self.ways {
            let e = &mut self.entries[set * self.ways + w];
            if e.valid && e.lru < old {
                e.lru += 1;
            }
        }
        self.entries[set * self.ways + way].lru = 0;
    }

    fn touch(&mut self, block: BlockAddr, from_pim: bool) {
        let set = self.set_of(block);
        let (partial, full) = self.tags_of(block);
        match self.find(block) {
            Some(way) => {
                self.promote(set, way);
                // Re-touch by a demand access clears PIM-allocated status.
                if !from_pim {
                    self.entries[set * self.ways + way].ignore = false;
                }
            }
            None => {
                // Allocate the LRU (or an invalid) way.
                let way = (0..self.ways)
                    .find(|&w| !self.entries[set * self.ways + w].valid)
                    .unwrap_or_else(|| {
                        (0..self.ways)
                            .max_by_key(|&w| self.entries[set * self.ways + w].lru)
                            .expect("ways > 0")
                    });
                self.entries[set * self.ways + way] = MonEntry {
                    valid: true,
                    partial_tag: partial,
                    full_tag: full,
                    ignore: from_pim,
                    lru: u8::MAX,
                };
                self.promote(set, way);
            }
        }
    }

    /// Disables the first-hit ignore filter (ablation studies).
    pub fn set_ignore_enabled(&mut self, enabled: bool) {
        self.ignore_enabled = enabled;
    }

    /// Shadows a last-level cache access to `block` (hit promotion and/or
    /// block replacement, as in the L3 tag array).
    pub fn on_l3_access(&mut self, block: BlockAddr) {
        self.touch(block, false);
    }

    /// Records that a PIM operation targeting `block` was issued to
    /// memory: "the locality monitor is updated as if there is a
    /// last-level cache access to its target cache block."
    pub fn on_pim_issue(&mut self, block: BlockAddr) {
        self.touch(block, true);
    }

    /// Predicts whether `block` has high data locality. A hit on an entry
    /// whose ignore flag is set clears the flag and reports low locality
    /// (the first-hit filter for PIM-allocated entries).
    pub fn query(&mut self, block: BlockAddr) -> bool {
        self.counters.inc(self.c.queries);
        let set = self.set_of(block);
        let (_, full) = self.tags_of(block);
        match self.find(block) {
            Some(way) => {
                let e = &mut self.entries[set * self.ways + way];
                if e.ignore && self.ignore_enabled {
                    e.ignore = false;
                    self.counters.inc(self.c.ignored_first_hits);
                    false
                } else {
                    if e.full_tag != full {
                        // Partial-tag alias: counted for §7.6 analysis
                        // (still reported as a hit, as real hardware would).
                        self.counters.inc(self.c.partial_tag_aliases);
                    }
                    self.counters.inc(self.c.hits);
                    self.promote(set, way);
                    true
                }
            }
            None => false,
        }
    }

    /// Storage overhead in bits per entry (§6.1: valid + 10-bit partial
    /// tag + 4-bit LRU + ignore = 16 bits).
    pub fn bits_per_entry(&self) -> u32 {
        1 + self.tag_bits + 4 + 1
    }

    /// Labels the current counter values as the end of phase `label`
    /// (see `Counters::snapshot`).
    pub fn snapshot_phase(&mut self, label: &'static str) {
        self.counters.snapshot(label);
    }

    /// Dumps statistics under `prefix`.
    pub fn report(&self, prefix: &str, stats: &mut StatsReport) {
        self.counters.flush(prefix, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mon() -> LocalityMonitor {
        LocalityMonitor::new(64, 4, 10, false)
    }

    #[test]
    fn cold_miss_then_l3_touch_hits() {
        let mut m = mon();
        assert!(!m.query(BlockAddr(42)));
        m.on_l3_access(BlockAddr(42));
        assert!(m.query(BlockAddr(42)));
    }

    #[test]
    fn pim_allocated_entry_ignores_first_hit() {
        let mut m = mon();
        m.on_pim_issue(BlockAddr(42));
        assert!(!m.query(BlockAddr(42)), "first hit ignored");
        assert!(m.query(BlockAddr(42)), "second hit counts");
    }

    #[test]
    fn l3_access_clears_ignore() {
        let mut m = mon();
        m.on_pim_issue(BlockAddr(42));
        m.on_l3_access(BlockAddr(42));
        assert!(m.query(BlockAddr(42)), "demand touch upgrades the entry");
    }

    #[test]
    fn lru_eviction_forgets_cold_blocks() {
        let mut m = LocalityMonitor::new(1, 2, 10, false);
        m.on_l3_access(BlockAddr(1));
        m.on_l3_access(BlockAddr(2));
        m.on_l3_access(BlockAddr(3)); // evicts 1
        assert!(!m.query(BlockAddr(1)));
        assert!(m.query(BlockAddr(2)));
        assert!(m.query(BlockAddr(3)));
    }

    #[test]
    fn partial_tags_can_alias_but_ideal_does_not() {
        // Two blocks in the same set whose full tags fold to the same
        // 10-bit partial tag: tag and tag ^ (x << 10) with xor_fold
        // collision. Full tags 0b1 and (1 << 10) | 0b0? fold(1<<10)=1.
        let sets = 64usize;
        let a = BlockAddr(1 << 6); // set 0, full tag 1
        let b = BlockAddr((1 << 10) << 6); // set 0, full tag 1024, fold -> 1
        assert_eq!(
            BlockAddr(a.0 >> 6).xor_fold(10),
            BlockAddr(b.0 >> 6).xor_fold(10)
        );
        let mut real = LocalityMonitor::new(sets, 4, 10, false);
        real.on_l3_access(a);
        assert!(real.query(b), "partial tags alias");
        let mut ideal = LocalityMonitor::new(sets, 4, 10, true);
        ideal.on_l3_access(a);
        assert!(!ideal.query(b), "ideal monitor uses full tags");
    }

    #[test]
    fn paper_entry_is_16_bits() {
        assert_eq!(mon().bits_per_entry(), 16);
    }

    #[test]
    fn stats_track_queries() {
        let mut m = mon();
        m.on_pim_issue(BlockAddr(9));
        m.query(BlockAddr(9));
        let mut s = StatsReport::new();
        m.report("mon.", &mut s);
        assert_eq!(s.get("mon.queries"), Some(1.0));
        assert_eq!(s.get("mon.ignored_first_hits"), Some(1.0));
    }
}
