//! A generic set-associative cache array: tags, MESI state, LRU,
//! dirty bits, and (for the L3 directory) per-core presence bits.
//!
//! The array holds *state only* — no data — per the functional-first design
//! of this simulator (see crate docs). One implementation serves every
//! level: L1/L2 use [`LineState`] without presence bits, the L3 uses them
//! as its embedded coherence directory.

use pei_types::{BlockAddr, CoreId};

/// MESI coherence state of a line from the owning cache's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Modified: exclusive and dirty.
    Modified,
    /// Exclusive: sole copy, clean; may be silently upgraded to Modified.
    Exclusive,
    /// Shared: possibly other copies, clean, read-only.
    Shared,
}

impl LineState {
    /// Whether this state grants write permission without further traffic.
    pub fn writable(self) -> bool {
        matches!(self, LineState::Modified | LineState::Exclusive)
    }
}

/// One cache line's bookkeeping.
#[derive(Debug, Clone)]
pub struct Line {
    /// The block cached in this way.
    pub block: BlockAddr,
    /// MESI state of this copy.
    pub state: LineState,
    /// Whether the line differs from the next level (Modified implies
    /// dirty; the L3 also marks dirty on PutM from a private cache).
    pub dirty: bool,
    /// Which cores have copies (only maintained by the L3 directory).
    pub presence: u64,
    /// Core holding the line exclusively, if any (L3 directory).
    pub owner: Option<CoreId>,
    /// Transaction lock: set while an MSHR transaction (fetch/eviction/
    /// recall) is in flight for this line, making it ineligible as a
    /// victim.
    pub locked: bool,
    /// LRU rank within the set: 0 = most recently used.
    lru: u8,
}

/// Result of looking up a block in a [`CacheArray`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// Present in the given way.
    Hit {
        /// Way index within the set.
        way: usize,
    },
    /// Absent.
    Miss,
}

/// A set-associative, LRU, state-only cache array.
///
/// # Examples
///
/// ```
/// use pei_mem::{CacheArray, LineState};
/// use pei_types::BlockAddr;
///
/// let mut c = CacheArray::new(4, 2);
/// assert!(c.lookup(BlockAddr(0)).is_none());
/// c.insert(BlockAddr(0), LineState::Exclusive);
/// assert!(c.lookup(BlockAddr(0)).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray {
    sets: usize,
    ways: usize,
    set_shift: u32,
    lines: Vec<Option<Line>>,
}

impl CacheArray {
    /// Creates an empty array of `sets` × `ways`.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is 0 or > 64.
    pub fn new(sets: usize, ways: usize) -> Self {
        Self::with_shift(sets, ways, 0)
    }

    /// Creates an array whose set index skips the low `set_shift` bits of
    /// the block number. Banked caches use this: when bank selection
    /// consumes the low bits, the per-bank array must index sets with the
    /// bits above them or every resident block would land in set 0.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is 0 or > 64.
    pub fn with_shift(sets: usize, ways: usize, set_shift: u32) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!((1..=64).contains(&ways), "way count must be in 1..=64");
        CacheArray {
            sets,
            ways,
            set_shift,
            lines: vec![None; sets * ways],
        }
    }

    /// Builds an array sized for `capacity_bytes` of 64-byte blocks at the
    /// given associativity.
    ///
    /// # Panics
    ///
    /// Panics if the resulting set count is not a power of two.
    pub fn with_capacity(capacity_bytes: usize, ways: usize) -> Self {
        let blocks = capacity_bytes / pei_types::BLOCK_BYTES;
        assert!(
            blocks.is_multiple_of(ways),
            "capacity must be a whole number of sets"
        );
        Self::new(blocks / ways, ways)
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Number of ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> usize {
        self.sets * self.ways
    }

    #[inline]
    fn set_of(&self, block: BlockAddr) -> usize {
        ((block.0 >> self.set_shift) as usize) & (self.sets - 1)
    }

    #[inline]
    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Finds the way holding `block`, if present.
    pub fn lookup(&self, block: BlockAddr) -> Option<usize> {
        let set = self.set_of(block);
        (0..self.ways).find(|&w| {
            self.lines[self.slot(set, w)]
                .as_ref()
                .is_some_and(|l| l.block == block)
        })
    }

    /// Immutable access to the line holding `block`.
    pub fn line(&self, block: BlockAddr) -> Option<&Line> {
        self.lookup(block).map(|w| {
            self.lines[self.slot(self.set_of(block), w)]
                .as_ref()
                .unwrap()
        })
    }

    /// Mutable access to the line holding `block`.
    pub fn line_mut(&mut self, block: BlockAddr) -> Option<&mut Line> {
        let set = self.set_of(block);
        self.lookup(block)
            .map(move |w| self.lines[set * self.ways + w].as_mut().unwrap())
    }

    /// Marks `block` most-recently-used (call on every hit).
    pub fn touch(&mut self, block: BlockAddr) {
        if let Some(way) = self.lookup(block) {
            self.promote(self.set_of(block), way);
        }
    }

    fn promote(&mut self, set: usize, way: usize) {
        let old = self.lines[self.slot(set, way)]
            .as_ref()
            .map(|l| l.lru)
            .unwrap_or(u8::MAX);
        for w in 0..self.ways {
            let slot = self.slot(set, w);
            if let Some(l) = self.lines[slot].as_mut() {
                if l.lru < old {
                    l.lru += 1;
                }
            }
        }
        let slot = self.slot(set, way);
        if let Some(l) = self.lines[slot].as_mut() {
            l.lru = 0;
        }
    }

    /// Picks the eviction victim for the set of `incoming`: an invalid way
    /// if one exists, otherwise the least-recently-used *unlocked* line.
    /// Returns `None` if every way is locked by an in-flight transaction.
    pub fn victim_way(&self, incoming: BlockAddr) -> Option<(usize, Option<&Line>)> {
        let set = self.set_of(incoming);
        for w in 0..self.ways {
            if self.lines[self.slot(set, w)].is_none() {
                return Some((w, None));
            }
        }
        (0..self.ways)
            .filter_map(|w| {
                let l = self.lines[self.slot(set, w)].as_ref().unwrap();
                (!l.locked).then_some((w, l))
            })
            .max_by_key(|(_, l)| l.lru)
            .map(|(w, l)| (w, Some(l)))
    }

    /// Installs `block` into the given way of its set (the caller picked
    /// the way via [`victim_way`](Self::victim_way) and has dealt with the
    /// previous occupant). The new line starts unlocked, clean, and MRU.
    pub fn install(&mut self, block: BlockAddr, way: usize, state: LineState) -> &mut Line {
        let set = self.set_of(block);
        let slot = self.slot(set, way);
        self.lines[slot] = Some(Line {
            block,
            state,
            dirty: state == LineState::Modified,
            presence: 0,
            owner: None,
            locked: false,
            lru: u8::MAX,
        });
        self.promote(set, way);
        self.lines[slot].as_mut().unwrap()
    }

    /// Convenience: install into the best victim way, returning the evicted
    /// line (if a different block was displaced). Inserting a block that
    /// is already resident refreshes it in place (state, MRU) and evicts
    /// nothing. Use only when the caller does not need the two-phase
    /// eviction protocol (e.g. private caches whose victims are handled
    /// synchronously).
    ///
    /// # Panics
    ///
    /// Panics if the block is absent and every way in the set is locked.
    pub fn insert(&mut self, block: BlockAddr, state: LineState) -> Option<Line> {
        let set = self.set_of(block);
        let way = match self.lookup(block) {
            Some(way) => way,
            None => {
                self.victim_way(block)
                    .expect("all ways locked; use the two-phase eviction protocol")
                    .0
            }
        };
        let slot = self.slot(set, way);
        let old = self.lines[slot].take();
        self.install(block, way, state);
        old.filter(|l| l.block != block)
    }

    /// Removes `block` from the array, returning its line.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<Line> {
        let set = self.set_of(block);
        self.lookup(block)
            .and_then(|w| self.lines[set * self.ways + w].take())
    }

    /// Removes the line in `way` of the set that `block` maps to.
    pub fn take_way(&mut self, block: BlockAddr, way: usize) -> Option<Line> {
        let set = self.set_of(block);
        let slot = self.slot(set, way);
        self.lines[slot].take()
    }

    /// Iterates over all valid lines (diagnostics/tests).
    pub fn iter(&self) -> impl Iterator<Item = &Line> {
        self.lines.iter().filter_map(|l| l.as_ref())
    }

    /// Number of valid lines currently held.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.is_some()).count()
    }
}

/// Presence-bitmask helpers for the L3 directory.
pub mod presence {
    use pei_types::CoreId;

    /// Adds `core` to the mask.
    #[inline]
    pub fn add(mask: u64, core: CoreId) -> u64 {
        mask | (1 << core.index())
    }

    /// Removes `core` from the mask.
    #[inline]
    pub fn remove(mask: u64, core: CoreId) -> u64 {
        mask & !(1 << core.index())
    }

    /// Whether `core` is in the mask.
    #[inline]
    pub fn contains(mask: u64, core: CoreId) -> bool {
        mask & (1 << core.index()) != 0
    }

    /// Iterates the cores in the mask in ascending order, visiting set
    /// bits only.
    pub fn iter(mut mask: u64) -> impl Iterator<Item = CoreId> {
        std::iter::from_fn(move || {
            (mask != 0).then(|| {
                let core = CoreId(mask.trailing_zeros() as u16);
                mask &= mask - 1;
                core
            })
        })
    }

    /// Number of cores in the mask.
    #[inline]
    pub fn count(mask: u64) -> u32 {
        mask.count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(n: u64) -> BlockAddr {
        BlockAddr(n)
    }

    #[test]
    fn hit_after_insert_miss_after_invalidate() {
        let mut c = CacheArray::new(8, 2);
        c.insert(blk(5), LineState::Shared);
        assert!(c.lookup(blk(5)).is_some());
        assert_eq!(c.line(blk(5)).unwrap().state, LineState::Shared);
        let old = c.invalidate(blk(5)).unwrap();
        assert_eq!(old.block, blk(5));
        assert!(c.lookup(blk(5)).is_none());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = CacheArray::new(1, 2);
        c.insert(blk(1), LineState::Shared);
        c.insert(blk(2), LineState::Shared);
        c.touch(blk(1)); // 2 is now LRU
        let evicted = c.insert(blk(3), LineState::Shared).unwrap();
        assert_eq!(evicted.block, blk(2));
        assert!(c.lookup(blk(1)).is_some());
        assert!(c.lookup(blk(3)).is_some());
    }

    #[test]
    fn set_mapping_separates_conflicts() {
        let mut c = CacheArray::new(4, 1);
        c.insert(blk(0), LineState::Shared);
        c.insert(blk(1), LineState::Shared);
        c.insert(blk(2), LineState::Shared);
        c.insert(blk(3), LineState::Shared);
        // All four live in distinct sets.
        assert_eq!(c.occupancy(), 4);
        // blk(4) conflicts with blk(0) only.
        let ev = c.insert(blk(4), LineState::Shared).unwrap();
        assert_eq!(ev.block, blk(0));
        assert_eq!(c.occupancy(), 4);
    }

    #[test]
    fn locked_lines_are_not_victims() {
        let mut c = CacheArray::new(1, 2);
        c.insert(blk(1), LineState::Shared);
        c.insert(blk(2), LineState::Shared);
        c.line_mut(blk(1)).unwrap().locked = true;
        // blk(1) is LRU but locked; victim must be blk(2).
        let (way, victim) = c.victim_way(blk(3)).unwrap();
        assert_eq!(victim.unwrap().block, blk(2));
        let _ = way;
        c.line_mut(blk(2)).unwrap().locked = true;
        assert!(c.victim_way(blk(3)).is_none());
    }

    #[test]
    fn insert_returns_displaced_line_state() {
        let mut c = CacheArray::new(1, 1);
        c.insert(blk(7), LineState::Modified);
        let old = c.insert(blk(8), LineState::Shared).unwrap();
        assert_eq!(old.state, LineState::Modified);
        assert!(old.dirty, "Modified lines start dirty");
    }

    #[test]
    fn with_capacity_matches_geometry() {
        let c = CacheArray::with_capacity(256 * 1024, 8);
        assert_eq!(c.capacity_lines() * 64, 256 * 1024);
        assert_eq!(c.ways(), 8);
        assert_eq!(c.sets(), 512);
    }

    #[test]
    fn presence_mask_ops() {
        use presence::*;
        let mut m = 0;
        m = add(m, CoreId(0));
        m = add(m, CoreId(5));
        assert!(contains(m, CoreId(5)));
        assert!(!contains(m, CoreId(4)));
        assert_eq!(count(m), 2);
        assert_eq!(iter(m).collect::<Vec<_>>(), vec![CoreId(0), CoreId(5)]);
        m = remove(m, CoreId(0));
        assert_eq!(count(m), 1);
    }

    #[test]
    fn presence_iter_matches_testing_every_bit() {
        let every_bit = |mask: u64| -> Vec<CoreId> {
            (0..64)
                .filter(|i| mask & (1 << i) != 0)
                .map(CoreId)
                .collect()
        };
        let mut rng = pei_engine::SimRng::seed_from(0x9e5e);
        let masks = [0, u64::MAX]
            .into_iter()
            .chain((0..64).map(|i| 1 << i))
            .chain((0..1000).map(|_| rng.next_u64() & rng.next_u64()));
        for mask in masks {
            let cores: Vec<_> = presence::iter(mask).collect();
            assert_eq!(cores, every_bit(mask), "mask {mask:#x}");
        }
    }

    #[test]
    fn writable_states() {
        assert!(LineState::Modified.writable());
        assert!(LineState::Exclusive.writable());
        assert!(!LineState::Shared.writable());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_rejected() {
        CacheArray::new(3, 2);
    }
}
