//! Property-based tests: the cache array against a reference model, and
//! the backing store against a flat byte oracle.

use pei_mem::{BackingStore, CacheArray, LineState};
use pei_types::{Addr, BlockAddr};
use proptest::prelude::*;
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
enum CacheOp {
    Insert(u64),
    Touch(u64),
    Invalidate(u64),
    Lookup(u64),
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    // Small block universe to force conflicts.
    let blk = 0u64..64;
    prop_oneof![
        blk.clone().prop_map(CacheOp::Insert),
        blk.clone().prop_map(CacheOp::Touch),
        blk.clone().prop_map(CacheOp::Invalidate),
        blk.prop_map(CacheOp::Lookup),
    ]
}

proptest! {
    /// The cache array never exceeds its capacity, never duplicates a
    /// block, and present blocks are exactly the not-yet-evicted inserts.
    #[test]
    fn cache_array_is_consistent(ops in proptest::collection::vec(cache_op(), 1..200)) {
        let mut c = CacheArray::new(4, 2);
        let mut present: BTreeSet<u64> = BTreeSet::new();
        for op in ops {
            match op {
                CacheOp::Insert(b) => {
                    let (_, evicted) = c.insert(BlockAddr(b), LineState::Shared);
                    present.insert(b);
                    if let Some((block, _)) = evicted {
                        if block.0 != b {
                            present.remove(&block.0);
                        }
                    }
                }
                CacheOp::Touch(b) => c.touch(BlockAddr(b)),
                CacheOp::Invalidate(b) => {
                    c.invalidate(BlockAddr(b));
                    present.remove(&b);
                }
                CacheOp::Lookup(b) => {
                    prop_assert_eq!(c.lookup(BlockAddr(b)).is_some(), present.contains(&b));
                }
            }
            prop_assert!(c.occupancy() <= c.capacity_lines());
            prop_assert_eq!(c.occupancy(), present.len());
        }
    }

    /// LRU: within one set, inserting a new block evicts the least
    /// recently used unlocked line.
    #[test]
    fn lru_evicts_oldest(touch_order in proptest::collection::vec(0u64..4, 0..20)) {
        // One set, 4 ways, blocks 0..4 all map to set 0 (sets=1).
        let mut c = CacheArray::new(1, 4);
        for b in 0..4u64 {
            c.insert(BlockAddr(b), LineState::Shared);
        }
        let mut order: Vec<u64> = vec![0, 1, 2, 3];
        for &t in &touch_order {
            c.touch(BlockAddr(t));
            order.retain(|&x| x != t);
            order.push(t);
        }
        let (evicted, _) = c.insert(BlockAddr(99), LineState::Shared).1.unwrap();
        prop_assert_eq!(evicted.0, order[0]);
    }

    /// The backing store behaves like a flat byte array.
    #[test]
    fn backing_store_matches_oracle(
        writes in proptest::collection::vec(
            (0u64..16384, proptest::collection::vec(any::<u8>(), 1..128)),
            1..40
        )
    ) {
        let mut store = BackingStore::new();
        let mut oracle = vec![0u8; 16384 + 128];
        for (off, data) in &writes {
            store.write_bytes(Addr(0x2000_0000 + off), data);
            let at = *off as usize;
            oracle[at..at + data.len()].copy_from_slice(data);
        }
        let mut buf = vec![0u8; 16384 + 128];
        store.read_bytes(Addr(0x2000_0000), &mut buf);
        prop_assert_eq!(buf, oracle);
    }

    /// Scalar accessors agree with byte-level writes (endianness).
    #[test]
    fn scalar_views_consistent(v in any::<u64>(), off in 0u64..1000) {
        let mut store = BackingStore::new();
        let a = Addr(0x3000_0000 + off);
        store.write_u64(a, v);
        let mut bytes = [0u8; 8];
        store.read_bytes(a, &mut bytes);
        prop_assert_eq!(u64::from_le_bytes(bytes), v);
        prop_assert_eq!(store.read_u32(a) as u64, v & 0xffff_ffff);
    }

    /// The page-chunked slice writers store the same bytes, and
    /// materialize the same pages, as one scalar write per element, from
    /// any start offset: unaligned, page-straddling, and multi-page runs.
    #[test]
    fn slice_writers_match_scalar_writes(
        off in 0u64..8192,
        words in proptest::collection::vec(any::<u64>(), 0..1100),
    ) {
        let at = Addr(0x2000_0000 + off);
        let bytes = words.len() * 8;
        let narrow: Vec<u32> = words.iter().map(|&w| w as u32).collect();
        let singles: Vec<f32> = narrow.iter().map(|&w| f32::from_bits(w)).collect();
        let doubles: Vec<f64> = words.iter().map(|&w| f64::from_bits(w)).collect();

        let (mut bulk, mut each) = (BackingStore::new(), BackingStore::new());
        bulk.write_u64s(at, &words);
        for (i, &w) in words.iter().enumerate() {
            each.write_u64(at.offset(i as u64 * 8), w);
        }
        prop_assert!(same_bytes(&bulk, &each, at, bytes));

        let (mut bulk, mut each) = (BackingStore::new(), BackingStore::new());
        bulk.write_f64s(at, &doubles);
        for (i, &w) in doubles.iter().enumerate() {
            each.write_f64(at.offset(i as u64 * 8), w);
        }
        prop_assert!(same_bytes(&bulk, &each, at, bytes));

        let (mut bulk, mut each) = (BackingStore::new(), BackingStore::new());
        bulk.write_u32s(at, &narrow);
        for (i, &w) in narrow.iter().enumerate() {
            each.write_u32(at.offset(i as u64 * 4), w);
        }
        prop_assert!(same_bytes(&bulk, &each, at, bytes / 2));

        let (mut bulk, mut each) = (BackingStore::new(), BackingStore::new());
        bulk.write_f32s(at, &singles);
        for (i, &w) in singles.iter().enumerate() {
            each.write_f32(at.offset(i as u64 * 4), w);
        }
        prop_assert!(same_bytes(&bulk, &each, at, bytes / 2));
    }
}

/// Whether `a` and `b` hold the same bytes around `[at, at + len)` and
/// have materialized the same number of pages.
fn same_bytes(a: &BackingStore, b: &BackingStore, at: Addr, len: usize) -> bool {
    let from = Addr(at.0 - 16);
    let (mut x, mut y) = (vec![0u8; len + 32], vec![0u8; len + 32]);
    a.read_bytes(from, &mut x);
    b.read_bytes(from, &mut y);
    x == y && a.resident_pages() == b.resident_pages()
}
