//! Property-based tests of the PEI architecture's invariants: the PIM
//! directory's atomicity guarantees under arbitrary interleavings, and
//! the algebraic properties of the PIM operations.

use pei_core::ops::apply;
use pei_core::{AcquireResult, PimDirectory};
use pei_engine::{FastMap, FastSet};
use pei_mem::BackingStore;
use pei_types::{BlockAddr, OperandValue, PimOpKind, ReqId};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum DirOp {
    Acquire { block: u64, writer: bool },
    ReleaseOldest,
}

fn dir_op() -> impl Strategy<Value = DirOp> {
    prop_oneof![
        3 => (0u64..8, any::<bool>()).prop_map(|(block, writer)| DirOp::Acquire { block, writer }),
        2 => Just(DirOp::ReleaseOldest),
    ]
}

proptest! {
    /// The fundamental atomicity invariant (§4.3): at no point does a
    /// block have two concurrent writers, or a writer concurrent with a
    /// reader. Checked under arbitrary acquire/release interleavings for
    /// both the real (tag-less, aliasing) and ideal directories.
    #[test]
    fn no_false_negatives_ever(ops in proptest::collection::vec(dir_op(), 1..300), ideal in any::<bool>()) {
        let mut dir = PimDirectory::new(16, ideal);
        let mut next_id = 0u64;
        // Held locks: id -> (block, writer)
        let mut held: FastMap<ReqId, (u64, bool)> = FastMap::default();
        let mut queued: Vec<(ReqId, u64, bool)> = Vec::new();
        let mut fifo: Vec<ReqId> = Vec::new();

        let check = |held: &FastMap<ReqId, (u64, bool)>| {
            for (&id, &(b, w)) in held {
                for (&id2, &(b2, w2)) in held {
                    if id != id2 && b == b2 {
                        // Same block: must not mix a writer with anything.
                        assert!(!(w || w2), "writer sharing block {b} with another PEI");
                    }
                }
            }
        };

        for op in ops {
            match op {
                DirOp::Acquire { block, writer } => {
                    next_id += 1;
                    let id = ReqId(next_id);
                    match dir.acquire(id, BlockAddr(block), writer) {
                        AcquireResult::Granted => {
                            held.insert(id, (block, writer));
                        }
                        AcquireResult::Queued => queued.push((id, block, writer)),
                    }
                    fifo.push(id);
                }
                DirOp::ReleaseOldest => {
                    // Release the oldest currently-held lock, if any.
                    let oldest = fifo.iter().find(|id| held.contains_key(id)).copied();
                    if let Some(id) = oldest {
                        held.remove(&id);
                        let mut granted = Vec::new();
                        dir.release(id, &mut granted);
                        for (gid, gw) in granted {
                            let pos = queued.iter().position(|(q, _, _)| *q == gid)
                                .expect("granted id was queued");
                            let (_, b, w) = queued.remove(pos);
                            prop_assert_eq!(w, gw);
                            held.insert(gid, (b, w));
                        }
                    }
                }
            }
            check(&held);
        }
        // Drain: releasing everything leaves the directory empty.
        while let Some(id) = fifo.iter().find(|id| held.contains_key(id)).copied() {
            held.remove(&id);
            let mut granted = Vec::new();
            dir.release(id, &mut granted);
            for (gid, _) in granted {
                let pos = queued.iter().position(|(q, _, _)| *q == gid).unwrap();
                let (_, b, w) = queued.remove(pos);
                held.insert(gid, (b, w));
            }
            check(&held);
        }
        prop_assert_eq!(dir.in_flight(), 0);
        prop_assert!(queued.is_empty(), "no waiter starves once all locks release");
    }

    /// min is idempotent, commutative, and bounded by its operands.
    #[test]
    fn min_pei_algebra(init in any::<u64>(), vals in proptest::collection::vec(any::<u64>(), 1..20)) {
        let mut m = BackingStore::new();
        let a = m.alloc_block();
        m.write_u64(a, init);
        for &v in &vals {
            apply(PimOpKind::MinU64, a, &OperandValue::U64(v), &mut m);
        }
        let expect = vals.iter().copied().chain([init]).min().unwrap();
        prop_assert_eq!(m.read_u64(a), expect);
        // Replaying the whole sequence changes nothing (idempotence).
        for &v in &vals {
            apply(PimOpKind::MinU64, a, &OperandValue::U64(v), &mut m);
        }
        prop_assert_eq!(m.read_u64(a), expect);
    }

    /// Increment executed n times adds exactly n.
    #[test]
    fn inc_pei_counts(init in any::<u64>(), n in 0usize..50) {
        let mut m = BackingStore::new();
        let a = m.alloc_block();
        m.write_u64(a, init);
        for _ in 0..n {
            apply(PimOpKind::IncU64, a, &OperandValue::None, &mut m);
        }
        prop_assert_eq!(m.read_u64(a), init.wrapping_add(n as u64));
    }

    /// Reader operations never mutate their target block.
    #[test]
    fn readers_pure(contents in proptest::collection::vec(any::<u8>(), 64..=64), key in any::<u64>()) {
        let mut m = BackingStore::new();
        let a = m.alloc_block();
        m.write_bytes(a, &contents);
        let before = m.read_block(a.block());
        apply(PimOpKind::HashProbe, a, &OperandValue::U64(key), &mut m);
        apply(PimOpKind::HistBin, a, &OperandValue::from_bytes(&[7]), &mut m);
        apply(PimOpKind::EuclideanDist, a, &OperandValue::from_bytes(&[0; 64]), &mut m);
        apply(PimOpKind::DotProduct, a, &OperandValue::from_bytes(&[0; 32]), &mut m);
        prop_assert_eq!(m.read_block(a.block()), before);
    }

    /// The locality monitor's query is a pure predicate w.r.t. occupancy:
    /// it never reports a hit for a block that was never touched.
    #[test]
    fn monitor_no_phantom_hits(touched in proptest::collection::vec(0u64..256, 0..100)) {
        // Full-tag (ideal) mode: partial-tag aliases are the documented
        // exception in real mode.
        let mut mon = pei_core::LocalityMonitor::new(16, 4, 10, true);
        let mut seen = FastSet::default();
        for &b in &touched {
            mon.on_l3_access(BlockAddr(b));
            seen.insert(b);
        }
        for probe in 0u64..256 {
            if !seen.contains(&probe) {
                prop_assert!(!mon.query(BlockAddr(probe)), "phantom hit for {}", probe);
            }
        }
    }
}
