//! System-level property tests: end-to-end atomicity and determinism of
//! the full machine under randomized PEI workloads, policies, and
//! machine parameters.

use pei_core::DispatchPolicy;
use pei_cpu::trace::{Op, VecPhases};
use pei_mem::BackingStore;
use pei_system::{MachineConfig, Snapshot, System};
use pei_types::snap::SnapError;
use pei_types::{Addr, OperandValue, PimOpKind};
use proptest::prelude::*;

fn policy_strategy() -> impl Strategy<Value = DispatchPolicy> {
    prop_oneof![
        Just(DispatchPolicy::HostOnly),
        Just(DispatchPolicy::PimOnly),
        Just(DispatchPolicy::LocalityAware),
        Just(DispatchPolicy::LocalityAwareBalanced),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline end-to-end invariant: for any interleaving of
    /// increments and mins from all cores to a small set of contended
    /// blocks, under any dispatch policy, the final memory state equals
    /// the sequential reduction — lost updates are impossible. Each block
    /// carries a single operation type (increment or min), because mixing
    /// non-commuting operations on one word is order-dependent even with
    /// perfect atomicity.
    #[test]
    fn no_lost_updates_under_any_policy(
        ops in proptest::collection::vec((0usize..8, 1u64..1_000_000), 20..150),
        policy in policy_strategy(),
    ) {
        let mut store = BackingStore::new();
        let blocks: Vec<Addr> = (0..8).map(|_| store.alloc_block()).collect();
        for &b in &blocks {
            store.write_u64(b, u64::MAX / 2); // min candidates stay below
        }
        // Blocks 0..4 are increment-only; 4..8 are min-only.
        let kind_of = |b: usize| u8::from(b >= 4);
        // Expected final state from a sequential reduction.
        let mut expect: Vec<u64> = vec![u64::MAX / 2; 8];
        for &(b, val) in &ops {
            match kind_of(b) {
                0 => expect[b] = expect[b].wrapping_add(1),
                _ => expect[b] = expect[b].min(val),
            }
        }

        let cfg = MachineConfig::scaled(policy);
        let threads = cfg.cores;
        // Deal the ops round-robin to the cores.
        let mut phase: Vec<Vec<Op>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, &(b, val)) in ops.iter().enumerate() {
            let op = match kind_of(b) {
                0 => Op::pei(PimOpKind::IncU64, blocks[b], OperandValue::None),
                _ => Op::pei(PimOpKind::MinU64, blocks[b], OperandValue::U64(val)),
            };
            phase[i % threads].push(op);
        }
        for t in phase.iter_mut() {
            t.push(Op::Pfence);
        }
        let mut sys = System::new(cfg, store);
        sys.add_workload(
            Box::new(VecPhases::new(threads, vec![phase])),
            (0..threads).collect(),
        );
        let r = sys.run(500_000_000);
        prop_assert_eq!(r.peis, ops.len() as u64);
        for (i, &b) in blocks.iter().enumerate() {
            prop_assert_eq!(
                sys.store().read_u64(b),
                expect[i],
                "block {} diverged under {}",
                i,
                policy
            );
        }
    }

    /// Cycle counts are deterministic and invariant to rebuilding the
    /// system, for any policy and operand-buffer size.
    #[test]
    fn timing_deterministic(
        policy in policy_strategy(),
        entries in 1usize..8,
        n in 10usize..60,
    ) {
        let run = || {
            let mut store = BackingStore::new();
            let blocks: Vec<Addr> = (0..16).map(|_| store.alloc_block()).collect();
            let mut cfg = MachineConfig::scaled(policy);
            cfg.pcu.operand_entries = entries;
            let ops: Vec<Op> = (0..n)
                .map(|i| Op::pei(PimOpKind::IncU64, blocks[i % 16], OperandValue::None))
                .chain([Op::Pfence])
                .collect();
            let mut sys = System::new(cfg, store);
            sys.add_workload(Box::new(VecPhases::single(ops)), vec![0]);
            sys.run(500_000_000).cycles
        };
        prop_assert_eq!(run(), run());
    }

    /// The snapshot format (DESIGN.md §11) is self-contained: for any
    /// policy and any mid-run cut point, restoring a snapshot into a
    /// twin machine and re-snapshotting reproduces the exact bytes.
    #[test]
    fn snapshot_restore_resnapshot_is_byte_identical(
        policy in policy_strategy(),
        cut in 200u64..6_000,
        blocks in 8usize..48,
    ) {
        let snap = pause_and_snapshot(policy, cut, blocks)?;
        let mut twin = mixed_machine(policy, blocks);
        twin.restore(&snap).expect("restore onto a twin machine");
        let again = twin.snapshot().expect("re-snapshot");
        prop_assert_eq!(snap.as_bytes(), again.as_bytes());
    }

    /// Malformed snapshot bytes — any truncation, any single-byte
    /// corruption — produce errors, never panics, and every reported
    /// truncation offset stays within the input.
    #[test]
    fn malformed_snapshot_bytes_error_instead_of_panicking(
        cut in 200u64..4_000,
        len_seed in any::<u64>(),
        off_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let policy = DispatchPolicy::LocalityAware;
        let snap = pause_and_snapshot(policy, cut, 16)?;
        let full = snap.as_bytes().to_vec();

        // Truncate at a random point, then flip a random byte in what
        // remains (when anything remains).
        let len = (len_seed % (full.len() as u64 + 1)) as usize;
        let mut bad = full[..len].to_vec();
        if !bad.is_empty() {
            let off = (off_seed % bad.len() as u64) as usize;
            bad[off] ^= flip;
        }
        match Snapshot::from_bytes(&bad) {
            Err(SnapError::Truncated { offset }) => prop_assert!(offset <= len),
            Err(_) => {}
            Ok(parsed) => {
                // Header survived; restore must still either succeed
                // (the flip landed in redundant bytes and an untouched
                // payload parsed) or error within bounds — never panic.
                let mut target = mixed_machine(policy, 16);
                if let Err(SnapError::Truncated { offset }) = target.restore(&parsed) {
                    prop_assert!(offset <= len);
                }
            }
        }
    }
}

/// A mixed load/store/PEI machine for the snapshot properties, sized by
/// `blocks`; every call with equal arguments builds an identical twin.
fn mixed_machine(policy: DispatchPolicy, blocks: usize) -> System {
    let mut store = BackingStore::new();
    let addrs: Vec<Addr> = (0..blocks).map(|_| store.alloc_block()).collect();
    let cfg = MachineConfig::scaled(policy);
    let threads = cfg.cores;
    let mut phase = vec![Vec::new(); threads];
    for (i, &a) in addrs.iter().enumerate() {
        let t = i % threads;
        phase[t].push(Op::load(a));
        phase[t].push(Op::pei(PimOpKind::IncU64, a, OperandValue::None));
        if i % 3 == 0 {
            phase[t].push(Op::store(a));
        }
    }
    let mut sys = System::new(cfg, store);
    sys.add_workload(
        Box::new(VecPhases::new(threads, vec![phase])),
        (0..threads).collect(),
    );
    sys
}

/// Pauses a fresh machine at `cut` and snapshots it; rejects the case
/// when the run finishes before the cut (nothing mid-run to capture).
fn pause_and_snapshot(
    policy: DispatchPolicy,
    cut: u64,
    blocks: usize,
) -> Result<Snapshot, TestCaseError> {
    let mut sys = mixed_machine(policy, blocks);
    match sys.run_paused(500_000_000, Some(cut)) {
        pei_system::RunStatus::Paused { .. } => {}
        pei_system::RunStatus::Completed(_) => {
            return Err(TestCaseError::reject(
                "run completed before the cut".to_string(),
            ))
        }
    }
    Ok(sys.snapshot().expect("snapshot a paused machine"))
}
