//! System-level property tests: end-to-end atomicity and determinism of
//! the full machine under randomized PEI workloads, policies, and
//! machine parameters.

use pei_core::DispatchPolicy;
use pei_cpu::trace::{Op, VecPhases};
use pei_mem::BackingStore;
use pei_system::{MachineConfig, System};
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
}
