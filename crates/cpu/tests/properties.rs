//! Property-based tests of the core model: issue-width and in-flight
//! bounds hold, and instruction counts are conserved, under arbitrary
//! op streams and completion interleavings.

use pei_cpu::core::{Core, CoreConfig, CoreEvent, CoreOut, CoreStatus};
use pei_cpu::trace::Op;
use pei_types::{Addr, CoreId, OperandValue, PimOpKind};
use proptest::prelude::*;
use std::collections::VecDeque;

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..16).prop_map(Op::Compute),
        (0u64..64).prop_map(|b| Op::load(Addr(b * 64))),
        (0u64..64).prop_map(|b| Op::store(Addr(b * 64))),
        (0u64..64, 0u16..3).prop_map(|(b, dep)| Op::Pei {
            op: PimOpKind::IncU64,
            target: Addr(b * 64),
            input: OperandValue::None,
            dep_dist: dep,
        }),
        Just(Op::Pfence),
        Just(Op::Barrier),
    ]
}

proptest! {
    /// Replaying any op stream with an eager completion oracle terminates,
    /// conserves instruction counts, and never exceeds the configured
    /// in-flight bounds.
    #[test]
    fn core_replay_invariants(ops in proptest::collection::vec(arb_op(), 0..120)) {
        let cfg = CoreConfig {
            issue_width: 4,
            max_mem_inflight: 3,
            max_pei_inflight: 2,
        };
        let expect_instr: u64 = ops.iter().map(|o| o.instructions()).sum();
        let mut core = Core::new(CoreId(0), cfg);
        core.push_ops(ops);

        let mut now = 0u64;
        let mut outs = Vec::new();
        let mut inflight_mem = VecDeque::new();
        let mut inflight_pei = VecDeque::new();
        let mut fence_pending = false;
        let mut steps = 0;
        loop {
            steps += 1;
            prop_assert!(steps < 100_000, "runaway replay");
            outs.clear();
            let outcome = core.tick(now, &mut outs);
            prop_assert!(outs.len() <= 4 + 1, "more outs than issue width");
            for out in outs.drain(..) {
                match out {
                    CoreOut::Mem { id, .. } => inflight_mem.push_back(id),
                    CoreOut::Pei { seq, .. } => inflight_pei.push_back(seq),
                    CoreOut::PfenceReq => fence_pending = true,
                }
            }
            prop_assert!(inflight_mem.len() <= cfg.max_mem_inflight);
            prop_assert!(inflight_pei.len() <= cfg.max_pei_inflight);
            match outcome.status {
                CoreStatus::Running => {
                    now = outcome.next.unwrap();
                }
                CoreStatus::Blocked => {
                    // Oracle: complete the oldest outstanding thing.
                    now += 10;
                    if let Some(id) = inflight_mem.pop_front() {
                        core.on_event(CoreEvent::MemDone(id));
                    } else if let Some(seq) = inflight_pei.pop_front() {
                        core.on_event(CoreEvent::PeiDone(seq));
                        core.on_event(CoreEvent::PeiCredit);
                    } else if fence_pending {
                        fence_pending = false;
                        core.on_event(CoreEvent::PfenceDone);
                    } else {
                        prop_assert!(false, "blocked with nothing outstanding");
                    }
                }
                CoreStatus::Drained => break,
            }
        }
        prop_assert_eq!(core.instructions(), expect_instr);
        prop_assert!(core.drained());
    }

    /// Determinism: two cores fed the same stream with the same oracle
    /// produce identical instruction counts and PEI counts.
    #[test]
    fn core_replay_deterministic(ops in proptest::collection::vec(arb_op(), 0..60)) {
        let run = |ops: Vec<Op>| {
            let mut core = Core::new(CoreId(0), CoreConfig::paper());
            core.push_ops(ops);
            let mut now = 0;
            let mut outs = Vec::new();
            let mut mem = VecDeque::new();
            let mut pei = VecDeque::new();
            let mut fence = false;
            loop {
                outs.clear();
                let o = core.tick(now, &mut outs);
                for out in outs.drain(..) {
                    match out {
                        CoreOut::Mem { id, .. } => mem.push_back(id),
                        CoreOut::Pei { seq, .. } => pei.push_back(seq),
                        CoreOut::PfenceReq => fence = true,
                    }
                }
                match o.status {
                    CoreStatus::Running => now = o.next.unwrap(),
                    CoreStatus::Blocked => {
                        now += 1;
                        if let Some(id) = mem.pop_front() {
                            core.on_event(CoreEvent::MemDone(id));
                        } else if let Some(seq) = pei.pop_front() {
                            core.on_event(CoreEvent::PeiDone(seq));
                            core.on_event(CoreEvent::PeiCredit);
                        } else if fence {
                            fence = false;
                            core.on_event(CoreEvent::PfenceDone);
                        } else {
                            unreachable!();
                        }
                    }
                    CoreStatus::Drained => break,
                }
            }
            (core.instructions(), core.issued_peis(), now)
        };
        prop_assert_eq!(run(ops.clone()), run(ops));
    }
}
