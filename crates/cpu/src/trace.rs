//! Trace operations and phased trace sources.

use pei_types::{Addr, OperandValue, PimOpKind};

/// One operation in a thread's trace.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `n` non-memory instructions, each occupying one issue slot.
    Compute(u32),
    /// A load from `addr`. If `fence_prior` is set, issue waits until all
    /// earlier memory operations of this thread have completed (used for
    /// pointer chasing through freshly produced data).
    Load {
        /// Byte address.
        addr: Addr,
        /// Wait for all prior in-flight memory ops first.
        fence_prior: bool,
    },
    /// A store to `addr`.
    Store {
        /// Byte address.
        addr: Addr,
    },
    /// A PIM-enabled instruction targeting the block of `target`.
    Pei {
        /// Which operation.
        op: PimOpKind,
        /// Target address (single-cache-block restriction applies to its
        /// block).
        target: Addr,
        /// Input operands.
        input: OperandValue,
        /// If nonzero, this PEI consumes the output of the `dep_dist`-th
        /// previous PEI of this thread and cannot issue until it
        /// completes. Software expresses unrolled dependent chains this
        /// way (e.g. hash-table pointer chasing with 4 interleaved
        /// probes → `dep_dist = 4`).
        dep_dist: u16,
    },
    /// PIM memory fence: blocks until all previously issued PEIs
    /// (system-wide) have completed (§3.2).
    Pfence,
    /// End of a parallel phase: wait for all threads, then continue with
    /// the next phase of the workload.
    Barrier,
}

impl Op {
    /// Convenience constructor for an independent load.
    pub fn load(addr: Addr) -> Op {
        Op::Load {
            addr,
            fence_prior: false,
        }
    }

    /// Convenience constructor for a store.
    pub fn store(addr: Addr) -> Op {
        Op::Store { addr }
    }

    /// Convenience constructor for an independent PEI.
    pub fn pei(op: PimOpKind, target: Addr, input: OperandValue) -> Op {
        Op::Pei {
            op,
            target,
            input,
            dep_dist: 0,
        }
    }

    /// How many instructions this op represents (for IPC accounting).
    pub fn instructions(&self) -> u64 {
        match self {
            Op::Compute(n) => *n as u64,
            Op::Load { .. } | Op::Store { .. } | Op::Pei { .. } | Op::Pfence => 1,
            Op::Barrier => 0,
        }
    }
}

/// A workload expressed as barrier-delimited phases of per-thread op
/// vectors.
///
/// Value-dependent control flow (graph frontiers, convergence loops) is
/// resolved *functionally at generation time*, one phase at a time, so the
/// generator's algorithm state stays consistent with what the simulated
/// threads have "executed" so far.
///
/// `Send` is a supertrait so boxed traces (and the [`pei_system`]
/// `System`s holding them) can move across worker threads in parallel
/// experiment runners.
///
/// [`pei_system`]: ../../pei_system/index.html
pub trait PhasedTrace: Send {
    /// Number of threads this workload spawns.
    fn threads(&self) -> usize;

    /// Generates the next phase: one op vector per thread (implicitly
    /// terminated by a barrier). Returns `None` when the workload is done.
    fn next_phase(&mut self) -> Option<Vec<Vec<Op>>>;

    /// A short human-readable name (for reports).
    fn name(&self) -> &str {
        "anonymous"
    }
}

/// A [`PhasedTrace`] built from pre-materialized phases; used by tests and
/// microbenchmarks.
#[derive(Debug, Clone)]
pub struct VecPhases {
    threads: usize,
    phases: std::collections::VecDeque<Vec<Vec<Op>>>,
    name: String,
}

impl VecPhases {
    /// Wraps explicit phases. Every phase must have one op vector per
    /// thread.
    ///
    /// # Panics
    ///
    /// Panics if any phase has the wrong thread count.
    pub fn new(threads: usize, phases: Vec<Vec<Vec<Op>>>) -> Self {
        for p in &phases {
            assert_eq!(p.len(), threads, "phase thread count mismatch");
        }
        VecPhases {
            threads,
            phases: phases.into(),
            name: "vec-trace".into(),
        }
    }

    /// Single-threaded, single-phase trace.
    pub fn single(ops: Vec<Op>) -> Self {
        Self::new(1, vec![vec![ops]])
    }

    /// Overrides the reported name.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

impl PhasedTrace for VecPhases {
    fn threads(&self) -> usize {
        self.threads
    }

    fn next_phase(&mut self) -> Option<Vec<Vec<Op>>> {
        self.phases.pop_front()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_counts() {
        assert_eq!(Op::Compute(5).instructions(), 5);
        assert_eq!(Op::load(Addr(0)).instructions(), 1);
        assert_eq!(Op::store(Addr(0)).instructions(), 1);
        assert_eq!(Op::Pfence.instructions(), 1);
        assert_eq!(Op::Barrier.instructions(), 0);
        assert_eq!(
            Op::pei(PimOpKind::IncU64, Addr(0), OperandValue::None).instructions(),
            1
        );
    }

    #[test]
    fn vec_phases_drain_in_order() {
        let mut t = VecPhases::new(
            2,
            vec![
                vec![vec![Op::Compute(1)], vec![Op::Compute(2)]],
                vec![vec![], vec![Op::Pfence]],
            ],
        );
        assert_eq!(t.threads(), 2);
        let p1 = t.next_phase().unwrap();
        assert_eq!(p1[1], vec![Op::Compute(2)]);
        let p2 = t.next_phase().unwrap();
        assert_eq!(p2[1], vec![Op::Pfence]);
        assert!(t.next_phase().is_none());
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn mismatched_phase_rejected() {
        VecPhases::new(2, vec![vec![vec![]]]);
    }
}
