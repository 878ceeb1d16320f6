//! The trace-replaying out-of-order core model.
//!
//! The model captures what matters for the paper's experiments — issue
//! width, memory-level parallelism bounded by MSHRs, PEI-level parallelism
//! bounded by the host PCU's operand buffer, dependent-operation
//! serialization, and pfence draining — without simulating register renaming
//! or speculation (the workloads are data-parallel loops whose performance
//! is memory-bound).

use crate::tlb::{PageMap, Tlb, PAGE_SHIFT};
use crate::trace::Op;
use pei_engine::{CounterId, Counters, FastSet, Outbox};
use pei_types::mem::ns;
use pei_types::{Addr, CoreId, Cycle, OperandValue, PimOpKind, ReqId};
use std::collections::VecDeque;

/// Core microarchitectural parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions issued per cycle (Table 2: 4).
    pub issue_width: u32,
    /// Maximum in-flight loads/stores (L1 MSHRs, Table 2: 16).
    pub max_mem_inflight: usize,
    /// Maximum in-flight PEIs (host PCU operand-buffer entries, §6.1: 4).
    pub max_pei_inflight: usize,
}

impl CoreConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        CoreConfig {
            issue_width: 4,
            max_mem_inflight: 16,
            max_pei_inflight: 4,
        }
    }
}

/// Messages a core emits while issuing.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreOut {
    /// A load or store to the private cache.
    Mem {
        /// Namespaced request id.
        id: ReqId,
        /// Byte address.
        addr: Addr,
        /// Whether this is a store.
        write: bool,
    },
    /// A PEI handed to the host-side PCU.
    Pei {
        /// Per-core PEI sequence number (used for dependence tracking).
        seq: u64,
        /// Operation kind.
        op: PimOpKind,
        /// Target address.
        target: Addr,
        /// Input operands.
        input: OperandValue,
    },
    /// A pfence request to the PMU (issued once the core's own PEIs have
    /// drained, which orders it after their registration at the PMU).
    PfenceReq,
}

/// Completions delivered back to a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreEvent {
    /// A load/store finished.
    MemDone(ReqId),
    /// A PEI finished (by sequence number): its outputs are available and
    /// dependence/drain tracking clears.
    PeiDone(u64),
    /// A host-PCU operand-buffer entry was freed. For host-executed PEIs
    /// this coincides with completion; for memory-dispatched PEIs it
    /// arrives as soon as the operands are handed to the PMU (Fig. 5
    /// step 4), which is what lets in-flight PEIs scale to the
    /// memory-side buffer pool (§6.1: 576 total operand buffers).
    PeiCredit,
    /// The pfence this core issued has completed.
    PfenceDone,
}

/// What a call to [`Core::tick`] concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreStatus {
    /// Issued work and can issue again; re-tick at `next`.
    Running,
    /// Stalled waiting for a completion event; no tick scheduled.
    Blocked,
    /// The current phase's ops are fully issued *and* completed (the core
    /// is at the barrier / end of trace).
    Drained,
}

/// Result of one [`Core::tick`]. Emitted messages land in the caller's
/// outbox; the outcome only carries scheduling information.
#[derive(Debug)]
pub struct TickOutcome {
    /// Next cycle to tick this core, if it can make progress on its own.
    pub next: Option<Cycle>,
    /// Progress classification.
    pub status: CoreStatus,
}

/// One simulated host core.
#[derive(Debug)]
pub struct Core {
    id: CoreId,
    cfg: CoreConfig,
    ops: VecDeque<Op>,
    mem_outstanding: FastSet<ReqId>,
    next_mem_local: u64,
    pei_next_seq: u64,
    pei_outstanding: FastSet<u64>,
    pei_credits_in_use: usize,
    fence_wait: bool,
    parked: bool,
    tlb: Option<Tlb>,
    page_map: PageMap,
    counters: Counters,
    c: CoreCounters,
}

/// The core's counter bank.
#[derive(Debug)]
struct CoreCounters {
    instructions: CounterId,
    tlb_walks: CounterId,
    issued_peis: CounterId,
    stall_mem: CounterId,
    stall_pei_buffer: CounterId,
    stall_pei_dep: CounterId,
    stall_fence: CounterId,
}

impl CoreCounters {
    fn register(c: &mut Counters) -> Self {
        CoreCounters {
            instructions: c.register("instructions"),
            tlb_walks: c.register("tlb_walks"),
            issued_peis: c.register("peis"),
            stall_mem: c.register("stall.mem"),
            stall_pei_buffer: c.register("stall.pei_buffer"),
            stall_pei_dep: c.register("stall.pei_dep"),
            stall_fence: c.register("stall.fence"),
        }
    }
}

impl Core {
    /// Creates an idle core.
    pub fn new(id: CoreId, cfg: CoreConfig) -> Self {
        let mut counters = Counters::new();
        let c = CoreCounters::register(&mut counters);
        Core {
            id,
            cfg,
            ops: VecDeque::new(),
            mem_outstanding: FastSet::default(),
            next_mem_local: 0,
            pei_next_seq: 0,
            pei_outstanding: FastSet::default(),
            pei_credits_in_use: 0,
            fence_wait: false,
            parked: false,
            tlb: None,
            page_map: PageMap::Identity,
            counters,
            c,
        }
    }

    /// This core's id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Enables virtual memory (§4.4): addresses in the trace are treated
    /// as virtual, translated through `map` with a TLB of `tlb_cfg`
    /// charging its walk latency on misses. Without this, the core uses
    /// an ideal identity translation.
    pub fn enable_virtual_memory(&mut self, tlb_cfg: crate::tlb::TlbConfig, map: PageMap) {
        self.tlb = Some(Tlb::new(tlb_cfg));
        self.page_map = map;
    }

    /// `(tlb hits, tlb misses)`; hits equal the number of memory
    /// operations and PEIs issued (each costs exactly one successful
    /// translation — the §4.4 property).
    pub fn tlb_stats(&self) -> (u64, u64) {
        self.tlb.as_ref().map(|t| t.stats()).unwrap_or((0, 0))
    }

    /// On a TLB miss for `addr`'s page, returns the walk penalty (the
    /// entry is filled, so the retry hits).
    fn tlb_walk(&mut self, addr: Addr) -> Option<Cycle> {
        let tlb = self.tlb.as_mut()?;
        if tlb.access(addr.0 >> PAGE_SHIFT) {
            None
        } else {
            self.counters.inc(self.c.tlb_walks);
            Some(tlb.walk_latency())
        }
    }

    /// Appends the next phase's operations.
    pub fn push_ops(&mut self, ops: Vec<Op>) {
        self.ops.extend(ops);
    }

    /// Whether all issued work has completed and no ops remain.
    pub fn drained(&self) -> bool {
        self.ops.is_empty()
            && self.mem_outstanding.is_empty()
            && self.pei_outstanding.is_empty()
            && self.pei_credits_in_use == 0
            && !self.fence_wait
    }

    /// Total instructions issued (for IPC).
    pub fn instructions(&self) -> u64 {
        self.counters.get(self.c.instructions)
    }

    /// Total PEIs issued.
    pub fn issued_peis(&self) -> u64 {
        self.counters.get(self.c.issued_peis)
    }

    /// Delivers a completion. Returns `true` if the core was parked and
    /// should be re-ticked.
    pub fn on_event(&mut self, ev: CoreEvent) -> bool {
        match ev {
            CoreEvent::MemDone(id) => {
                self.mem_outstanding.remove(&id);
            }
            CoreEvent::PeiDone(seq) => {
                self.pei_outstanding.remove(&seq);
            }
            CoreEvent::PeiCredit => {
                debug_assert!(self.pei_credits_in_use > 0);
                self.pei_credits_in_use = self.pei_credits_in_use.saturating_sub(1);
            }
            CoreEvent::PfenceDone => {
                self.fence_wait = false;
            }
        }
        std::mem::take(&mut self.parked)
    }

    /// Issues up to one cycle's worth of instructions at `now`, pushing
    /// emitted messages into `out` (the caller's reusable outbox).
    pub fn tick(&mut self, now: Cycle, out: &mut Outbox<CoreOut>) -> TickOutcome {
        let mut slots = self.cfg.issue_width;
        let mut blocked = false;

        while slots > 0 && !blocked {
            if self.fence_wait {
                self.counters.inc(self.c.stall_fence);
                blocked = true;
                break;
            }
            let Some(op) = self.ops.pop_front() else {
                break;
            };
            match op {
                Op::Compute(n) => {
                    let take = n.min(slots);
                    slots -= take;
                    self.counters.add(self.c.instructions, take as u64);
                    let remaining = n - take;
                    if remaining > 0 {
                        if take == self.cfg.issue_width {
                            // Pure-compute stretch: fast-forward whole
                            // cycles instead of ticking one by one.
                            self.counters.add(self.c.instructions, remaining as u64);
                            let cycles = remaining.div_ceil(self.cfg.issue_width) as u64;
                            return TickOutcome {
                                next: Some(now + 1 + cycles),
                                status: CoreStatus::Running,
                            };
                        }
                        self.ops.push_front(Op::Compute(remaining));
                    }
                }
                Op::Load { addr, fence_prior } => {
                    let fenced = fence_prior && !self.mem_outstanding.is_empty();
                    if fenced || self.mem_outstanding.len() >= self.cfg.max_mem_inflight {
                        self.counters.inc(self.c.stall_mem);
                        self.ops.push_front(Op::Load { addr, fence_prior });
                        blocked = true;
                    } else if let Some(walk) = self.tlb_walk(addr) {
                        self.ops.push_front(Op::Load { addr, fence_prior });
                        return TickOutcome {
                            next: Some(now + walk),
                            status: CoreStatus::Running,
                        };
                    } else {
                        self.next_mem_local += 1;
                        let id = ReqId::tagged(ns::CORE, self.id.0, self.next_mem_local);
                        self.mem_outstanding.insert(id);
                        out.push(CoreOut::Mem {
                            id,
                            addr: self.page_map.translate(addr),
                            write: false,
                        });
                        slots -= 1;
                        self.counters.inc(self.c.instructions);
                    }
                }
                Op::Store { addr } => {
                    if self.mem_outstanding.len() >= self.cfg.max_mem_inflight {
                        self.counters.inc(self.c.stall_mem);
                        self.ops.push_front(Op::Store { addr });
                        blocked = true;
                    } else if let Some(walk) = self.tlb_walk(addr) {
                        self.ops.push_front(Op::Store { addr });
                        return TickOutcome {
                            next: Some(now + walk),
                            status: CoreStatus::Running,
                        };
                    } else {
                        self.next_mem_local += 1;
                        let id = ReqId::tagged(ns::CORE, self.id.0, self.next_mem_local);
                        self.mem_outstanding.insert(id);
                        out.push(CoreOut::Mem {
                            id,
                            addr: self.page_map.translate(addr),
                            write: true,
                        });
                        slots -= 1;
                        self.counters.inc(self.c.instructions);
                    }
                }
                Op::Pei {
                    op: kind,
                    target,
                    input,
                    dep_dist,
                } => {
                    let dep_unmet = dep_dist > 0
                        && self
                            .pei_next_seq
                            .checked_sub(dep_dist as u64)
                            .is_some_and(|dep| self.pei_outstanding.contains(&dep));
                    if dep_unmet || self.pei_credits_in_use >= self.cfg.max_pei_inflight {
                        if dep_unmet {
                            self.counters.inc(self.c.stall_pei_dep);
                        } else {
                            self.counters.inc(self.c.stall_pei_buffer);
                        }
                        self.ops.push_front(Op::Pei {
                            op: kind,
                            target,
                            input,
                            dep_dist,
                        });
                        blocked = true;
                    } else if let Some(walk) = self.tlb_walk(target) {
                        // §4.4: one TLB access per PEI, at the host core.
                        self.ops.push_front(Op::Pei {
                            op: kind,
                            target,
                            input,
                            dep_dist,
                        });
                        return TickOutcome {
                            next: Some(now + walk),
                            status: CoreStatus::Running,
                        };
                    } else {
                        let seq = self.pei_next_seq;
                        self.pei_next_seq += 1;
                        self.pei_outstanding.insert(seq);
                        self.pei_credits_in_use += 1;
                        out.push(CoreOut::Pei {
                            seq,
                            op: kind,
                            target: self.page_map.translate(target),
                            input,
                        });
                        slots -= 1;
                        self.counters.inc(self.c.instructions);
                        self.counters.inc(self.c.issued_peis);
                    }
                }
                Op::Pfence => {
                    if self.pei_outstanding.is_empty() {
                        out.push(CoreOut::PfenceReq);
                        self.fence_wait = true;
                        self.counters.inc(self.c.instructions);
                    } else {
                        self.counters.inc(self.c.stall_fence);
                        self.ops.push_front(Op::Pfence);
                    }
                    blocked = true;
                }
                Op::Barrier => {
                    if self.mem_outstanding.is_empty() && self.pei_outstanding.is_empty() {
                        // Local drain point satisfied: keep issuing.
                    } else {
                        self.ops.push_front(Op::Barrier);
                        blocked = true;
                    }
                }
            }
        }

        let status = if self.drained() {
            CoreStatus::Drained
        } else if blocked || self.ops.is_empty() {
            self.parked = true;
            CoreStatus::Blocked
        } else {
            CoreStatus::Running
        };
        TickOutcome {
            next: match status {
                CoreStatus::Running => Some(now + 1),
                _ => None,
            },
            status,
        }
    }

    /// Labels the current counter values as the end of phase `label`
    /// (see `Counters::snapshot`).
    pub fn snapshot_phase(&mut self, label: &'static str) {
        self.counters.snapshot(label);
    }

    /// Restore-time sanity handle: whether virtual memory is enabled.
    pub fn has_tlb(&self) -> bool {
        self.tlb.is_some()
    }

    /// Dumps statistics under `prefix`.
    pub fn report(&self, prefix: &str, stats: &mut pei_engine::StatsReport) {
        // `tlb_walks` duplicates `tlb.misses` below; keep the key set as-is.
        self.counters
            .flush_if(prefix, stats, |name| name != "tlb_walks");
        let (h, m) = self.tlb_stats();
        stats.bump(format!("{prefix}tlb.hits"), h as f64);
        stats.bump(format!("{prefix}tlb.misses"), m as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> Core {
        Core::new(CoreId(0), CoreConfig::paper())
    }

    /// Test adapter: tick with a fresh outbox, returning outcome + outs.
    struct TickRes {
        outs: Outbox<CoreOut>,
        next: Option<Cycle>,
        status: CoreStatus,
    }

    fn tick(c: &mut Core, now: Cycle) -> TickRes {
        let mut outs = Outbox::new();
        let o = c.tick(now, &mut outs);
        TickRes {
            outs,
            next: o.next,
            status: o.status,
        }
    }

    fn pei_op(dep_dist: u16) -> Op {
        Op::Pei {
            op: PimOpKind::IncU64,
            target: Addr(0x40),
            input: OperandValue::None,
            dep_dist,
        }
    }

    #[test]
    fn issues_up_to_width_per_tick() {
        let mut c = core();
        c.push_ops(vec![
            Op::load(Addr(0x40)),
            Op::load(Addr(0x80)),
            Op::load(Addr(0xc0)),
            Op::load(Addr(0x100)),
            Op::load(Addr(0x140)),
        ]);
        let o = tick(&mut c, 0);
        assert_eq!(o.outs.len(), 4, "4-wide issue");
        assert_eq!(o.status, CoreStatus::Running);
        let o2 = tick(&mut c, 1);
        assert_eq!(o2.outs.len(), 1);
    }

    #[test]
    fn compute_fast_forward_preserves_instruction_count() {
        let mut c = core();
        c.push_ops(vec![Op::Compute(100), Op::load(Addr(0x40))]);
        let o = tick(&mut c, 0);
        assert_eq!(o.status, CoreStatus::Running);
        // 100 instructions at width 4 = 25 cycles.
        assert_eq!(o.next, Some(1 + 24));
        assert_eq!(c.instructions(), 100);
        let o2 = tick(&mut c, o.next.unwrap());
        assert_eq!(o2.outs.len(), 1);
        assert_eq!(c.instructions(), 101);
    }

    #[test]
    fn mem_inflight_bounded_by_mshrs() {
        let mut c = Core::new(
            CoreId(0),
            CoreConfig {
                issue_width: 8,
                max_mem_inflight: 2,
                max_pei_inflight: 4,
            },
        );
        c.push_ops((0..5).map(|i| Op::load(Addr(i * 64))).collect());
        let o = tick(&mut c, 0);
        assert_eq!(o.outs.len(), 2);
        assert_eq!(o.status, CoreStatus::Blocked);
        // Completion unblocks one more.
        let id = match &o.outs[0] {
            CoreOut::Mem { id, .. } => *id,
            _ => unreachable!(),
        };
        assert!(c.on_event(CoreEvent::MemDone(id)));
        let o2 = tick(&mut c, 10);
        assert_eq!(o2.outs.len(), 1);
    }

    #[test]
    fn pei_inflight_bounded_by_operand_buffer() {
        let mut c = core();
        c.push_ops((0..6).map(|_| pei_op(0)).collect());
        let o = tick(&mut c, 0);
        // Issue width 4 and buffer 4: exactly 4 PEIs leave.
        assert_eq!(o.outs.len(), 4);
        let o2 = tick(&mut c, 1);
        assert!(o2.outs.is_empty(), "buffer full blocks further PEIs");
        let woke = c.on_event(CoreEvent::PeiDone(0)) | c.on_event(CoreEvent::PeiCredit);
        assert!(woke, "at least one completion event wakes the core");
        let o3 = tick(&mut c, 2);
        assert_eq!(o3.outs.len(), 1);
    }

    #[test]
    fn dependent_pei_waits_for_producer() {
        let mut c = core();
        c.push_ops(vec![pei_op(0), pei_op(1)]);
        let o = tick(&mut c, 0);
        assert_eq!(o.outs.len(), 1, "dependent PEI must not issue");
        assert_eq!(o.status, CoreStatus::Blocked);
        c.on_event(CoreEvent::PeiDone(0));
        let o2 = tick(&mut c, 5);
        assert_eq!(o2.outs.len(), 1);
    }

    #[test]
    fn interleaved_chains_overlap() {
        // Four chains unrolled with dep_dist = 4 keep 4 PEIs in flight.
        let mut c = core();
        let mut ops = Vec::new();
        for _hop in 0..2 {
            for _chain in 0..4 {
                ops.push(pei_op(if _hop == 0 { 0 } else { 4 }));
            }
        }
        c.push_ops(ops);
        let o = tick(&mut c, 0);
        assert_eq!(o.outs.len(), 4, "first hops of all 4 chains in flight");
        // Completing chain 0's first hop admits its second hop.
        c.on_event(CoreEvent::PeiDone(0));
        c.on_event(CoreEvent::PeiCredit);
        let o2 = tick(&mut c, 1);
        assert_eq!(o2.outs.len(), 1);
    }

    #[test]
    fn pfence_waits_for_own_peis_then_blocks_on_pmu() {
        let mut c = core();
        c.push_ops(vec![pei_op(0), Op::Pfence, Op::Compute(1)]);
        let o = tick(&mut c, 0);
        assert_eq!(o.outs.len(), 1);
        assert_eq!(o.status, CoreStatus::Blocked, "fence waits for own PEI");
        c.on_event(CoreEvent::PeiDone(0));
        c.on_event(CoreEvent::PeiCredit);
        let o2 = tick(&mut c, 10);
        assert!(o2.outs.contains(&CoreOut::PfenceReq));
        assert_eq!(o2.status, CoreStatus::Blocked);
        // Nothing issues until PfenceDone.
        let o3 = tick(&mut c, 11);
        assert!(o3.outs.is_empty());
        c.on_event(CoreEvent::PfenceDone);
        let o4 = tick(&mut c, 12);
        assert_eq!(o4.status, CoreStatus::Drained); // trace exhausted
        assert_eq!(c.instructions(), 3);
    }

    #[test]
    fn drained_reported_after_completions() {
        let mut c = core();
        c.push_ops(vec![Op::load(Addr(0x40))]);
        let o = tick(&mut c, 0);
        let id = match &o.outs[0] {
            CoreOut::Mem { id, .. } => *id,
            _ => unreachable!(),
        };
        assert_ne!(o.status, CoreStatus::Drained);
        c.on_event(CoreEvent::MemDone(id));
        let o2 = tick(&mut c, 1);
        assert_eq!(o2.status, CoreStatus::Drained);
    }

    #[test]
    fn fence_prior_load_waits_for_all_memory() {
        let mut c = core();
        c.push_ops(vec![
            Op::load(Addr(0x40)),
            Op::Load {
                addr: Addr(0x80),
                fence_prior: true,
            },
        ]);
        let o = tick(&mut c, 0);
        assert_eq!(o.outs.len(), 1);
        let id = match &o.outs[0] {
            CoreOut::Mem { id, .. } => *id,
            _ => unreachable!(),
        };
        c.on_event(CoreEvent::MemDone(id));
        let o2 = tick(&mut c, 1);
        assert_eq!(o2.outs.len(), 1);
    }

    #[test]
    fn barrier_consumed_only_when_drained() {
        let mut c = core();
        c.push_ops(vec![Op::load(Addr(0x40)), Op::Barrier, Op::Compute(4)]);
        let o = tick(&mut c, 0);
        assert_eq!(o.status, CoreStatus::Blocked);
        let id = match &o.outs[0] {
            CoreOut::Mem { id, .. } => *id,
            _ => unreachable!(),
        };
        c.on_event(CoreEvent::MemDone(id));
        let o2 = tick(&mut c, 5);
        // Barrier consumed; compute continues in the same phase.
        assert!(o2.status == CoreStatus::Running || c.instructions() >= 1);
    }
}
