//! PEI computation units (§4.2).
//!
//! Every PCU has the same computation logic (so any PEI can execute on any
//! PCU) and an operand buffer that decouples memory access from
//! computation: a PEI's target-block fetch is issued as soon as a buffer
//! entry is free, even if the computation logic is busy, which is how the
//! architecture extracts memory-level parallelism from simple operations.
//!
//! * [`HostPcu`] — one per core, sharing the core's L1 port; executes PEIs
//!   with high data locality.
//! * [`MemPcu`] — one per vault, driving the vault's DRAM controller;
//!   executes offloaded PEIs.

use crate::ops;
use pei_engine::{ClockDomain, CounterId, Counters, FastMap, OccupancyPool, Outbox, StatsReport};
use pei_mem::msg::CoreReq;
use pei_mem::BackingStore;
use pei_types::mem::ns;
use pei_types::{Addr, CoreId, Cycle, OperandValue, PimCmd, PimOpKind, PimOut, ReqId};
use std::collections::VecDeque;

/// PCU microarchitecture parameters (§6.1 defaults; Fig. 11 sweeps them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcuConfig {
    /// Operand-buffer entries (default 4).
    pub operand_entries: usize,
    /// Execution width of the computation logic (default 1).
    pub exec_width: usize,
    /// Latency of the memory-mapped register interface between a core and
    /// its host-side PCU, in host cycles.
    pub mmreg_latency: Cycle,
}

impl PcuConfig {
    /// The paper's configuration: four operand-buffer entries,
    /// single-issue computation logic.
    pub fn paper() -> Self {
        PcuConfig {
            operand_entries: 4,
            exec_width: 1,
            mmreg_latency: 2,
        }
    }
}

/// One in-flight PEI at a host-side PCU.
#[derive(Debug, Clone)]
struct HostTask {
    seq: u64,
    op: PimOpKind,
    target: Addr,
    input: OperandValue,
}

/// Outputs of the host-side PCU.
#[derive(Debug, Clone, PartialEq)]
pub enum HostPcuOut {
    /// Register the PEI with the PMU (lock + locality decision).
    ToPmu {
        /// PEI transaction id.
        id: ReqId,
        /// Operation.
        op: PimOpKind,
        /// Target address.
        target: Addr,
        /// Input operands (forwarded for possible memory-side execution).
        input: OperandValue,
        /// Departure cycle.
        at: Cycle,
    },
    /// Fetch the target block through the core's L1 (host-side execution).
    L1Access {
        /// The cache request (write permission for writer PEIs).
        req: CoreReq,
        /// Departure cycle.
        at: Cycle,
    },
    /// PEI finished: notify the core (frees its operand-buffer credit) and
    /// deliver output operands.
    DoneToCore {
        /// The core's PEI sequence number.
        seq: u64,
        /// Output operands.
        output: OperandValue,
        /// Completion cycle.
        at: Cycle,
    },
    /// PEI finished executing *on the host*: release the PIM-directory
    /// lock (step 6 of Fig. 4, done in background).
    ReleaseToPmu {
        /// PEI transaction id.
        id: ReqId,
        /// Completion cycle.
        at: Cycle,
    },
    /// An operand-buffer entry freed: return the core's PEI credit. For
    /// host execution this coincides with completion; for memory dispatch
    /// it arrives as soon as the operands are handed off.
    CreditToCore {
        /// The core's PEI sequence number.
        seq: u64,
        /// Credit-return cycle.
        at: Cycle,
    },
}

/// The host-side PCU of one core.
#[derive(Debug)]
pub struct HostPcu {
    core: CoreId,
    cfg: PcuConfig,
    compute: OccupancyPool,
    tasks: FastMap<ReqId, HostTask>,
    // Occupied operand-buffer entries. Smaller than `tasks.len()`:
    // memory-dispatched PEIs hand their entry off to the memory side
    // (on_dispatched_mem) but stay in `tasks` until the result returns.
    // Mirrors the core's credit window, so it can never legitimately
    // exceed `cfg.operand_entries` (the invariant-checker bound).
    occupied: usize,
    next_local: u64,
    counters: Counters,
    c: HostPcuCounters,
}

/// The host-side PCU's counter bank.
#[derive(Debug)]
struct HostPcuCounters {
    host_execs: CounterId,
    mem_execs: CounterId,
}

impl HostPcuCounters {
    fn register(c: &mut Counters) -> Self {
        HostPcuCounters {
            host_execs: c.register("host_execs"),
            mem_execs: c.register("mem_execs"),
        }
    }
}

impl HostPcu {
    /// Creates the PCU for `core`.
    pub fn new(core: CoreId, cfg: PcuConfig) -> Self {
        let mut counters = Counters::new();
        let c = HostPcuCounters::register(&mut counters);
        HostPcu {
            core,
            cfg,
            compute: OccupancyPool::new(cfg.exec_width),
            tasks: FastMap::default(),
            occupied: 0,
            next_local: 0,
            counters,
            c,
        }
    }

    /// Accepts a PEI from the core (§4.5 step 1: operands written to the
    /// memory-mapped registers) and forwards it to the PMU.
    pub fn begin(
        &mut self,
        now: Cycle,
        seq: u64,
        op: PimOpKind,
        target: Addr,
        input: OperandValue,
        out: &mut Outbox<HostPcuOut>,
    ) -> ReqId {
        self.next_local += 1;
        self.occupied += 1;
        let id = ReqId::tagged(ns::HOST_PCU, self.core.0, self.next_local);
        self.tasks.insert(
            id,
            HostTask {
                seq,
                op,
                target,
                input: input.clone(),
            },
        );
        out.push(HostPcuOut::ToPmu {
            id,
            op,
            target,
            input,
            at: now + self.cfg.mmreg_latency,
        });
        id
    }

    /// The PMU decided host-side execution: load the target block through
    /// the L1 (§4.5 step 3).
    pub fn on_decision_host(&mut self, now: Cycle, id: ReqId, out: &mut Outbox<HostPcuOut>) {
        let task = self.tasks.get(&id).expect("unknown host PEI");
        out.push(HostPcuOut::L1Access {
            req: CoreReq {
                id,
                addr: task.target,
                write: task.op.is_writer(),
            },
            at: now,
        });
    }

    /// The L1 returned the target block: execute (§4.5 steps 4–7).
    pub fn on_l1_resp(
        &mut self,
        now: Cycle,
        id: ReqId,
        mem: &mut BackingStore,
        out: &mut Outbox<HostPcuOut>,
    ) {
        let task = self.tasks.remove(&id).expect("unknown host PEI");
        self.occupied -= 1;
        self.counters.inc(self.c.host_execs);
        let start = self.compute.reserve(now, ops::host_latency(task.op));
        let mut done = start + ops::host_latency(task.op);
        if task.op.is_writer() {
            done += 1; // store back into the L1 (hit: permission held)
        }
        let output = ops::apply(task.op, task.target, &task.input, mem);
        out.push(HostPcuOut::ReleaseToPmu { id, at: done });
        out.push(HostPcuOut::CreditToCore {
            seq: task.seq,
            at: done + self.cfg.mmreg_latency,
        });
        out.push(HostPcuOut::DoneToCore {
            seq: task.seq,
            output,
            at: done + self.cfg.mmreg_latency,
        });
    }

    /// The PMU dispatched this PEI to memory: the operand-buffer entry is
    /// handed to the PMU/memory side, freeing the core's credit now.
    pub fn on_dispatched_mem(&mut self, now: Cycle, id: ReqId, out: &mut Outbox<HostPcuOut>) {
        let task = self.tasks.get(&id).expect("unknown host PEI");
        self.occupied -= 1;
        out.push(HostPcuOut::CreditToCore {
            seq: task.seq,
            at: now + self.cfg.mmreg_latency,
        });
    }

    /// The PMU executed this PEI in memory and returned its outputs
    /// (§4.5 memory-side step 7→8).
    pub fn on_mem_result(
        &mut self,
        now: Cycle,
        id: ReqId,
        output: OperandValue,
        out: &mut Outbox<HostPcuOut>,
    ) {
        let task = self.tasks.remove(&id).expect("unknown host PEI");
        self.counters.inc(self.c.mem_execs);
        out.push(HostPcuOut::DoneToCore {
            seq: task.seq,
            output,
            at: now + self.cfg.mmreg_latency,
        });
    }

    /// In-flight PEIs owned by this PCU.
    pub fn in_flight(&self) -> usize {
        self.tasks.len()
    }

    /// Occupied operand-buffer entries. Bounded by the core's credit
    /// window (`operand_entries`) — the invariant the `pcu` checker
    /// audits. Unlike [`in_flight`](Self::in_flight), this excludes PEIs
    /// whose entry was handed to the memory side at dispatch.
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Fault-injection hook: claims a phantom operand-buffer entry that
    /// is never released, so the `pcu` checker's host-side bound trips.
    pub fn fault_overfill(&mut self) {
        self.occupied += 1;
    }

    /// `(host-executed, memory-executed)` PEI counts.
    pub fn exec_counts(&self) -> (u64, u64) {
        (
            self.counters.get(self.c.host_execs),
            self.counters.get(self.c.mem_execs),
        )
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

/// One in-flight PEI at a memory-side PCU.
#[derive(Debug, Clone)]
struct MemTask {
    cmd: PimCmd,
    wrote: bool,
}

/// Outputs of a memory-side PCU.
#[derive(Debug, Clone, PartialEq)]
pub enum MemPcuOut {
    /// A DRAM access to this PCU's vault.
    VaultAccess {
        /// Namespaced request id.
        id: ReqId,
        /// Block to access.
        block: pei_types::BlockAddr,
        /// Whether this is the write-back half of a writer PEI.
        write: bool,
        /// Departure cycle.
        at: Cycle,
    },
    /// The PEI completed; its response heads back over the response link.
    Complete {
        /// The completion packet.
        resp: PimOut,
        /// Completion cycle.
        at: Cycle,
    },
}

/// The memory-side PCU of one vault (§4.2): 2 GHz, four operand-buffer
/// entries, single-issue computation logic.
#[derive(Debug)]
pub struct MemPcu {
    vault_flat: u16,
    cfg: PcuConfig,
    mem_clk: ClockDomain,
    compute: OccupancyPool,
    /// In-service tasks keyed by the DRAM request id currently in flight.
    tasks: FastMap<ReqId, MemTask>,
    waiting: VecDeque<PimCmd>,
    next_local: u64,
    /// High-water mark of occupied operand-buffer entries (a max, so it
    /// lives outside the additive counter bank).
    peak_buffer: usize,
    counters: Counters,
    c: MemPcuCounters,
}

/// The memory-side PCU's counter bank.
#[derive(Debug)]
struct MemPcuCounters {
    executed: CounterId,
}

impl MemPcuCounters {
    fn register(c: &mut Counters) -> Self {
        MemPcuCounters {
            executed: c.register("executed"),
        }
    }
}

impl MemPcu {
    /// Creates the PCU for the vault with flat index `vault_flat`.
    pub fn new(vault_flat: u16, cfg: PcuConfig, mem_clk: ClockDomain) -> Self {
        let mut counters = Counters::new();
        let c = MemPcuCounters::register(&mut counters);
        MemPcu {
            vault_flat,
            cfg,
            mem_clk,
            compute: OccupancyPool::new(cfg.exec_width),
            tasks: FastMap::default(),
            waiting: VecDeque::new(),
            next_local: 0,
            peak_buffer: 0,
            counters,
            c,
        }
    }

    fn fresh_id(&mut self) -> ReqId {
        self.next_local += 1;
        ReqId::tagged(ns::MEM_PCU, self.vault_flat, self.next_local)
    }

    /// Occupied operand-buffer entries (invariant-checker access).
    pub fn in_service(&self) -> usize {
        self.tasks.len()
    }

    /// Operand-buffer capacity (invariant-checker access).
    pub fn operand_capacity(&self) -> usize {
        self.cfg.operand_entries
    }

    /// Fault hook: stuffs a phantom task into the operand buffer,
    /// bypassing admission control — the overflow a lost credit or a
    /// double-started command would produce. The phantom never
    /// completes; it exists to trip the operand-accounting checker.
    pub fn fault_overfill(&mut self) {
        let id = self.fresh_id();
        self.tasks.insert(
            id,
            MemTask {
                cmd: PimCmd {
                    id,
                    target: Addr(0),
                    op: PimOpKind::IncU64,
                    input: OperandValue::None,
                },
                wrote: false,
            },
        );
    }

    /// Accepts a PIM command from the off-chip link. If the operand buffer
    /// is full the command waits in the vault's input queue.
    pub fn on_cmd(&mut self, now: Cycle, cmd: PimCmd, out: &mut Outbox<MemPcuOut>) {
        if self.tasks.len() >= self.cfg.operand_entries {
            self.waiting.push_back(cmd);
            return;
        }
        self.start(now, cmd, out);
    }

    fn start(&mut self, now: Cycle, cmd: PimCmd, out: &mut Outbox<MemPcuOut>) {
        let id = self.fresh_id();
        let block = cmd.block();
        self.tasks.insert(id, MemTask { cmd, wrote: false });
        self.peak_buffer = self.peak_buffer.max(self.tasks.len());
        out.push(MemPcuOut::VaultAccess {
            id,
            block,
            write: false,
            at: self.mem_clk.align_up(now),
        });
    }

    /// A DRAM access issued by this PCU completed.
    pub fn on_vault_done(
        &mut self,
        now: Cycle,
        id: ReqId,
        write: bool,
        mem: &mut BackingStore,
        out: &mut Outbox<MemPcuOut>,
    ) {
        if write {
            // Write-back half finished: the PEI is complete.
            let task = self.tasks.remove(&id).expect("unknown mem PEI write");
            debug_assert!(task.wrote);
            self.finish(now, task, mem, true, out);
        } else {
            // Read half finished: compute, then write back if needed.
            let task = self.tasks.remove(&id).expect("unknown mem PEI read");
            let lat = self.mem_clk.cycles(ops::host_latency(task.cmd.op));
            let start = self.compute.reserve(now, lat);
            let done = start + lat;
            if task.cmd.op.is_writer() {
                let wid = self.fresh_id();
                let block = task.cmd.block();
                self.tasks.insert(
                    wid,
                    MemTask {
                        cmd: task.cmd,
                        wrote: true,
                    },
                );
                out.push(MemPcuOut::VaultAccess {
                    id: wid,
                    block,
                    write: true,
                    at: done,
                });
            } else {
                self.finish(done.max(now), task, mem, false, out);
            }
        }
        // A finished read/write may have freed a buffer entry.
        while self.tasks.len() < self.cfg.operand_entries {
            match self.waiting.pop_front() {
                Some(cmd) => self.start(now, cmd, out),
                None => break,
            }
        }
    }

    fn finish(
        &mut self,
        at: Cycle,
        task: MemTask,
        mem: &mut BackingStore,
        _was_write: bool,
        out: &mut Outbox<MemPcuOut>,
    ) {
        self.counters.inc(self.c.executed);
        let output = ops::apply(task.cmd.op, task.cmd.target, &task.cmd.input, mem);
        out.push(MemPcuOut::Complete {
            resp: PimOut {
                id: task.cmd.id,
                block: task.cmd.block(),
                output,
            },
            at,
        });
    }

    /// PEIs executed by this PCU.
    pub fn executed(&self) -> u64 {
        self.counters.get(self.c.executed)
    }

    /// In-service + queued commands (test helper).
    pub fn backlog(&self) -> usize {
        self.tasks.len() + self.waiting.len()
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

    #[test]
    fn host_pcu_full_flow() {
        let mut mem = BackingStore::new();
        let target = mem.alloc_block();
        mem.write_u64(target, 5);
        let mut pcu = HostPcu::new(CoreId(0), PcuConfig::paper());
        let mut out = Outbox::new();
        let id = pcu.begin(
            0,
            0,
            PimOpKind::IncU64,
            target,
            OperandValue::None,
            &mut out,
        );
        assert!(matches!(out[0], HostPcuOut::ToPmu { .. }));
        out.clear();
        pcu.on_decision_host(10, id, &mut out);
        match &out[0] {
            HostPcuOut::L1Access { req, .. } => {
                assert!(req.write, "writer PEI needs write permission");
                assert_eq!(req.addr, target);
            }
            o => panic!("unexpected {o:?}"),
        }
        out.clear();
        pcu.on_l1_resp(20, id, &mut mem, &mut out);
        assert_eq!(mem.read_u64(target), 6, "functional effect applied");
        assert!(out
            .iter()
            .any(|o| matches!(o, HostPcuOut::ReleaseToPmu { .. })));
        assert!(out
            .iter()
            .any(|o| matches!(o, HostPcuOut::DoneToCore { seq: 0, .. })));
        assert_eq!(pcu.exec_counts(), (1, 0));
        assert_eq!(pcu.in_flight(), 0);
    }

    #[test]
    fn host_pcu_reader_needs_no_write_permission() {
        let mut mem = BackingStore::new();
        let target = mem.alloc_block();
        let mut pcu = HostPcu::new(CoreId(0), PcuConfig::paper());
        let mut out = Outbox::new();
        let id = pcu.begin(
            0,
            0,
            PimOpKind::HashProbe,
            target,
            OperandValue::U64(1),
            &mut out,
        );
        out.clear();
        pcu.on_decision_host(10, id, &mut out);
        match &out[0] {
            HostPcuOut::L1Access { req, .. } => assert!(!req.write),
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn host_pcu_mem_result_completes_without_l1() {
        let mut pcu = HostPcu::new(CoreId(0), PcuConfig::paper());
        let mut out = Outbox::new();
        let id = pcu.begin(
            0,
            7,
            PimOpKind::AddF64,
            Addr(0x40),
            OperandValue::F64(1.0),
            &mut out,
        );
        out.clear();
        pcu.on_mem_result(100, id, OperandValue::None, &mut out);
        match &out[0] {
            HostPcuOut::DoneToCore { seq, .. } => assert_eq!(*seq, 7),
            o => panic!("unexpected {o:?}"),
        }
        assert_eq!(pcu.exec_counts(), (0, 1));
    }

    #[test]
    fn host_pcu_serializes_on_single_issue_logic() {
        let mut mem = BackingStore::new();
        let t1 = mem.alloc_block();
        let t2 = mem.alloc_block();
        let mut pcu = HostPcu::new(CoreId(0), PcuConfig::paper());
        let mut out = Outbox::new();
        let a = pcu.begin(
            0,
            0,
            PimOpKind::EuclideanDist,
            t1,
            OperandValue::from_bytes(&[0; 64]),
            &mut out,
        );
        let b = pcu.begin(
            0,
            1,
            PimOpKind::EuclideanDist,
            t2,
            OperandValue::from_bytes(&[0; 64]),
            &mut out,
        );
        out.clear();
        pcu.on_l1_resp(100, a, &mut mem, &mut out);
        pcu.on_l1_resp(100, b, &mut mem, &mut out);
        let dones: Vec<Cycle> = out
            .iter()
            .filter_map(|o| match o {
                HostPcuOut::DoneToCore { at, .. } => Some(*at),
                _ => None,
            })
            .collect();
        assert_eq!(dones.len(), 2);
        assert!(dones[1] >= dones[0] + ops::host_latency(PimOpKind::EuclideanDist));
    }

    #[test]
    fn mem_pcu_reader_flow() {
        let mut mem = BackingStore::new();
        let target = mem.alloc_block();
        mem.write_u64(target, 33);
        let clk = ClockDomain::new(2, 4.0);
        let mut pcu = MemPcu::new(0, PcuConfig::paper(), clk);
        let mut out = Outbox::new();
        pcu.on_cmd(
            1,
            PimCmd {
                id: ReqId(99),
                target,
                op: PimOpKind::HashProbe,
                input: OperandValue::U64(33),
            },
            &mut out,
        );
        let (id, at) = match &out[0] {
            MemPcuOut::VaultAccess {
                id,
                write: false,
                at,
                ..
            } => (*id, *at),
            o => panic!("unexpected {o:?}"),
        };
        assert_eq!(at % 2, 0, "memory-side events align to the 2 GHz clock");
        out.clear();
        pcu.on_vault_done(200, id, false, &mut mem, &mut out);
        match &out[0] {
            MemPcuOut::Complete { resp, .. } => {
                assert_eq!(resp.id, ReqId(99));
                assert_eq!(resp.output.as_bytes().unwrap()[0], 1, "probe matched");
            }
            o => panic!("unexpected {o:?}"),
        }
        assert_eq!(pcu.executed(), 1);
    }

    #[test]
    fn mem_pcu_writer_does_read_modify_write() {
        let mut mem = BackingStore::new();
        let target = mem.alloc_block();
        let clk = ClockDomain::new(2, 4.0);
        let mut pcu = MemPcu::new(0, PcuConfig::paper(), clk);
        let mut out = Outbox::new();
        pcu.on_cmd(
            0,
            PimCmd {
                id: ReqId(7),
                target,
                op: PimOpKind::IncU64,
                input: OperandValue::None,
            },
            &mut out,
        );
        let rid = match &out[0] {
            MemPcuOut::VaultAccess {
                id, write: false, ..
            } => *id,
            o => panic!("unexpected {o:?}"),
        };
        out.clear();
        pcu.on_vault_done(100, rid, false, &mut mem, &mut out);
        let wid = match &out[0] {
            MemPcuOut::VaultAccess {
                id, write: true, ..
            } => *id,
            o => panic!("expected write-back, got {o:?}"),
        };
        out.clear();
        pcu.on_vault_done(200, wid, true, &mut mem, &mut out);
        assert!(matches!(&out[0], MemPcuOut::Complete { resp, .. } if resp.id == ReqId(7)));
        assert_eq!(mem.read_u64(target), 1);
    }

    #[test]
    fn mem_pcu_operand_buffer_backpressure() {
        let mut mem = BackingStore::new();
        let clk = ClockDomain::new(2, 4.0);
        let mut pcu = MemPcu::new(0, PcuConfig::paper(), clk);
        let mut out = Outbox::new();
        let mut blocks = Vec::new();
        for _ in 0..6 {
            blocks.push(mem.alloc_block().block());
        }
        for (i, b) in blocks.iter().enumerate() {
            pcu.on_cmd(
                0,
                PimCmd {
                    id: ReqId(i as u64),
                    target: b.base(),
                    op: PimOpKind::HashProbe,
                    input: OperandValue::U64(0),
                },
                &mut out,
            );
        }
        // Only 4 DRAM reads issued; 2 commands queued.
        let reads = out
            .iter()
            .filter(|o| matches!(o, MemPcuOut::VaultAccess { .. }))
            .count();
        assert_eq!(reads, 4);
        assert_eq!(pcu.backlog(), 6);
        // Completing one admits the next.
        let first = match &out[0] {
            MemPcuOut::VaultAccess { id, .. } => *id,
            _ => unreachable!(),
        };
        out.clear();
        pcu.on_vault_done(100, first, false, &mut mem, &mut out);
        assert!(out
            .iter()
            .any(|o| matches!(o, MemPcuOut::VaultAccess { write: false, .. })));
    }
}
