//! The PEI management unit (§4.3): atomicity, coherence management,
//! locality-aware dispatch, balanced dispatch, and pfence.
//!
//! The PMU sits next to the L3 and is shared by all host processors. Every
//! PEI visits it to (1) take its reader-writer lock in the PIM directory,
//! (2) get an execution-location decision from the locality monitor, and —
//! when offloaded — (3) have its target block back-invalidated /
//! back-written-back before the PIM command leaves for memory.

use crate::directory::{AcquireResult, PimDirectory};
use crate::dispatch::{balanced_choice, DispatchPolicy};
use crate::monitor::LocalityMonitor;
use pei_engine::{CounterId, Counters, FastMap, Outbox, StatsReport};
use pei_mem::msg::PimFlush;
use pei_types::{Addr, BlockAddr, CoreId, Cycle, OperandValue, PimCmd, PimOpKind, PimOut, ReqId};

/// PMU configuration (§6.1 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmuConfig {
    /// Execution-location policy.
    pub policy: DispatchPolicy,
    /// PIM-directory entries (2048 in the paper).
    pub dir_entries: usize,
    /// PIM-directory access latency in host cycles (2 in the paper).
    pub dir_latency: Cycle,
    /// Locality-monitor access latency in host cycles (3 in the paper).
    pub mon_latency: Cycle,
    /// Idealize the directory (infinite, zero-latency; §7.6 / Ideal-Host).
    pub ideal_dir: bool,
    /// Idealize the locality monitor (full tags, zero latency; §7.6).
    pub ideal_mon: bool,
    /// Locality-monitor sets (same as the L3 tag array).
    pub mon_sets: usize,
    /// Locality-monitor ways (same as the L3 tag array).
    pub mon_ways: usize,
    /// Partial-tag width (10 in the paper).
    pub mon_tag_bits: u32,
    /// Honor the locality monitor's first-hit ignore bit (§4.3). Always
    /// on in the paper; exposed as an ablation knob.
    pub mon_ignore_bit: bool,
}

impl PmuConfig {
    /// The paper's PMU for an L3 with `l3_sets` × `l3_ways`.
    pub fn paper(policy: DispatchPolicy, l3_sets: usize, l3_ways: usize) -> Self {
        PmuConfig {
            policy,
            dir_entries: 2048,
            dir_latency: 2,
            mon_latency: 3,
            ideal_dir: false,
            ideal_mon: false,
            mon_sets: l3_sets,
            mon_ways: l3_ways,
            mon_tag_bits: 10,
            mon_ignore_bit: true,
        }
    }

    /// The Ideal-Host configuration of §7: host-only execution with an
    /// infinitely large, zero-latency PIM directory — i.e. PEIs behave
    /// like ordinary host instructions with free atomicity.
    pub fn ideal_host(l3_sets: usize, l3_ways: usize) -> Self {
        PmuConfig {
            ideal_dir: true,
            dir_latency: 0,
            ..Self::paper(DispatchPolicy::HostOnly, l3_sets, l3_ways)
        }
    }
}

/// Inputs to the PMU.
#[derive(Debug, Clone, PartialEq)]
pub enum PmuIn {
    /// A PEI registers (from a host-side PCU).
    Request {
        /// PEI transaction id.
        id: ReqId,
        /// Issuing core.
        core: CoreId,
        /// Operation.
        op: PimOpKind,
        /// Target address.
        target: Addr,
        /// Input operands.
        input: OperandValue,
    },
    /// A host-side PCU finished executing a PEI (release its lock).
    HostRelease {
        /// PEI transaction id.
        id: ReqId,
    },
    /// The L3 finished the back-invalidation / back-writeback for an
    /// offloaded PEI.
    FlushDone {
        /// PEI transaction id (flushes reuse the PEI's id).
        id: ReqId,
    },
    /// The memory-side completion arrived over the response link.
    MemResult {
        /// The completion packet.
        out: PimOut,
    },
    /// A core issued a pfence.
    Pfence {
        /// The fencing core.
        core: CoreId,
    },
}

/// Outputs of the PMU.
#[derive(Debug, Clone, PartialEq)]
pub enum PmuOut {
    /// Execute on the host-side PCU of `core`.
    DecideHost {
        /// PEI transaction id.
        id: ReqId,
        /// The owning core.
        core: CoreId,
        /// Decision cycle.
        at: Cycle,
    },
    /// Back-invalidate / back-writeback the target block at the L3.
    Flush {
        /// The flush request (id = the PEI's id).
        flush: PimFlush,
        /// Departure cycle.
        at: Cycle,
    },
    /// Send the PIM command to the HMC controller.
    Launch {
        /// The command packet.
        cmd: PimCmd,
        /// Departure cycle.
        at: Cycle,
    },
    /// Deliver memory-side outputs back to the owning host PCU.
    MemResultToPcu {
        /// PEI transaction id.
        id: ReqId,
        /// The owning core.
        core: CoreId,
        /// Output operands.
        output: OperandValue,
        /// Delivery cycle.
        at: Cycle,
    },
    /// The pfence issued by `core` has completed.
    PfenceDone {
        /// The fencing core.
        core: CoreId,
        /// Completion cycle.
        at: Cycle,
    },
    /// The PEI was dispatched to memory: its operands left the host-side
    /// PCU's memory-mapped registers, so the PCU entry (and the core's
    /// operand-buffer credit) frees immediately (Fig. 5 step 4). This is
    /// what lets in-flight PEIs scale to the memory-side buffer pool.
    DispatchedMem {
        /// PEI transaction id.
        id: ReqId,
        /// The owning core.
        core: CoreId,
        /// Dispatch cycle.
        at: Cycle,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnState {
    WaitLock,
    HostRunning,
    WaitFlush,
    WaitMem,
}

#[derive(Debug)]
struct PeiTxn {
    core: CoreId,
    op: PimOpKind,
    target: Addr,
    input: OperandValue,
    writer: bool,
    state: TxnState,
}

/// The PMU's counter bank (registered once at construction).
#[derive(Debug)]
struct PmuCounters {
    host_dispatched: CounterId,
    mem_dispatched: CounterId,
    balanced_overrides: CounterId,
    bd_dither: CounterId,
    pfences: CounterId,
}

impl PmuCounters {
    fn register(c: &mut Counters) -> Self {
        PmuCounters {
            host_dispatched: c.register("host_dispatched"),
            mem_dispatched: c.register("mem_dispatched"),
            balanced_overrides: c.register("balanced_overrides"),
            bd_dither: c.register("bd_dither"),
            pfences: c.register("pfences"),
        }
    }
}

/// The PEI management unit.
#[derive(Debug)]
pub struct Pmu {
    cfg: PmuConfig,
    dir: PimDirectory,
    mon: LocalityMonitor,
    txns: FastMap<ReqId, PeiTxn>,
    outstanding_writers: u64,
    fence_waiters: Vec<CoreId>,
    /// Reusable buffer for directory grants (cleared after each release).
    grant_scratch: Vec<(ReqId, bool)>,
    counters: Counters,
    c: PmuCounters,
}

impl Pmu {
    /// Creates a PMU per `cfg`.
    pub fn new(cfg: PmuConfig) -> Self {
        let mut mon =
            LocalityMonitor::new(cfg.mon_sets, cfg.mon_ways, cfg.mon_tag_bits, cfg.ideal_mon);
        mon.set_ignore_enabled(cfg.mon_ignore_bit);
        let mut counters = Counters::new();
        let c = PmuCounters::register(&mut counters);
        Pmu {
            dir: PimDirectory::new(cfg.dir_entries, cfg.ideal_dir),
            mon,
            txns: FastMap::default(),
            outstanding_writers: 0,
            fence_waiters: Vec::new(),
            grant_scratch: Vec::new(),
            counters,
            c,
            cfg,
        }
    }

    /// The active dispatch policy.
    pub fn policy(&self) -> DispatchPolicy {
        self.cfg.policy
    }

    /// Shadows an L3 access into the locality monitor (called by the
    /// system for every GetS/GetM the L3 banks process).
    pub fn on_l3_access(&mut self, block: BlockAddr) {
        if self.cfg.policy.uses_monitor() {
            self.mon.on_l3_access(block);
        }
    }

    /// Processes one PMU input. `balance` is the HMC controller's current
    /// `(C_req, C_res)` sample, used by balanced dispatch.
    pub fn handle(
        &mut self,
        now: Cycle,
        input: PmuIn,
        balance: (u64, u64),
        out: &mut Outbox<PmuOut>,
    ) {
        match input {
            PmuIn::Request {
                id,
                core,
                op,
                target,
                input,
            } => {
                let writer = op.is_writer();
                self.outstanding_writers += u64::from(writer);
                self.txns.insert(
                    id,
                    PeiTxn {
                        core,
                        op,
                        target,
                        input,
                        writer,
                        state: TxnState::WaitLock,
                    },
                );
                match self.dir.acquire(id, target.block(), writer) {
                    AcquireResult::Granted => {
                        self.decide(now + self.cfg.dir_latency, id, balance, out)
                    }
                    AcquireResult::Queued => {}
                }
            }
            PmuIn::HostRelease { id } => self.release(now, id, balance, out),
            PmuIn::FlushDone { id } => {
                let txn = self.txns.get_mut(&id).expect("flush for unknown PEI");
                debug_assert_eq!(txn.state, TxnState::WaitFlush);
                txn.state = TxnState::WaitMem;
                let cmd = PimCmd {
                    id,
                    target: txn.target,
                    op: txn.op,
                    input: std::mem::take(&mut txn.input),
                };
                out.push(PmuOut::Launch { cmd, at: now });
            }
            PmuIn::MemResult { out: result } => {
                let txn = self.txns.get(&result.id).expect("result for unknown PEI");
                debug_assert_eq!(txn.state, TxnState::WaitMem);
                out.push(PmuOut::MemResultToPcu {
                    id: result.id,
                    core: txn.core,
                    output: result.output,
                    at: now,
                });
                self.release(now, result.id, balance, out);
            }
            PmuIn::Pfence { core } => {
                self.counters.inc(self.c.pfences);
                if self.outstanding_writers == 0 {
                    out.push(PmuOut::PfenceDone {
                        core,
                        at: now + self.cfg.dir_latency,
                    });
                } else {
                    self.fence_waiters.push(core);
                }
            }
        }
    }

    fn decide(&mut self, now: Cycle, id: ReqId, balance: (u64, u64), out: &mut Outbox<PmuOut>) {
        let (op, target, core) = {
            let txn = self.txns.get(&id).expect("deciding unknown PEI");
            (txn.op, txn.target, txn.core)
        };
        let block = target.block();
        let (to_memory, lat) = match self.cfg.policy {
            DispatchPolicy::HostOnly => (false, self.cfg.dir_latency),
            DispatchPolicy::PimOnly => (true, self.cfg.dir_latency),
            DispatchPolicy::LocalityAware => {
                let mon_lat = if self.cfg.ideal_mon {
                    0
                } else {
                    self.cfg.mon_latency
                };
                (!self.mon.query(block), self.cfg.dir_latency + mon_lat)
            }
            DispatchPolicy::LocalityAwareBalanced => {
                let mon_lat = if self.cfg.ideal_mon {
                    0
                } else {
                    self.cfg.mon_latency
                };
                if self.mon.query(block) {
                    (false, self.cfg.dir_latency + mon_lat)
                } else {
                    let (c_req, c_res) = balance;
                    let mut mem = balanced_choice(op, c_req, c_res);
                    if !mem {
                        // Dither host overrides 1-in-2: the EMA counters
                        // move slowly relative to per-op flit deltas, so
                        // undithered overrides come in long runs that fill
                        // the operand buffers with slow host executions;
                        // interleaving keeps the mix fine-grained.
                        self.counters.inc(self.c.bd_dither);
                        mem = !self.counters.get(self.c.bd_dither).is_multiple_of(2);
                        if !mem {
                            self.counters.inc(self.c.balanced_overrides);
                        }
                    }
                    (mem, self.cfg.dir_latency + mon_lat)
                }
            }
        };
        let at = now + lat;
        let txn = self.txns.get_mut(&id).expect("deciding unknown PEI");
        if to_memory {
            self.counters.inc(self.c.mem_dispatched);
            txn.state = TxnState::WaitFlush;
            let writer = txn.writer;
            let core = txn.core;
            if self.cfg.policy.uses_monitor() {
                self.mon.on_pim_issue(block);
            }
            out.push(PmuOut::DispatchedMem { id, core, at });
            out.push(PmuOut::Flush {
                flush: PimFlush {
                    id,
                    block,
                    invalidate: writer,
                },
                at,
            });
        } else {
            self.counters.inc(self.c.host_dispatched);
            txn.state = TxnState::HostRunning;
            out.push(PmuOut::DecideHost { id, core, at });
        }
    }

    fn release(&mut self, now: Cycle, id: ReqId, balance: (u64, u64), out: &mut Outbox<PmuOut>) {
        let txn = self.txns.remove(&id).expect("release of unknown PEI");
        if txn.writer {
            self.outstanding_writers -= 1;
            if self.outstanding_writers == 0 {
                // Drain waiters without dropping the Vec's capacity: swap it
                // out, push, clear and swap it back.
                let mut waiters = std::mem::take(&mut self.fence_waiters);
                for &core in &waiters {
                    out.push(PmuOut::PfenceDone {
                        core,
                        at: now + self.cfg.dir_latency,
                    });
                }
                waiters.clear();
                self.fence_waiters = waiters;
            }
        }
        // Reuse the grant scratch; `decide` never re-enters `release`, so
        // taking the buffer for the loop is safe.
        let mut granted = std::mem::take(&mut self.grant_scratch);
        self.dir.release(id, &mut granted);
        for &(gid, _writer) in &granted {
            self.decide(now + self.cfg.dir_latency, gid, balance, out);
        }
        granted.clear();
        self.grant_scratch = granted;
    }

    /// `(host-dispatched, memory-dispatched)` PEI counts — the "PIM %"
    /// series of Fig. 8.
    pub fn dispatch_counts(&self) -> (u64, u64) {
        (
            self.counters.get(self.c.host_dispatched),
            self.counters.get(self.c.mem_dispatched),
        )
    }

    /// PEIs currently registered (test helper).
    pub fn in_flight(&self) -> usize {
        self.txns.len()
    }

    /// PEIs holding or awaiting a PIM-directory reader-writer lock.
    /// Registration and lock acquisition are atomic within one PMU
    /// handler call (as are completion and release), so between events
    /// this equals [`in_flight`](Self::in_flight) — the invariant
    /// pei-system's checked mode sweeps.
    pub fn dir_in_flight(&self) -> usize {
        self.dir.in_flight()
    }

    /// Fault hook: acquires a directory writer lock on `block` under a
    /// synthetic PEI id the PMU never registered and will never release —
    /// the directory's lock population now disagrees with the PEI
    /// transaction table, validating the directory-accounting checker.
    pub fn fault_leak_dir_lock(&mut self, block: BlockAddr) {
        let _ = self.dir.acquire(ReqId(u64::MAX), block, true);
    }

    /// Labels the current counter values (including the locality
    /// monitor's) as the end of phase `label` (see `Counters::snapshot`).
    pub fn snapshot_phase(&mut self, label: &'static str) {
        self.counters.snapshot(label);
        self.mon.snapshot_phase(label);
    }

    /// Dumps statistics under `prefix`.
    pub fn report(&self, prefix: &str, stats: &mut StatsReport) {
        // `bd_dither` is an internal dithering phase, not a published stat.
        self.counters
            .flush_if(prefix, stats, |name| name != "bd_dither");
        let (grants, queued, peak) = self.dir.stats();
        stats.add(format!("{prefix}dir.grants"), grants as f64);
        stats.add(format!("{prefix}dir.queued"), queued as f64);
        stats.add(format!("{prefix}dir.peak_queue"), peak as f64);
        self.mon.report(&format!("{prefix}mon."), stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pmu(policy: DispatchPolicy) -> Pmu {
        Pmu::new(PmuConfig::paper(policy, 64, 4))
    }

    fn request(id: u64, op: PimOpKind, addr: u64) -> PmuIn {
        PmuIn::Request {
            id: ReqId(id),
            core: CoreId(0),
            op,
            target: Addr(addr),
            input: OperandValue::U64(1),
        }
    }

    #[test]
    fn host_only_always_decides_host() {
        let mut p = pmu(DispatchPolicy::HostOnly);
        let mut out = Outbox::new();
        p.handle(0, request(1, PimOpKind::MinU64, 0x40), (0, 0), &mut out);
        assert!(matches!(out[0], PmuOut::DecideHost { .. }));
        assert_eq!(p.dispatch_counts(), (1, 0));
    }

    #[test]
    fn pim_only_flushes_then_launches() {
        let mut p = pmu(DispatchPolicy::PimOnly);
        let mut out = Outbox::new();
        p.handle(0, request(1, PimOpKind::MinU64, 0x40), (0, 0), &mut out);
        assert!(
            matches!(out[0], PmuOut::DispatchedMem { .. }),
            "memory dispatch frees the host-side entry first: {out:?}"
        );
        match &out[1] {
            PmuOut::Flush { flush, .. } => {
                assert!(flush.invalidate, "writer PEI back-invalidates");
                assert_eq!(flush.block, BlockAddr(1));
            }
            o => panic!("unexpected {o:?}"),
        }
        out.clear();
        p.handle(10, PmuIn::FlushDone { id: ReqId(1) }, (0, 0), &mut out);
        assert!(matches!(out[0], PmuOut::Launch { .. }));
        out.clear();
        p.handle(
            100,
            PmuIn::MemResult {
                out: PimOut {
                    id: ReqId(1),
                    block: BlockAddr(1),
                    output: OperandValue::None,
                },
            },
            (0, 0),
            &mut out,
        );
        assert!(matches!(out[0], PmuOut::MemResultToPcu { .. }));
        assert_eq!(p.in_flight(), 0);
        assert_eq!(p.dispatch_counts(), (0, 1));
    }

    #[test]
    fn reader_pei_uses_back_writeback() {
        let mut p = pmu(DispatchPolicy::PimOnly);
        let mut out = Outbox::new();
        p.handle(0, request(1, PimOpKind::HashProbe, 0x40), (0, 0), &mut out);
        match &out[1] {
            PmuOut::Flush { flush, .. } => assert!(!flush.invalidate),
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn locality_aware_uses_monitor() {
        let mut p = pmu(DispatchPolicy::LocalityAware);
        let mut out = Outbox::new();
        // Cold block: goes to memory.
        p.handle(0, request(1, PimOpKind::MinU64, 0x40), (0, 0), &mut out);
        assert!(out.iter().any(|o| matches!(o, PmuOut::Flush { .. })));
        // A hot block (seen at the L3) stays on the host.
        p.on_l3_access(BlockAddr(9));
        out.clear();
        p.handle(10, request(2, PimOpKind::MinU64, 9 * 64), (0, 0), &mut out);
        assert!(matches!(out[0], PmuOut::DecideHost { .. }));
    }

    #[test]
    fn pim_allocated_monitor_entry_needs_two_touches() {
        let mut p = pmu(DispatchPolicy::LocalityAware);
        let mut out = Outbox::new();
        // Same block, three PEIs in sequence (completing in between).
        for (i, expect_mem) in [(1u64, true), (2, true), (3, false)] {
            out.clear();
            p.handle(
                i * 100,
                request(i, PimOpKind::MinU64, 0x40),
                (0, 0),
                &mut out,
            );
            if expect_mem {
                assert!(
                    out.iter().any(|o| matches!(o, PmuOut::Flush { .. })),
                    "PEI {i} should offload (ignore-bit filter)"
                );
                p.handle(
                    i * 100 + 10,
                    PmuIn::FlushDone { id: ReqId(i) },
                    (0, 0),
                    &mut out,
                );
                p.handle(
                    i * 100 + 50,
                    PmuIn::MemResult {
                        out: PimOut {
                            id: ReqId(i),
                            block: BlockAddr(1),
                            output: OperandValue::None,
                        },
                    },
                    (0, 0),
                    &mut out,
                );
            } else {
                assert!(
                    matches!(out[0], PmuOut::DecideHost { .. }),
                    "PEI {i} should run on host after repeated touches"
                );
            }
        }
    }

    #[test]
    fn atomicity_serializes_same_block_writers() {
        let mut p = pmu(DispatchPolicy::HostOnly);
        let mut out = Outbox::new();
        p.handle(0, request(1, PimOpKind::AddF64, 0x40), (0, 0), &mut out);
        p.handle(0, request(2, PimOpKind::AddF64, 0x40), (0, 0), &mut out);
        // Only the first got a decision.
        assert_eq!(
            out.iter()
                .filter(|o| matches!(o, PmuOut::DecideHost { .. }))
                .count(),
            1
        );
        out.clear();
        p.handle(50, PmuIn::HostRelease { id: ReqId(1) }, (0, 0), &mut out);
        assert!(
            matches!(out[0], PmuOut::DecideHost { id: ReqId(2), .. }),
            "queued writer granted on release: {out:?}"
        );
    }

    #[test]
    fn pfence_waits_for_outstanding_writers() {
        let mut p = pmu(DispatchPolicy::HostOnly);
        let mut out = Outbox::new();
        p.handle(0, request(1, PimOpKind::IncU64, 0x40), (0, 0), &mut out);
        out.clear();
        p.handle(5, PmuIn::Pfence { core: CoreId(3) }, (0, 0), &mut out);
        assert!(out.is_empty(), "fence must wait for writer PEI");
        p.handle(50, PmuIn::HostRelease { id: ReqId(1) }, (0, 0), &mut out);
        assert!(out.iter().any(|o| matches!(
            o,
            PmuOut::PfenceDone {
                core: CoreId(3),
                ..
            }
        )));
    }

    #[test]
    fn pfence_ignores_readers() {
        let mut p = pmu(DispatchPolicy::HostOnly);
        let mut out = Outbox::new();
        p.handle(0, request(1, PimOpKind::HashProbe, 0x40), (0, 0), &mut out);
        out.clear();
        p.handle(5, PmuIn::Pfence { core: CoreId(0) }, (0, 0), &mut out);
        assert!(
            out.iter().any(|o| matches!(o, PmuOut::PfenceDone { .. })),
            "reader PEIs do not block pfence"
        );
    }

    #[test]
    fn balanced_dispatch_overrides_on_request_pressure() {
        let mut p = pmu(DispatchPolicy::LocalityAwareBalanced);
        let mut out = Outbox::new();
        // Cold blocks, request channel saturated: SC's 80-byte PIM
        // requests should be overridden to host execution — dithered
        // 1-in-2, so two misses produce exactly one override.
        for i in 1..=2u64 {
            p.handle(
                0,
                PmuIn::Request {
                    id: ReqId(i),
                    core: CoreId(0),
                    op: PimOpKind::EuclideanDist,
                    target: Addr(0x40 * (1 + 64 * i)),
                    input: OperandValue::from_bytes(&[0; 64]),
                },
                (1000, 10),
                &mut out,
            );
        }
        let hosts = out
            .iter()
            .filter(|o| matches!(o, PmuOut::DecideHost { .. }))
            .count();
        assert_eq!(hosts, 1, "dithered override: one of two goes host");
        let mut s = StatsReport::new();
        p.report("pmu.", &mut s);
        assert_eq!(s.get("pmu.balanced_overrides"), Some(1.0));
    }
}
