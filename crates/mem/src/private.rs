//! The per-core private cache: an L1D backed by a private L2, presented as
//! one component.
//!
//! L1 and L2 are both private to one core, so their interaction (fills,
//! victim dirty-folding, upgrades) is internal and synchronous; only the
//! L2 ↔ L3 boundary generates protocol traffic. Coherence state is
//! authoritative at L2 granularity (the L1 is a strict subset maintained by
//! the same component), which is exactly the "L1 inclusive in L2" design
//! the paper's host-side PCU relies on when it shares the L1 with its core.

use crate::cache::{CacheArray, LineState};
use crate::config::MemHierarchyConfig;
use crate::msg::{CoreReq, L3Req, L3ReqKind, L3Resp, Recall, RecallAck, RecallOp};
use crate::mshr::MshrFile;
use crate::mshr::Waiter;
use pei_engine::{CounterId, Counters, Occupancy, Outbox, StatsReport};
use pei_types::{BlockAddr, CoreId, Cycle};
use std::collections::{BTreeSet, VecDeque};

/// Output messages of the private cache, each stamped with the absolute
/// cycle it leaves the component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrivOut {
    /// Answer a core (or host-PCU) request.
    CoreResp {
        /// The request being answered.
        id: pei_types::ReqId,
        /// Completion cycle.
        at: Cycle,
    },
    /// Send a request to the L3 (routed through the crossbar).
    ToL3 {
        /// The outgoing request.
        req: L3Req,
        /// Cycle it enters the crossbar.
        at: Cycle,
    },
    /// Acknowledge a recall back to the L3.
    Ack {
        /// The acknowledgement.
        ack: RecallAck,
        /// Cycle it enters the crossbar.
        at: Cycle,
    },
}

/// The private L1+L2 cache of one core.
///
/// # Examples
///
/// ```
/// use pei_mem::{PrivateCache, MemHierarchyConfig};
/// use pei_mem::msg::CoreReq;
/// use pei_types::{Addr, CoreId, ReqId};
///
/// let cfg = MemHierarchyConfig::scaled();
/// let mut cache = PrivateCache::new(CoreId(0), &cfg);
/// let mut out = pei_engine::Outbox::new();
/// cache.handle_core_req(0, CoreReq { id: ReqId(1), addr: Addr(0x40), write: false }, &mut out);
/// // Cold miss: the request goes to the L3.
/// assert!(matches!(out[0], pei_mem::private::PrivOut::ToL3 { .. }));
/// ```
#[derive(Debug)]
pub struct PrivateCache {
    core: CoreId,
    l1: CacheArray,
    l2: CacheArray,
    l1_lat: Cycle,
    l2_lat: Cycle,
    mshr: MshrFile,
    stall_q: VecDeque<CoreReq>,
    port: Occupancy,
    // Checker metadata only — never read on the simulation path. Two
    // benign races can desynchronize the L3's presence mask from this
    // cache: (a) a recall overtakes an in-flight grant (recalls ride
    // control flits, grants ride slower data flits) and no-ops here,
    // leaving the late grant to install a copy the L3 no longer tracks;
    // (b) a block is evicted while its own upgrade miss is pending, so
    // the Put notice reaches the L3 after the upgrade grant and erases
    // us from the mask. `overtaken` remembers blocks hit by either race
    // while their miss is pending; the install then moves the block to
    // `tainted`, which the MESI auditor excuses (see `pei_system::check`
    // and DESIGN.md §9).
    overtaken: BTreeSet<u64>,
    tainted: BTreeSet<u64>,
    counters: Counters,
    c: PrivCounters,
}

/// Dense counter slots registered at construction (hot-path bumps are
/// indexed adds; names materialize only in [`PrivateCache::report`]).
#[derive(Debug, Clone, Copy)]
struct PrivCounters {
    l1_hits: CounterId,
    l1_misses: CounterId,
    l2_hits: CounterId,
    l2_misses: CounterId,
    writebacks: CounterId,
    recalls_seen: CounterId,
    upgrades: CounterId,
}

impl PrivCounters {
    fn register(counters: &mut Counters) -> Self {
        PrivCounters {
            l1_hits: counters.register("l1.hits"),
            l1_misses: counters.register("l1.misses"),
            l2_hits: counters.register("l2.hits"),
            l2_misses: counters.register("l2.misses"),
            writebacks: counters.register("l2.writebacks"),
            recalls_seen: counters.register("l2.recalls"),
            upgrades: counters.register("l2.upgrades"),
        }
    }
}

impl PrivateCache {
    /// Creates the private hierarchy for `core` per `cfg`.
    pub fn new(core: CoreId, cfg: &MemHierarchyConfig) -> Self {
        let mut counters = Counters::new();
        let c = PrivCounters::register(&mut counters);
        PrivateCache {
            core,
            l1: CacheArray::with_capacity(cfg.l1.capacity, cfg.l1.ways),
            l2: CacheArray::with_capacity(cfg.l2.capacity, cfg.l2.ways),
            l1_lat: cfg.l1.latency,
            l2_lat: cfg.l2.latency,
            mshr: MshrFile::new(cfg.priv_mshrs),
            stall_q: VecDeque::new(),
            port: Occupancy::new(),
            overtaken: BTreeSet::new(),
            tainted: BTreeSet::new(),
            counters,
            c,
        }
    }

    /// The owning core.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Handles a memory request from the core or its host-side PCU.
    pub fn handle_core_req(&mut self, now: Cycle, req: CoreReq, out: &mut Outbox<PrivOut>) {
        let start = self.port.reserve(now, 1);
        self.access(start, req, out);
    }

    fn access(&mut self, start: Cycle, req: CoreReq, out: &mut Outbox<PrivOut>) {
        let block = req.addr.block();
        let in_l1 = self.l1.lookup(block).is_some();
        let l2_state = self.l2.line(block).map(|l| l.state);

        match l2_state {
            Some(state) if !req.write || state.writable() => {
                // Hit somewhere in the private hierarchy with permission.
                if req.write {
                    let line = self.l2.line_mut(block).expect("hit line");
                    line.state = LineState::Modified;
                    line.dirty = true;
                    if let Some(l1l) = self.l1.line_mut(block) {
                        l1l.state = LineState::Modified;
                    }
                }
                let lat = if in_l1 {
                    self.counters.inc(self.c.l1_hits);
                    self.l1_lat
                } else {
                    self.counters.inc(self.c.l1_misses);
                    self.counters.inc(self.c.l2_hits);
                    self.fill_l1(block);
                    self.l2_lat
                };
                self.l1.touch(block);
                self.l2.touch(block);
                out.push(PrivOut::CoreResp {
                    id: req.id,
                    at: start + lat,
                });
            }
            Some(_) => {
                // Present but Shared and a write was requested: upgrade.
                self.counters.inc(self.c.l1_misses);
                self.counters.inc(self.c.upgrades);
                self.miss(start, req, L3ReqKind::GetM, out);
            }
            None => {
                self.counters.inc(self.c.l1_misses);
                self.counters.inc(self.c.l2_misses);
                let kind = if req.write {
                    L3ReqKind::GetM
                } else {
                    L3ReqKind::GetS
                };
                self.miss(start, req, kind, out);
            }
        }
    }

    fn miss(&mut self, start: Cycle, req: CoreReq, kind: L3ReqKind, out: &mut Outbox<PrivOut>) {
        let block = req.addr.block();
        if self.mshr.contains(block) {
            self.mshr.merge(block, req.id, req.write);
        } else if self.mshr.alloc(block, kind, req.id, req.write) {
            out.push(PrivOut::ToL3 {
                req: L3Req {
                    id: req.id,
                    core: self.core,
                    block,
                    kind,
                },
                at: start + self.l2_lat,
            });
        } else {
            self.stall_q.push_back(req);
        }
    }

    /// Brings `block` (already valid in L2) into the L1, folding any dirty
    /// L1 victim back into its L2 line.
    fn fill_l1(&mut self, block: BlockAddr) {
        let state = self.l2.line(block).expect("L1 fill requires L2 line").state;
        if let Some(victim) = self.l1.insert(block, state) {
            if victim.dirty {
                if let Some(l2l) = self.l2.line_mut(victim.block) {
                    l2l.dirty = true;
                    l2l.state = LineState::Modified;
                }
            }
        }
    }

    /// Handles a fill/grant from the L3.
    pub fn handle_l3_resp(&mut self, now: Cycle, resp: L3Resp, out: &mut Outbox<PrivOut>) {
        let entry = self
            .mshr
            .retire(resp.block)
            .expect("L3 response without MSHR entry");
        let overtaken = self.overtaken.remove(&resp.block.0);
        let granted = match resp.grant {
            crate::msg::Grant::Shared => LineState::Shared,
            crate::msg::Grant::Exclusive => LineState::Exclusive,
            crate::msg::Grant::Modified => LineState::Modified,
        };

        // Install or update the L2 line (an upgrade finds it already there;
        // a concurrent invalidation may have removed it).
        if let Some(line) = self.l2.line_mut(resp.block) {
            line.state = granted;
            line.dirty = line.dirty || granted == LineState::Modified;
        } else if let Some(victim) = self.l2.insert(resp.block, granted) {
            self.l1.invalidate(victim.block);
            self.tainted.remove(&victim.block.0);
            // Evicting a block whose own miss (an upgrade) is still
            // pending: the Put notice below reaches the L3 after it has
            // granted that miss, erasing us from the presence mask while
            // we hold the granted copy. Mark it for the MESI auditor.
            if self.mshr.blocks().any(|b| b == victim.block) {
                self.overtaken.insert(victim.block.0);
            }
            self.counters
                .add(self.c.writebacks, u64::from(victim.dirty));
            out.push(PrivOut::ToL3 {
                req: L3Req {
                    id: pei_types::ReqId(0),
                    core: self.core,
                    block: victim.block,
                    kind: if victim.dirty {
                        L3ReqKind::PutM
                    } else {
                        L3ReqKind::PutS
                    },
                },
                at: now + 1,
            });
        }
        if overtaken {
            self.tainted.insert(resp.block.0);
        }
        self.l2.touch(resp.block);
        self.fill_l1(resp.block);
        self.l1.touch(resp.block);

        // Answer the merged waiters. If the grant was read-only but a
        // writer was merged after the GetS left, re-request exclusivity.
        // Single pass, no staging buffer: the first unsatisfied writer
        // re-allocates the MSHR entry, later ones merge into it.
        let mut first_reissue: Option<Waiter> = None;
        for w in &entry.waiters {
            if w.write && !granted.writable() {
                if first_reissue.is_none() {
                    self.counters.inc(self.c.upgrades);
                    self.mshr.alloc(resp.block, L3ReqKind::GetM, w.id, true);
                    first_reissue = Some(*w);
                } else {
                    self.mshr.merge(resp.block, w.id, w.write);
                }
            } else {
                if w.write {
                    let line = self.l2.line_mut(resp.block).expect("just installed");
                    line.state = LineState::Modified;
                    line.dirty = true;
                    if let Some(l1l) = self.l1.line_mut(resp.block) {
                        l1l.state = LineState::Modified;
                    }
                }
                out.push(PrivOut::CoreResp {
                    id: w.id,
                    at: now + self.l1_lat,
                });
            }
        }
        if let Some(first) = first_reissue {
            out.push(PrivOut::ToL3 {
                req: L3Req {
                    id: first.id,
                    core: self.core,
                    block: resp.block,
                    kind: L3ReqKind::GetM,
                },
                at: now + 1,
            });
        }

        // MSHR room freed: admit stalled requests.
        while self.mshr.has_room() {
            match self.stall_q.pop_front() {
                Some(req) => {
                    let start = self.port.reserve(now, 1);
                    self.access(start, req, out);
                }
                None => break,
            }
        }
    }

    /// Handles a coherence recall (invalidate/downgrade) from the L3.
    pub fn handle_recall(&mut self, now: Cycle, recall: Recall, out: &mut Outbox<PrivOut>) {
        self.counters.inc(self.c.recalls_seen);
        let start = self.port.reserve(now, 1);
        let (dirty, was_present) = match self.l2.line_mut(recall.block) {
            Some(line) => {
                let dirty = line.dirty;
                match recall.op {
                    RecallOp::Invalidate => {
                        self.l1.invalidate(recall.block);
                        self.l2.invalidate(recall.block);
                    }
                    RecallOp::Downgrade => {
                        line.state = LineState::Shared;
                        line.dirty = false;
                        if let Some(l1l) = self.l1.line_mut(recall.block) {
                            l1l.state = LineState::Shared;
                            // Clear the L1 dirty bit too: the ack above
                            // surrendered the dirty data. Leaving it set
                            // would let a later L1 eviction fold it back
                            // into the L2 line (`fill_l1`), silently
                            // re-promoting a downgraded Shared line to
                            // Modified behind the L3's back.
                            l1l.dirty = false;
                        }
                    }
                }
                // A recall that found the line means the L3 still tracks
                // this copy: it is consistent again.
                self.tainted.remove(&recall.block.0);
                (dirty, true)
            }
            None => {
                // The recall overtook a grant still in flight (control
                // flits outrun data flits): the install below will leave
                // a copy the L3 no longer tracks. Mark it for the MESI
                // auditor; the simulation itself is unaffected (values
                // live in the backing store).
                if self.mshr.blocks().any(|b| b == recall.block) {
                    self.overtaken.insert(recall.block.0);
                }
                (false, false)
            }
        };
        out.push(PrivOut::Ack {
            ack: RecallAck {
                core: self.core,
                block: recall.block,
                dirty,
                was_present,
            },
            at: start + self.l2_lat,
        });
    }

    /// Whether the block currently has a valid copy in this hierarchy
    /// (test/diagnostic helper).
    pub fn holds(&self, block: BlockAddr) -> bool {
        self.l2.lookup(block).is_some()
    }

    /// Current MESI state of the block at L2 granularity, if present.
    pub fn state_of(&self, block: BlockAddr) -> Option<LineState> {
        self.l2.line(block).map(|l| l.state)
    }

    /// Number of in-flight misses (test/diagnostic helper).
    pub fn inflight_misses(&self) -> usize {
        self.mshr.len()
    }

    /// Every valid line of the authoritative (L2) array as
    /// `(block, state)`, for cross-component invariant sweeps.
    pub fn lines(&self) -> impl Iterator<Item = (BlockAddr, LineState)> + '_ {
        self.l2.iter().map(|l| (l.block, l.state))
    }

    /// Whether this cache's copy of `block` went stale through the
    /// benign recall-overtakes-grant race (see the field docs): the MESI
    /// auditor excuses such copies instead of reporting corruption.
    pub fn is_tainted(&self, block: BlockAddr) -> bool {
        self.tainted.contains(&block.0)
    }

    /// Blocks with an outstanding MSHR entry (invariant-checker access).
    pub fn mshr_blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.mshr.blocks()
    }

    /// Fault hook: allocates an MSHR entry for `block` that no response
    /// will ever retire — a simulated leak for checker validation. The
    /// entry occupies real capacity, so downstream misses observe the
    /// reduced MSHR file exactly as a genuine leak would.
    pub fn fault_leak_mshr(&mut self, block: BlockAddr) {
        self.mshr
            .alloc(block, L3ReqKind::GetS, pei_types::ReqId(u64::MAX), false);
    }

    /// Fault hook: silently rewrites the held line for `block` to
    /// `Modified` without any coherence traffic, returning whether a
    /// line was present to corrupt.
    pub fn fault_corrupt_line(&mut self, block: BlockAddr) -> bool {
        match self.l2.line_mut(block) {
            Some(line) => {
                line.state = LineState::Modified;
                true
            }
            None => false,
        }
    }

    /// Labels the current counter values as the end of phase `label`
    /// (see `Counters::snapshot`).
    pub fn snapshot_phase(&mut self, label: &'static str) {
        self.counters.snapshot(label);
    }

    /// Dumps statistics under `prefix` (e.g. `core0.`).
    pub fn report(&self, prefix: &str, stats: &mut StatsReport) {
        self.counters.flush(prefix, stats);
        stats.bump(format!("{prefix}l2.mshr_merges"), self.mshr.merges() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Grant;
    use pei_types::{Addr, ReqId};

    fn cache() -> PrivateCache {
        PrivateCache::new(CoreId(0), &MemHierarchyConfig::scaled())
    }

    fn read(id: u64, addr: u64) -> CoreReq {
        CoreReq {
            id: ReqId(id),
            addr: Addr(addr),
            write: false,
        }
    }

    fn write(id: u64, addr: u64) -> CoreReq {
        CoreReq {
            id: ReqId(id),
            addr: Addr(addr),
            write: true,
        }
    }

    fn grant(c: &mut PrivateCache, id: u64, block: u64, g: Grant, out: &mut Outbox<PrivOut>) {
        c.handle_l3_resp(
            100,
            L3Resp {
                id: ReqId(id),
                core: CoreId(0),
                block: BlockAddr(block),
                grant: g,
            },
            out,
        );
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = cache();
        let mut out = Outbox::new();
        c.handle_core_req(0, read(1, 0x40), &mut out);
        assert!(matches!(
            out[0],
            PrivOut::ToL3 {
                req: L3Req {
                    kind: L3ReqKind::GetS,
                    ..
                },
                ..
            }
        ));
        out.clear();
        grant(&mut c, 1, 1, Grant::Exclusive, &mut out);
        assert!(matches!(out[0], PrivOut::CoreResp { id: ReqId(1), .. }));
        out.clear();
        // Second access hits in L1.
        c.handle_core_req(200, read(2, 0x44), &mut out);
        assert_eq!(out.len(), 1);
        match out[0] {
            PrivOut::CoreResp { at, .. } => assert_eq!(at, 200 + 3),
            ref other => panic!("expected hit response, got {other:?}"),
        }
    }

    #[test]
    fn same_block_misses_merge() {
        let mut c = cache();
        let mut out = Outbox::new();
        c.handle_core_req(0, read(1, 0x40), &mut out);
        c.handle_core_req(0, read(2, 0x48), &mut out);
        // Only one L3 request for the shared block.
        let to_l3 = out
            .iter()
            .filter(|o| matches!(o, PrivOut::ToL3 { .. }))
            .count();
        assert_eq!(to_l3, 1);
        out.clear();
        grant(&mut c, 1, 1, Grant::Shared, &mut out);
        let resps = out
            .iter()
            .filter(|o| matches!(o, PrivOut::CoreResp { .. }))
            .count();
        assert_eq!(resps, 2, "both merged waiters answered");
    }

    #[test]
    fn write_on_shared_upgrades() {
        let mut c = cache();
        let mut out = Outbox::new();
        c.handle_core_req(0, read(1, 0x40), &mut out);
        out.clear();
        grant(&mut c, 1, 1, Grant::Shared, &mut out);
        out.clear();
        c.handle_core_req(200, write(2, 0x40), &mut out);
        assert!(matches!(
            out[0],
            PrivOut::ToL3 {
                req: L3Req {
                    kind: L3ReqKind::GetM,
                    ..
                },
                ..
            }
        ));
        out.clear();
        grant(&mut c, 2, 1, Grant::Modified, &mut out);
        assert!(matches!(out[0], PrivOut::CoreResp { id: ReqId(2), .. }));
        assert_eq!(c.state_of(BlockAddr(1)), Some(LineState::Modified));
    }

    #[test]
    fn silent_e_to_m_upgrade_has_no_traffic() {
        let mut c = cache();
        let mut out = Outbox::new();
        c.handle_core_req(0, read(1, 0x40), &mut out);
        out.clear();
        grant(&mut c, 1, 1, Grant::Exclusive, &mut out);
        out.clear();
        c.handle_core_req(200, write(2, 0x40), &mut out);
        assert_eq!(out.len(), 1, "write on E must hit silently");
        assert!(matches!(out[0], PrivOut::CoreResp { .. }));
        assert_eq!(c.state_of(BlockAddr(1)), Some(LineState::Modified));
    }

    #[test]
    fn recall_invalidate_reports_dirty() {
        let mut c = cache();
        let mut out = Outbox::new();
        c.handle_core_req(0, write(1, 0x40), &mut out);
        out.clear();
        grant(&mut c, 1, 1, Grant::Modified, &mut out);
        out.clear();
        c.handle_recall(
            300,
            Recall {
                core: CoreId(0),
                block: BlockAddr(1),
                op: RecallOp::Invalidate,
            },
            &mut out,
        );
        match out[0] {
            PrivOut::Ack { ack, .. } => {
                assert!(ack.dirty);
                assert!(ack.was_present);
            }
            ref other => panic!("expected ack, got {other:?}"),
        }
        assert!(!c.holds(BlockAddr(1)));
    }

    #[test]
    fn recall_downgrade_keeps_shared_copy() {
        let mut c = cache();
        let mut out = Outbox::new();
        c.handle_core_req(0, write(1, 0x40), &mut out);
        out.clear();
        grant(&mut c, 1, 1, Grant::Modified, &mut out);
        out.clear();
        c.handle_recall(
            300,
            Recall {
                core: CoreId(0),
                block: BlockAddr(1),
                op: RecallOp::Downgrade,
            },
            &mut out,
        );
        match out[0] {
            PrivOut::Ack { ack, .. } => assert!(ack.dirty),
            ref other => panic!("expected ack, got {other:?}"),
        }
        assert_eq!(c.state_of(BlockAddr(1)), Some(LineState::Shared));
    }

    #[test]
    fn recall_for_absent_block_acks_not_present() {
        let mut c = cache();
        let mut out = Outbox::new();
        c.handle_recall(
            0,
            Recall {
                core: CoreId(0),
                block: BlockAddr(99),
                op: RecallOp::Invalidate,
            },
            &mut out,
        );
        match out[0] {
            PrivOut::Ack { ack, .. } => {
                assert!(!ack.was_present);
                assert!(!ack.dirty);
            }
            ref other => panic!("expected ack, got {other:?}"),
        }
    }

    #[test]
    fn dirty_eviction_emits_putm() {
        let cfg = MemHierarchyConfig {
            l1: crate::CacheConfig::new(64, 1, 3),
            l2: crate::CacheConfig::new(128, 1, 12), // 2 sets, direct-mapped
            l3: crate::CacheConfig::new(1024 * 1024, 16, 20),
            ..MemHierarchyConfig::scaled()
        };
        let mut c = PrivateCache::new(CoreId(0), &cfg);
        let mut out = Outbox::new();
        // Dirty block 0 (set 0), then fill block 2 (also set 0): must evict.
        c.handle_core_req(0, write(1, 0x00), &mut out);
        out.clear();
        grant(&mut c, 1, 0, Grant::Modified, &mut out);
        out.clear();
        c.handle_core_req(100, read(2, 0x80), &mut out);
        out.clear();
        grant(&mut c, 2, 2, Grant::Shared, &mut out);
        assert!(
            out.iter().any(|o| matches!(
                o,
                PrivOut::ToL3 {
                    req: L3Req {
                        kind: L3ReqKind::PutM,
                        block: BlockAddr(0),
                        ..
                    },
                    ..
                }
            )),
            "dirty victim must be written back: {out:?}"
        );
        assert!(!c.holds(BlockAddr(0)));
    }

    #[test]
    fn mshr_overflow_stalls_and_drains() {
        let cfg = MemHierarchyConfig {
            priv_mshrs: 1,
            ..MemHierarchyConfig::scaled()
        };
        let mut c = PrivateCache::new(CoreId(0), &cfg);
        let mut out = Outbox::new();
        c.handle_core_req(0, read(1, 0x40), &mut out);
        c.handle_core_req(0, read(2, 0x80), &mut out); // stalls: MSHR full
        let to_l3 = out
            .iter()
            .filter(|o| matches!(o, PrivOut::ToL3 { .. }))
            .count();
        assert_eq!(to_l3, 1);
        out.clear();
        grant(&mut c, 1, 1, Grant::Shared, &mut out);
        // The stalled request is admitted and issues its own GetS now.
        assert!(out.iter().any(|o| matches!(
            o,
            PrivOut::ToL3 {
                req: L3Req {
                    block: BlockAddr(2),
                    ..
                },
                ..
            }
        )));
    }

    #[test]
    fn late_write_waiter_triggers_reissue() {
        let mut c = cache();
        let mut out = Outbox::new();
        c.handle_core_req(0, read(1, 0x40), &mut out); // GetS leaves
        c.handle_core_req(0, write(2, 0x48), &mut out); // merges with write intent
        out.clear();
        grant(&mut c, 1, 1, Grant::Shared, &mut out);
        // Reader answered; writer causes a GetM reissue.
        assert!(out
            .iter()
            .any(|o| matches!(o, PrivOut::CoreResp { id: ReqId(1), .. })));
        assert!(out.iter().any(|o| matches!(
            o,
            PrivOut::ToL3 {
                req: L3Req {
                    kind: L3ReqKind::GetM,
                    ..
                },
                ..
            }
        )));
        out.clear();
        grant(&mut c, 2, 1, Grant::Modified, &mut out);
        assert!(out
            .iter()
            .any(|o| matches!(o, PrivOut::CoreResp { id: ReqId(2), .. })));
    }

    #[test]
    fn report_contains_hit_counters() {
        let mut c = cache();
        let mut out = Outbox::new();
        c.handle_core_req(0, read(1, 0x40), &mut out);
        let mut s = StatsReport::new();
        c.report("core0.", &mut s);
        assert_eq!(s.get("core0.l2.misses"), Some(1.0));
    }
}
