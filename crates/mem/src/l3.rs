//! One bank of the shared, inclusive L3 cache with its embedded MESI
//! directory.
//!
//! The L3 is the coherence ordering point: it serializes transactions per
//! block (later same-block inputs are deferred until the active transaction
//! completes), recalls private copies when granting conflicting permission,
//! back-invalidates on inclusive evictions, and implements the PMU's
//! back-invalidation / back-writeback requests used before memory-side PEI
//! execution (§4.3).

use crate::cache::{presence, CacheArray, Line, LineState};
use crate::config::MemHierarchyConfig;
use crate::msg::{
    Grant, L3Req, L3ReqKind, L3Resp, MemFetch, MemFetchDone, PimFlush, PimFlushDone, Recall,
    RecallAck, RecallOp,
};
use pei_engine::{CounterId, Counters, FastMap, Occupancy, StatsReport};
use pei_types::{BlockAddr, Cycle, L3BankId, ReqId};
use std::collections::VecDeque;

/// Inputs an L3 bank can receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L3In {
    /// Request from a private cache.
    Req(L3Req),
    /// Recall acknowledgement from a private cache.
    Ack(RecallAck),
    /// Back-invalidation / back-writeback request from the PMU.
    Flush(PimFlush),
    /// Completed memory fetch.
    FetchDone(MemFetchDone),
}

/// Outputs of an L3 bank, stamped with their departure cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L3Out {
    /// Grant to a private cache.
    Resp {
        /// The grant.
        resp: L3Resp,
        /// Departure cycle.
        at: Cycle,
    },
    /// Recall to a private cache.
    Recall {
        /// The recall.
        recall: Recall,
        /// Departure cycle.
        at: Cycle,
    },
    /// Fetch or writeback crossing to main memory.
    Fetch {
        /// The memory operation.
        fetch: MemFetch,
        /// Departure cycle.
        at: Cycle,
    },
    /// Completion of a PMU flush.
    FlushDone {
        /// The completion notice.
        done: PimFlushDone,
        /// Departure cycle.
        at: Cycle,
    },
}

#[derive(Debug)]
enum TxnKind {
    /// Hit path: waiting for recalls before granting `req`.
    Grant { req: L3Req },
    /// Miss path: possibly evicting a victim (its block and line), then
    /// fetching from memory.
    Fill {
        req: L3Req,
        victim: Option<(BlockAddr, Line)>,
    },
    /// PMU back-invalidation / back-writeback.
    Flush { id: ReqId, invalidate: bool },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    VictimAcks,
    Mem,
    RecallAcks,
}

#[derive(Debug)]
struct Txn {
    kind: TxnKind,
    phase: Phase,
    pending_acks: u32,
    dirty_seen: bool,
    deferred: VecDeque<L3In>,
}

/// One bank of the shared inclusive L3.
#[derive(Debug)]
pub struct L3Bank {
    id: L3BankId,
    array: CacheArray,
    txns: FastMap<BlockAddr, Txn>,
    /// Fill transactions waiting for their victim's recall acks, keyed
    /// by the victim's block.
    victims: FastMap<BlockAddr, BlockAddr>,
    txn_cap: usize,
    overflow: VecDeque<L3In>,
    port: Occupancy,
    lat: Cycle,
    next_fetch: u64,
    retry_scratch: VecDeque<L3In>,
    /// GetS/GetM accesses, an energy-model input kept out of the report.
    accesses: u64,
    counters: Counters,
    c: L3Counters,
}

/// Dense counter slots registered at construction (hot-path bumps are
/// indexed adds; names materialize only in [`L3Bank::report`]).
#[derive(Debug, Clone, Copy)]
struct L3Counters {
    hits: CounterId,
    misses: CounterId,
    evictions: CounterId,
    writebacks: CounterId,
    recalls: CounterId,
    flushes: CounterId,
}

impl L3Counters {
    fn register(counters: &mut Counters) -> Self {
        L3Counters {
            hits: counters.register("hits"),
            misses: counters.register("misses"),
            evictions: counters.register("evictions"),
            writebacks: counters.register("writebacks"),
            recalls: counters.register("recalls"),
            flushes: counters.register("flushes"),
        }
    }
}

impl L3Bank {
    /// Creates bank `id` of the L3 described by `cfg`.
    pub fn new(id: L3BankId, cfg: &MemHierarchyConfig) -> Self {
        let mut counters = Counters::new();
        let c = L3Counters::register(&mut counters);
        L3Bank {
            id,
            array: CacheArray::with_shift(cfg.l3_sets_per_bank(), cfg.l3.ways, cfg.l3_bank_bits()),
            txns: FastMap::default(),
            victims: FastMap::default(),
            txn_cap: cfg.l3_mshrs,
            overflow: VecDeque::new(),
            port: Occupancy::new(),
            lat: cfg.l3.latency,
            next_fetch: 0,
            retry_scratch: VecDeque::new(),
            accesses: 0,
            counters,
            c,
        }
    }

    /// This bank's id.
    pub fn id(&self) -> L3BankId {
        self.id
    }

    fn fetch_id(&mut self) -> ReqId {
        self.next_fetch += 1;
        ReqId::tagged(pei_types::mem::ns::L3, self.id.0, self.next_fetch)
    }

    /// Processes one input message, pushing outputs into `out`.
    pub fn handle(&mut self, now: Cycle, input: L3In, out: &mut Vec<L3Out>) {
        match input {
            L3In::Req(req) => self.on_req(now, req, out),
            L3In::Ack(ack) => self.on_ack(now, ack, out),
            L3In::Flush(flush) => self.on_flush(now, flush, out),
            L3In::FetchDone(done) => self.on_fetch_done(now, done, out),
        }
    }

    fn on_req(&mut self, now: Cycle, req: L3Req, out: &mut Vec<L3Out>) {
        // Victim notices never block: they carry no response and must not
        // deadlock behind a transaction that is recalling their sender.
        if matches!(req.kind, L3ReqKind::PutS | L3ReqKind::PutM) {
            self.on_put(req);
            return;
        }
        if let Some(txn) = self.txns.get_mut(&req.block) {
            txn.deferred.push_back(L3In::Req(req));
            return;
        }
        let start = self.port.reserve(now, 1);
        self.accesses += 1;
        match self.array.lookup(req.block) {
            Some(way) => self.on_hit(start, req, way, out),
            None => self.on_miss(start, req, out),
        }
    }

    fn on_put(&mut self, req: L3Req) {
        if let Some(way) = self.array.lookup(req.block) {
            let line = self.array.line_at_mut(req.block, way);
            line.presence = presence::remove(line.presence, req.core);
            if line.owner == Some(req.core) {
                line.owner = None;
            }
            if req.kind == L3ReqKind::PutM {
                line.dirty = true;
            }
        }
        // A Put for an absent block means an inclusive eviction raced with
        // the victim notice; nothing to do (the recall already handled it).
    }

    fn on_hit(&mut self, start: Cycle, req: L3Req, way: usize, out: &mut Vec<L3Out>) {
        self.counters.inc(self.c.hits);
        let line = self.array.line_at_mut(req.block, way);
        // The recall set is a presence mask plus an op: iterating the mask
        // directly emits the same cores in the same order the collected
        // `Vec<Recall>` used to, with no staging buffer.
        let (mask, op) = match req.kind {
            L3ReqKind::GetS => match line.owner {
                Some(owner) if owner != req.core => (presence::add(0, owner), RecallOp::Downgrade),
                _ => (0, RecallOp::Downgrade),
            },
            L3ReqKind::GetM => {
                let mut mask = line.presence;
                if let Some(owner) = line.owner {
                    mask = presence::add(mask, owner);
                }
                (presence::remove(mask, req.core), RecallOp::Invalidate)
            }
            L3ReqKind::PutS | L3ReqKind::PutM => unreachable!("puts handled separately"),
        };

        let n = presence::count(mask);
        if n == 0 {
            self.grant(start + self.lat, req, way, out);
        } else {
            line.locked = true;
            self.counters.add(self.c.recalls, n as u64);
            self.txns.insert(
                req.block,
                Txn {
                    kind: TxnKind::Grant { req },
                    phase: Phase::RecallAcks,
                    pending_acks: n,
                    dirty_seen: false,
                    deferred: VecDeque::new(),
                },
            );
            for core in presence::iter(mask) {
                out.push(L3Out::Recall {
                    recall: Recall {
                        core,
                        block: req.block,
                        op,
                    },
                    at: start + self.lat,
                });
            }
        }
    }

    /// Updates directory state and emits the grant for a request whose
    /// recalls (if any) are complete. The line must be present in `way`.
    fn grant(&mut self, at: Cycle, req: L3Req, way: usize, out: &mut Vec<L3Out>) {
        let line = self.array.line_at_mut(req.block, way);
        let grant = match req.kind {
            L3ReqKind::GetS => {
                if let Some(owner) = line.owner {
                    // Downgraded owner keeps a shared copy.
                    line.presence = presence::add(line.presence, owner);
                    line.owner = None;
                }
                if presence::count(line.presence) == 0 {
                    line.owner = Some(req.core);
                    line.presence = presence::add(0, req.core);
                    Grant::Exclusive
                } else {
                    line.presence = presence::add(line.presence, req.core);
                    Grant::Shared
                }
            }
            L3ReqKind::GetM => {
                line.presence = presence::add(0, req.core);
                line.owner = Some(req.core);
                Grant::Modified
            }
            L3ReqKind::PutS | L3ReqKind::PutM => unreachable!(),
        };
        line.locked = false;
        self.array.touch_at(req.block, way);
        out.push(L3Out::Resp {
            resp: L3Resp {
                id: req.id,
                core: req.core,
                block: req.block,
                grant,
            },
            at,
        });
    }

    fn on_miss(&mut self, start: Cycle, req: L3Req, out: &mut Vec<L3Out>) {
        if self.txns.len() >= self.txn_cap {
            self.overflow.push_back(L3In::Req(req));
            return;
        }
        self.counters.inc(self.c.misses);
        let Some((way, victim_ref)) = self.array.victim_way(req.block) else {
            // Every way locked by in-flight transactions: retry later.
            self.overflow.push_back(L3In::Req(req));
            return;
        };
        let victim = victim_ref.map(|(block, line)| (block, *line));
        // Replace the victim (if any) with a locked placeholder for the
        // incoming block so the way cannot be double-booked.
        self.array.install(req.block, way, LineState::Shared).locked = true;
        match victim {
            Some((victim_block, v)) => {
                self.counters.inc(self.c.evictions);

                let mut mask = v.presence;
                if let Some(owner) = v.owner {
                    mask = presence::add(mask, owner);
                }
                let n = presence::count(mask);
                if n == 0 {
                    // No private copies: write back if dirty, fetch now.
                    if v.dirty {
                        self.writeback(start + self.lat, victim_block, out);
                    }
                    self.start_fetch(start, req, out);
                } else {
                    self.counters.add(self.c.recalls, n as u64);
                    self.victims.insert(victim_block, req.block);
                    self.txns.insert(
                        req.block,
                        Txn {
                            kind: TxnKind::Fill {
                                req,
                                victim: Some((victim_block, v)),
                            },
                            phase: Phase::VictimAcks,
                            pending_acks: n,
                            dirty_seen: false,
                            deferred: VecDeque::new(),
                        },
                    );
                    for core in presence::iter(mask) {
                        out.push(L3Out::Recall {
                            recall: Recall {
                                core,
                                block: victim_block,
                                op: RecallOp::Invalidate,
                            },
                            at: start + self.lat,
                        });
                    }
                }
            }
            None => self.start_fetch(start, req, out),
        }
    }

    fn start_fetch(&mut self, start: Cycle, req: L3Req, out: &mut Vec<L3Out>) {
        let id = self.fetch_id();
        self.txns.insert(
            req.block,
            Txn {
                kind: TxnKind::Fill { req, victim: None },
                phase: Phase::Mem,
                pending_acks: 0,
                dirty_seen: false,
                deferred: VecDeque::new(),
            },
        );
        out.push(L3Out::Fetch {
            fetch: MemFetch {
                id,
                block: req.block,
                write: false,
            },
            at: start + self.lat,
        });
    }

    fn writeback(&mut self, at: Cycle, block: BlockAddr, out: &mut Vec<L3Out>) {
        self.counters.inc(self.c.writebacks);
        let id = self.fetch_id();
        out.push(L3Out::Fetch {
            fetch: MemFetch {
                id,
                block,
                write: true,
            },
            at,
        });
    }

    fn on_flush(&mut self, now: Cycle, flush: PimFlush, out: &mut Vec<L3Out>) {
        if let Some(txn) = self.txns.get_mut(&flush.block) {
            txn.deferred.push_back(L3In::Flush(flush));
            return;
        }
        let start = self.port.reserve(now, 1);
        self.counters.inc(self.c.flushes);
        let Some(way) = self.array.lookup(flush.block) else {
            // Inclusive hierarchy: absent from L3 means absent everywhere.
            out.push(L3Out::FlushDone {
                done: PimFlushDone {
                    id: flush.id,
                    block: flush.block,
                },
                at: start + self.lat,
            });
            return;
        };
        let line = self.array.line_at_mut(flush.block, way);
        let mut mask = line.presence;
        if let Some(owner) = line.owner {
            mask = presence::add(mask, owner);
        }
        let n = presence::count(mask);
        let op = if flush.invalidate {
            RecallOp::Invalidate
        } else {
            RecallOp::Downgrade
        };
        if n == 0 {
            self.finish_flush(
                start + self.lat,
                flush.id,
                (flush.block, way),
                flush.invalidate,
                false,
                out,
            );
        } else {
            line.locked = true;
            self.counters.add(self.c.recalls, n as u64);
            self.txns.insert(
                flush.block,
                Txn {
                    kind: TxnKind::Flush {
                        id: flush.id,
                        invalidate: flush.invalidate,
                    },
                    phase: Phase::RecallAcks,
                    pending_acks: n,
                    dirty_seen: false,
                    deferred: VecDeque::new(),
                },
            );
            for core in presence::iter(mask) {
                out.push(L3Out::Recall {
                    recall: Recall {
                        core,
                        block: flush.block,
                        op,
                    },
                    at: start + self.lat,
                });
            }
        }
    }

    /// Completes a flush of `block`, held in `way`.
    fn finish_flush(
        &mut self,
        at: Cycle,
        id: ReqId,
        (block, way): (BlockAddr, usize),
        invalidate: bool,
        dirty_seen: bool,
        out: &mut Vec<L3Out>,
    ) {
        let dirty = {
            let line = self.array.line_at_mut(block, way);
            let d = line.dirty || dirty_seen;
            line.dirty = false;
            line.locked = false;
            if invalidate {
                line.presence = 0;
                line.owner = None;
            }
            d
        };
        if dirty {
            self.writeback(at, block, out);
        }
        if invalidate {
            self.array.take_way(block, way);
        }
        out.push(L3Out::FlushDone {
            done: PimFlushDone { id, block },
            at,
        });
    }

    fn on_ack(&mut self, now: Cycle, ack: RecallAck, out: &mut Vec<L3Out>) {
        // A fill's recalls target its *victim*, which has left the array,
        // so no grant or flush can be keyed by that block, but a later
        // fill for the very same block can be: ask the victim index first.
        let fill = self.victims.get(&ack.block).copied();
        let key = fill.unwrap_or(ack.block);
        let txn = match (self.txns.get_mut(&key), fill) {
            (Some(txn), Some(_)) => txn,
            (Some(txn), None) if txn.phase == Phase::RecallAcks => txn,
            (None, Some(_)) => unreachable!("the victim index names a live fill"),
            _ => return, // stale ack after a raced eviction
        };
        txn.dirty_seen |= ack.dirty;
        txn.pending_acks = txn.pending_acks.saturating_sub(1);
        if txn.pending_acks > 0 {
            return;
        }
        let txn = self.txns.remove(&key).expect("present");
        let at = now + self.lat;
        match txn.kind {
            TxnKind::Grant { req } => {
                let way = self.array.lookup(req.block).expect("granting");
                let line = self.array.line_at_mut(req.block, way);
                line.dirty |= txn.dirty_seen;
                // Invalidated/downgraded copies no longer hold the line
                // exclusively; directory updates happen in grant().
                if req.kind == L3ReqKind::GetM {
                    line.presence = 0;
                    line.owner = None;
                }
                self.grant(at, req, way, out);
            }
            TxnKind::Fill { req, victim } => {
                let (victim_block, v) = victim.expect("victim-phase fill has a victim");
                self.victims.remove(&victim_block);
                if v.dirty || txn.dirty_seen {
                    self.writeback(at, victim_block, out);
                }
                self.start_fetch(now, req, out);
                // Preserve the deferred queue across the phase change.
                if let Some(new_txn) = self.txns.get_mut(&req.block) {
                    new_txn.deferred = txn.deferred;
                }
                return; // fill continues; don't drain deferred yet
            }
            TxnKind::Flush { id, invalidate } => {
                let way = self.array.lookup(key).expect("flush line present");
                self.finish_flush(at, id, (key, way), invalidate, txn.dirty_seen, out);
            }
        }
        self.drain_deferred(now, txn.deferred, out);
    }

    fn on_fetch_done(&mut self, now: Cycle, done: MemFetchDone, out: &mut Vec<L3Out>) {
        let Some(txn) = self.txns.remove(&done.block) else {
            return; // writeback completions carry no transaction
        };
        debug_assert_eq!(txn.phase, Phase::Mem);
        let TxnKind::Fill { req, .. } = txn.kind else {
            panic!("fetch completion for non-fill transaction");
        };
        let way = self.array.lookup(req.block).expect("fill placeholder");
        self.grant(now + self.lat, req, way, out);
        self.drain_deferred(now, txn.deferred, out);
    }

    fn drain_deferred(&mut self, now: Cycle, deferred: VecDeque<L3In>, out: &mut Vec<L3Out>) {
        for item in deferred {
            self.handle(now, item, out);
        }
        // Transaction slots freed: retry overflowed requests once each.
        // The overflow queue is swapped with a reusable scratch so that
        // requests re-overflowing mid-retry land in a fresh `overflow`
        // without invalidating this iteration — and without allocating
        // (the two buffers' capacities just trade places each time).
        let mut retry = std::mem::take(&mut self.retry_scratch);
        std::mem::swap(&mut retry, &mut self.overflow);
        while let Some(item) = retry.pop_front() {
            self.handle(now, item, out);
        }
        self.retry_scratch = retry;
    }

    /// Whether the bank has no in-flight transactions (test helper).
    pub fn is_quiescent(&self) -> bool {
        self.txns.is_empty() && self.overflow.is_empty()
    }

    /// Directory view of a block (test helper): `(present, sharers, owner)`.
    pub fn dir_state(&self, block: BlockAddr) -> (bool, u32, Option<pei_types::CoreId>) {
        match self.array.line(block) {
            Some(l) => (true, presence::count(l.presence), l.owner),
            None => (false, 0, None),
        }
    }

    /// Total GetS/GetM accesses observed (locality-monitor shadowing and
    /// statistics).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Whether the bank holds `block` (no LRU side effects); locked
    /// fill placeholders count as held.
    pub fn holds(&self, block: BlockAddr) -> bool {
        self.array.line(block).is_some()
    }

    /// Number of in-flight transactions plus deferred overflow inputs
    /// (occupancy reporting for failure diagnostics).
    pub fn inflight(&self) -> usize {
        self.txns.len() + self.overflow.len()
    }

    /// Blocks with an active transaction, paired with the fill victim's
    /// block when one is mid-recall. Invariant sweeps use this to excuse
    /// lines that are legitimately in transition: a private copy of a
    /// fill victim may outlive the L3 line until its recall ack lands.
    pub fn txn_blocks(&self) -> impl Iterator<Item = (BlockAddr, Option<BlockAddr>)> + '_ {
        self.txns.iter().map(|(b, t)| {
            let victim = match &t.kind {
                TxnKind::Fill {
                    victim: Some((v, _)),
                    ..
                } => Some(*v),
                _ => None,
            };
            (*b, victim)
        })
    }

    /// Fault hook: silently drops the bank's line for `block` — no
    /// recalls, no writeback — leaving any private copies orphaned (an
    /// inclusivity violation for checker validation). Returns whether a
    /// line was present to drop.
    pub fn fault_orphan_line(&mut self, block: BlockAddr) -> bool {
        self.array.invalidate(block).is_some()
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
    use pei_types::CoreId;

    fn bank() -> L3Bank {
        L3Bank::new(L3BankId(0), &MemHierarchyConfig::scaled())
    }

    fn gets(id: u64, core: u16, block: u64) -> L3In {
        L3In::Req(L3Req {
            id: ReqId(id),
            core: CoreId(core),
            block: BlockAddr(block),
            kind: L3ReqKind::GetS,
        })
    }

    fn getm(id: u64, core: u16, block: u64) -> L3In {
        L3In::Req(L3Req {
            id: ReqId(id),
            core: CoreId(core),
            block: BlockAddr(block),
            kind: L3ReqKind::GetM,
        })
    }

    fn fetch_done_for(out: &[L3Out]) -> MemFetchDone {
        out.iter()
            .find_map(|o| match o {
                L3Out::Fetch { fetch, .. } if !fetch.write => Some(MemFetchDone {
                    id: fetch.id,
                    block: fetch.block,
                }),
                _ => None,
            })
            .expect("a read fetch was issued")
    }

    /// Runs a request through the miss path to a settled grant.
    fn warm(bank: &mut L3Bank, input: L3In) -> Vec<L3Out> {
        let mut out = Vec::new();
        bank.handle(0, input, &mut out);
        if out
            .iter()
            .any(|o| matches!(o, L3Out::Fetch { fetch, .. } if !fetch.write))
        {
            let done = fetch_done_for(&out);
            out.clear();
            bank.handle(100, L3In::FetchDone(done), &mut out);
        }
        out
    }

    #[test]
    fn cold_miss_fetches_then_grants_exclusive() {
        let mut b = bank();
        let mut out = Vec::new();
        b.handle(0, gets(1, 0, 4), &mut out);
        assert!(matches!(out[0], L3Out::Fetch { .. }));
        let done = fetch_done_for(&out);
        out.clear();
        b.handle(50, L3In::FetchDone(done), &mut out);
        match out[0] {
            L3Out::Resp { resp, .. } => {
                assert_eq!(resp.grant, Grant::Exclusive);
                assert_eq!(resp.core, CoreId(0));
            }
            ref o => panic!("expected grant, got {o:?}"),
        }
        assert_eq!(b.dir_state(BlockAddr(4)), (true, 1, Some(CoreId(0))));
        assert!(b.is_quiescent());
    }

    #[test]
    fn second_reader_downgrades_owner() {
        let mut b = bank();
        warm(&mut b, gets(1, 0, 4));
        let mut out = Vec::new();
        b.handle(200, gets(2, 1, 4), &mut out);
        // Owner (core 0) gets a downgrade recall.
        match out[0] {
            L3Out::Recall { recall, .. } => {
                assert_eq!(recall.core, CoreId(0));
                assert_eq!(recall.op, RecallOp::Downgrade);
            }
            ref o => panic!("expected recall, got {o:?}"),
        }
        out.clear();
        b.handle(
            220,
            L3In::Ack(RecallAck {
                core: CoreId(0),
                block: BlockAddr(4),
                dirty: true,
                was_present: true,
            }),
            &mut out,
        );
        match out[0] {
            L3Out::Resp { resp, .. } => assert_eq!(resp.grant, Grant::Shared),
            ref o => panic!("expected grant, got {o:?}"),
        }
        // Both cores now share; no owner.
        assert_eq!(b.dir_state(BlockAddr(4)), (true, 2, None));
    }

    #[test]
    fn writer_invalidates_all_sharers() {
        let mut b = bank();
        warm(&mut b, gets(1, 0, 4));
        // Second reader: downgrade owner, then grant.
        let mut out = Vec::new();
        b.handle(200, gets(2, 1, 4), &mut out);
        b.handle(
            210,
            L3In::Ack(RecallAck {
                core: CoreId(0),
                block: BlockAddr(4),
                dirty: false,
                was_present: true,
            }),
            &mut out,
        );
        out.clear();
        // Core 2 writes: both sharers recalled.
        b.handle(300, getm(3, 2, 4), &mut out);
        let recalls: Vec<_> = out
            .iter()
            .filter_map(|o| match o {
                L3Out::Recall { recall, .. } => Some(recall.core),
                _ => None,
            })
            .collect();
        assert_eq!(recalls.len(), 2);
        out.clear();
        for core in [0u16, 1] {
            b.handle(
                320,
                L3In::Ack(RecallAck {
                    core: CoreId(core),
                    block: BlockAddr(4),
                    dirty: false,
                    was_present: true,
                }),
                &mut out,
            );
        }
        match out[0] {
            L3Out::Resp { resp, .. } => {
                assert_eq!(resp.grant, Grant::Modified);
                assert_eq!(resp.core, CoreId(2));
            }
            ref o => panic!("expected modified grant, got {o:?}"),
        }
        assert_eq!(b.dir_state(BlockAddr(4)), (true, 1, Some(CoreId(2))));
    }

    #[test]
    fn same_block_requests_serialize() {
        let mut b = bank();
        let mut out = Vec::new();
        b.handle(0, gets(1, 0, 4), &mut out);
        let done = fetch_done_for(&out);
        // Second request arrives mid-fill: must be deferred, not re-fetched.
        let n_before = out.len();
        b.handle(10, gets(2, 1, 4), &mut out);
        assert_eq!(out.len(), n_before, "deferred request must emit nothing");
        out.clear();
        b.handle(100, L3In::FetchDone(done), &mut out);
        // First grant (Exclusive to core 0), then the deferred request runs:
        // it recalls core 0 with a downgrade.
        assert!(out
            .iter()
            .any(|o| matches!(o, L3Out::Resp { resp, .. } if resp.core == CoreId(0))));
        assert!(out
            .iter()
            .any(|o| matches!(o, L3Out::Recall { recall, .. } if recall.core == CoreId(0))));
    }

    #[test]
    fn put_m_marks_dirty_and_clears_presence() {
        let mut b = bank();
        warm(&mut b, getm(1, 0, 4));
        let mut out = Vec::new();
        b.handle(
            200,
            L3In::Req(L3Req {
                id: ReqId(0),
                core: CoreId(0),
                block: BlockAddr(4),
                kind: L3ReqKind::PutM,
            }),
            &mut out,
        );
        assert!(out.is_empty(), "puts have no response");
        assert_eq!(b.dir_state(BlockAddr(4)), (true, 0, None));
    }

    #[test]
    fn flush_absent_block_completes_immediately() {
        let mut b = bank();
        let mut out = Vec::new();
        b.handle(
            0,
            L3In::Flush(PimFlush {
                id: ReqId(9),
                block: BlockAddr(77),
                invalidate: true,
            }),
            &mut out,
        );
        assert!(matches!(
            out[0],
            L3Out::FlushDone {
                done: PimFlushDone { id: ReqId(9), .. },
                ..
            }
        ));
    }

    #[test]
    fn flush_invalidate_recalls_owner_and_writes_back() {
        let mut b = bank();
        warm(&mut b, getm(1, 0, 4));
        let mut out = Vec::new();
        b.handle(
            200,
            L3In::Flush(PimFlush {
                id: ReqId(9),
                block: BlockAddr(4),
                invalidate: true,
            }),
            &mut out,
        );
        assert!(matches!(out[0], L3Out::Recall { recall, .. }
                if recall.op == RecallOp::Invalidate && recall.core == CoreId(0)));
        out.clear();
        b.handle(
            220,
            L3In::Ack(RecallAck {
                core: CoreId(0),
                block: BlockAddr(4),
                dirty: true,
                was_present: true,
            }),
            &mut out,
        );
        // Dirty data flushed to memory, line gone, flush complete.
        assert!(out
            .iter()
            .any(|o| matches!(o, L3Out::Fetch { fetch, .. } if fetch.write)));
        assert!(out.iter().any(|o| matches!(o, L3Out::FlushDone { .. })));
        assert!(!b.dir_state(BlockAddr(4)).0);
    }

    #[test]
    fn flush_writeback_keeps_clean_copies() {
        let mut b = bank();
        warm(&mut b, getm(1, 0, 4));
        let mut out = Vec::new();
        b.handle(
            200,
            L3In::Flush(PimFlush {
                id: ReqId(9),
                block: BlockAddr(4),
                invalidate: false,
            }),
            &mut out,
        );
        assert!(matches!(out[0], L3Out::Recall { recall, .. }
                if recall.op == RecallOp::Downgrade));
        out.clear();
        b.handle(
            220,
            L3In::Ack(RecallAck {
                core: CoreId(0),
                block: BlockAddr(4),
                dirty: true,
                was_present: true,
            }),
            &mut out,
        );
        assert!(out
            .iter()
            .any(|o| matches!(o, L3Out::Fetch { fetch, .. } if fetch.write)));
        // Line stays, core keeps a (now shared, clean) copy.
        let (present, sharers, _) = b.dir_state(BlockAddr(4));
        assert!(present);
        assert_eq!(sharers, 1);
    }

    #[test]
    fn inclusive_eviction_back_invalidates() {
        // Single-set bank so two blocks conflict.
        let cfg = MemHierarchyConfig {
            l3: crate::CacheConfig::new(64 * 2, 2, 20), // 1 set x 2 ways... capacity 128B
            l3_banks: 1,
            ..MemHierarchyConfig::scaled()
        };
        let mut b = L3Bank::new(L3BankId(0), &cfg);
        warm(&mut b, gets(1, 0, 0));
        warm(&mut b, gets(2, 0, 1));
        // Third block forces eviction of LRU block 0, held by core 0.
        let mut out = Vec::new();
        b.handle(500, gets(3, 1, 2), &mut out);
        assert!(
            out.iter().any(|o| matches!(o, L3Out::Recall { recall, .. }
                if recall.block == BlockAddr(0) && recall.op == RecallOp::Invalidate)),
            "inclusive eviction must back-invalidate: {out:?}"
        );
        out.clear();
        b.handle(
            520,
            L3In::Ack(RecallAck {
                core: CoreId(0),
                block: BlockAddr(0),
                dirty: true,
                was_present: true,
            }),
            &mut out,
        );
        // Victim written back dirty, then fetch for the new block proceeds.
        assert!(out
            .iter()
            .any(|o| matches!(o, L3Out::Fetch { fetch, .. } if fetch.write && fetch.block == BlockAddr(0))));
        let done = fetch_done_for(&out);
        out.clear();
        b.handle(600, L3In::FetchDone(done), &mut out);
        assert!(out
            .iter()
            .any(|o| matches!(o, L3Out::Resp { resp, .. } if resp.block == BlockAddr(2))));
        assert!(b.is_quiescent());
    }

    /// A late victim-recall ack is credited to the fill that evicted the
    /// victim, even after a new fill keyed by the victim's own block has
    /// opened.
    #[test]
    fn late_victim_ack_credits_the_evicting_fill() {
        let cfg = MemHierarchyConfig {
            l3: crate::CacheConfig::new(64 * 2, 2, 20), // one set, two ways
            l3_banks: 1,
            ..MemHierarchyConfig::scaled()
        };
        let mut b = L3Bank::new(L3BankId(0), &cfg);
        let ack = |core: u16, block: u64| {
            L3In::Ack(RecallAck {
                core: CoreId(core),
                block: BlockAddr(block),
                dirty: false,
                was_present: true,
            })
        };
        let fetches = |out: &Vec<L3Out>| -> Vec<BlockAddr> {
            out.iter()
                .filter_map(|o| match o {
                    L3Out::Fetch { fetch, .. } if !fetch.write => Some(fetch.block),
                    _ => None,
                })
                .collect()
        };
        // Block 0 shared by cores 0 and 1; block 1, more recent, owned by
        // core 2.
        warm(&mut b, gets(1, 0, 0));
        let mut out = Vec::new();
        b.handle(200, gets(2, 1, 0), &mut out);
        b.handle(210, ack(0, 0), &mut out);
        assert_eq!(b.dir_state(BlockAddr(0)), (true, 2, None));
        warm(&mut b, gets(3, 2, 1));
        // A fill for block 2 evicts block 0 and recalls both sharers.
        out.clear();
        b.handle(300, gets(4, 3, 2), &mut out);
        assert!(!b.holds(BlockAddr(0)));
        // Core 0 acks, then asks for block 0 again: a fill keyed 0 opens
        // and recalls its own victim, block 1, from core 2.
        b.handle(310, ack(0, 0), &mut out);
        out.clear();
        b.handle(320, gets(5, 0, 0), &mut out);
        assert!(out.iter().any(|o| matches!(o, L3Out::Recall { recall, .. }
                if recall.block == BlockAddr(1) && recall.core == CoreId(2))));
        // Core 1's late ack for block 0 completes the fill for block 2,
        // not the fill keyed 0, which still waits for block 1.
        out.clear();
        b.handle(330, ack(1, 0), &mut out);
        assert_eq!(fetches(&out), [BlockAddr(2)]);
        out.clear();
        b.handle(340, ack(2, 1), &mut out);
        assert_eq!(fetches(&out), [BlockAddr(0)]);
        for block in [2, 0] {
            out.clear();
            let done = MemFetchDone {
                id: ReqId(0),
                block: BlockAddr(block),
            };
            b.handle(400, L3In::FetchDone(done), &mut out);
            assert!(out
                .iter()
                .any(|o| matches!(o, L3Out::Resp { resp, .. } if resp.block == BlockAddr(block))));
        }
        assert_eq!(b.inflight(), 0);
        assert!(b.is_quiescent());
    }

    #[test]
    fn stats_reported() {
        let mut b = bank();
        warm(&mut b, gets(1, 0, 4));
        let mut s = StatsReport::new();
        b.report("l3.", &mut s);
        assert_eq!(s.get("l3.misses"), Some(1.0));
    }
}
