//! Cross-component tests of the cache hierarchy: a miniature event loop
//! drives one private cache against one L3 bank with a fake memory,
//! checking multi-hop protocol sequences that the per-component unit
//! tests cannot see.

use pei_mem::l3::{L3In, L3Out};
use pei_mem::msg::{CoreReq, MemFetchDone};
use pei_mem::private::PrivOut;
use pei_mem::{L3Bank, MemHierarchyConfig, PrivateCache};
use pei_types::{Addr, CoreId, Cycle, L3BankId, ReqId};
use std::collections::VecDeque;

/// A two-level harness: N private caches + 1 L3 bank + instant memory.
struct Harness {
    privs: Vec<PrivateCache>,
    l3: L3Bank,
    /// (time, event)
    queue: VecDeque<(Cycle, Ev)>,
    completions: Vec<(CoreId, ReqId, Cycle)>,
}

enum Ev {
    ToPriv(usize, pei_mem::msg::L3Resp),
    RecallPriv(usize, pei_mem::msg::Recall),
    ToL3(L3In),
    CoreReq(usize, CoreReq),
}

impl Harness {
    fn new(n: usize) -> Self {
        let cfg = MemHierarchyConfig {
            l3_banks: 1,
            ..MemHierarchyConfig::scaled()
        };
        Harness {
            privs: (0..n)
                .map(|i| PrivateCache::new(CoreId(i as u16), &cfg))
                .collect(),
            l3: L3Bank::new(L3BankId(0), &cfg),
            queue: VecDeque::new(),
            completions: Vec::new(),
        }
    }

    fn req(&mut self, at: Cycle, core: usize, addr: u64, write: bool) {
        self.queue.push_back((
            at,
            Ev::CoreReq(
                core,
                CoreReq {
                    id: ReqId(at << 8 | core as u64),
                    addr: Addr(addr),
                    write,
                },
            ),
        ));
    }

    fn run(&mut self) {
        let mut guard = 0;
        while let Some((now, ev)) = self.queue.pop_front() {
            guard += 1;
            assert!(guard < 100_000, "harness runaway");
            match ev {
                Ev::CoreReq(i, req) => {
                    let mut outs = Vec::new();
                    self.privs[i].handle_core_req(now, req, &mut outs);
                    self.route_priv(i, outs);
                }
                Ev::ToPriv(i, resp) => {
                    let mut outs = Vec::new();
                    self.privs[i].handle_l3_resp(now, resp, &mut outs);
                    self.route_priv(i, outs);
                }
                Ev::RecallPriv(i, recall) => {
                    let mut outs = Vec::new();
                    self.privs[i].handle_recall(now, recall, &mut outs);
                    self.route_priv(i, outs);
                }
                Ev::ToL3(input) => {
                    let mut outs = Vec::new();
                    self.l3.handle(now, input, &mut outs);
                    for o in outs.drain(..) {
                        match o {
                            L3Out::Resp { resp, at } => self
                                .queue
                                .push_back((at, Ev::ToPriv(resp.core.index(), resp))),
                            L3Out::Recall { recall, at } => self
                                .queue
                                .push_back((at, Ev::RecallPriv(recall.core.index(), recall))),
                            L3Out::Fetch { fetch, at } => {
                                // Instant memory: reads complete immediately.
                                if !fetch.write {
                                    self.queue.push_back((
                                        at + 10,
                                        Ev::ToL3(L3In::FetchDone(MemFetchDone {
                                            id: fetch.id,
                                            block: fetch.block,
                                        })),
                                    ));
                                }
                            }
                            L3Out::FlushDone { .. } => {}
                        }
                    }
                }
            }
            // Keep rough time order (the queue is FIFO per push; protocol
            // correctness here does not depend on exact ordering).
            self.queue.make_contiguous().sort_by_key(|(t, _)| *t);
        }
    }

    fn route_priv(&mut self, i: usize, mut outs: Vec<PrivOut>) {
        for o in outs.drain(..) {
            match o {
                PrivOut::CoreResp { id, at } => self.completions.push((CoreId(i as u16), id, at)),
                PrivOut::ToL3 { req, at } => self.queue.push_back((at, Ev::ToL3(L3In::Req(req)))),
                PrivOut::Ack { ack, at } => self.queue.push_back((at, Ev::ToL3(L3In::Ack(ack)))),
            }
        }
    }
}

#[test]
fn write_sharing_ping_pong_completes() {
    let mut h = Harness::new(4);
    // All four cores repeatedly write the same block.
    for round in 0..8u64 {
        for core in 0..4usize {
            h.req(round * 100 + core as u64, core, 0x40, true);
        }
    }
    h.run();
    assert_eq!(h.completions.len(), 32, "every store must complete");
    assert!(h.l3.is_quiescent());
    // Exactly one core may hold the line at the end, exclusively.
    let holders: Vec<_> = h
        .privs
        .iter()
        .filter(|p| p.holds(pei_types::BlockAddr(1)))
        .collect();
    assert_eq!(holders.len(), 1, "MESI single-writer invariant");
}

#[test]
fn read_sharing_spreads_copies() {
    let mut h = Harness::new(4);
    for core in 0..4usize {
        h.req(core as u64, core, 0x80, false);
    }
    h.run();
    assert_eq!(h.completions.len(), 4);
    let holders = h
        .privs
        .iter()
        .filter(|p| p.holds(pei_types::BlockAddr(2)))
        .count();
    assert_eq!(holders, 4, "read sharing leaves a copy everywhere");
    let (_, sharers, owner) = h.l3.dir_state(pei_types::BlockAddr(2));
    assert_eq!(sharers, 4);
    assert_eq!(owner, None);
}

#[test]
fn capacity_streams_complete_under_inclusive_evictions() {
    let mut h = Harness::new(1);
    // Stream 4x the private L2 capacity through one core: plenty of L3
    // fills and L2 evictions (and, with one bank, L3 evictions too).
    let blocks = 4 * (64 * 1024 / 64);
    for i in 0..blocks as u64 {
        h.req(i, 0, 0x100_000 + i * 64, i % 3 == 0);
    }
    h.run();
    assert_eq!(h.completions.len(), blocks);
    assert!(h.l3.is_quiescent());
}

#[test]
fn mixed_read_write_interleavings_preserve_directory_sanity() {
    let mut h = Harness::new(3);
    // Pseudo-random mix over 8 blocks.
    let mut x = 0x12345u64;
    for step in 0..200u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let core = (x % 3) as usize;
        let block = (x >> 8) % 8;
        h.req(step, core, block * 64, x & 1 == 0);
    }
    h.run();
    assert_eq!(h.completions.len(), 200);
    assert!(h.l3.is_quiescent());
    for b in 0..8u64 {
        let (present, sharers, owner) = h.l3.dir_state(pei_types::BlockAddr(b));
        if present && owner.is_some() {
            assert_eq!(sharers, 1, "owner implies a single presence bit");
        }
        // Presence must agree with the private caches.
        let holding = h
            .privs
            .iter()
            .filter(|p| p.holds(pei_types::BlockAddr(b)))
            .count() as u32;
        assert_eq!(holding, if present { sharers } else { 0 }, "block {b}");
    }
}
