//! One vault: a vertical DRAM partition with its own controller on the
//! logic die (FR-FCFS, open page) and TSV vertical link.

use crate::config::{HmcConfig, PagePolicy};
use pei_engine::{BwChannel, CounterId, Counters, Outbox, StatsReport};
use pei_types::{BlockAddr, Cycle, ReqId, BLOCK_BYTES};
use std::collections::VecDeque;

/// A block access arriving at the vault controller (from the off-chip
/// link or from the vault's memory-side PCU).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VaultIn {
    /// Transaction id (echoed in [`VaultOut::Done`]).
    pub id: ReqId,
    /// Target block (must route to this vault).
    pub block: BlockAddr,
    /// Whether this is a write.
    pub write: bool,
}

/// Vault outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VaultOut {
    /// An access completed (data has crossed the TSVs).
    Done {
        /// Echo of the request id.
        id: ReqId,
        /// The block accessed.
        block: BlockAddr,
        /// Whether it was a write.
        write: bool,
        /// Completion cycle.
        at: Cycle,
    },
    /// Ask to be woken at `at` to start queued bank work.
    Wake {
        /// Wakeup cycle.
        at: Cycle,
    },
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    req: VaultIn,
    row: u64,
}

#[derive(Debug)]
struct DramBank {
    open_row: Option<u64>,
    busy_until: Cycle,
    queue: VecDeque<Pending>,
    /// Cycle of the outstanding (un-fired) Wake for this bank, if any.
    /// Prevents both duplicate wakeups (event-queue flooding) and lost
    /// wakeups (a stale wake firing while the bank is busy again).
    wake_at: Option<Cycle>,
}

/// One vault (DRAM partition + controller + TSV link).
#[derive(Debug)]
pub struct Vault {
    banks: Vec<DramBank>,
    cfg: HmcConfig,
    tsv: BwChannel,
    counters: Counters,
    c: VaultCounters,
    // Fault-injection switch: a wedged vault accepts and queues accesses
    // but never starts bank work, modeling a hung DRAM partition. Normal
    // runs never set this; the single branch in `try_start` is the whole
    // cost (see pei-system's checked mode).
    wedged: bool,
}

/// Dense counter slots registered at construction (hot-path bumps are
/// indexed adds; names materialize only in [`Vault::report`]).
#[derive(Debug, Clone, Copy)]
struct VaultCounters {
    activates: CounterId,
    reads: CounterId,
    writes: CounterId,
    row_hits: CounterId,
    refresh_delays: CounterId,
}

impl VaultCounters {
    fn register(counters: &mut Counters) -> Self {
        VaultCounters {
            activates: counters.register("activates"),
            reads: counters.register("reads"),
            writes: counters.register("writes"),
            row_hits: counters.register("row_hits"),
            refresh_delays: counters.register("refresh_delays"),
        }
    }
}

impl Vault {
    /// Creates an idle vault per `cfg`.
    pub fn new(cfg: &HmcConfig) -> Self {
        let mut counters = Counters::new();
        let c = VaultCounters::register(&mut counters);
        Vault {
            banks: (0..cfg.banks_per_vault)
                .map(|_| DramBank {
                    open_row: None,
                    busy_until: 0,
                    queue: VecDeque::new(),
                    wake_at: None,
                })
                .collect(),
            cfg: *cfg,
            tsv: BwChannel::new(cfg.tsv_bytes_per_cycle, 2),
            counters,
            c,
            wedged: false,
        }
    }

    /// Fault hook: wedges the vault — queued and future accesses are
    /// accepted but never serviced, so dependent requests stall exactly
    /// as they would behind a hung DRAM partition.
    pub fn fault_wedge(&mut self) {
        self.wedged = true;
    }

    /// If `start` falls inside a periodic all-bank refresh window
    /// (`[k·tREFI, k·tREFI + tRFC)`), pushes it past the window.
    fn refresh_adjust(&mut self, start: Cycle) -> Cycle {
        let Some(r) = self.cfg.refresh else {
            return start;
        };
        let phase = start % r.t_refi;
        if phase < r.t_rfc {
            self.counters.inc(self.c.refresh_delays);
            start - phase + r.t_rfc
        } else {
            start
        }
    }

    /// Enqueues an access and starts bank work if possible.
    pub fn handle_access(&mut self, now: Cycle, req: VaultIn, out: &mut Outbox<VaultOut>) {
        let (_loc, bank, row) = self.cfg.route(req.block);
        self.banks[bank.index()]
            .queue
            .push_back(Pending { req, row });
        self.try_start(bank.index(), now, out);
    }

    /// Wakeup: scan banks for startable work.
    pub fn wake(&mut self, now: Cycle, out: &mut Outbox<VaultOut>) {
        for b in 0..self.banks.len() {
            // This wake consumes any outstanding wakeup scheduled at or
            // before `now`.
            if self.banks[b].wake_at.is_some_and(|t| t <= now) {
                self.banks[b].wake_at = None;
            }
            self.try_start(b, now, out);
        }
    }

    fn try_start(&mut self, bank_idx: usize, now: Cycle, out: &mut Outbox<VaultOut>) {
        if self.wedged {
            return;
        }
        let start = {
            let bank = &mut self.banks[bank_idx];
            if bank.queue.is_empty() {
                return;
            }
            if bank.busy_until > now {
                // Bank busy: make sure exactly one wakeup is outstanding.
                if bank.wake_at.is_none() {
                    bank.wake_at = Some(bank.busy_until);
                    out.push(VaultOut::Wake {
                        at: bank.busy_until,
                    });
                }
                return;
            }
            self.cfg.mem_clk.align_up(now.max(bank.busy_until))
        };
        let start = self.refresh_adjust(start);

        // FR-FCFS: oldest row-hit first, else the oldest request.
        let pick = {
            let bank = &self.banks[bank_idx];
            bank.queue
                .iter()
                .position(|p| Some(p.row) == bank.open_row)
                .unwrap_or(0)
        };
        let pending = self.banks[bank_idx].queue.remove(pick).expect("nonempty");

        let t = &self.cfg.timing;
        let (access_lat, activated, row_hit) = match self.banks[bank_idx].open_row {
            Some(r) if r == pending.row => (t.t_cl, false, true),
            Some(_) => (t.t_rp + t.t_rcd + t.t_cl, true, false),
            None => (t.t_rcd + t.t_cl, true, false),
        };
        self.counters.add(self.c.activates, u64::from(activated));
        self.counters.add(self.c.row_hits, u64::from(row_hit));
        if pending.req.write {
            self.counters.inc(self.c.writes);
        } else {
            self.counters.inc(self.c.reads);
        }

        let burst_done = start + access_lat + t.t_bl;
        let bank = &mut self.banks[bank_idx];
        bank.open_row = match self.cfg.page_policy {
            PagePolicy::Open => Some(pending.row),
            PagePolicy::Closed => None, // auto-precharge
        };
        bank.busy_until = burst_done;

        // Data crosses the vault's TSVs after the burst.
        let delivered = self.tsv.transfer(burst_done, BLOCK_BYTES as u64);
        out.push(VaultOut::Done {
            id: pending.req.id,
            block: pending.req.block,
            write: pending.req.write,
            at: delivered,
        });
        if !bank.queue.is_empty() && bank.wake_at.is_none() {
            bank.wake_at = Some(burst_done);
            out.push(VaultOut::Wake { at: burst_done });
        }
    }

    /// Queued + in-flight work left in this vault (test helper).
    pub fn backlog(&self) -> usize {
        self.banks.iter().map(|b| b.queue.len()).sum()
    }

    /// DRAM accesses served so far (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.counters.get(self.c.reads) + self.counters.get(self.c.writes)
    }

    /// Labels the current counter values as the end of phase `label`
    /// (see `Counters::snapshot`).
    pub fn snapshot_phase(&mut self, label: &'static str) {
        self.counters.snapshot(label);
    }

    /// Dumps statistics under `prefix`.
    pub fn report(&self, prefix: &str, stats: &mut StatsReport) {
        self.counters.flush(prefix, stats);
        stats.bump(
            format!("{prefix}tsv_bytes"),
            self.tsv.bytes_carried() as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vault() -> (Vault, HmcConfig) {
        let cfg = HmcConfig::scaled();
        (Vault::new(&cfg), cfg)
    }

    /// A block guaranteed to live in vault 0 / bank `bank` / row `row`
    /// of the scaled config.
    fn block_at(cfg: &HmcConfig, bank: u64, row: u64) -> BlockAddr {
        let cube_bits = cfg.cubes.trailing_zeros();
        let vault_bits = cfg.vaults_per_cube.trailing_zeros();
        let bank_bits = cfg.banks_per_vault.trailing_zeros();
        let blocks_per_row = (cfg.row_bytes / BLOCK_BYTES) as u64;
        let b = BlockAddr(
            ((row * blocks_per_row) << (cube_bits + vault_bits + bank_bits))
                | (bank << (cube_bits + vault_bits)),
        );
        let (_, got_bank, got_row) = cfg.route(b);
        assert_eq!(got_bank.index() as u64, bank);
        assert_eq!(got_row, row);
        b
    }

    fn drive(v: &mut Vault, reqs: &[(Cycle, VaultIn)]) -> Vec<(ReqId, Cycle)> {
        // Tiny event loop for the vault alone.
        let mut done = Vec::new();
        let mut wakes: Vec<Cycle> = Vec::new();
        let mut out = Outbox::new();
        for &(t, r) in reqs {
            v.handle_access(t, r, &mut out);
        }
        loop {
            for o in out.drain() {
                match o {
                    VaultOut::Done { id, at, .. } => done.push((id, at)),
                    VaultOut::Wake { at } => wakes.push(at),
                }
            }
            wakes.sort_unstable();
            match wakes.first().copied() {
                Some(t) => {
                    wakes.remove(0);
                    v.wake(t, &mut out);
                }
                None => break,
            }
        }
        done.sort_by_key(|&(_, at)| at);
        done
    }

    #[test]
    fn single_read_latency_is_rcd_plus_cl_plus_burst() {
        // Disable refresh: this test checks the exact latency equation.
        let cfg = HmcConfig {
            refresh: None,
            ..HmcConfig::scaled()
        };
        let mut v = Vault::new(&cfg);
        let b = block_at(&cfg, 0, 0);
        let done = drive(
            &mut v,
            &[(
                0,
                VaultIn {
                    id: ReqId(1),
                    block: b,
                    write: false,
                },
            )],
        );
        let t = cfg.timing;
        let expect_burst = t.t_rcd + t.t_cl + t.t_bl;
        // Plus TSV serialization (64 B at 4 B/cycle = 16) + TSV latency 2.
        assert_eq!(done[0].1, expect_burst + 16 + 2);
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let (mut v, cfg) = vault();
        let same_row_a = block_at(&cfg, 0, 0);
        let other_row = block_at(&cfg, 0, 3);
        let mk = |id, block| VaultIn {
            id: ReqId(id),
            block,
            write: false,
        };
        let done = drive(
            &mut v,
            &[
                (0, mk(1, same_row_a)),
                (0, mk(2, same_row_a)), // row hit
                (0, mk(3, other_row)),  // row conflict: tRP + tRCD + tCL
            ],
        );
        let gap_hit = done[1].1 - done[0].1;
        let gap_conflict = done[2].1 - done[1].1;
        assert!(
            gap_conflict > gap_hit,
            "conflict {gap_conflict} vs hit {gap_hit}"
        );
    }

    #[test]
    fn fr_fcfs_prefers_open_row() {
        let (mut v, cfg) = vault();
        let row0 = block_at(&cfg, 0, 0);
        let row1 = block_at(&cfg, 0, 1);
        let mk = |id, block| VaultIn {
            id: ReqId(id),
            block,
            write: false,
        };
        // First opens row 0; while it is busy, queue row1 then row0 again.
        let done = drive(
            &mut v,
            &[(0, mk(1, row0)), (1, mk(2, row1)), (2, mk(3, row0))],
        );
        let order: Vec<u64> = done.iter().map(|&(id, _)| id.0).collect();
        assert_eq!(order, vec![1, 3, 2], "row-hit request 3 jumps ahead of 2");
    }

    #[test]
    fn banks_operate_in_parallel() {
        let (mut v, cfg) = vault();
        let b0 = block_at(&cfg, 0, 0);
        let b1 = block_at(&cfg, 1, 0);
        let mk = |id, block| VaultIn {
            id: ReqId(id),
            block,
            write: false,
        };
        let done_par = drive(&mut v, &[(0, mk(1, b0)), (0, mk(2, b1))]);
        // Bank-parallel accesses overlap: both finish well before two
        // serialized accesses would.
        let (mut v2, _) = vault();
        let done_ser = drive(&mut v2, &[(0, mk(1, b0)), (0, mk(2, b0))]);
        assert!(done_par[1].1 < done_ser[1].1);
    }

    #[test]
    fn refresh_window_delays_accesses() {
        let cfg = HmcConfig::scaled();
        let r = cfg.refresh.unwrap();
        let mut v = Vault::new(&cfg);
        // An access arriving inside the refresh window is pushed past it.
        let done = drive(
            &mut v,
            &[(
                2, // inside [0, tRFC)
                VaultIn {
                    id: ReqId(1),
                    block: block_at(&cfg, 0, 0),
                    write: false,
                },
            )],
        );
        assert!(
            done[0].1 > r.t_rfc,
            "completion {} within refresh",
            done[0].1
        );
        let mut s = StatsReport::new();
        v.report("v.", &mut s);
        assert_eq!(s.get("v.refresh_delays"), Some(1.0));
    }

    #[test]
    fn closed_page_never_row_hits() {
        let cfg = HmcConfig {
            page_policy: crate::config::PagePolicy::Closed,
            refresh: None,
            ..HmcConfig::scaled()
        };
        let mut v = Vault::new(&cfg);
        let b = block_at(&cfg, 0, 0);
        let mk = |id| VaultIn {
            id: ReqId(id),
            block: b,
            write: false,
        };
        drive(&mut v, &[(0, mk(1)), (0, mk(2)), (0, mk(3))]);
        let mut s = StatsReport::new();
        v.report("v.", &mut s);
        assert_eq!(
            s.get("v.row_hits"),
            Some(0.0),
            "auto-precharge kills row hits"
        );
        assert_eq!(s.get("v.activates"), Some(3.0));
    }

    #[test]
    fn stats_accumulate() {
        let (mut v, cfg) = vault();
        let b = block_at(&cfg, 0, 0);
        drive(
            &mut v,
            &[(
                0,
                VaultIn {
                    id: ReqId(1),
                    block: b,
                    write: true,
                },
            )],
        );
        let mut s = StatsReport::new();
        v.report("v0.", &mut s);
        assert_eq!(s.get("v0.writes"), Some(1.0));
        assert_eq!(s.get("v0.activates"), Some(1.0));
        assert_eq!(s.get("v0.tsv_bytes"), Some(64.0));
    }
}
