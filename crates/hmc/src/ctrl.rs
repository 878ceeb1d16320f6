//! The host-side HMC controller: packetizes traffic onto the daisy chain's
//! request/response channels and keeps the bandwidth counters used by
//! balanced dispatch (§7.4).

use crate::config::HmcConfig;
use pei_engine::{BwChannel, CounterId, Counters, StatsReport};
use pei_types::ids::VaultLoc;
use pei_types::packet::PacketKind;
use pei_types::{BlockAddr, Cycle, FlitCount, PimCmd, PimOut, ReqId, FLIT_BYTES};

/// Host-side inputs to the controller.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlIn {
    /// Block read (L3 miss fill).
    Read {
        /// Transaction id.
        id: ReqId,
        /// Block to fetch.
        block: BlockAddr,
    },
    /// Block writeback (fire-and-forget).
    Write {
        /// Block to write.
        block: BlockAddr,
    },
    /// PIM operation offload from the PMU.
    Pim {
        /// The command packet.
        cmd: PimCmd,
    },
}

/// Memory-side completions entering the controller on the response link.
#[derive(Debug, Clone, PartialEq)]
pub enum MemSideIn {
    /// A vault finished a read issued by [`CtrlIn::Read`].
    ReadDone {
        /// Echo of the id.
        id: ReqId,
        /// The block read.
        block: BlockAddr,
        /// Which cube it came from (for hop latency).
        cube: u16,
    },
    /// A memory-side PCU finished a PIM operation.
    PimDone {
        /// The completion packet.
        out: PimOut,
        /// Which cube it came from.
        cube: u16,
    },
}

/// Controller outputs.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlOut {
    /// Deliver a plain DRAM access to a vault.
    ToVault {
        /// Destination vault.
        loc: VaultLoc,
        /// The access.
        access: crate::vault::VaultIn,
        /// Delivery cycle.
        at: Cycle,
    },
    /// Deliver a PIM command to a vault's memory-side PCU.
    PimToVault {
        /// Destination vault.
        loc: VaultLoc,
        /// The command.
        cmd: PimCmd,
        /// Delivery cycle.
        at: Cycle,
    },
    /// Read data delivered back to the requesting L3 bank.
    ReadResp {
        /// Echo of the id.
        id: ReqId,
        /// The block.
        block: BlockAddr,
        /// Delivery cycle.
        at: Cycle,
    },
    /// PIM outputs delivered back to the PMU.
    PimResp {
        /// The completion packet.
        out: PimOut,
        /// Delivery cycle.
        at: Cycle,
    },
}

/// Exponentially-smoothed request/response flit counters for balanced
/// dispatch: "the counters are halved every 10 µs to calculate the
/// exponential moving average of off-chip traffic" (§7.4).
#[derive(Debug, Clone, Copy)]
pub struct BalanceCounters {
    c_req: u64,
    c_res: u64,
    window: Cycle,
    next_halve: Cycle,
}

impl BalanceCounters {
    fn new(window: Cycle) -> Self {
        BalanceCounters {
            c_req: 0,
            c_res: 0,
            window,
            next_halve: window,
        }
    }

    fn roll(&mut self, now: Cycle) {
        while now >= self.next_halve {
            self.c_req /= 2;
            self.c_res /= 2;
            self.next_halve += self.window;
        }
    }

    fn note(&mut self, now: Cycle, request: bool, flits: FlitCount) {
        self.roll(now);
        if request {
            self.c_req += flits;
        } else {
            self.c_res += flits;
        }
    }

    /// Current `(C_req, C_res)` after rolling the EMA window forward.
    pub fn sample(&mut self, now: Cycle) -> (u64, u64) {
        self.roll(now);
        (self.c_req, self.c_res)
    }
}

/// The host-side HMC controller.
///
/// # Examples
///
/// ```
/// use pei_hmc::{HmcConfig, HmcController, CtrlIn};
/// use pei_types::{BlockAddr, ReqId};
///
/// let cfg = HmcConfig::scaled();
/// let mut ctrl = HmcController::new(&cfg);
/// let mut out = Vec::new();
/// ctrl.handle_host(0, CtrlIn::Read { id: ReqId(1), block: BlockAddr(0) }, &mut out);
/// assert!(matches!(out[0], pei_hmc::CtrlOut::ToVault { .. }));
/// ```
#[derive(Debug)]
pub struct HmcController {
    cfg: HmcConfig,
    req_link: BwChannel,
    res_link: BwChannel,
    balance: BalanceCounters,
    /// Reads forwarded to vaults minus responses returned: the link
    /// controller's in-flight window, for deadlock diagnostics.
    pending_reads: u64,
    counters: Counters,
    c: CtrlCounters,
}

/// Dense counter slots registered at construction (hot-path bumps are
/// indexed adds; names materialize only in [`HmcController::report`]).
#[derive(Debug, Clone, Copy)]
struct CtrlCounters {
    req_flits: CounterId,
    res_flits: CounterId,
    reads: CounterId,
    read_resps: CounterId,
    writes: CounterId,
    pims: CounterId,
}

impl CtrlCounters {
    fn register(counters: &mut Counters) -> Self {
        CtrlCounters {
            req_flits: counters.register("req_flits"),
            res_flits: counters.register("res_flits"),
            reads: counters.register("reads"),
            read_resps: counters.register("read_resps"),
            writes: counters.register("writes"),
            pims: counters.register("pim_cmds"),
        }
    }
}

impl HmcController {
    /// Balance-counter halving window. The paper halves every 10 µs
    /// (40 000 cycles at 4 GHz); we use 1 µs so the EMA tracks regime
    /// shifts at the scaled machine's lower flit rate — with the paper's
    /// window the dispatch controller oscillates between all-host and
    /// all-memory regimes instead of mixing.
    pub const BALANCE_WINDOW: Cycle = 4_000;

    /// Creates a controller for the chain described by `cfg`.
    pub fn new(cfg: &HmcConfig) -> Self {
        let mut counters = Counters::new();
        let c = CtrlCounters::register(&mut counters);
        HmcController {
            cfg: *cfg,
            req_link: BwChannel::new(cfg.link_bytes_per_cycle, cfg.link_latency),
            res_link: BwChannel::new(cfg.link_bytes_per_cycle, cfg.link_latency),
            balance: BalanceCounters::new(Self::BALANCE_WINDOW),
            pending_reads: 0,
            counters,
            c,
        }
    }

    fn send_req(&mut self, now: Cycle, kind: PacketKind, cube: u16) -> Cycle {
        let flits = kind.flits();
        self.counters.add(self.c.req_flits, flits);
        self.balance.note(now, true, flits);
        let delivered = self.req_link.transfer(now, flits * FLIT_BYTES as u64);
        delivered + self.cfg.hop_latency * cube as u64
    }

    fn send_res(&mut self, now: Cycle, kind: PacketKind, cube: u16) -> Cycle {
        let flits = kind.flits();
        self.counters.add(self.c.res_flits, flits);
        self.balance.note(now, false, flits);
        let entered = now + self.cfg.hop_latency * cube as u64;
        self.res_link.transfer(entered, flits * FLIT_BYTES as u64)
    }

    /// Handles a host-side input (from L3 banks or the PMU).
    pub fn handle_host(&mut self, now: Cycle, input: CtrlIn, out: &mut Vec<CtrlOut>) {
        match input {
            CtrlIn::Read { id, block } => {
                self.counters.inc(self.c.reads);
                self.pending_reads += 1;
                let (loc, _, _) = self.cfg.route(block);
                let at = self.send_req(now, PacketKind::ReadReq, loc.cube.0);
                out.push(CtrlOut::ToVault {
                    loc,
                    access: crate::vault::VaultIn {
                        id,
                        block,
                        write: false,
                    },
                    at,
                });
            }
            CtrlIn::Write { block } => {
                self.counters.inc(self.c.writes);
                let (loc, _, _) = self.cfg.route(block);
                let at = self.send_req(now, PacketKind::WriteReq, loc.cube.0);
                out.push(CtrlOut::ToVault {
                    loc,
                    access: crate::vault::VaultIn {
                        id: ReqId(0),
                        block,
                        write: true,
                    },
                    at,
                });
            }
            CtrlIn::Pim { cmd } => {
                self.counters.inc(self.c.pims);
                let (loc, _, _) = self.cfg.route(cmd.block());
                let kind = PacketKind::PimReq {
                    input_bytes: cmd.input.byte_len() as u16,
                };
                let at = self.send_req(now, kind, loc.cube.0);
                out.push(CtrlOut::PimToVault { loc, cmd, at });
            }
        }
    }

    /// Handles a memory-side completion arriving on the response link.
    pub fn handle_mem_side(&mut self, now: Cycle, input: MemSideIn, out: &mut Vec<CtrlOut>) {
        match input {
            MemSideIn::ReadDone { id, block, cube } => {
                self.counters.inc(self.c.read_resps);
                self.pending_reads = self.pending_reads.saturating_sub(1);
                let at = self.send_res(now, PacketKind::ReadResp, cube);
                out.push(CtrlOut::ReadResp { id, block, at });
            }
            MemSideIn::PimDone { out: pim_out, cube } => {
                let kind = PacketKind::PimResp {
                    output_bytes: pim_out.output.byte_len() as u16,
                };
                let at = self.send_res(now, kind, cube);
                out.push(CtrlOut::PimResp { out: pim_out, at });
            }
        }
    }

    /// Balanced-dispatch counters `(C_req, C_res)` (§7.4).
    pub fn balance(&mut self, now: Cycle) -> (u64, u64) {
        self.balance.sample(now)
    }

    /// Cumulative off-chip traffic in flits `(request, response)`.
    pub fn total_flits(&self) -> (u64, u64) {
        (
            self.counters.get(self.c.req_flits),
            self.counters.get(self.c.res_flits),
        )
    }

    /// Cumulative off-chip traffic in bytes, both directions.
    pub fn total_bytes(&self) -> u64 {
        let (req, res) = self.total_flits();
        (req + res) * FLIT_BYTES as u64
    }

    /// Reads forwarded to the vaults whose responses have not yet come
    /// back (deadlock diagnostics).
    pub fn pending_reads(&self) -> u64 {
        self.pending_reads
    }

    /// Read-credit conservation view: `(reads issued, read responses
    /// returned, reads pending)`. In a consistent controller
    /// `issued == returned + pending` at every instant — the invariant
    /// pei-system's checked mode sweeps.
    pub fn read_credit_state(&self) -> (u64, u64, u64) {
        (
            self.counters.get(self.c.reads),
            self.counters.get(self.c.read_resps),
            self.pending_reads,
        )
    }

    /// Fault hook: leaks one read credit — the in-flight window grows
    /// without a matching request, as a lost response packet would make
    /// it. Validates the link-conservation checker.
    pub fn fault_leak_read_credit(&mut self) {
        self.pending_reads += 1;
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
    use pei_types::{OperandValue, PimOpKind};

    fn ctrl() -> HmcController {
        HmcController::new(&HmcConfig::scaled())
    }

    #[test]
    fn read_costs_16_req_80_res_bytes() {
        let mut c = ctrl();
        let mut out = Vec::new();
        c.handle_host(
            0,
            CtrlIn::Read {
                id: ReqId(1),
                block: BlockAddr(0),
            },
            &mut out,
        );
        c.handle_mem_side(
            500,
            MemSideIn::ReadDone {
                id: ReqId(1),
                block: BlockAddr(0),
                cube: 0,
            },
            &mut out,
        );
        let (req, res) = c.total_flits();
        assert_eq!(req * FLIT_BYTES as u64, 16);
        assert_eq!(res * FLIT_BYTES as u64, 80);
    }

    #[test]
    fn write_costs_80_req_bytes() {
        let mut c = ctrl();
        let mut out = Vec::new();
        c.handle_host(
            0,
            CtrlIn::Write {
                block: BlockAddr(0),
            },
            &mut out,
        );
        let (req, res) = c.total_flits();
        assert_eq!(req * FLIT_BYTES as u64, 80);
        assert_eq!(res, 0);
    }

    #[test]
    fn pim_add_costs_32_req_16_res_bytes() {
        // §2.2: memory-side addition sends only the 8-byte delta.
        let mut c = ctrl();
        let mut out = Vec::new();
        c.handle_host(
            0,
            CtrlIn::Pim {
                cmd: PimCmd {
                    id: ReqId(1),
                    target: BlockAddr(0).base(),
                    op: PimOpKind::AddF64,
                    input: OperandValue::F64(0.5),
                },
            },
            &mut out,
        );
        c.handle_mem_side(
            400,
            MemSideIn::PimDone {
                out: PimOut {
                    id: ReqId(1),
                    block: BlockAddr(0),
                    output: OperandValue::None,
                },
                cube: 0,
            },
            &mut out,
        );
        let (req, res) = c.total_flits();
        assert_eq!(req * FLIT_BYTES as u64, 32);
        assert_eq!(res * FLIT_BYTES as u64, 16);
    }

    #[test]
    fn routes_to_correct_vault() {
        let cfg = HmcConfig::scaled();
        let mut c = HmcController::new(&cfg);
        let mut out = Vec::new();
        let block = BlockAddr(0b10_0101);
        c.handle_host(
            0,
            CtrlIn::Read {
                id: ReqId(1),
                block,
            },
            &mut out,
        );
        match &out[0] {
            CtrlOut::ToVault { loc, .. } => {
                let (want, _, _) = cfg.route(block);
                assert_eq!(*loc, want);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn balance_counters_halve_over_windows() {
        let mut b = BalanceCounters::new(1000);
        b.note(0, true, 100);
        b.note(0, false, 10);
        assert_eq!(b.sample(0), (100, 10));
        assert_eq!(b.sample(1000), (50, 5));
        assert_eq!(b.sample(3000), (12, 1));
        b.note(3000, false, 100);
        let (req, res) = b.sample(3000);
        assert!(res > req);
    }

    #[test]
    fn link_serializes_heavy_traffic() {
        let mut c = ctrl();
        let mut out = Vec::new();
        // Many back-to-back writes (80 B each at 10 B/cycle = 8 cycles each).
        for i in 0..10 {
            c.handle_host(
                0,
                CtrlIn::Write {
                    block: BlockAddr(i * 64),
                },
                &mut out,
            );
        }
        let times: Vec<Cycle> = out
            .iter()
            .map(|o| match o {
                CtrlOut::ToVault { at, .. } => *at,
                _ => unreachable!(),
            })
            .collect();
        // Deliveries are spaced by serialization, not simultaneous.
        assert!(times.windows(2).all(|w| w[1] > w[0]));
        assert!(times[9] - times[0] >= 9 * 8);
    }
}
