//! Capture glue between the system loop and `pei-trace`.
//!
//! A [`Tracer`] holds the user-supplied [`Recorder`] by value together
//! with every component and kind id the loop will ever emit, interned
//! once at attach time — the dispatch hot path only copies `u16` ids,
//! never touches a string, and records with a direct call (DESIGN.md
//! §8). All fields are crate-private: the public surface is
//! `System::attach_tracer` / `detach_tracer`.

use crate::config::MachineConfig;
use pei_trace::{CompId, KindId, Recorder};

/// Every event-kind id the system loop emits, pre-interned.
pub(crate) struct Kinds {
    pub(crate) core_tick: KindId,
    pub(crate) core_mem_done: KindId,
    pub(crate) core_pei_done: KindId,
    pub(crate) core_pei_credit: KindId,
    pub(crate) core_pfence_done: KindId,
    pub(crate) priv_req: KindId,
    pub(crate) priv_resp: KindId,
    pub(crate) priv_recall: KindId,
    pub(crate) l3_req: KindId,
    pub(crate) l3_ack: KindId,
    pub(crate) l3_flush: KindId,
    pub(crate) l3_fetch_done: KindId,
    pub(crate) ctrl_read: KindId,
    pub(crate) ctrl_write: KindId,
    pub(crate) ctrl_pim: KindId,
    pub(crate) ctrl_read_done: KindId,
    pub(crate) ctrl_pim_done: KindId,
    pub(crate) vault_access: KindId,
    pub(crate) vault_wake: KindId,
    pub(crate) mpcu_cmd: KindId,
    pub(crate) mpcu_vault_done: KindId,
    pub(crate) pmu_request: KindId,
    pub(crate) pmu_host_release: KindId,
    pub(crate) pmu_flush_done: KindId,
    pub(crate) pmu_mem_result: KindId,
    pub(crate) pmu_pfence: KindId,
    pub(crate) hpcu_decide_host: KindId,
    pub(crate) hpcu_dispatched_mem: KindId,
    pub(crate) hpcu_l1_resp: KindId,
    pub(crate) hpcu_mem_result: KindId,
    pub(crate) xbar_msg: KindId,
    pub(crate) phase_start: KindId,
    pub(crate) group_done: KindId,
}

/// The attached recorder plus its pre-interned id tables.
pub(crate) struct Tracer {
    pub(crate) rec: Recorder,
    pub(crate) core: Vec<CompId>,
    pub(crate) cache: Vec<CompId>,
    pub(crate) l3: Vec<CompId>,
    pub(crate) vault: Vec<CompId>,
    pub(crate) mpcu: Vec<CompId>,
    pub(crate) hpcu: Vec<CompId>,
    pub(crate) ctrl: CompId,
    pub(crate) pmu: CompId,
    pub(crate) xbar: CompId,
    pub(crate) system: CompId,
    pub(crate) k: Kinds,
}

fn intern_indexed(rec: &mut Recorder, prefix: &str, n: usize) -> Vec<CompId> {
    (0..n).map(|i| rec.comp(&format!("{prefix}{i}"))).collect()
}

impl Tracer {
    /// Interns every name the loop can emit and records the machine
    /// shape in the recorder's metadata.
    pub(crate) fn new(mut rec: Recorder, cfg: &MachineConfig) -> Tracer {
        let s = &mut rec;
        s.meta("machine.cores", &cfg.cores.to_string());
        s.meta("machine.l3_banks", &cfg.mem.l3_banks.to_string());
        s.meta("machine.vaults", &cfg.total_vaults().to_string());
        s.meta("machine.policy", &format!("{:?}", cfg.policy));
        let core = intern_indexed(s, "core", cfg.cores);
        let cache = intern_indexed(s, "cache", cfg.cores);
        let l3 = intern_indexed(s, "l3bank", cfg.mem.l3_banks);
        let vault = intern_indexed(s, "vault", cfg.total_vaults());
        let mpcu = intern_indexed(s, "mpcu", cfg.total_vaults());
        let hpcu = intern_indexed(s, "hpcu", cfg.cores);
        let ctrl = s.comp("ctrl");
        let pmu = s.comp("pmu");
        let xbar = s.comp("xbar");
        let system = s.comp("system");
        let k = Kinds {
            core_tick: s.kind("core.tick"),
            core_mem_done: s.kind("core.mem_done"),
            core_pei_done: s.kind("core.pei_done"),
            core_pei_credit: s.kind("core.pei_credit"),
            core_pfence_done: s.kind("core.pfence_done"),
            priv_req: s.kind("priv.req"),
            priv_resp: s.kind("priv.resp"),
            priv_recall: s.kind("priv.recall"),
            l3_req: s.kind("l3.req"),
            l3_ack: s.kind("l3.ack"),
            l3_flush: s.kind("l3.flush"),
            l3_fetch_done: s.kind("l3.fetch_done"),
            ctrl_read: s.kind("ctrl.read"),
            ctrl_write: s.kind("ctrl.write"),
            ctrl_pim: s.kind("ctrl.pim"),
            ctrl_read_done: s.kind("ctrl.read_done"),
            ctrl_pim_done: s.kind("ctrl.pim_done"),
            vault_access: s.kind("vault.access"),
            vault_wake: s.kind("vault.wake"),
            mpcu_cmd: s.kind("mpcu.cmd"),
            mpcu_vault_done: s.kind("mpcu.vault_done"),
            pmu_request: s.kind("pmu.request"),
            pmu_host_release: s.kind("pmu.host_release"),
            pmu_flush_done: s.kind("pmu.flush_done"),
            pmu_mem_result: s.kind("pmu.mem_result"),
            pmu_pfence: s.kind("pmu.pfence"),
            hpcu_decide_host: s.kind("hpcu.decide_host"),
            hpcu_dispatched_mem: s.kind("hpcu.dispatched_mem"),
            hpcu_l1_resp: s.kind("hpcu.l1_resp"),
            hpcu_mem_result: s.kind("hpcu.mem_result"),
            xbar_msg: s.kind("xbar.msg"),
            phase_start: s.kind("phase.start"),
            group_done: s.kind("group.done"),
        };
        Tracer {
            rec,
            core,
            cache,
            l3,
            vault,
            mpcu,
            hpcu,
            ctrl,
            pmu,
            xbar,
            system,
            k,
        }
    }
}
