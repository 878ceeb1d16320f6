//! Whole-machine configuration presets.

use pei_core::{DispatchPolicy, PcuConfig, PmuConfig};
use pei_cpu::{CoreConfig, PageMap, TlbConfig};
use pei_hmc::HmcConfig;
use pei_mem::MemHierarchyConfig;
use pei_types::Cycle;

/// Configuration of the complete simulated machine.
///
/// Two presets exist: [`MachineConfig::paper`] reproduces Table 2 of the
/// paper (16 cores, 16 MB L3, 8 HMCs), and [`MachineConfig::scaled`] is a
/// proportionally shrunk machine (4 cores, 1 MB L3, 1 HMC) whose
/// cache-to-workload capacity ratios match the paper, so the experiment
/// suite reproduces the paper's *shape* in minutes instead of days
/// (DESIGN.md §2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Number of host cores (each with a private cache and host PCU).
    pub cores: usize,
    /// Cache hierarchy and crossbar.
    pub mem: MemHierarchyConfig,
    /// Main memory.
    pub hmc: HmcConfig,
    /// PCU parameters (operand buffer, execution width).
    pub pcu: PcuConfig,
    /// PEI dispatch policy.
    pub policy: DispatchPolicy,
    /// Idealize the PIM directory (§7.6 / Ideal-Host).
    pub ideal_dir: bool,
    /// Idealize the locality monitor (§7.6).
    pub ideal_mon: bool,
    /// PIM-directory entries.
    pub dir_entries: usize,
    /// Locality-monitor partial-tag bits.
    pub mon_tag_bits: u32,
    /// Honor the locality monitor's first-hit ignore bit (ablation knob).
    pub mon_ignore_bit: bool,
    /// Latency from the PMU/L3 complex to the HMC controller, host cycles.
    pub ctrl_latency: Cycle,
    /// Per-core TLB (§4.4). `None` models ideal translation (the default:
    /// the paper's results are data-side and its §4.4 point is that PEIs
    /// add no TLB pressure, checked by the test suite when enabled).
    pub tlb: Option<TlbConfig>,
    /// Virtual→physical page mapping.
    pub page_map: PageMap,
}

impl MachineConfig {
    /// The paper's Table 2 machine with the given dispatch policy.
    pub fn paper(policy: DispatchPolicy) -> Self {
        MachineConfig {
            cores: 16,
            mem: MemHierarchyConfig::paper(),
            hmc: HmcConfig::paper(),
            pcu: PcuConfig::paper(),
            policy,
            ideal_dir: false,
            ideal_mon: false,
            dir_entries: 2048,
            mon_tag_bits: 10,
            mon_ignore_bit: true,
            ctrl_latency: 4,
            tlb: None,
            page_map: PageMap::Identity,
        }
    }

    /// The scaled-down default experiment machine (4 cores, 1 MB L3,
    /// 1 HMC × 16 vaults) with the given dispatch policy.
    pub fn scaled(policy: DispatchPolicy) -> Self {
        MachineConfig {
            cores: 4,
            mem: MemHierarchyConfig::scaled(),
            hmc: HmcConfig::scaled(),
            ..Self::paper(policy)
        }
    }

    /// The Ideal-Host reference configuration of §7 at this machine's
    /// scale: Host-Only execution with an infinite, zero-latency PIM
    /// directory.
    pub fn ideal_host(self) -> Self {
        MachineConfig {
            policy: DispatchPolicy::HostOnly,
            ideal_dir: true,
            ..self
        }
    }

    /// Builds the PMU configuration implied by this machine.
    pub fn pmu_config(&self) -> PmuConfig {
        let mut cfg = PmuConfig::paper(self.policy, self.mem.l3.sets(), self.mem.l3.ways);
        cfg.dir_entries = self.dir_entries;
        cfg.mon_tag_bits = self.mon_tag_bits;
        cfg.mon_ignore_bit = self.mon_ignore_bit;
        cfg.ideal_dir = self.ideal_dir;
        cfg.ideal_mon = self.ideal_mon;
        if self.ideal_dir {
            cfg.dir_latency = 0;
        }
        cfg
    }

    /// The core microarchitecture: Table 2's core, with its in-flight
    /// PEI bound set to the PCU operand-buffer size.
    pub fn core_config(&self) -> CoreConfig {
        CoreConfig {
            max_pei_inflight: self.pcu.operand_entries,
            ..CoreConfig::paper()
        }
    }

    /// Total vault count.
    pub fn total_vaults(&self) -> usize {
        self.hmc.total_vaults()
    }

    /// Dominant event-scheduling horizon in host cycles: how far ahead
    /// of the dispatched cycle the bulk of events land. This sizes the
    /// calendar queue's near-future window (`EventQueue::with_horizon`);
    /// it is a performance hint only — events past it (deep channel
    /// backlogs under congestion) correctly take the overflow path.
    ///
    /// The bound is one full DRAM service worst case — a refresh
    /// (`t_rfc`) stacked on an activate/read/precharge sequence — or
    /// the full off-chip chain traversal, whichever is larger, plus the
    /// controller pipeline.
    pub fn event_horizon(&self) -> Cycle {
        let t = &self.hmc.timing;
        let dram_service = t.t_rcd + t.t_cl + t.t_rp + t.t_bl;
        let refresh = self.hmc.refresh.map_or(0, |r| r.t_rfc);
        let chain = self.hmc.link_latency + self.hmc.hop_latency * self.hmc.cubes as Cycle;
        (dram_service + refresh).max(chain) + self.ctrl_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_table2() {
        let c = MachineConfig::paper(DispatchPolicy::LocalityAware);
        assert_eq!(c.cores, 16);
        assert_eq!(c.core_config().issue_width, 4);
        assert_eq!(c.mem.l3.capacity, 16 * 1024 * 1024);
        assert_eq!(c.total_vaults(), 128);
        assert_eq!(c.dir_entries, 2048);
        let pmu = c.pmu_config();
        assert_eq!(pmu.mon_sets, 16384);
        assert_eq!(pmu.mon_ways, 16);
    }

    #[test]
    fn ideal_host_is_host_only_with_free_directory() {
        let c = MachineConfig::scaled(DispatchPolicy::PimOnly).ideal_host();
        assert_eq!(c.policy, DispatchPolicy::HostOnly);
        let pmu = c.pmu_config();
        assert!(pmu.ideal_dir);
        assert_eq!(pmu.dir_latency, 0);
    }

    #[test]
    fn core_config_follows_operand_buffer() {
        let mut c = MachineConfig::scaled(DispatchPolicy::LocalityAware);
        c.pcu.operand_entries = 16;
        assert_eq!(c.core_config().max_pei_inflight, 16);
    }
}
