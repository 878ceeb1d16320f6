//! # pei — PIM-Enabled Instructions (ISCA 2015) in Rust
//!
//! A full reproduction of *"PIM-Enabled Instructions: A Low-Overhead,
//! Locality-Aware Processing-in-Memory Architecture"* (Ahn, Yoo, Mutlu,
//! Choi — ISCA 2015): a cycle-level simulator of a multi-core host with a
//! three-level MESI cache hierarchy and HMC main memory, the PEI
//! architecture on top (PCUs, PMU with PIM directory + locality monitor,
//! pfence, locality-aware and balanced dispatch), the paper's ten
//! data-intensive workloads, and an experiment harness regenerating every
//! figure of the evaluation section.
//!
//! This crate re-exports the workspace's public API; see the individual
//! crates for details:
//!
//! * [`types`] — shared architectural vocabulary (addresses, packets,
//!   PIM op set).
//! * [`engine`] — discrete-event kernel, bandwidth/occupancy primitives,
//!   statistics.
//! * [`mem`] — backing store, private caches, inclusive L3 with MESI
//!   directory, crossbar.
//! * [`hmc`] — vaults, DRAM banks (FR-FCFS, open page), TSVs, serialized
//!   off-chip links.
//! * [`cpu`] — trace ops and the out-of-order-window core model.
//! * [`core`] — **the paper's contribution**: PIM operations, PCUs, PIM
//!   directory, locality monitor, PMU, dispatch policies.
//! * [`system`] — whole-machine assembly, presets, energy model.
//! * [`workloads`] — the ten case-study applications and input
//!   generators.
//!
//! # Quickstart
//!
//! ```
//! use pei::prelude::*;
//!
//! // Build PageRank on a small power-law graph ...
//! let params = WorkloadParams::scaled(4);
//! let (store, trace) = Workload::Pr.build(InputSize::Small, &params);
//!
//! // ... and run it on the scaled machine with locality-aware dispatch.
//! let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
//! let mut sys = System::new(cfg, store);
//! sys.add_workload(trace, (0..cfg.cores).collect());
//! let result = sys.run(u64::MAX);
//! println!("IPC = {:.2}, PIM% = {:.0}%", result.ipc(), 100.0 * result.pim_fraction);
//! ```
//!
//! This crate's place in the workspace is mapped in DESIGN.md §5.

pub use pei_core as core;
pub use pei_cpu as cpu;
pub use pei_engine as engine;
pub use pei_hmc as hmc;
pub use pei_mem as mem;
pub use pei_system as system;
pub use pei_types as types;
pub use pei_workloads as workloads;

/// The most common imports for driving experiments.
pub mod prelude {
    pub use pei_core::{DispatchPolicy, PimDirectory};
    pub use pei_cpu::trace::{Op, PhasedTrace, VecPhases};
    pub use pei_mem::BackingStore;
    pub use pei_system::{MachineConfig, RunResult, RunStatus, System};
    pub use pei_types::{Addr, BlockAddr, OperandValue, PimOpKind};
    pub use pei_workloads::{InputSize, Workload, WorkloadParams};
}
