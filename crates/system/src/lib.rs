//! Full-system assembly of the PEI machine.
//!
//! This crate wires the substrate crates into the paper's evaluated
//! machine (Table 2): out-of-order cores replaying workload traces, a
//! three-level MESI cache hierarchy over a crossbar, HMC main memory, and
//! the PEI architecture (host/memory PCUs + PMU) on top. It also carries
//! the energy model of Fig. 12 and configuration presets for both the
//! paper-scale and the proportionally scaled-down default machine.
//!
//! # Examples
//!
//! ```
//! use pei_system::{MachineConfig, System};
//! use pei_core::DispatchPolicy;
//! use pei_cpu::trace::{Op, VecPhases};
//! use pei_mem::BackingStore;
//! use pei_types::Addr;
//!
//! let mut store = BackingStore::new();
//! let a = store.alloc_block();
//! let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
//! let mut sys = System::new(cfg, store);
//! sys.add_workload(
//!     Box::new(VecPhases::single(vec![Op::load(a), Op::Compute(16)])),
//!     vec![0],
//! );
//! let result = sys.run(1_000_000);
//! assert!(result.cycles > 0);
//! assert_eq!(result.instructions, 17);
//! ```
//!
//! This crate's place in the workspace is mapped in DESIGN.md §5.

#![warn(missing_docs)]

pub mod check;
pub mod config;
pub mod energy;
pub mod system;
mod tracer;

pub use check::{
    CheckConfig, FailureKind, FailureReport, FaultKind, FaultPlan, RunOutcome, Violation,
};
pub use config::MachineConfig;
pub use energy::{EnergyBreakdown, EnergyInputs, EnergyModel};
pub use system::{RunResult, RunStatus, System};
