//! Host core model: trace-driven out-of-order issue windows.
//!
//! The paper drives its timing simulator from Pin; this crate provides the
//! equivalent front-end for a functional-first simulator. Workloads
//! generate per-thread [`trace::Op`] streams (organized in barrier-delimited
//! phases) and each [`core::Core`] replays its stream through a model of a
//! 4-issue out-of-order core: independent memory operations and PEIs
//! overlap up to the MSHR / operand-buffer limits, dependent operations
//! (pointer chases, PEI output consumers) serialize, and `pfence`s block
//! until the PMU drains outstanding writer PEIs.
//!
//! # Examples
//!
//! ```
//! use pei_cpu::trace::Op;
//! use pei_cpu::core::{Core, CoreConfig, CoreEvent};
//! use pei_types::{Addr, CoreId};
//!
//! let mut core = Core::new(CoreId(0), CoreConfig::paper());
//! core.push_ops(vec![Op::Compute(8), Op::load(Addr(0x40))]);
//! let mut outs = Vec::new();
//! let outcome = core.tick(0, &mut outs);
//! assert!(!outs.is_empty() || outcome.next.is_some());
//! ```
//!
//! This crate's place in the workspace is mapped in DESIGN.md §5.

pub mod core;
pub mod tlb;
pub mod trace;

pub use crate::core::{Core, CoreConfig, CoreEvent, CoreOut, TickOutcome};
pub use tlb::{PageMap, Tlb, TlbConfig};
pub use trace::{Op, PhasedTrace, VecPhases};
