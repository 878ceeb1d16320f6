//! Cycle-accurate event tracing for the PEI simulator.
//!
//! The simulator's figure harness reports end-of-run aggregates; this
//! crate captures the *timeline* behind them: one compact record per
//! simulated event — (cycle, component, event kind, payload) — with
//! string-interned component and kind tables so the hot path never
//! touches a `String`.
//!
//! The pieces:
//!
//! * [`Recorder`] — what `pei-system` captures into: an in-memory,
//!   optionally ring-bounded record buffer with interned name tables.
//!   It is `Send`, so it travels with a `System` onto worker threads.
//! * [`Trace`] — a recorder's snapshot or a loaded `.petr` file, with
//!   resolved name tables; it encodes to and decodes from the `.petr`
//!   binary format ([`mod@format`]).
//! * [`diff`](diff::diff) — first-divergent-record comparison between
//!   two traces: the regression gate that localizes a timing change to
//!   a specific component and cycle.
//! * [`perfetto`] — Chrome `trace_event` JSON export, loadable in
//!   Perfetto / `chrome://tracing`.
//!
//! Replay (re-running a capture from the machine/workload description
//! embedded in its meta table and checking stats byte-identity) lives
//! in `pei-bench::tracecap`, which owns the experiment vocabulary; this
//! crate is deliberately ignorant of the simulated architecture.
//!
//! # Examples
//!
//! ```
//! use pei_trace::Recorder;
//!
//! let mut rec = Recorder::new();
//! let vault = rec.comp("vault0");
//! let access = rec.kind("vault.access");
//! rec.record(100, vault, access, 0x40);
//! rec.record(105, vault, access, 0x80);
//! let trace = rec.to_trace();
//! assert_eq!(trace.records.len(), 2);
//! assert_eq!(trace.comps[trace.records[0].comp.0 as usize], "vault0");
//! assert!(pei_trace::diff::diff(&trace, &trace).is_none());
//! ```
//!
//! This crate's place in the workspace is mapped in DESIGN.md §5; the
//! binary record layout and the recorder contract are specified in
//! DESIGN.md §8.

#![warn(missing_docs)]

pub mod diff;
pub mod format;
pub mod perfetto;
pub mod record;
pub mod recorder;

pub use diff::{diff, Divergence, Resolved};
pub use format::TraceError;
pub use record::{CompId, KindId, Record};
pub use recorder::{Recorder, Trace};
