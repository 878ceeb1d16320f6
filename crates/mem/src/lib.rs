//! Cache hierarchy and on-chip interconnect for the PEI simulator.
//!
//! This crate models the host memory hierarchy of the paper's baseline
//! machine (Table 2): private L1/L2 caches per core, a shared, banked,
//! *inclusive* L3 with MESI directory coherence and MSHRs, the on-chip
//! crossbar, and the functional backing store that holds the simulated
//! machine's actual bytes.
//!
//! # Timing vs. function
//!
//! The simulator is *functional-first*: data values live in the
//! [`BackingStore`] and are updated eagerly when instructions or PIM
//! operations execute, while the cache components model *timing and
//! coherence state only* (tags, MESI states, LRU, presence bits — no data
//! arrays). This is exact for the bandwidth/latency phenomena the paper
//! measures and keeps every component independently testable; see
//! DESIGN.md §2.
//!
//! # Component protocol
//!
//! Components communicate through the message types in [`msg`]; each
//! component exposes `handle_*` methods that consume an input message and
//! push timestamped output messages into a caller-provided sink. The
//! system crate owns the event queue and routes outputs (through the
//! [`xbar::Crossbar`] where appropriate).
//!
//! # Examples
//!
//! ```
//! use pei_mem::BackingStore;
//! use pei_types::Addr;
//!
//! let mut mem = BackingStore::new();
//! mem.write_u64(Addr(0x100), 42);
//! assert_eq!(mem.read_u64(Addr(0x100)), 42);
//! ```
//!
//! This crate's place in the workspace is mapped in DESIGN.md §5.

pub mod backing;
pub mod cache;
pub mod config;
pub mod l3;
pub mod msg;
pub mod mshr;
pub mod private;
pub mod xbar;

pub use backing::BackingStore;
pub use cache::{CacheArray, Line, LineState};
pub use config::{CacheConfig, MemHierarchyConfig};
pub use l3::L3Bank;
pub use l3::{L3In, L3Out};
pub use msg::{Grant, L3Req, L3ReqKind, RecallOp};
pub use mshr::MshrFile;
pub use private::PrivOut;
pub use private::PrivateCache;
pub use xbar::Crossbar;
