//! Discrete-event simulation kernel for the PEI simulator.
//!
//! This crate is deliberately ignorant of computer architecture: it provides
//! the event queue, clock-domain arithmetic, bandwidth-limited channel and
//! occupancy primitives, a statistics registry, and a deterministic RNG.
//! The architectural components in `pei-mem`, `pei-hmc`, `pei-cpu` and
//! `pei-core` are built on top of these and wired together by `pei-system`.
//!
//! # Examples
//!
//! ```
//! use pei_engine::EventQueue;
//!
//! let mut q = EventQueue::new();
//! q.schedule(10, "b");
//! q.schedule(5, "a");
//! q.schedule(10, "c"); // same-cycle events keep FIFO order
//! assert_eq!(q.pop(), Some((5, "a")));
//! assert_eq!(q.pop(), Some((10, "b")));
//! assert_eq!(q.pop(), Some((10, "c")));
//! assert_eq!(q.pop(), None);
//! ```
//!
//! This crate's place in the workspace is mapped in DESIGN.md §5.

#![warn(missing_docs)]

pub mod channel;
pub mod clock;
pub mod counters;
pub mod fxhash;
pub mod outbox;
pub mod queue;
pub mod rng;
pub mod stats;

pub use channel::{BwChannel, Occupancy, OccupancyPool};
pub use clock::ClockDomain;
pub use counters::{CounterId, Counters};
pub use fxhash::{FastMap, FastSet, FxHasher};
pub use outbox::Outbox;
pub use queue::EventQueue;
pub use rng::SimRng;
pub use stats::StatsReport;
