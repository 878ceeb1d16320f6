//! Message vocabulary of the on-chip coherence protocol.
//!
//! The protocol is a directory MESI with the L3 as the ordering point:
//! private caches send [`L3Req`]s, the L3 answers with [`L3Resp`] grants and
//! may interpose [`Recall`]s (invalidations or downgrades) to other private
//! caches. The PMU uses [`PimFlush`] to implement the paper's
//! back-invalidation / back-writeback before offloading a PEI to memory
//! (§4.3, "Cache Coherence Management").

use pei_types::{Addr, BlockAddr, CoreId, ReqId};

/// Request kinds a private cache can send to the L3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum L3ReqKind {
    /// Read with shared permission.
    GetS,
    /// Read with exclusive (write) permission.
    GetM,
    /// Clean-victim notice: remove requester from the sharer set.
    PutS,
    /// Dirty-victim writeback: remove requester, mark the L3 copy dirty.
    PutM,
}

impl L3ReqKind {
    /// Whether this request expects a response.
    pub fn expects_response(self) -> bool {
        matches!(self, L3ReqKind::GetS | L3ReqKind::GetM)
    }
}

/// A request from a private cache to an L3 bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L3Req {
    /// Transaction id, unique per requesting core.
    pub id: ReqId,
    /// The requesting core.
    pub core: CoreId,
    /// Target block.
    pub block: BlockAddr,
    /// What is being asked.
    pub kind: L3ReqKind,
}

/// Permission granted by an [`L3Resp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grant {
    /// Read-only copy; other sharers may exist.
    Shared,
    /// Sole clean copy; silently upgradable to Modified.
    Exclusive,
    /// Writable copy.
    Modified,
}

/// The L3's answer to a `GetS`/`GetM`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L3Resp {
    /// Echo of the request id.
    pub id: ReqId,
    /// The core being answered.
    pub core: CoreId,
    /// The block granted.
    pub block: BlockAddr,
    /// Permission level granted.
    pub grant: Grant,
}

/// What a [`Recall`] asks the private cache to do with its copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecallOp {
    /// Drop the copy entirely (used before exclusive grants, inclusive-L3
    /// evictions, and back-invalidation for writer PEIs).
    Invalidate,
    /// Keep a Shared copy but surrender exclusivity/dirtiness (used before
    /// shared grants and back-writeback for reader PEIs).
    Downgrade,
}

/// An L3-initiated coherence action against one private cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recall {
    /// The private cache being recalled.
    pub core: CoreId,
    /// The block concerned.
    pub block: BlockAddr,
    /// Invalidate or downgrade.
    pub op: RecallOp,
}

/// The private cache's answer to a [`Recall`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecallAck {
    /// The acknowledging core.
    pub core: CoreId,
    /// The block concerned.
    pub block: BlockAddr,
    /// Whether the surrendered copy was dirty (its data logically flows to
    /// the L3 / memory with this ack).
    pub dirty: bool,
    /// Whether the core actually still held the block (false if a victim
    /// eviction raced with the recall).
    pub was_present: bool,
}

/// A request from a core (or its host-side PCU) to its private cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreReq {
    /// Transaction id, unique per core.
    pub id: ReqId,
    /// Byte address accessed (the cache operates on its block).
    pub addr: Addr,
    /// Whether the access needs write permission.
    pub write: bool,
}

/// The PMU's cache-management request before offloading a PEI to memory:
/// back-invalidation (writer PEIs) or back-writeback (reader PEIs) of the
/// single target block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PimFlush {
    /// Transaction id, unique per PMU.
    pub id: ReqId,
    /// The PEI's target block.
    pub block: BlockAddr,
    /// `true` = back-invalidate (drop all copies, flush dirty data);
    /// `false` = back-writeback (flush dirty data, clean copies may stay).
    pub invalidate: bool,
}

/// Completion notice for a [`PimFlush`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PimFlushDone {
    /// Echo of the flush id.
    pub id: ReqId,
    /// The block flushed.
    pub block: BlockAddr,
}

/// A block fetch or writeback crossing the L3 ↔ main-memory boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFetch {
    /// Transaction id, unique per L3 bank.
    pub id: ReqId,
    /// The block to fetch or write back.
    pub block: BlockAddr,
    /// `true` for a writeback (no response expected).
    pub write: bool,
}

/// Response to a (read) [`MemFetch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFetchDone {
    /// Echo of the fetch id.
    pub id: ReqId,
    /// The block fetched.
    pub block: BlockAddr,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_gets_expect_responses() {
        assert!(L3ReqKind::GetS.expects_response());
        assert!(L3ReqKind::GetM.expects_response());
        assert!(!L3ReqKind::PutS.expects_response());
        assert!(!L3ReqKind::PutM.expects_response());
    }
}
