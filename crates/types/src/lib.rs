//! Shared architectural vocabulary for the PEI simulator.
//!
//! This crate defines the primitive types every other crate in the workspace
//! speaks: physical addresses and cache-block addresses, component
//! identifiers, memory-request descriptors, HMC packet kinds and their flit
//! costs, and the small operand values carried by PIM-enabled instructions.
//!
//! Keeping these in a leaf crate lets the cache hierarchy (`pei-mem`),
//! the HMC model (`pei-hmc`), the core model (`pei-cpu`) and the PEI
//! architecture (`pei-core`) stay decoupled from each other while still
//! agreeing on the transaction vocabulary, exactly the way the packetized
//! HMC interface of the paper decouples host and memory.
//!
//! # Examples
//!
//! ```
//! use pei_types::{Addr, BlockAddr, BLOCK_BYTES};
//!
//! let a = Addr(0x1234);
//! let b = a.block();
//! assert_eq!(b.base().0, 0x1200);
//! assert_eq!(BLOCK_BYTES, 64);
//! assert!(b.contains(a));
//! ```
//!
//! This crate's place in the workspace is mapped in DESIGN.md §5.

pub mod ids;
pub mod json;
pub mod mem;
pub mod operand;
pub mod packet;
pub mod pim;
pub mod wire;

pub use ids::{BankId, CoreId, CubeId, L3BankId, VaultId};
pub use mem::{AccessKind, MemReq, ReqId};
pub use operand::OperandValue;
pub use packet::{FlitCount, PacketKind, FLIT_BYTES};
pub use pim::{PimCmd, PimOpKind, PimOut};

/// Size of one last-level cache block in bytes.
///
/// The paper's *single-cache-block restriction* (§3.1) bounds every PIM
/// operation to exactly one such block, which is why this constant shows up
/// in every layer of the stack.
pub const BLOCK_BYTES: usize = 64;

/// log2 of [`BLOCK_BYTES`].
pub const BLOCK_SHIFT: u32 = 6;

/// A cycle count in the host clock domain (4 GHz in the paper configuration).
///
/// All event timestamps in the simulator are expressed in host cycles; the
/// 2 GHz memory-side domain schedules events at even host-cycle boundaries.
pub type Cycle = u64;

/// A byte-granular physical address in the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Returns the cache-block address containing this byte address.
    ///
    /// ```
    /// use pei_types::Addr;
    /// assert_eq!(Addr(127).block().0, 1);
    /// ```
    #[inline]
    pub fn block(self) -> BlockAddr {
        BlockAddr(self.0 >> BLOCK_SHIFT)
    }

    /// Byte offset of this address within its cache block.
    #[inline]
    pub fn block_offset(self) -> usize {
        (self.0 & (BLOCK_BYTES as u64 - 1)) as usize
    }

    /// Returns the address advanced by `bytes`.
    #[inline]
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

/// A cache-block-granular address (byte address shifted right by
/// [`BLOCK_SHIFT`]).
///
/// The single-cache-block restriction makes this the unit of PIM-operation
/// targeting, coherence management, and locality monitoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// First byte address of the block.
    #[inline]
    pub fn base(self) -> Addr {
        Addr(self.0 << BLOCK_SHIFT)
    }

    /// Whether the byte address `a` falls inside this block.
    #[inline]
    pub fn contains(self, a: Addr) -> bool {
        a.block() == self
    }

    /// Folds the block address down to `bits` bits by XOR-ing successive
    /// `bits`-wide slices together.
    ///
    /// This is the "XOR-folded address" used by both the PIM directory index
    /// and the locality monitor's partial tags (§4.3). Folding keeps rare
    /// false positives (two blocks mapping to one entry) while never
    /// producing false negatives for equal blocks.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 63.
    #[inline]
    pub fn xor_fold(self, bits: u32) -> u64 {
        assert!(bits > 0 && bits < 64, "fold width must be in 1..=63");
        let mask = (1u64 << bits) - 1;
        let mut v = self.0;
        let mut acc = 0u64;
        while v != 0 {
            acc ^= v & mask;
            v >>= bits;
        }
        acc
    }
}

impl std::fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blk:{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_math_round_trips() {
        let a = Addr(0xdead_beef);
        let b = a.block();
        assert!(b.contains(a));
        assert_eq!(b.base().0 % BLOCK_BYTES as u64, 0);
        assert!(b.base().0 <= a.0);
        assert!(a.0 < b.base().0 + BLOCK_BYTES as u64);
    }

    #[test]
    fn block_offset_within_range() {
        for raw in [0u64, 1, 63, 64, 65, 4095, 0xffff_ffff] {
            let off = Addr(raw).block_offset();
            assert!(off < BLOCK_BYTES);
            assert_eq!(off as u64, raw % BLOCK_BYTES as u64);
        }
    }

    #[test]
    fn xor_fold_stays_in_range_and_is_deterministic() {
        for bits in [1u32, 8, 10, 11, 16, 33] {
            for raw in [0u64, 1, 0xffff_ffff_ffff, u64::MAX >> BLOCK_SHIFT] {
                let f1 = BlockAddr(raw).xor_fold(bits);
                let f2 = BlockAddr(raw).xor_fold(bits);
                assert_eq!(f1, f2);
                assert!(f1 < (1u64 << bits));
            }
        }
    }

    #[test]
    fn xor_fold_of_small_value_is_identity() {
        assert_eq!(BlockAddr(0x3ff).xor_fold(10), 0x3ff);
        assert_eq!(BlockAddr(0x7).xor_fold(10), 0x7);
    }

    #[test]
    #[should_panic(expected = "fold width")]
    fn xor_fold_rejects_zero_width() {
        BlockAddr(1).xor_fold(0);
    }

    #[test]
    fn addr_display_is_hex() {
        assert_eq!(Addr(255).to_string(), "0xff");
        assert_eq!(BlockAddr(2).to_string(), "blk:0x2");
    }

    #[test]
    fn addr_offset_advances() {
        assert_eq!(Addr(10).offset(54).block(), BlockAddr(1));
    }
}
