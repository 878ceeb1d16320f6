//! The PIM operation set of Table 1 — the architectural vocabulary of
//! PIM-enabled instructions.
//!
//! This module defines *what* the operations are (opcode, reader/writer
//! class, operand sizes); their execution semantics (`apply`) live in
//! `pei-core`, which has access to the functional backing store.

use crate::{Addr, BlockAddr, OperandValue, ReqId};

/// The seven PIM operations of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PimOpKind {
    /// 8-byte integer increment (ATF). Reader + writer; 0 B in / 0 B out.
    IncU64,
    /// 8-byte integer min (BFS, SP, WCC). Reader + writer; 8 B in / 0 B out.
    MinU64,
    /// Double-precision floating-point add (PR). Reader + writer;
    /// 8 B in / 0 B out.
    AddF64,
    /// Hash-table bucket probe (HJ). Reader only; 8 B key in / 9 B out
    /// (1 B match flag + 8 B next-bucket pointer).
    HashProbe,
    /// Histogram bin index of sixteen 4-byte words (HG, RP). Reader only;
    /// 1 B shift amount in / 16 B bin indexes out.
    HistBin,
    /// Euclidean distance between a 16-dimensional f32 vector in memory
    /// and one passed as operand (SC). Reader only; 64 B in / 4 B out.
    EuclideanDist,
    /// Dot product of two 4-dimensional f64 vectors (SVM). Reader only;
    /// 32 B in / 8 B out.
    DotProduct,
}

impl PimOpKind {
    /// All operations, in Table 1 order.
    pub const ALL: [PimOpKind; 7] = [
        PimOpKind::IncU64,
        PimOpKind::MinU64,
        PimOpKind::AddF64,
        PimOpKind::HashProbe,
        PimOpKind::HistBin,
        PimOpKind::EuclideanDist,
        PimOpKind::DotProduct,
    ];

    /// Whether the operation modifies its target cache block (the 'W'
    /// column of Table 1). Writer PEIs take the PIM directory's writer
    /// lock and require back-invalidation when offloaded.
    pub fn is_writer(self) -> bool {
        matches!(
            self,
            PimOpKind::IncU64 | PimOpKind::MinU64 | PimOpKind::AddF64
        )
    }

    /// Input operand size in bytes (Table 1).
    pub fn input_bytes(self) -> usize {
        match self {
            PimOpKind::IncU64 => 0,
            PimOpKind::MinU64 | PimOpKind::AddF64 | PimOpKind::HashProbe => 8,
            PimOpKind::HistBin => 1,
            PimOpKind::EuclideanDist => 64,
            PimOpKind::DotProduct => 32,
        }
    }

    /// Output operand size in bytes (Table 1).
    pub fn output_bytes(self) -> usize {
        match self {
            PimOpKind::IncU64 | PimOpKind::MinU64 | PimOpKind::AddF64 => 0,
            PimOpKind::HashProbe => 9,
            PimOpKind::HistBin => 16,
            PimOpKind::EuclideanDist => 4,
            PimOpKind::DotProduct => 8,
        }
    }

    /// Short mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            PimOpKind::IncU64 => "pim.inc8",
            PimOpKind::MinU64 => "pim.min8",
            PimOpKind::AddF64 => "pim.fadd",
            PimOpKind::HashProbe => "pim.hprobe",
            PimOpKind::HistBin => "pim.histbin",
            PimOpKind::EuclideanDist => "pim.eudist",
            PimOpKind::DotProduct => "pim.dot",
        }
    }
}

impl std::fmt::Display for PimOpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A PIM operation command as it travels from the PMU to a memory-side
/// PCU (the packetized form of §4.5, step 5).
#[derive(Debug, Clone, PartialEq)]
pub struct PimCmd {
    /// Transaction id (assigned by the PMU).
    pub id: ReqId,
    /// Target byte address. The single-cache-block restriction applies to
    /// its block; the in-block offset selects the word the operation acts
    /// on (as in the HMC 2.0 in-memory atomics).
    pub target: Addr,
    /// Which operation to perform.
    pub op: PimOpKind,
    /// Input operands.
    pub input: OperandValue,
}

impl PimOpKind {
    /// Table-1 position, used as the opcode in serialized forms.
    pub fn opcode(self) -> u8 {
        Self::ALL
            .iter()
            .position(|k| *k == self)
            .expect("op in ALL") as u8
    }
}

impl PimCmd {
    /// The cache block this command is restricted to.
    pub fn block(&self) -> BlockAddr {
        self.target.block()
    }
}

/// Completion of a [`PimCmd`], carrying output operands back to the host.
#[derive(Debug, Clone, PartialEq)]
pub struct PimOut {
    /// Echo of the command id.
    pub id: ReqId,
    /// The block operated on.
    pub block: BlockAddr,
    /// Output operands (possibly [`OperandValue::None`]).
    pub output: OperandValue,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reader_writer_flags() {
        use PimOpKind::*;
        assert!(IncU64.is_writer());
        assert!(MinU64.is_writer());
        assert!(AddF64.is_writer());
        assert!(!HashProbe.is_writer());
        assert!(!HistBin.is_writer());
        assert!(!EuclideanDist.is_writer());
        assert!(!DotProduct.is_writer());
    }

    #[test]
    fn table1_operand_sizes() {
        use PimOpKind::*;
        assert_eq!((IncU64.input_bytes(), IncU64.output_bytes()), (0, 0));
        assert_eq!((MinU64.input_bytes(), MinU64.output_bytes()), (8, 0));
        assert_eq!((AddF64.input_bytes(), AddF64.output_bytes()), (8, 0));
        assert_eq!((HashProbe.input_bytes(), HashProbe.output_bytes()), (8, 9));
        assert_eq!((HistBin.input_bytes(), HistBin.output_bytes()), (1, 16));
        assert_eq!(
            (EuclideanDist.input_bytes(), EuclideanDist.output_bytes()),
            (64, 4)
        );
        assert_eq!(
            (DotProduct.input_bytes(), DotProduct.output_bytes()),
            (32, 8)
        );
    }

    #[test]
    fn operands_fit_single_cache_block() {
        // §3.1: the operand-size restriction.
        for op in PimOpKind::ALL {
            assert!(op.input_bytes() <= crate::BLOCK_BYTES);
            assert!(op.output_bytes() <= crate::BLOCK_BYTES);
        }
    }

    #[test]
    fn mnemonics_unique() {
        let mut names: Vec<_> = PimOpKind::ALL.iter().map(|o| o.mnemonic()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PimOpKind::ALL.len());
    }
}
