//! Input/output operand values carried by PIM-enabled instructions.
//!
//! Table 1 of the paper bounds operands to at most one cache block (64 B);
//! the common cases are tiny (0 or 8 bytes), so the representation is an
//! enum that avoids heap allocation for everything except the two
//! vector-operand operations (Euclidean distance and, for outputs,
//! histogram bin indexes).

use crate::BLOCK_BYTES;

/// A PEI input or output operand.
///
/// # Examples
///
/// ```
/// use pei_types::OperandValue;
///
/// assert_eq!(OperandValue::None.byte_len(), 0);
/// assert_eq!(OperandValue::U64(3).byte_len(), 8);
/// assert_eq!(OperandValue::F64(1.5).as_f64(), Some(1.5));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub enum OperandValue {
    /// No operand (e.g. the input of the 8-byte increment operation).
    #[default]
    None,
    /// An 8-byte integer operand (min operand, hash key, ...).
    U64(u64),
    /// An 8-byte floating-point operand (PageRank delta).
    F64(f64),
    /// An arbitrary byte-string operand up to one cache block (vector
    /// operands for Euclidean distance / dot product, histogram outputs).
    Bytes(Box<[u8]>),
}

impl OperandValue {
    /// Creates a byte-string operand.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than one cache block, which the paper's
    /// operand-size restriction (§3.1) forbids.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert!(
            bytes.len() <= BLOCK_BYTES,
            "operand exceeds single-cache-block restriction ({} > {})",
            bytes.len(),
            BLOCK_BYTES
        );
        OperandValue::Bytes(bytes.into())
    }

    /// Size of the operand in bytes as it would travel over the off-chip
    /// link; used for flit accounting.
    pub fn byte_len(&self) -> usize {
        match self {
            OperandValue::None => 0,
            OperandValue::U64(_) | OperandValue::F64(_) => 8,
            OperandValue::Bytes(b) => b.len(),
        }
    }

    /// The operand as an integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            OperandValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The operand as a float, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            OperandValue::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The operand as raw bytes, if it is a byte string.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            OperandValue::Bytes(b) => Some(b),
            _ => None,
        }
    }
}

impl From<u64> for OperandValue {
    fn from(v: u64) -> Self {
        OperandValue::U64(v)
    }
}

impl From<f64> for OperandValue {
    fn from(v: f64) -> Self {
        OperandValue::F64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_lengths_match_table1() {
        // Table 1: increment 0 B, min 8 B, fp add 8 B, probe 8 B in,
        // histogram 1 B in / 16 B out, distance 64 B in / 4 B out,
        // dot product 32 B in / 8 B out.
        assert_eq!(OperandValue::None.byte_len(), 0);
        assert_eq!(OperandValue::U64(1).byte_len(), 8);
        assert_eq!(OperandValue::F64(0.5).byte_len(), 8);
        assert_eq!(OperandValue::from_bytes(&[0u8; 16]).byte_len(), 16);
        assert_eq!(OperandValue::from_bytes(&[0u8; 64]).byte_len(), 64);
    }

    #[test]
    #[should_panic(expected = "single-cache-block")]
    fn oversized_operand_rejected() {
        let _ = OperandValue::from_bytes(&[0u8; 65]);
    }

    #[test]
    fn accessors_are_exclusive() {
        let v = OperandValue::U64(9);
        assert_eq!(v.as_u64(), Some(9));
        assert_eq!(v.as_f64(), None);
        assert_eq!(v.as_bytes(), None);
        let b = OperandValue::from_bytes(&[1, 2, 3]);
        assert_eq!(b.as_bytes(), Some(&[1u8, 2, 3][..]));
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(OperandValue::from(7u64), OperandValue::U64(7));
        assert_eq!(OperandValue::from(2.0f64), OperandValue::F64(2.0));
        assert_eq!(OperandValue::default(), OperandValue::None);
    }
}
