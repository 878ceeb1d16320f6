//! Trace serialization: record a [`PhasedTrace`] to a compact binary
//! stream and replay it later (or elsewhere) with bit-identical results.
//!
//! Workload generation is deterministic given a seed, but recording makes
//! experiments portable across tool versions and lets expensive
//! generations (large graphs) be reused. The format is self-contained and
//! versioned; no external serialization crates are needed.
//!
//! # Format (version 1)
//!
//! ```text
//! magic "PEITRC01" | u32 threads | phases...
//! phase  := u8 0x01 | per thread: u32 op_count | ops...
//! end    := u8 0x00
//! op     := tag u8 | fields (little-endian)
//!   0 Compute(u32)        1 Load{u64 addr, u8 fence}
//!   2 Store{u64 addr}     3 Pei{u8 op, u64 target, u16 dep, operand}
//!   4 Pfence              5 Barrier
//! operand := 0 | 1 u64 | 2 f64 | 3 (u8 len, bytes)
//! ```

use crate::trace::{Op, PhasedTrace};
use pei_types::{Addr, OperandValue, PimOpKind};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"PEITRC01";

fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn read_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}
fn read_u16<R: Read>(r: &mut R) -> io::Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}
fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}
fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt trace: {what}"))
}

fn write_operand<W: Write>(w: &mut W, v: &OperandValue) -> io::Result<()> {
    match v {
        OperandValue::None => w.write_all(&[0]),
        OperandValue::U64(x) => {
            w.write_all(&[1])?;
            write_u64(w, *x)
        }
        OperandValue::F64(x) => {
            w.write_all(&[2])?;
            write_u64(w, x.to_bits())
        }
        OperandValue::Bytes(b) => {
            w.write_all(&[3, b.len() as u8])?;
            w.write_all(b)
        }
    }
}

fn read_operand<R: Read>(r: &mut R) -> io::Result<OperandValue> {
    Ok(match read_u8(r)? {
        0 => OperandValue::None,
        1 => OperandValue::U64(read_u64(r)?),
        2 => OperandValue::F64(f64::from_bits(read_u64(r)?)),
        3 => {
            let len = read_u8(r)? as usize;
            let mut buf = vec![0u8; len];
            r.read_exact(&mut buf)?;
            OperandValue::from_bytes(&buf)
        }
        t => return Err(corrupt(&format!("operand tag {t}"))),
    })
}

fn write_op<W: Write>(w: &mut W, op: &Op) -> io::Result<()> {
    match op {
        Op::Compute(n) => {
            w.write_all(&[0])?;
            write_u32(w, *n)
        }
        Op::Load { addr, fence_prior } => {
            w.write_all(&[1])?;
            write_u64(w, addr.0)?;
            w.write_all(&[u8::from(*fence_prior)])
        }
        Op::Store { addr } => {
            w.write_all(&[2])?;
            write_u64(w, addr.0)
        }
        Op::Pei {
            op,
            target,
            input,
            dep_dist,
        } => {
            w.write_all(&[3, op.opcode()])?;
            write_u64(w, target.0)?;
            w.write_all(&dep_dist.to_le_bytes())?;
            write_operand(w, input)
        }
        Op::Pfence => w.write_all(&[4]),
        Op::Barrier => w.write_all(&[5]),
    }
}

fn read_op<R: Read>(r: &mut R) -> io::Result<Op> {
    Ok(match read_u8(r)? {
        0 => Op::Compute(read_u32(r)?),
        1 => Op::Load {
            addr: Addr(read_u64(r)?),
            fence_prior: read_u8(r)? != 0,
        },
        2 => Op::Store {
            addr: Addr(read_u64(r)?),
        },
        3 => {
            let opcode = read_u8(r)? as usize;
            let op = *PimOpKind::ALL
                .get(opcode)
                .ok_or_else(|| corrupt(&format!("opcode {opcode}")))?;
            let target = Addr(read_u64(r)?);
            let dep_dist = read_u16(r)?;
            let input = read_operand(r)?;
            Op::Pei {
                op,
                target,
                input,
                dep_dist,
            }
        }
        4 => Op::Pfence,
        5 => Op::Barrier,
        t => return Err(corrupt(&format!("op tag {t}"))),
    })
}

/// A fully materialized trace, replayable as a [`PhasedTrace`] and
/// serializable to/from a binary stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedTrace {
    threads: usize,
    phases: std::collections::VecDeque<Vec<Vec<Op>>>,
    name: String,
}

impl RecordedTrace {
    /// Drains `source`, materializing every phase.
    pub fn record(source: &mut dyn PhasedTrace) -> Self {
        let mut phases = std::collections::VecDeque::new();
        while let Some(p) = source.next_phase() {
            phases.push_back(p);
        }
        RecordedTrace {
            threads: source.threads(),
            phases,
            name: format!("recorded-{}", source.name()),
        }
    }

    /// Serializes the trace.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn save<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        write_u32(w, self.threads as u32)?;
        for phase in &self.phases {
            w.write_all(&[1])?;
            for ops in phase {
                write_u32(w, ops.len() as u32)?;
                for op in ops {
                    write_op(w, op)?;
                }
            }
        }
        w.write_all(&[0])
    }

    /// Deserializes a trace previously written by [`save`](Self::save).
    ///
    /// # Errors
    ///
    /// Fails with `InvalidData` on a bad magic/structure, or propagates
    /// I/O errors from `r`.
    pub fn load<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let threads = read_u32(r)? as usize;
        let mut phases = std::collections::VecDeque::new();
        loop {
            match read_u8(r)? {
                0 => break,
                1 => {
                    let mut phase = Vec::with_capacity(threads);
                    for _ in 0..threads {
                        let n = read_u32(r)? as usize;
                        let mut ops = Vec::with_capacity(n);
                        for _ in 0..n {
                            ops.push(read_op(r)?);
                        }
                        phase.push(ops);
                    }
                    phases.push_back(phase);
                }
                t => return Err(corrupt(&format!("phase tag {t}"))),
            }
        }
        Ok(RecordedTrace {
            threads,
            phases,
            name: "recorded".into(),
        })
    }

    /// Number of recorded phases remaining.
    pub fn phases_left(&self) -> usize {
        self.phases.len()
    }

    /// Total operations across all remaining phases.
    pub fn total_ops(&self) -> usize {
        self.phases.iter().flatten().map(Vec::len).sum()
    }
}

impl PhasedTrace for RecordedTrace {
    fn threads(&self) -> usize {
        self.threads
    }

    fn next_phase(&mut self) -> Option<Vec<Vec<Op>>> {
        self.phases.pop_front()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::VecPhases;

    fn sample_ops() -> Vec<Op> {
        vec![
            Op::Compute(7),
            Op::load(Addr(0x40)),
            Op::Load {
                addr: Addr(0x80),
                fence_prior: true,
            },
            Op::store(Addr(0xc0)),
            Op::Pei {
                op: PimOpKind::MinU64,
                target: Addr(0x100),
                input: OperandValue::U64(99),
                dep_dist: 2,
            },
            Op::Pei {
                op: PimOpKind::EuclideanDist,
                target: Addr(0x140),
                input: OperandValue::from_bytes(&[7u8; 64]),
                dep_dist: 0,
            },
            Op::Pfence,
            Op::Barrier,
        ]
    }

    #[test]
    fn round_trip_preserves_everything() {
        let mut src = VecPhases::new(
            2,
            vec![
                vec![sample_ops(), vec![Op::Compute(1)]],
                vec![vec![Op::Pfence], sample_ops()],
            ],
        );
        let rec = RecordedTrace::record(&mut src);
        let mut buf = Vec::new();
        rec.save(&mut buf).unwrap();
        let loaded = RecordedTrace::load(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.threads(), 2);
        assert_eq!(loaded.phases_left(), 2);
        assert_eq!(loaded.total_ops(), rec.total_ops());
        // Replay both and compare phase by phase.
        let mut a = rec;
        let mut b = loaded;
        loop {
            match (a.next_phase(), b.next_phase()) {
                (None, None) => break,
                (x, y) => assert_eq!(x, y),
            }
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOTATRCE\0\0\0\0".to_vec();
        assert!(RecordedTrace::load(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_stream_rejected() {
        let mut src = VecPhases::single(sample_ops());
        let rec = RecordedTrace::record(&mut src);
        let mut buf = Vec::new();
        rec.save(&mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(RecordedTrace::load(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut src = VecPhases::new(3, vec![]);
        let rec = RecordedTrace::record(&mut src);
        let mut buf = Vec::new();
        rec.save(&mut buf).unwrap();
        let loaded = RecordedTrace::load(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.threads(), 3);
        assert_eq!(loaded.phases_left(), 0);
    }
}
