//! First-divergent-record comparison between two traces.
//!
//! Two same-seed runs of the deterministic simulator must produce
//! identical record streams; when they don't, the *first* divergent
//! record localizes the regression to a cycle and a component — far
//! more actionable than "final stats differ". Comparison resolves ids
//! through each trace's own name tables, so it is robust to the two
//! captures having interned names in different orders.

use crate::record::Record;
use crate::recorder::Trace;

/// A record with its component and kind ids resolved to names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolved {
    /// Simulated cycle of the record.
    pub cycle: u64,
    /// Resolved component name.
    pub comp: String,
    /// Resolved event-kind name.
    pub kind: String,
    /// The record's payload word.
    pub payload: u64,
}

impl Resolved {
    fn new(t: &Trace, r: &Record) -> Resolved {
        Resolved {
            cycle: r.cycle,
            comp: t.comp_name(r.comp).to_string(),
            kind: t.kind_name(r.kind).to_string(),
            payload: r.payload,
        }
    }
}

impl std::fmt::Display for Resolved {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cycle {} {} {} payload {:#x}",
            self.cycle, self.comp, self.kind, self.payload
        )
    }
}

/// How two traces first differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// Record `index` exists in both traces but differs.
    Record {
        /// Zero-based index into both record streams.
        index: u64,
        /// The record on the left side.
        left: Resolved,
        /// The record on the right side.
        right: Resolved,
    },
    /// One trace ends while the other still has records.
    Length {
        /// Record count of the left trace.
        left: u64,
        /// Record count of the right trace.
        right: u64,
        /// The first record present on only one side.
        extra: Resolved,
    },
    /// The traces dropped different numbers of records to their rings,
    /// so the streams are not comparable from the same starting point.
    Dropped {
        /// Drop count of the left trace.
        left: u64,
        /// Drop count of the right trace.
        right: u64,
    },
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::Record { index, left, right } => {
                write!(
                    f,
                    "record {index} differs:\n  left:  {left}\n  right: {right}"
                )
            }
            Divergence::Length { left, right, extra } => {
                write!(
                    f,
                    "record counts differ ({left} vs {right}); first unmatched: {extra}"
                )
            }
            Divergence::Dropped { left, right } => {
                write!(f, "ring drop counts differ ({left} vs {right})")
            }
        }
    }
}

/// Compares two traces record-by-record, returning the first
/// divergence, or `None` if the streams are identical.
///
/// Meta tables are *not* compared — they carry run descriptions and
/// wall-clock-adjacent digests, not simulated behavior.
pub fn diff(left: &Trace, right: &Trace) -> Option<Divergence> {
    if left.dropped != right.dropped {
        return Some(Divergence::Dropped {
            left: left.dropped,
            right: right.dropped,
        });
    }
    for (i, (l, r)) in left.records.iter().zip(&right.records).enumerate() {
        let lr = Resolved::new(left, l);
        let rr = Resolved::new(right, r);
        if lr != rr {
            return Some(Divergence::Record {
                index: i as u64,
                left: lr,
                right: rr,
            });
        }
    }
    if left.records.len() != right.records.len() {
        let (longer, rec) = if left.records.len() > right.records.len() {
            (left, &left.records[right.records.len()])
        } else {
            (right, &right.records[left.records.len()])
        };
        return Some(Divergence::Length {
            left: left.records.len() as u64,
            right: right.records.len() as u64,
            extra: Resolved::new(longer, rec),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn capture(names: &[(&str, &str, u64, u64)]) -> Trace {
        let mut rec = Recorder::new();
        for &(comp, kind, cycle, payload) in names {
            let c = rec.comp(comp);
            let k = rec.kind(kind);
            rec.record(cycle, c, k, payload);
        }
        rec.to_trace()
    }

    #[test]
    fn identical_streams_diff_clean() {
        let t = capture(&[("core0", "tick", 1, 0), ("vault2", "access", 3, 64)]);
        assert_eq!(diff(&t, &t), None);
    }

    #[test]
    fn interning_order_does_not_matter() {
        // Same events, but the right-hand capture interns vault2 first.
        let a = capture(&[("core0", "tick", 1, 0), ("vault2", "access", 3, 64)]);
        let mut rec = Recorder::new();
        let v = rec.comp("vault2");
        let acc = rec.kind("access");
        let c = rec.comp("core0");
        let t = rec.kind("tick");
        rec.record(1, c, t, 0);
        rec.record(3, v, acc, 64);
        assert_eq!(diff(&a, &rec.to_trace()), None);
    }

    #[test]
    fn first_divergent_record_is_reported() {
        let a = capture(&[("a", "x", 1, 0), ("a", "x", 2, 0), ("a", "x", 3, 0)]);
        let b = capture(&[("a", "x", 1, 0), ("a", "x", 2, 9), ("a", "x", 99, 0)]);
        match diff(&a, &b) {
            Some(Divergence::Record { index, left, right }) => {
                assert_eq!(index, 1);
                assert_eq!(left.payload, 0);
                assert_eq!(right.payload, 9);
            }
            other => panic!("expected record divergence, got {other:?}"),
        }
    }

    #[test]
    fn length_mismatch_reports_first_extra() {
        let a = capture(&[("a", "x", 1, 0)]);
        let b = capture(&[("a", "x", 1, 0), ("b", "y", 5, 7)]);
        match diff(&a, &b) {
            Some(Divergence::Length { left, right, extra }) => {
                assert_eq!((left, right), (1, 2));
                assert_eq!(extra.comp, "b");
                assert_eq!(extra.cycle, 5);
            }
            other => panic!("expected length divergence, got {other:?}"),
        }
    }

    #[test]
    fn drop_count_mismatch_detected() {
        let mut a = Recorder::with_capacity(2);
        let c = a.comp("a");
        let k = a.kind("x");
        for i in 0..5 {
            a.record(i, c, k, 0);
        }
        let b = capture(&[("a", "x", 3, 0), ("a", "x", 4, 0)]);
        assert_eq!(
            diff(&a.to_trace(), &b),
            Some(Divergence::Dropped { left: 3, right: 0 })
        );
    }
}
