//! Property-based tests of the trace format: arbitrary captures
//! (including ring wraparound and interned-table growth) must survive a
//! `.petr` encode/decode round trip byte-for-byte, and the diff must be
//! reflexively clean.

use pei_trace::{diff, Divergence, Recorder, Trace};
use proptest::prelude::*;

/// Builds a capture from generated raw material: `events` drive both
/// interning (names derived from small indices, so tables grow and
/// repeat) and recording; `ring` optionally bounds the buffer.
fn capture(events: &[(u64, u8, u8, u64)], ring: Option<usize>, meta: &[(String, String)]) -> Trace {
    let mut rec = match ring {
        Some(cap) => Recorder::with_capacity(cap),
        None => Recorder::new(),
    };
    for (k, v) in meta {
        rec.meta(k, v);
    }
    for &(cycle, comp, kind, payload) in events {
        let c = rec.comp(&format!("comp{}", comp % 13));
        let k = rec.kind(&format!("kind.{}", kind % 7));
        rec.record(cycle, c, k, payload);
    }
    rec.to_trace()
}

proptest! {
    /// Any capture — unbounded or ring-wrapped — round-trips through
    /// the binary format exactly, and re-encoding is byte-stable.
    #[test]
    fn petr_roundtrip(
        events in proptest::collection::vec(
            (any::<u64>(), any::<u8>(), any::<u8>(), any::<u64>()),
            0..200,
        ),
        ring in prop_oneof![
            Just(None),
            (1usize..50).prop_map(Some),
        ],
        metas in proptest::collection::vec((0u8..5, 0u64..1000), 0..8),
    ) {
        let meta: Vec<(String, String)> = metas
            .iter()
            .map(|&(k, v)| (format!("key{k}"), format!("value {v}\nline2")))
            .collect();
        let t = capture(&events, ring, &meta);
        if let Some(cap) = ring {
            prop_assert!(t.records.len() <= cap);
            prop_assert_eq!(
                t.dropped as usize,
                events.len().saturating_sub(cap),
            );
        } else {
            prop_assert_eq!(t.records.len(), events.len());
            prop_assert_eq!(t.dropped, 0);
        }
        let bytes = t.to_bytes();
        let back = Trace::from_bytes(&bytes).expect("decode of own encoding");
        prop_assert_eq!(&back, &t);
        prop_assert_eq!(back.to_bytes(), bytes, "re-encode not byte-stable");
    }

    /// Ring captures keep exactly the newest `cap` records, in order.
    #[test]
    fn ring_keeps_newest(
        n in 0usize..300,
        cap in 1usize..40,
    ) {
        let events: Vec<(u64, u8, u8, u64)> =
            (0..n as u64).map(|i| (i, (i % 3) as u8, 0, i * 10)).collect();
        let t = capture(&events, Some(cap), &[]);
        let expect: Vec<u64> = (n.saturating_sub(cap) as u64..n as u64).collect();
        let got: Vec<u64> = t.records.iter().map(|r| r.cycle).collect();
        prop_assert_eq!(got, expect);
    }

    /// diff() is reflexive on any capture, and detects a single flipped
    /// payload at exactly the right index.
    #[test]
    fn diff_localizes_mutation(
        events in proptest::collection::vec(
            (0u64..1_000, 0u8..4, 0u8..4, 0u64..100),
            1..100,
        ),
        victim_seed in any::<u64>(),
    ) {
        let t = capture(&events, None, &[]);
        prop_assert_eq!(diff(&t, &t), None);

        let victim = (victim_seed % events.len() as u64) as usize;
        let mut mutated = t.clone();
        mutated.records[victim].payload ^= 0x8000_0000_0000_0000;
        match diff(&t, &mutated) {
            Some(Divergence::Record { index, left, right }) => {
                prop_assert_eq!(index as usize, victim);
                prop_assert_ne!(left.payload, right.payload);
            }
            other => prop_assert!(false, "expected record divergence, got {:?}", other),
        }
    }

    /// Truncating an encoded trace anywhere inside the structure never
    /// panics and never yields a successful parse claiming full length.
    #[test]
    fn truncation_is_detected(
        events in proptest::collection::vec(
            (any::<u64>(), any::<u8>(), any::<u8>(), any::<u64>()),
            1..50,
        ),
        frac in 0u64..1000,
    ) {
        let t = capture(&events, None, &[("k".into(), "v".into())]);
        let bytes = t.to_bytes();
        let cut = (frac as usize * (bytes.len() - 1)) / 1000;
        if let Ok(parsed) = Trace::from_bytes(&bytes[..cut]) {
            prop_assert!(
                false,
                "truncated parse succeeded with {} records",
                parsed.records.len()
            );
        }
    }
}
