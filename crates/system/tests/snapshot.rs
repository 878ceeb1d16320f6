//! End-to-end tests of machine snapshot/restore (DESIGN.md §11): a
//! restored run must be byte-identical to an uninterrupted one, with
//! and without checked mode; capture must be non-perturbing; a
//! snapshot cut before the first PEI must restore soundly across
//! dispatch policies within a monitor class; and malformed snapshot
//! bytes must produce offset-reporting errors, never panics.

use pei_core::DispatchPolicy;
use pei_cpu::trace::{Op, PhasedTrace, VecPhases};
use pei_mem::BackingStore;
use pei_system::{CheckConfig, MachineConfig, RunResult, Snapshot, System};
use pei_trace::{Record, Recorder, Trace, TraceSink};
use pei_types::snap::SnapError;
use pei_types::{Addr, OperandValue, PimOpKind};

const LIMIT: u64 = 50_000_000;

/// A mixed multi-phase workload (loads, stores, PEIs on several cores)
/// so a mid-run cut lands with traffic in flight at every layer.
fn workload(store: &mut BackingStore, threads: usize, blocks: usize) -> Box<dyn PhasedTrace> {
    let addrs: Vec<Addr> = (0..blocks).map(|_| store.alloc_block()).collect();
    let mut phase1 = vec![Vec::new(); threads];
    let mut phase2 = vec![Vec::new(); threads];
    for (i, &a) in addrs.iter().enumerate() {
        let t = i % threads;
        phase1[t].push(Op::load(a));
        phase1[t].push(Op::pei(PimOpKind::IncU64, a, OperandValue::None));
        phase2[t].push(Op::store(a));
        if i % 3 == 0 {
            phase2[t].push(Op::pei(PimOpKind::MinU64, a, OperandValue::U64(1)));
        }
    }
    Box::new(VecPhases::new(threads, vec![phase1, phase2]))
}

/// Builds the standard machine for `cfg` — every call with the same
/// config constructs an identical machine over an identical store.
fn build(cfg: MachineConfig, blocks: usize) -> System {
    let mut store = BackingStore::new();
    let trace = workload(&mut store, cfg.cores, blocks);
    let mut sys = System::new(cfg, store);
    sys.add_workload(trace, (0..cfg.cores).collect());
    sys
}

/// Everything a run can observably produce, as one comparable string.
fn fingerprint(r: &RunResult) -> String {
    format!(
        "{} {} {} {:?} {} {:?}\n{:?}",
        r.cycles, r.instructions, r.peis, r.offchip_flits, r.dram_accesses, r.outcome, r.stats
    )
}

#[test]
fn sequential_snapshot_restore_is_byte_identical() {
    let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
    let reference = build(cfg, 48).run(LIMIT);
    assert!(reference.ok());
    let cut = reference.cycles / 2;
    assert!(cut > 0);

    // Pause a second, identical machine mid-run and snapshot it.
    let mut paused = build(cfg, 48);
    let at = paused.run_paused(LIMIT, Some(cut)).expect_paused();
    assert_eq!(at, cut);
    let snap = paused.snapshot().expect("snapshot a paused machine");
    assert!(snap.cycle() >= cut, "resume point is at or after the cut");

    // Capture is non-perturbing: the paused machine, continued, matches
    // the uninterrupted reference.
    let continued = paused.run(LIMIT);
    assert_eq!(fingerprint(&continued), fingerprint(&reference));

    // And a fresh machine restored from the snapshot matches too.
    let mut restored = build(cfg, 48);
    restored
        .restore(&snap)
        .expect("restore onto a twin machine");
    let resumed = restored.run(LIMIT);
    assert_eq!(fingerprint(&resumed), fingerprint(&reference));
}

#[test]
fn snapshot_roundtrips_to_identical_bytes() {
    // restore(snapshot(M)) followed by snapshot() must reproduce the
    // exact bytes: the format captures all state it restores.
    let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAwareBalanced);
    let mut m = build(cfg, 32);
    m.run_paused(LIMIT, Some(1_500)).expect_paused();
    let snap = m.snapshot().expect("snapshot");
    let mut twin = build(cfg, 32);
    twin.restore(&snap).expect("restore");
    let again = twin.snapshot().expect("re-snapshot");
    assert_eq!(snap.as_bytes(), again.as_bytes());
}

#[test]
fn snapshot_metadata_roundtrips() {
    let cfg = MachineConfig::scaled(DispatchPolicy::HostOnly);
    let mut m = build(cfg, 8);
    let meta = [
        ("workload".to_string(), "mixed".to_string()),
        ("seed".to_string(), "42".to_string()),
    ];
    let snap = m.snapshot_with_meta(&meta).expect("snapshot");
    let parsed = Snapshot::from_bytes(snap.as_bytes()).expect("parse");
    assert_eq!(parsed.meta_get("workload"), Some("mixed"));
    assert_eq!(parsed.meta_get("seed"), Some("42"));
    assert_eq!(parsed.meta_get("missing"), None);
    assert_eq!(parsed.exact_fingerprint(), snap.exact_fingerprint());
}

#[test]
fn warm_fork_across_policies_matches_cold_runs() {
    // Cut one locality-aware machine just before its first PMU event —
    // before any dispatch decision is taken — then restore the snapshot
    // into both policies of the monitor class. Each restored run must
    // equal its cold twin.
    let warm_cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
    let mut traced = build(warm_cfg, 48);
    traced.attach_tracer(Box::new(Recorder::new()));
    traced.run(LIMIT);
    let trace = trace_of(traced.detach_tracer().expect("tracer"));
    let pmu = trace
        .comps
        .iter()
        .position(|c| c == "pmu")
        .expect("the PMU is interned");
    let first_pei = trace
        .records
        .iter()
        .find(|r| usize::from(r.comp.0) == pmu)
        .expect("the workload issues PEIs")
        .cycle;
    assert!(first_pei > 0);

    let mut warm = build(warm_cfg, 48);
    let at = warm.run_paused(LIMIT, Some(first_pei)).expect_paused();
    assert_eq!(at, first_pei);
    let snap = warm.snapshot().expect("snapshot the warmed machine");

    for policy in [
        DispatchPolicy::LocalityAware,
        DispatchPolicy::LocalityAwareBalanced,
    ] {
        let cfg = MachineConfig::scaled(policy);
        let cold = build(cfg, 48).run(LIMIT);
        assert!(cold.ok());
        let mut forked = build(cfg, 48);
        forked.restore(&snap).expect("same monitor class restores");
        let hot = forked.run(LIMIT);
        assert_eq!(
            fingerprint(&hot),
            fingerprint(&cold),
            "warm-forked {policy:?} run must equal its cold run"
        );
    }
}

#[test]
fn restore_rejects_a_different_monitor_class() {
    let mut la = build(MachineConfig::scaled(DispatchPolicy::LocalityAware), 8);
    let snap = la.snapshot().expect("snapshot");
    let mut host = build(MachineConfig::scaled(DispatchPolicy::HostOnly), 8);
    match host.restore(&snap) {
        Err(SnapError::Mismatch { what }) => {
            assert!(what.contains("monitor class"), "unexpected message: {what}")
        }
        other => panic!("expected a class mismatch, got {other:?}"),
    }
}

#[test]
fn restore_rejects_a_machine_that_already_ran() {
    let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
    let mut m = build(cfg, 8);
    let snap = m.snapshot().expect("snapshot");
    let mut used = build(cfg, 8);
    used.run(LIMIT);
    assert!(matches!(
        used.restore(&snap),
        Err(SnapError::Mismatch { .. })
    ));
}

#[test]
fn checked_runs_snapshot_and_restore_identically() {
    let check = CheckConfig {
        interval: 512,
        ..CheckConfig::default()
    };
    let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
    let mut ref_sys = build(cfg, 48);
    ref_sys.enable_checks(check);
    let reference = ref_sys.run(LIMIT);
    assert!(reference.ok());

    let mut paused = build(cfg, 48);
    paused.enable_checks(check);
    let cut = reference.cycles / 2;
    paused.run_paused(LIMIT, Some(cut)).expect_paused();
    let snap = paused.snapshot().expect("snapshot under checked mode");
    let mut restored = build(cfg, 48);
    restored.enable_checks(check);
    restored.restore(&snap).expect("restore under checked mode");
    assert_eq!(fingerprint(&restored.run(LIMIT)), fingerprint(&reference));
}

#[test]
fn restore_rejects_a_checked_mode_mismatch() {
    let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
    let mut m = build(cfg, 8);
    m.enable_checks(CheckConfig::default());
    let snap = m.snapshot().expect("snapshot");
    let mut unchecked = build(cfg, 8);
    match unchecked.restore(&snap) {
        Err(SnapError::Mismatch { what }) => {
            assert!(what.contains("checked mode"), "unexpected message: {what}")
        }
        other => panic!("expected a checked-mode mismatch, got {other:?}"),
    }
}

fn trace_of(sink: Box<dyn TraceSink>) -> Trace {
    let bytes = sink.to_petr().expect("recorder retains capture");
    Trace::from_bytes(&bytes).expect("own encoding parses")
}

fn records_of(sink: Box<dyn TraceSink>) -> Vec<Record> {
    trace_of(sink).records
}

#[test]
fn trace_parts_concatenate_to_the_uninterrupted_trace() {
    let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
    let mut ref_sys = build(cfg, 32);
    ref_sys.attach_tracer(Box::new(Recorder::new()));
    let reference = ref_sys.run(LIMIT);
    let full = records_of(ref_sys.detach_tracer().expect("tracer"));
    assert!(!full.is_empty());

    // Part 1: trace up to the pause. Part 2: trace the restored remainder.
    let mut paused = build(cfg, 32);
    paused.attach_tracer(Box::new(Recorder::new()));
    let cut = reference.cycles / 2;
    paused.run_paused(LIMIT, Some(cut)).expect_paused();
    let snap = paused.snapshot().expect("snapshot");
    let part1 = records_of(paused.detach_tracer().expect("tracer"));

    let mut restored = build(cfg, 32);
    restored.restore(&snap).expect("restore");
    restored.attach_tracer(Box::new(Recorder::new()));
    restored.run(LIMIT);
    let part2 = records_of(restored.detach_tracer().expect("tracer"));

    // Both machines intern identical component/kind tables (same shape),
    // so raw records concatenate meaningfully.
    let stitched: Vec<Record> = part1.iter().chain(part2.iter()).cloned().collect();
    assert_eq!(stitched.len(), full.len(), "record counts differ");
    for (i, (a, b)) in stitched.iter().zip(full.iter()).enumerate() {
        assert_eq!(a, b, "record {i} diverges");
    }
}

#[test]
fn truncated_and_corrupt_snapshots_error_instead_of_panicking() {
    let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
    let mut m = build(cfg, 16);
    m.run_paused(LIMIT, Some(1_000)).expect_paused();
    let snap = m.snapshot().expect("snapshot");
    let bytes = snap.as_bytes().to_vec();

    // Bad magic is rejected at the header.
    let mut bad = bytes.clone();
    bad[0] ^= 0xff;
    assert!(matches!(
        Snapshot::from_bytes(&bad),
        Err(SnapError::BadMagic)
    ));

    // Every truncation point either fails header parsing or fails
    // restore with an offset-reporting error — never a panic, and the
    // reported offset never exceeds the truncated length.
    for len in (0..bytes.len()).step_by(97).chain([bytes.len() - 1]) {
        let cut = &bytes[..len];
        match Snapshot::from_bytes(cut) {
            Err(SnapError::Truncated { offset }) => assert!(offset <= len),
            Err(_) => {}
            Ok(parsed) => {
                let mut target = build(cfg, 16);
                match target.restore(&parsed) {
                    Err(SnapError::Truncated { offset }) => assert!(offset <= len),
                    Err(_) => {}
                    Ok(()) => panic!("restore accepted a truncated snapshot ({len} bytes)"),
                }
            }
        }
    }
}

#[test]
fn cancellable_run_is_byte_identical_to_unsliced() {
    // Slicing the loop into run_paused windows changes where the
    // driver pauses, never the event order inside a window — the
    // foundation of pei-serve's byte-identity contract.
    let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
    let reference = build(cfg, 48).run(LIMIT);
    assert!(reference.ok());

    let never = std::sync::atomic::AtomicBool::new(false);
    let mut beats = Vec::new();
    let sliced = build(cfg, 48)
        .run_cancellable(LIMIT, 500, &never, |at| beats.push(at))
        .expect("flag never set");
    assert_eq!(fingerprint(&sliced), fingerprint(&reference));
    assert!(
        beats.len() as u64 >= reference.cycles / 500 - 1,
        "expected a heartbeat per slice, got {} over {} cycles",
        beats.len(),
        reference.cycles
    );
    assert!(beats.windows(2).all(|w| w[0] < w[1]), "heartbeats advance");
}

#[test]
fn cancelled_run_stops_and_leaves_the_machine_resumable() {
    let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAwareBalanced);
    let reference = build(cfg, 48).run(LIMIT);
    assert!(reference.ok());

    // A pre-set flag stops the run before any work.
    let set = std::sync::atomic::AtomicBool::new(true);
    let mut m = build(cfg, 48);
    assert!(m.run_cancellable(LIMIT, 500, &set, |_| ()).is_none());

    // A flag raised mid-run (from the progress hook, as the daemon's
    // cancel request effectively does) stops at the next slice edge —
    // and the abandoned machine is merely paused, not corrupted:
    // resuming it completes byte-identically.
    let cancel = std::sync::atomic::AtomicBool::new(false);
    let mut m = build(cfg, 48);
    let out = m.run_cancellable(LIMIT, 500, &cancel, |at| {
        if at >= 2_000 {
            cancel.store(true, std::sync::atomic::Ordering::Relaxed);
        }
    });
    assert!(out.is_none(), "cancel observed at a slice boundary");
    let resumed = m.run(LIMIT);
    assert_eq!(fingerprint(&resumed), fingerprint(&reference));
}
