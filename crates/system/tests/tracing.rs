//! End-to-end tests of event capture: attaching a tracer must observe
//! the run without perturbing it, identical runs must produce identical
//! traces, and the ring bound must hold at system level.

use pei_core::DispatchPolicy;
use pei_cpu::trace::{Op, VecPhases};
use pei_mem::BackingStore;
use pei_system::{MachineConfig, System};
use pei_trace::{diff, Recorder, Trace};
use pei_types::{Addr, OperandValue, PimOpKind};

/// A small workload exercising plain loads, stores, and PEIs so every
/// layer of the machine (caches, crossbar, HMC, PCUs, PMU) sees
/// traffic.
fn workload(store: &mut BackingStore) -> Vec<Op> {
    let blocks: Vec<Addr> = (0..16).map(|_| store.alloc_block()).collect();
    let mut ops = Vec::new();
    for (i, &b) in blocks.iter().enumerate() {
        ops.push(Op::load(b));
        ops.push(Op::pei(PimOpKind::IncU64, b, OperandValue::None));
        if i % 3 == 0 {
            ops.push(Op::store(b));
        }
        ops.push(Op::Compute(4));
    }
    ops
}

/// Runs the standard workload, optionally tracing into `rec`; returns
/// the run result and the detached recorder.
fn run(rec: Option<Recorder>) -> (pei_system::RunResult, Option<Recorder>) {
    let mut store = BackingStore::new();
    let ops = workload(&mut store);
    let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
    let mut sys = System::new(cfg, store);
    sys.add_workload(Box::new(VecPhases::single(ops)), vec![0]);
    if let Some(rec) = rec {
        sys.attach_tracer(rec);
    }
    let result = sys.run(10_000_000);
    let rec = sys.detach_tracer();
    (result, rec)
}

fn capture() -> Trace {
    let (_, rec) = run(Some(Recorder::new()));
    rec.expect("tracer attached").to_trace()
}

#[test]
fn capture_does_not_perturb_the_run() {
    let (traced, _) = run(Some(Recorder::new()));
    let (untraced, none) = run(None);
    assert!(none.is_none());
    assert_eq!(
        format!("{}", traced.stats),
        format!("{}", untraced.stats),
        "attaching a tracer must not change simulated behavior"
    );
}

#[test]
fn identical_runs_produce_identical_traces() {
    let a = capture();
    let b = capture();
    assert!(!a.records.is_empty(), "capture produced no records");
    assert_eq!(diff(&a, &b), None, "same-spec traces must be identical");

    // The capture covers every layer of the machine.
    for comp in [
        "core0", "cache0", "l3bank0", "ctrl", "pmu", "xbar", "system",
    ] {
        assert!(
            a.comps.iter().any(|c| c == comp),
            "component table missing {comp}: {:?}",
            a.comps
        );
    }
    for kind in [
        "core.tick",
        "priv.req",
        "l3.req",
        "vault.access",
        "pmu.request",
        "phase.start",
        "group.done",
        "xbar.msg",
    ] {
        let id = a
            .kinds
            .iter()
            .position(|k| k == kind)
            .unwrap_or_else(|| panic!("kind table missing {kind}: {:?}", a.kinds))
            as u16;
        assert!(
            a.records.iter().any(|r| r.kind.0 == id),
            "no records of kind {kind}"
        );
    }
    // Machine-shape metadata travels with the trace.
    assert_eq!(a.meta_get("machine.cores"), Some("4"));
    assert_eq!(a.dropped, 0);
}

#[test]
fn ring_capture_bounds_the_buffer() {
    let cap = 64;
    let (_, rec) = run(Some(Recorder::with_capacity(cap)));
    let t = rec.unwrap().to_trace();
    assert_eq!(t.records.len(), cap);
    assert!(t.dropped > 0, "this workload overflows a 64-record ring");
    // The ring keeps the newest records: the tail must include the final
    // group.done marker.
    let done = t.kinds.iter().position(|k| k == "group.done").unwrap() as u16;
    assert_eq!(t.records.last().unwrap().kind.0, done);
}

#[test]
fn multi_phase_runs_emit_warmup_and_steady_sections() {
    let mut store = BackingStore::new();
    let first = workload(&mut store);
    let second = workload(&mut store);
    let cfg = MachineConfig::scaled(DispatchPolicy::LocalityAware);
    let mut sys = System::new(cfg, store);
    // Two phases: the end of the first is auto-marked as warmup.
    sys.add_workload(
        Box::new(VecPhases::new(1, vec![vec![first], vec![second]])),
        vec![0],
    );
    let result = sys.run(10_000_000);

    let warmup = result.stats.phase_section("warmup");
    let steady = result.stats.phase_section("steady");
    assert!(!warmup.is_empty(), "warmup section missing");
    assert!(!steady.is_empty(), "steady section missing");
    // Phase intervals partition each counter's whole-run total.
    for (name, w) in warmup.iter() {
        let total = result
            .stats
            .get(name)
            .unwrap_or_else(|| panic!("phase key {name} has no matching total"));
        let s = steady.get(name).unwrap_or(0.0);
        assert_eq!(w + s, total, "{name}: warmup {w} + steady {s} != {total}");
    }
    // Both phases did real work.
    assert!(warmup.expect("core.instructions") > 0.0);
    assert!(steady.expect("core.instructions") > 0.0);
}
