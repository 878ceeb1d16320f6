//! Fault-injection validation of checked mode (DESIGN.md §9).
//!
//! Each test injects one deterministic fault from a seeded
//! [`FaultPlan`] into a real workload run and asserts that the checker
//! guarding that invariant actually fires — naming the culprit
//! component — or, for forward-progress faults, that the watchdog
//! reports the stall instead of panicking. The delay fault is the
//! negative control: it perturbs timing without breaking any
//! invariant, so a checked run must still complete.

use pei_bench::runner::{run_specs, RunSpec};
use pei_bench::ExpOptions;
use pei_core::DispatchPolicy;
use pei_system::{CheckConfig, FailureReport, FaultKind, FaultPlan, RunOutcome, RunResult};
use pei_workloads::{InputSize, Workload};

/// One small real-workload cell: enough traffic to exercise every
/// component, small enough to run in well under a second.
fn tiny_spec(policy: DispatchPolicy) -> RunSpec {
    let opts = ExpOptions {
        seed: 7,
        ..ExpOptions::default()
    };
    let mut params = opts.workload_params();
    params.pei_budget = 2_000;
    RunSpec::sized(
        opts.machine(policy),
        params,
        Workload::Atf,
        InputSize::Small,
    )
}

/// Aggressive sweep settings so faults surface within a short run: the
/// auditors sweep every 256 cycles and an MSHR entry is a leak after
/// 5 000 cycles outstanding.
fn tight_checks() -> CheckConfig {
    CheckConfig {
        interval: 256,
        mshr_age_bound: 5_000,
        ..CheckConfig::default()
    }
}

/// Runs the tiny cell with `kind` injected and checking enabled.
fn run_faulted(kind: FaultKind, seed: u64) -> RunResult {
    let spec = tiny_spec(DispatchPolicy::LocalityAware);
    let mut sys = spec.build();
    sys.inject_faults(&FaultPlan::new(seed).with(kind));
    sys.enable_checks(tight_checks());
    sys.run(spec.max_cycles)
}

/// Unwraps a `CheckFailed` outcome and asserts some violation came from
/// `checker` with a component matching `component_prefix`.
fn expect_violation(r: &RunResult, checker: &str, component_prefix: &str) {
    let report = match &r.outcome {
        RunOutcome::CheckFailed { report } => report,
        other => panic!("expected the {checker} checker to fire, got {other:?}"),
    };
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.checker == checker && v.component.starts_with(component_prefix)),
        "no {checker} violation naming {component_prefix}*: {:?}",
        report.violations
    );
    // The culprit accessor surfaces a component, not a checker name.
    assert!(
        report.culprit().is_some(),
        "a failed run must name a culprit"
    );
}

#[test]
fn mshr_leak_checker_fires_and_names_the_cache() {
    expect_violation(&run_faulted(FaultKind::LeakMshr, 11), "mshr", "cache");
}

#[test]
fn mesi_checker_fires_on_corrupted_line_state() {
    expect_violation(&run_faulted(FaultKind::CorruptLine, 13), "mesi", "cache");
}

#[test]
fn pim_directory_checker_fires_on_leaked_lock() {
    expect_violation(&run_faulted(FaultKind::LeakDirLock, 17), "pim-dir", "pmu");
}

#[test]
fn link_checker_fires_on_leaked_read_credit() {
    expect_violation(&run_faulted(FaultKind::LeakLinkCredit, 19), "link", "link");
}

#[test]
fn pcu_checker_fires_on_overfilled_operand_buffer() {
    expect_violation(&run_faulted(FaultKind::OverfillPcu, 23), "pcu", "mpcu");
}

#[test]
fn event_checker_fires_on_dropped_event() {
    expect_violation(&run_faulted(FaultKind::DropEvent, 29), "events", "queue");
}

#[test]
fn xbar_checker_fires_on_rogue_message() {
    expect_violation(
        &run_faulted(FaultKind::RogueXbarMessage, 31),
        "xbar",
        "xbar",
    );
}

#[test]
fn wedged_vault_stalls_and_the_watchdog_names_it() {
    // Wedge a handful of vaults so the workload is certain to touch one.
    let spec = tiny_spec(DispatchPolicy::LocalityAware);
    let mut sys = spec.build();
    let mut plan = FaultPlan::new(37);
    for _ in 0..4 {
        plan = plan.with(FaultKind::WedgeVault);
    }
    sys.inject_faults(&plan);
    let r = sys.run(spec.max_cycles);
    let report: &FailureReport = match &r.outcome {
        RunOutcome::Stalled { report } => report,
        other => panic!("expected the watchdog to report a stall, got {other:?}"),
    };
    let culprit = report.culprit().expect("stall must name a culprit");
    assert!(
        culprit.starts_with("vault"),
        "the wedged vault is the deepest stuck component, got {culprit}: {}",
        report.summary()
    );
    assert!(
        report
            .occupancies
            .iter()
            .any(|(name, n)| name.ends_with(".backlog") && *n > 0),
        "occupancies must show the queued accesses: {:?}",
        report.occupancies
    );
}

#[test]
fn delayed_event_is_the_negative_control() {
    // A delay perturbs timing but violates nothing: the checked run
    // completes and no checker fires.
    let r = run_faulted(FaultKind::DelayEvent, 41);
    assert!(
        r.ok(),
        "a pure delay must not trip any checker: {:?}",
        r.outcome
    );
}

#[test]
fn checked_mode_is_result_neutral() {
    // The cycle-neutrality contract: with no fault injected, checked
    // and unchecked runs of the same spec are identical in every
    // reported metric (the fig6 byte-identity gate in CI is the
    // end-to-end version of this).
    let plain = tiny_spec(DispatchPolicy::LocalityAware).run();
    let mut spec = tiny_spec(DispatchPolicy::LocalityAware);
    spec.check = true;
    let checked = spec.run();
    assert!(plain.ok() && checked.ok());
    assert_eq!(plain.cycles, checked.cycles);
    assert_eq!(plain.instructions, checked.instructions);
    assert_eq!(plain.peis, checked.peis);
    assert_eq!(plain.offchip_bytes, checked.offchip_bytes);
    assert_eq!(plain.offchip_flits, checked.offchip_flits);
    assert_eq!(plain.dram_accesses, checked.dram_accesses);
    assert_eq!(
        plain.stats.expect("sim.events"),
        checked.stats.expect("sim.events"),
        "checked mode must not schedule events of its own"
    );
}

#[test]
fn cycle_neutrality_across_jobs() {
    // The satellite regression for the checked-mode PR: with checking
    // off the new machinery must leave results alone at any worker
    // count, and turning checking on must not change them either (CI's
    // fig6 smoke is the binary-level byte-compare of the same
    // contract).
    let policies = [
        DispatchPolicy::HostOnly,
        DispatchPolicy::LocalityAware,
        DispatchPolicy::PimOnly,
    ];
    let plain: Vec<RunSpec> = policies.iter().map(|&p| tiny_spec(p)).collect();
    let checked: Vec<RunSpec> = policies
        .iter()
        .map(|&p| {
            let mut s = tiny_spec(p);
            s.check = true;
            s
        })
        .collect();
    let j1 = run_specs(&plain, 1);
    let j4 = run_specs(&plain, 4);
    let c4 = run_specs(&checked, 4);
    for ((a, b), c) in j1.iter().zip(&j4).zip(&c4) {
        assert!(a.ok() && b.ok() && c.ok());
        assert_eq!(a.cycles, b.cycles, "jobs must not affect results");
        assert_eq!(a.cycles, c.cycles, "checking must not affect results");
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.instructions, c.instructions);
        assert_eq!(a.offchip_bytes, b.offchip_bytes);
        assert_eq!(a.offchip_bytes, c.offchip_bytes);
        assert_eq!(
            a.stats.expect("sim.events"),
            c.stats.expect("sim.events"),
            "checked sweeps must not schedule events"
        );
    }
}

#[test]
fn batch_survives_a_stalled_cell() {
    // Graceful degradation: one cell in a parallel batch stalls; the
    // runner records its failure outcome and completes the siblings.
    let mut specs = vec![
        tiny_spec(DispatchPolicy::HostOnly),
        tiny_spec(DispatchPolicy::LocalityAware),
        tiny_spec(DispatchPolicy::PimOnly),
        tiny_spec(DispatchPolicy::LocalityAwareBalanced),
    ];
    let mut plan = FaultPlan::new(43);
    for _ in 0..4 {
        plan = plan.with(FaultKind::WedgeVault);
    }
    specs[1].fault = Some(plan);
    let results = run_specs(&specs, 2);
    assert_eq!(results.len(), specs.len(), "every cell gets a result slot");
    assert!(
        matches!(results[1].outcome, RunOutcome::Stalled { .. }),
        "the faulted cell must surface its stall: {:?}",
        results[1].outcome
    );
    for (i, r) in results.iter().enumerate() {
        if i != 1 {
            assert!(r.ok(), "sibling cell {i} must complete: {:?}", r.outcome);
        }
    }
}

#[test]
fn fault_plans_are_deterministic() {
    // Same seed, same fault, same run → identical failure reports.
    let a = run_faulted(FaultKind::LeakMshr, 53);
    let b = run_faulted(FaultKind::LeakMshr, 53);
    let (ra, rb) = (
        a.outcome.report().expect("fault must fire"),
        b.outcome.report().expect("fault must fire"),
    );
    assert_eq!(ra.cycle, rb.cycle);
    assert_eq!(ra.violations, rb.violations);
}
