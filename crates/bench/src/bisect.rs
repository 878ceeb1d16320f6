//! Binary search for the first divergent cycle between two runs.
//!
//! When a figure regresses — two cells that the determinism contract
//! (EXPERIMENTS.md) says must agree stop agreeing, or a config change
//! moves a result and the question is *when* the two machines first do
//! something different — the full traces of both runs localize the
//! divergence, but capturing them costs memory proportional to the
//! whole run. This module finds the same answer with bounded capture:
//! it bisects the run by simulated cycle, using machine snapshots
//! (`System::snapshot`, DESIGN.md §11) as restart points, and only
//! traces the final sub-`grain` window.
//!
//! The search compares *machine state*, not traces, at each midpoint:
//! both variants advance from their last agreed snapshot to the probe
//! cycle and re-snapshot, and the snapshots are compared byte-for-byte
//! with the config fingerprints masked out (so variants may differ in
//! policy or workload parameters — the comparison sees only dynamic
//! state: memory, caches, queues, counters). Divergence is assumed
//! monotone — once the states differ they never re-converge — which
//! holds for any config-level regression because the machines process
//! different event streams from the divergence point on.
//!
//! The `trace_bisect` binary is the CLI wrapper over [`bisect`].

use crate::runner::RunSpec;
use pei_system::{CheckConfig, RunStatus, Snapshot};
use pei_trace::{diff, Divergence, Recorder, Trace};

/// Where two runs first differ.
#[derive(Debug)]
pub enum BisectOutcome {
    /// The runs are identical: equal final states and, over the final
    /// window, equal traces.
    Identical,
    /// The first divergent trace record, found inside the final window.
    Trace {
        /// Cycle of the first divergent record (the earlier side).
        cycle: u64,
        /// The full record-level divergence (record index, both sides
        /// resolved to component/kind names).
        divergence: Divergence,
    },
    /// Machine state diverged inside `(window.0, window.1]` but the
    /// event traces over that window are identical — the difference is
    /// in untraced state (a counter, a replacement bit) and will
    /// surface in the event stream later.
    StateOnly {
        /// The last cycle at which the states were byte-equal and the
        /// first probed cycle at which they differed.
        window: (u64, u64),
    },
}

/// A bisection log entry: one probe of the search.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// The cycle both variants were advanced to.
    pub at: u64,
    /// Whether their states were equal there.
    pub equal: bool,
}

/// The result of [`bisect`]: the outcome plus the probe log.
#[derive(Debug)]
pub struct Bisection {
    /// What was found.
    pub outcome: BisectOutcome,
    /// Every midpoint probed, in search order.
    pub probes: Vec<Probe>,
}

/// A paused (or finished) machine reduced to a comparable value.
struct Stop {
    at: u64,
    snap: Snapshot,
    trace: Option<Trace>,
}

/// Advances `spec` from `from` (fresh build when `None`) to cycle `to`,
/// or to its completion if that comes first, optionally capturing the
/// trace of the advanced window.
fn advance(spec: &RunSpec, from: Option<&Snapshot>, to: u64, traced: bool) -> Result<Stop, String> {
    let mut sys = spec.build();
    if spec.check {
        sys.enable_checks(CheckConfig::default());
    }
    if traced {
        sys.attach_tracer(Box::new(Recorder::new()));
    }
    if let Some(s) = from {
        sys.restore(s).map_err(|e| format!("restore failed: {e}"))?;
    }
    let at = match sys.run_paused(spec.max_cycles, Some(to)) {
        RunStatus::Paused { at } => at,
        RunStatus::Completed(r) => r.cycles,
    };
    let trace = if traced {
        let sink = sys.detach_tracer().expect("tracer was attached above");
        let bytes = sink.to_petr().ok_or("tracer retained no capture")?;
        Some(Trace::from_bytes(&bytes).map_err(|e| format!("bad capture: {e}"))?)
    } else {
        None
    };
    let snap = sys
        .snapshot()
        .map_err(|e| format!("snapshot failed: {e}"))?;
    Ok(Stop { at, snap, trace })
}

/// Byte-equality of two snapshots with the config fingerprints masked:
/// compares format magic/version and everything from the cycle field
/// on (memory, caches, queues, counters), ignoring the two fingerprint
/// words so that variants with different configs compare by dynamic
/// state alone.
fn state_eq(a: &Snapshot, b: &Snapshot) -> bool {
    // Header layout: magic (8) + version (2) + fp_class (8) +
    // fp_exact (8), then cycle...; mask bytes 10..26.
    let (a, b) = (a.as_bytes(), b.as_bytes());
    a.len() == b.len() && a[..10] == b[..10] && a[26..] == b[26..]
}

/// Bisects the first divergent cycle between `a` and `b`.
///
/// `grain` bounds the traced window: the search narrows the divergence
/// to an interval no wider than `grain` cycles by state comparison
/// alone, then traces only that window to name the first divergent
/// record. Neither spec may carry a fault plan (snapshots refuse armed
/// faults).
///
/// # Errors
///
/// Returns a message when a probe cannot snapshot or restore.
pub fn bisect(a: &RunSpec, b: &RunSpec, grain: u64) -> Result<Bisection, String> {
    if a.fault.is_some() || b.fault.is_some() {
        return Err("cannot bisect runs with fault plans (snapshots refuse armed faults)".into());
    }
    let grain = grain.max(1);
    let mut probes = Vec::new();

    // Establish the far end: advance both to completion and compare.
    let end_a = advance(a, None, u64::MAX, false)?;
    let end_b = advance(b, None, u64::MAX, false)?;
    let end = end_a.at.max(end_b.at);
    if state_eq(&end_a.snap, &end_b.snap) {
        // Final states agree; the traces could still transiently
        // differ, but that is a different question than a regression —
        // report identical (the trace_diff tool compares full traces).
        probes.push(Probe {
            at: end,
            equal: true,
        });
        return Ok(Bisection {
            outcome: BisectOutcome::Identical,
            probes,
        });
    }
    probes.push(Probe {
        at: end,
        equal: false,
    });

    // Invariant: states equal at `lo` (with `lo_a`/`lo_b` snapshots to
    // restart from), unequal at `hi`.
    let mut lo: u64 = 0;
    let mut hi: u64 = end;
    let mut lo_a: Option<Snapshot> = None;
    let mut lo_b: Option<Snapshot> = None;
    while hi - lo > grain {
        let mid = lo + (hi - lo) / 2;
        let sa = advance(a, lo_a.as_ref(), mid, false)?;
        let sb = advance(b, lo_b.as_ref(), mid, false)?;
        // A variant that completes before `mid` stops at its finish
        // cycle; if the two variants stop at different cycles their
        // runs already diverged there.
        let equal = sa.at == sb.at && state_eq(&sa.snap, &sb.snap);
        probes.push(Probe { at: sa.at, equal });
        if equal {
            lo = sa.at;
            lo_a = Some(sa.snap);
            lo_b = Some(sb.snap);
        } else {
            hi = mid;
        }
        if hi <= lo {
            break;
        }
    }

    // Trace the final window [lo, hi] and name the first divergent
    // record.
    let ta = advance(a, lo_a.as_ref(), hi, true)?;
    let tb = advance(b, lo_b.as_ref(), hi, true)?;
    let (ta, tb) = (
        ta.trace.expect("traced advance captures"),
        tb.trace.expect("traced advance captures"),
    );
    match diff(&ta, &tb) {
        Some(divergence) => {
            let cycle = match &divergence {
                Divergence::Record { left, right, .. } => left.cycle.min(right.cycle),
                Divergence::Length { extra, .. } => extra.cycle,
                Divergence::Dropped { .. } => lo,
            };
            Ok(Bisection {
                outcome: BisectOutcome::Trace { cycle, divergence },
                probes,
            })
        }
        None => Ok(Bisection {
            outcome: BisectOutcome::StateOnly { window: (lo, hi) },
            probes,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExpOptions;
    use pei_core::DispatchPolicy;
    use pei_workloads::{InputSize, Workload};

    fn cell(budget: u64, policy: DispatchPolicy) -> RunSpec {
        let opts = ExpOptions {
            seed: 11,
            ..ExpOptions::default()
        };
        let mut params = opts.workload_params();
        params.pei_budget = budget;
        RunSpec::sized(
            opts.machine(policy),
            params,
            Workload::Atf,
            InputSize::Small,
        )
    }

    #[test]
    fn identical_specs_bisect_to_identical() {
        let a = cell(2_000, DispatchPolicy::LocalityAware);
        let r = bisect(&a, &a.clone(), 512).expect("bisect runs");
        assert!(matches!(r.outcome, BisectOutcome::Identical));
        assert_eq!(r.probes.len(), 1);
    }

    #[test]
    fn policy_divergence_is_found_at_the_full_diff_cycle() {
        // Host-only and locality-aware runs share the pre-PEI warmup
        // prefix and then diverge where the first PEI is dispatched
        // differently. The bisected cycle must match what a full-trace
        // diff reports.
        let a = cell(2_000, DispatchPolicy::HostOnly);
        let b = cell(2_000, DispatchPolicy::LocalityAware);
        let full_a = Trace::from_bytes(
            &a.run_traced(Box::new(Recorder::new()))
                .1
                .to_petr()
                .expect("capture"),
        )
        .expect("parse");
        let full_b = Trace::from_bytes(
            &b.run_traced(Box::new(Recorder::new()))
                .1
                .to_petr()
                .expect("capture"),
        )
        .expect("parse");
        let expect_cycle = match diff(&full_a, &full_b).expect("policies diverge") {
            Divergence::Record { left, right, .. } => left.cycle.min(right.cycle),
            Divergence::Length { extra, .. } => extra.cycle,
            Divergence::Dropped { .. } => unreachable!("unbounded recorders"),
        };
        let r = bisect(&a, &b, 256).expect("bisect runs");
        match r.outcome {
            BisectOutcome::Trace { cycle, .. } => assert_eq!(cycle, expect_cycle),
            other => panic!("expected a trace divergence, got {other:?}"),
        }
        assert!(r.probes.len() > 2, "search actually bisected");
    }

    #[test]
    fn seed_divergence_bisects_and_reports_a_record() {
        // Different workload seeds diverge essentially immediately;
        // the search must still terminate and name a concrete record.
        let a = cell(2_000, DispatchPolicy::LocalityAware);
        let mut b = a.clone();
        b.params.seed = 12;
        let r = bisect(&a, &b, 512).expect("bisect runs");
        match r.outcome {
            BisectOutcome::Trace { divergence, .. } => {
                // Divergence is real and resolvable to names.
                let text = format!("{divergence}");
                assert!(!text.is_empty());
            }
            other => panic!("expected a trace divergence, got {other:?}"),
        }
    }
}
