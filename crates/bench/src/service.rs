//! Library surface for long-lived simulator hosts (`pei-serve`).
//!
//! * [`resolve_recipe`] turns a wire-format [`Recipe`] (string-typed
//!   workload/policy/size names) into a validated [`RunSpec`], reusing
//!   the `tracecap` vocabulary so daemon submissions, `.petr` captures,
//!   and figure binaries all speak the same names. Unknown names come
//!   back as descriptive errors for a structured `error` frame, never a
//!   panic.
//! * [`run_bounded`] runs one job cold, sliced so that a cancel flag and
//!   a wall-clock deadline can stop it between slices. A job that
//!   completes is byte-identical to [`RunSpec::run`] — the daemon's
//!   byte-identity contract rests on that. Jobs that request a `.petr`
//!   capture run the same way with an event tracer attached.

use crate::runner::RunSpec;
use crate::tracecap::{parse_policy_short, parse_size, parse_workload, CaptureSpec};
use crate::{ExpOptions, Scale};
use pei_system::{FaultKind, FaultPlan, RunResult};
use pei_trace::TraceSink;
use pei_types::wire::Recipe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Why [`run_bounded`] abandoned a run before completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stopped {
    /// The caller's cancel flag was observed set.
    Cancelled,
    /// The wall-clock deadline passed. Like cancellation, the stop
    /// lands on a slice boundary.
    DeadlineExceeded,
}

/// Wire name of a fault kind (`wedge-vault`, `leak-mshr`, …).
pub fn fault_kind_name(k: FaultKind) -> &'static str {
    match k {
        FaultKind::WedgeVault => "wedge-vault",
        FaultKind::LeakMshr => "leak-mshr",
        FaultKind::CorruptLine => "corrupt-line",
        FaultKind::LeakDirLock => "leak-dir-lock",
        FaultKind::LeakLinkCredit => "leak-link-credit",
        FaultKind::OverfillPcu => "overfill-pcu",
        FaultKind::RogueXbarMessage => "rogue-xbar-message",
        FaultKind::DropEvent => "drop-event",
        FaultKind::DelayEvent => "delay-event",
    }
}

/// Inverse of [`fault_kind_name`].
pub fn parse_fault_kind(s: &str) -> Option<FaultKind> {
    [
        FaultKind::WedgeVault,
        FaultKind::LeakMshr,
        FaultKind::CorruptLine,
        FaultKind::LeakDirLock,
        FaultKind::LeakLinkCredit,
        FaultKind::OverfillPcu,
        FaultKind::RogueXbarMessage,
        FaultKind::DropEvent,
        FaultKind::DelayEvent,
    ]
    .into_iter()
    .find(|&k| fault_kind_name(k) == s)
}

/// Validates a wire recipe into a runnable [`RunSpec`].
///
/// The vocabulary is the `tracecap` one: workloads by figure label
/// (case-insensitive), sizes `small|medium|large`, policies by the
/// short CLI names (`host|pim|la|bd`) or long names (`locality-aware`;
/// see [`parse_policy_short`]), scales `quick|full`. Errors describe
/// the offending field and the accepted values — they become the
/// daemon's `bad-recipe` error frames.
pub fn resolve_recipe(recipe: &Recipe) -> Result<RunSpec, String> {
    let (workload, size, policy, scale) = resolve_vocabulary(recipe)?;
    let opts = ExpOptions {
        scale,
        paper_machine: recipe.paper,
        seed: recipe.seed,
        ..ExpOptions::default()
    };
    let mut params = opts.workload_params();
    if let Some(b) = recipe.budget {
        params.pei_budget = b;
    }
    let mut spec = RunSpec::sized(opts.machine(policy), params, workload, size);
    spec.check = recipe.check;
    if !recipe.fault_kinds.is_empty() {
        let mut plan = FaultPlan::new(recipe.fault_seed.unwrap_or(recipe.seed));
        for name in &recipe.fault_kinds {
            let kind = parse_fault_kind(name).ok_or_else(|| {
                format!("unknown fault kind `{name}` (e.g. wedge-vault, leak-mshr)")
            })?;
            plan = plan.with(kind);
        }
        spec.fault = Some(plan);
    } else if recipe.fault_seed.is_some() {
        return Err("`fault_seed` without `fault_kinds` arms nothing".to_owned());
    }
    Ok(spec)
}

/// Validates a wire recipe into a traceable [`CaptureSpec`] — the
/// daemon's path for submissions that request a `.petr` capture.
///
/// Checked mode and fault plans are rejected here: the `.petr`
/// metadata vocabulary (`spec.*` keys) has no channel for them, so a
/// replay could not reproduce the run.
pub fn resolve_capture(recipe: &Recipe) -> Result<CaptureSpec, String> {
    if recipe.check || recipe.fault_seed.is_some() || !recipe.fault_kinds.is_empty() {
        return Err(
            "traced runs can't use `check` or fault injection (the trace metadata has no channel for them)"
                .to_owned(),
        );
    }
    let (workload, size, policy, scale) = resolve_vocabulary(recipe)?;
    Ok(CaptureSpec {
        workload,
        size,
        policy,
        scale,
        paper_machine: recipe.paper,
        seed: recipe.seed,
        pei_budget: recipe.budget,
    })
}

/// The string→enum step shared by [`resolve_recipe`] and
/// [`resolve_capture`].
fn resolve_vocabulary(
    recipe: &Recipe,
) -> Result<
    (
        pei_workloads::Workload,
        pei_workloads::InputSize,
        pei_core::DispatchPolicy,
        Scale,
    ),
    String,
> {
    let workload = parse_workload(&recipe.workload).ok_or_else(|| {
        format!(
            "unknown workload `{}` (atf|bfs|pr|sp|wcc|hj|hg|rp|sc|svm)",
            recipe.workload
        )
    })?;
    let size = parse_size(&recipe.size)
        .ok_or_else(|| format!("unknown size `{}` (small|medium|large)", recipe.size))?;
    let policy = parse_policy_short(&recipe.policy).ok_or_else(|| {
        format!(
            "unknown policy `{}` (host|pim|la|bd or host-only|pim-only|locality-aware|locality-aware-balanced)",
            recipe.policy
        )
    })?;
    let scale = Scale::parse(&recipe.scale)
        .ok_or_else(|| format!("unknown scale `{}` (quick|full)", recipe.scale))?;
    Ok((workload, size, policy, scale))
}

/// Runs `spec` to completion unless `cancel` is set or `deadline`
/// passes first — the daemon's job runner.
///
/// The simulation is sliced into `slice`-cycle windows
/// (`System::run_cancellable`); between windows `progress` receives the
/// cycle reached, then the flag and the deadline are checked. A stop
/// lands on a slice boundary and the job's machine is dropped. Both
/// conditions are also checked before the machine is built, so a job
/// that is already cancelled or expired never builds one. When
/// both trip in the same window, cancellation wins (it is the caller's
/// explicit request). Slicing never changes a result: a run that
/// completes is byte-identical to [`RunSpec::run`].
///
/// `sink`, if given, is attached as the machine's event tracer and a
/// completed run hands it back detached. Tracing only observes and a
/// slice bound never reorders events, so the result and the captured
/// records equal [`RunSpec::run_traced`]'s.
pub fn run_bounded(
    spec: &RunSpec,
    sink: Option<Box<dyn TraceSink>>,
    slice: u64,
    cancel: &AtomicBool,
    deadline: Option<Instant>,
    mut progress: impl FnMut(u64),
) -> Result<(RunResult, Option<Box<dyn TraceSink>>), Stopped> {
    let expired = || deadline.is_some_and(|d| Instant::now() >= d);
    if cancel.load(Ordering::Relaxed) {
        return Err(Stopped::Cancelled);
    }
    if expired() {
        return Err(Stopped::DeadlineExceeded);
    }
    let mut sys = spec.build();
    if let Some(sink) = sink {
        sys.attach_tracer(sink);
    }
    spec.arm(&mut sys);
    // The engine only understands one stop flag, so compose both
    // conditions into `halt` from inside the slice-boundary hook and
    // remember which tripped first.
    let halt = AtomicBool::new(false);
    let mut deadline_hit = false;
    let out = sys.run_cancellable(spec.max_cycles, slice, &halt, |cycle| {
        progress(cycle);
        if cancel.load(Ordering::Relaxed) {
            halt.store(true, Ordering::Relaxed);
        } else if expired() {
            deadline_hit = true;
            halt.store(true, Ordering::Relaxed);
        }
    });
    match out {
        Some(result) => Ok((result, sys.detach_tracer())),
        None if deadline_hit => Err(Stopped::DeadlineExceeded),
        None => Err(Stopped::Cancelled),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_recipe(policy: &str) -> Recipe {
        let mut r = Recipe::new("atf", "small", policy);
        r.seed = 7;
        r.budget = Some(2_000);
        r
    }

    #[test]
    fn recipes_resolve_through_the_shared_vocabulary() {
        let spec = resolve_recipe(&quick_recipe("la")).unwrap();
        assert_eq!(spec.cfg.policy, pei_core::DispatchPolicy::LocalityAware);
        assert_eq!(spec.params.seed, 7);
        assert_eq!(spec.params.pei_budget, 2_000);
        // Long names and case-insensitive workload labels work too.
        let spec = resolve_recipe(&quick_recipe("locality-aware-balanced")).unwrap();
        assert_eq!(
            spec.cfg.policy,
            pei_core::DispatchPolicy::LocalityAwareBalanced
        );
        let mut r = quick_recipe("host");
        r.workload = "ATF".into();
        assert!(resolve_recipe(&r).is_ok());
    }

    #[test]
    fn bad_recipes_name_the_field() {
        let mut r = quick_recipe("la");
        r.workload = "quicksort".into();
        assert!(resolve_recipe(&r).unwrap_err().contains("workload"));
        let mut r = quick_recipe("warp-speed");
        assert!(resolve_recipe(&r).unwrap_err().contains("policy"));
        r = quick_recipe("la");
        r.size = "tiny".into();
        assert!(resolve_recipe(&r).unwrap_err().contains("size"));
        r = quick_recipe("la");
        r.scale = "epic".into();
        assert!(resolve_recipe(&r).unwrap_err().contains("scale"));
        r = quick_recipe("la");
        r.fault_seed = Some(1);
        assert!(resolve_recipe(&r).unwrap_err().contains("fault_kinds"));
        r = quick_recipe("la");
        r.fault_kinds = vec!["gremlin".into()];
        assert!(resolve_recipe(&r).unwrap_err().contains("fault kind"));
    }

    #[test]
    fn fault_recipes_arm_a_plan() {
        let mut r = quick_recipe("la");
        r.check = true;
        r.fault_seed = Some(11);
        r.fault_kinds = vec!["leak-mshr".into(), "wedge-vault".into()];
        let spec = resolve_recipe(&r).unwrap();
        assert!(spec.check);
        let plan = spec.fault.expect("fault plan armed");
        assert_eq!(plan.seed(), 11);
        assert_eq!(plan.kinds(), [FaultKind::LeakMshr, FaultKind::WedgeVault]);
        // Names round-trip for every kind.
        for k in plan.kinds() {
            assert_eq!(parse_fault_kind(fault_kind_name(*k)), Some(*k));
        }
    }

    #[test]
    fn short_policy_names_resolve_including_bd() {
        // `bd` is the CLI name of the balanced policy (pei-sim -p bd,
        // trace_capture --policy bd); `lab` stays an alias for existing
        // clients.
        for name in ["bd", "lab", "locality-aware-balanced"] {
            let spec = resolve_recipe(&quick_recipe(name)).unwrap();
            assert_eq!(
                spec.cfg.policy,
                pei_core::DispatchPolicy::LocalityAwareBalanced,
                "{name}"
            );
        }
        for (name, policy) in [
            ("host", pei_core::DispatchPolicy::HostOnly),
            ("pim", pei_core::DispatchPolicy::PimOnly),
            ("la", pei_core::DispatchPolicy::LocalityAware),
        ] {
            assert_eq!(
                resolve_recipe(&quick_recipe(name)).unwrap().cfg.policy,
                policy
            );
        }
    }

    #[test]
    fn cancellation_leaves_the_cache_intact() {
        let la = resolve_recipe(&quick_recipe("la")).unwrap();
        let reference = la.run();
        let never = AtomicBool::new(false);

        // Cancel a job mid-run (flag raised from the progress hook).
        let cancel = AtomicBool::new(false);
        let out = run_bounded(&la, None, 200, &cancel, None, |_| {
            cancel.store(true, Ordering::Relaxed);
        });
        assert_eq!(out.err(), Some(Stopped::Cancelled));

        // The process-wide input cache keeps the job's graph, and the
        // next job reproduces the reference byte-for-byte.
        assert!(pei_workloads::cache::len() >= 1);
        let (after, _) = run_bounded(&la, None, 200, &never, None, |_| ()).unwrap();
        assert_eq!(after.stats, reference.stats);
    }

    #[test]
    fn deadlines_stop_runs_like_cancellation_and_spare_the_cache() {
        let la = resolve_recipe(&quick_recipe("la")).unwrap();
        let reference = la.run();
        let never = AtomicBool::new(false);

        // An already-expired deadline stops the job before it builds a
        // machine: a spec whose build would panic proves it.
        let mut unbuildable = la.clone();
        unbuildable.cfg.cores = 0;
        let out = run_bounded(
            &unbuildable,
            None,
            200,
            &never,
            Some(Instant::now()),
            |_| (),
        );
        assert_eq!(out.err(), Some(Stopped::DeadlineExceeded));

        // A deadline tripping mid-run stops at a slice boundary. (50µs
        // lapses
        // before the first 50-cycle slice retires, but only the
        // slice-boundary hook notices — the pre-check already passed.)
        let soon = Instant::now() + std::time::Duration::from_micros(50);
        let mut ticks = 0u64;
        let out = run_bounded(&la, None, 50, &never, Some(soon), |_| ticks += 1);
        assert_eq!(out.err(), Some(Stopped::DeadlineExceeded));
        assert!(ticks > 0, "the run got at least one slice in");

        // Cancellation wins over a lapsed deadline, and the next job
        // with no deadline at all reproduces run() byte-for-byte.
        let cancelled = AtomicBool::new(true);
        let out = run_bounded(&la, None, 200, &cancelled, Some(Instant::now()), |_| ());
        assert_eq!(out.err(), Some(Stopped::Cancelled));
        let out = run_bounded(&la, None, 200, &never, None, |_| ());
        assert_eq!(out.unwrap().0.stats, reference.stats);
    }

    #[test]
    fn faulted_specs_run_bounded_like_run() {
        // Fault plans and checked mode arm exactly as in RunSpec::run.
        let mut r = quick_recipe("la");
        r.check = true;
        r.fault_kinds = vec!["delay-event".into()]; // negative control: completes
        let spec = resolve_recipe(&r).unwrap();
        let never = AtomicBool::new(false);
        let (out, _) = run_bounded(&spec, None, 200, &never, None, |_| ()).unwrap();
        assert_eq!(out.stats, spec.run().stats);
    }
}
