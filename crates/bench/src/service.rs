//! Library surface for long-lived simulator hosts (`pei-serve`).
//!
//! * [`resolve_recipe`] turns a wire-format [`Recipe`] (string-typed
//!   workload/policy/size names) into a validated [`RunSpec`], reusing
//!   the `tracecap` vocabulary so daemon submissions, `.petr` captures,
//!   and the command-line tools all speak the same names. Unknown names
//!   come back as descriptive errors for a structured `error` frame,
//!   never a panic. [`recipe`] is its inverse: the wire form of a
//!   [`CaptureSpec`], which `pei-sim --submit` sends.
//! * [`result_frame`] renders a completed run as the frame a `result`
//!   carries; `pei-sim` prints its local runs from the same frame.
//! * [`run_bounded`] runs one job cold, sliced so that a cancel flag and
//!   a wall-clock deadline can stop it between slices. A job that
//!   completes is byte-identical to [`RunSpec::run`] — the daemon's
//!   byte-identity contract rests on that. Jobs that request a `.petr`
//!   capture run the same way with an event tracer attached.

use crate::runner::RunSpec;
use crate::tracecap::{parse_policy_short, parse_size, parse_workload, policy_name, CaptureSpec};
use crate::Scale;
use pei_system::{FaultKind, FaultPlan, RunResult, RunStatus};
use pei_trace::Recorder;
use pei_types::wire::{Recipe, ResultFrame};
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

/// Inverse of [`FaultKind::name`].
pub fn parse_fault_kind(s: &str) -> Option<FaultKind> {
    FaultKind::ALL.into_iter().find(|k| k.name() == s)
}

/// Validates a wire recipe into a runnable [`RunSpec`]: the cell of
/// its [`CaptureSpec`] (the step [`resolve_capture`] shares), with the
/// recipe's checked mode and fault plan armed.
///
/// The vocabulary is the `tracecap` one: workloads by figure label
/// (case-insensitive), sizes `small|medium|large`, policies by the
/// short CLI names (`host|pim|la|bd`) or long names (`locality-aware`;
/// see [`parse_policy_short`]), scales `quick|full`. Errors describe
/// the offending field and the accepted values — they become the
/// daemon's `bad-recipe` error frames.
pub fn resolve_recipe(recipe: &Recipe) -> Result<RunSpec, String> {
    let mut spec = capture_spec(recipe)?.to_run_spec();
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
    capture_spec(recipe)
}

/// The recipe → [`CaptureSpec`] step shared by [`resolve_recipe`] and
/// [`resolve_capture`]: the names resolved, checked mode and faults
/// left out.
fn capture_spec(recipe: &Recipe) -> Result<CaptureSpec, String> {
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

/// The wire recipe of `spec`: the inverse of the recipe →
/// [`CaptureSpec`] step, so [`resolve_recipe`] of it is
/// `spec.to_run_spec()`. Names are the canonical ones (the figure
/// label, the size's `Display`, [`policy_name`]).
pub fn recipe(spec: &CaptureSpec) -> Recipe {
    let mut r = Recipe::new(
        spec.workload.label(),
        &spec.size.to_string(),
        policy_name(spec.policy),
    );
    r.scale = spec.scale.name().to_owned();
    r.paper = spec.paper_machine;
    r.seed = spec.seed;
    r.budget = spec.pei_budget;
    r
}

/// Renders a completed run as the frame of job `id`. The `stats`
/// member is the full report's text rendering — the unit of the
/// daemon's byte-identity contract.
pub fn result_frame(id: u64, r: &RunResult, trace: Option<String>) -> ResultFrame {
    ResultFrame {
        job: id,
        cycles: r.cycles,
        instructions: r.instructions,
        peis: r.peis,
        pim_fraction: r.pim_fraction,
        offchip_bytes: r.offchip_bytes,
        offchip_flits: r.offchip_flits,
        dram_accesses: r.dram_accesses,
        energy_total_nj: r.energy.total(),
        stats: r.stats.to_string(),
        trace,
    }
}

/// Runs `spec` to completion unless `cancel` is set or `deadline`
/// passes first — the daemon's job runner.
///
/// The simulation is sliced into `slice`-cycle
/// [`run_paused`](pei_system::System::run_paused) windows; after each
/// pause `progress` receives the cycle reached, then the flag and the
/// deadline are checked. A stop lands on a slice boundary and the job's
/// machine is dropped. Both conditions are also checked before the
/// machine is built, so a job that is already cancelled or expired
/// never builds one. When both trip, cancellation wins (it is the
/// caller's explicit request). Slicing never changes a result: a run
/// that completes is byte-identical to [`RunSpec::run`].
///
/// `rec`, if given, is attached as the machine's event recorder and a
/// completed run hands it back detached. Tracing only observes and a
/// slice bound never reorders events, so the result and the captured
/// records equal [`RunSpec::run_traced`]'s.
///
/// # Panics
///
/// Panics if `slice` is zero.
pub fn run_bounded(
    spec: &RunSpec,
    rec: Option<Recorder>,
    slice: u64,
    cancel: &AtomicBool,
    deadline: Option<Instant>,
    mut progress: impl FnMut(u64),
) -> Result<(RunResult, Option<Recorder>), Stopped> {
    assert!(slice > 0, "slice must be at least one cycle");
    let stopped = || {
        if cancel.load(Ordering::Relaxed) {
            Some(Stopped::Cancelled)
        } else if deadline.is_some_and(|d| Instant::now() >= d) {
            Some(Stopped::DeadlineExceeded)
        } else {
            None
        }
    };
    if let Some(stop) = stopped() {
        return Err(stop);
    }
    let mut sys = spec.build();
    if let Some(rec) = rec {
        sys.attach_tracer(rec);
    }
    spec.arm(&mut sys);
    let mut at = slice;
    loop {
        match sys.run_paused(spec.max_cycles, Some(at)) {
            RunStatus::Completed(result) => return Ok((result, sys.detach_tracer())),
            RunStatus::Paused { at: reached } => {
                progress(reached);
                if let Some(stop) = stopped() {
                    return Err(stop);
                }
                at = reached.saturating_add(slice);
            }
        }
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
        // The command-line reader's size abbreviations and case folding
        // stay out of the recipe vocabulary.
        for size in ["m", "Medium"] {
            r.size = size.into();
            assert!(resolve_recipe(&r).unwrap_err().contains("size"), "{size}");
        }
        for policy in ["LA", "Bd"] {
            let err = resolve_recipe(&quick_recipe(policy)).unwrap_err();
            assert!(err.contains("policy"), "{policy}: {err}");
        }
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
        for k in FaultKind::ALL {
            assert_eq!(parse_fault_kind(k.name()), Some(k));
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
    fn recipes_of_capture_specs_resolve_to_their_run_specs() {
        use pei_core::DispatchPolicy;
        use pei_workloads::{InputSize, Workload};
        for workload in Workload::ALL {
            for size in InputSize::ALL {
                for policy in DispatchPolicy::ALL {
                    for (scale, paper_machine, pei_budget) in [
                        (Scale::Quick, false, None),
                        (Scale::Quick, true, Some(1_234)),
                        (Scale::Full, false, Some(1_234)),
                        (Scale::Full, true, None),
                    ] {
                        let spec = CaptureSpec {
                            workload,
                            size,
                            policy,
                            scale,
                            paper_machine,
                            seed: 7,
                            pei_budget,
                        };
                        let r = recipe(&spec);
                        assert_eq!(resolve_capture(&r), Ok(spec));
                        assert_eq!(resolve_recipe(&r), Ok(spec.to_run_spec()), "{spec}");
                    }
                }
            }
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
