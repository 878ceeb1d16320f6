//! Deterministic parallel execution of experiment grids.
//!
//! Every figure of the paper's evaluation (§7) is a grid of *mutually
//! independent* simulations: workloads × input sizes × machine
//! configurations, 200 multiprogrammed mixes, parameter sweeps. This
//! module turns one grid cell into a value — a [`RunSpec`] — and fans a
//! batch of them out over a [`std::thread::scope`] worker pool:
//!
//! * **Self-contained jobs.** A `RunSpec` carries everything a cell
//!   needs (machine config, workload parameters, input description,
//!   cycle limit), so running it is a pure function of the spec. Input
//!   seeds are fixed when the spec is *built*, never drawn during
//!   execution, which makes results independent of scheduling.
//! * **Work queue.** Workers claim specs from a shared atomic counter —
//!   no per-thread partitioning, so one slow cell (a large PIM-Only run)
//!   doesn't idle the rest of the pool.
//! * **Ordered collection.** Each result lands in its spec's slot, and
//!   callers print only after [`Batch::run`] returns — output tables are
//!   byte-identical for any `--jobs` value (the determinism contract,
//!   EXPERIMENTS.md).
//!
//! Workload inputs come from the process-wide cache in
//! [`pei_workloads::cache`], so the four configurations of one cell
//! share one generated graph no matter which workers execute them.
//!
//! # Examples
//!
//! ```
//! use pei_bench::runner::{Batch, RunSpec};
//! use pei_bench::ExpOptions;
//! use pei_core::DispatchPolicy;
//! use pei_workloads::{InputSize, Workload};
//!
//! let opts = ExpOptions::default();
//! let params = opts.workload_params();
//! let mut batch = Batch::new();
//! let host = batch.push(RunSpec::sized(
//!     opts.machine(DispatchPolicy::HostOnly),
//!     params,
//!     Workload::Atf,
//!     InputSize::Small,
//! ));
//! let pim = batch.push(RunSpec::sized(
//!     opts.machine(DispatchPolicy::PimOnly),
//!     params,
//!     Workload::Atf,
//!     InputSize::Small,
//! ));
//! let results = batch.run(2);
//! assert!(results[host].cycles > 0 && results[pim].cycles > 0);
//! ```

use crate::{ExpOptions, CYCLE_LIMIT};
use pei_system::{CheckConfig, FaultPlan, MachineConfig, RunResult, System};
use pei_workloads::{cache, InputSize, Workload, WorkloadParams};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The input of one simulation cell.
#[derive(Debug, Clone)]
pub enum SpecInput {
    /// A workload at one of the paper's three input sizes (§7.1).
    Sized {
        /// Which workload.
        workload: Workload,
        /// Which input size.
        size: InputSize,
    },
    /// A graph workload on an explicitly sized power-law graph (the
    /// Fig. 2 / Fig. 8 nine-graph series).
    OnGraph {
        /// Which (graph) workload.
        workload: Workload,
        /// Vertex count.
        vertices: usize,
        /// Average out-degree.
        avg_deg: usize,
        /// Graph generation seed.
        graph_seed: u64,
    },
    /// Two co-scheduled workloads splitting the machine's cores in half
    /// (the Fig. 9 multiprogrammed mixes, §7.3). Workload `b` builds
    /// with its own parameters (disjoint heap, derived seed).
    Mix {
        /// First workload and its input size (cores `0..n/2`).
        a: (Workload, InputSize),
        /// Second workload and its input size (cores `n/2..n`).
        b: (Workload, InputSize),
        /// Build parameters for workload `b`.
        params_b: WorkloadParams,
    },
}

/// One simulation cell: everything needed to run it, fixed up front.
///
/// The per-spec seed lives in `params.seed` (and, for graph series, in
/// the explicit `graph_seed`); specs never draw randomness while
/// running, so a batch's results depend only on its specs — not on
/// `--jobs`, scheduling, or which worker picks up which cell.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The machine to simulate (policy, scale, and any sweep overrides
    /// are all baked into the config — it is `Copy`, so sweeps mutate a
    /// local copy before pushing the spec).
    pub cfg: MachineConfig,
    /// Workload build parameters (threads, footprint, budget, seed).
    pub params: WorkloadParams,
    /// What to simulate.
    pub input: SpecInput,
    /// Upper bound on simulated cycles. A run that exceeds it reports a
    /// `CycleLimit` outcome rather than panicking; the batch runner
    /// surfaces the failure and keeps sibling cells running.
    pub max_cycles: u64,
    /// Checked mode: sweep the invariant auditors during the run (see
    /// `pei_system::check`). Off by default; [`Batch::run_with`] sets it
    /// from `--check`.
    pub check: bool,
    /// Deterministic fault injection for this cell (test harness and
    /// checked-mode validation; `None` in every real experiment).
    pub fault: Option<FaultPlan>,
}

impl RunSpec {
    /// A cell running `workload` at `size` on `cfg`.
    pub fn sized(
        cfg: MachineConfig,
        params: WorkloadParams,
        workload: Workload,
        size: InputSize,
    ) -> RunSpec {
        RunSpec {
            cfg,
            params,
            input: SpecInput::Sized { workload, size },
            max_cycles: CYCLE_LIMIT,
            check: false,
            fault: None,
        }
    }

    /// A cell running a graph `workload` on an explicit power-law graph.
    pub fn on_graph(
        cfg: MachineConfig,
        params: WorkloadParams,
        workload: Workload,
        vertices: usize,
        avg_deg: usize,
        graph_seed: u64,
    ) -> RunSpec {
        RunSpec {
            cfg,
            params,
            input: SpecInput::OnGraph {
                workload,
                vertices,
                avg_deg,
                graph_seed,
            },
            max_cycles: CYCLE_LIMIT,
            check: false,
            fault: None,
        }
    }

    /// A multiprogrammed cell: `a` on the lower half of the cores with
    /// `params`, `b` on the upper half with `params_b`.
    pub fn mix(
        cfg: MachineConfig,
        params: WorkloadParams,
        params_b: WorkloadParams,
        a: (Workload, InputSize),
        b: (Workload, InputSize),
    ) -> RunSpec {
        RunSpec {
            cfg,
            params,
            input: SpecInput::Mix { a, b, params_b },
            max_cycles: CYCLE_LIMIT,
            check: false,
            fault: None,
        }
    }

    /// Builds the simulated machine for this cell — workload inputs
    /// generated, threads mapped to cores — without running it. Callers
    /// that want the plain result use [`run`](RunSpec::run); callers
    /// that attach observers (a [`pei_trace::TraceSink`], say) build
    /// first and drive [`System::run`] themselves.
    pub fn build(&self) -> System {
        match &self.input {
            SpecInput::Sized { workload, size } => {
                let (store, trace) = workload.build(*size, &self.params);
                let mut sys = System::new(self.cfg, store);
                sys.add_workload(trace, (0..self.cfg.cores).collect());
                sys
            }
            SpecInput::OnGraph {
                workload,
                vertices,
                avg_deg,
                graph_seed,
            } => {
                let g = cache::shared_power_law(*vertices, *avg_deg, *graph_seed);
                let (store, trace) = workload.build_on_graph(g, &self.params);
                let mut sys = System::new(self.cfg, store);
                sys.add_workload(trace, (0..self.cfg.cores).collect());
                sys
            }
            SpecInput::Mix { a, b, params_b } => {
                let half = self.cfg.cores / 2;
                let (mut store, trace_a) = a.0.build(a.1, &self.params);
                let (store_b, trace_b) = b.0.build(b.1, params_b);
                store.merge_from(&store_b);
                let mut sys = System::new(self.cfg, store);
                sys.add_workload(trace_a, (0..half).collect());
                sys.add_workload(trace_b, (half..self.cfg.cores).collect());
                sys
            }
        }
    }

    /// Applies the spec's fault plan and checked-mode flag to a freshly
    /// built machine (fault injection first, so the auditors observe
    /// the broken state).
    pub(crate) fn arm(&self, sys: &mut System) {
        if let Some(plan) = &self.fault {
            sys.inject_faults(plan);
        }
        if self.check {
            sys.enable_checks(CheckConfig::default());
        }
    }

    /// Executes this cell to completion. Pure in the spec: equal specs
    /// produce equal results, on any thread, in any order.
    pub fn run(&self) -> RunResult {
        let mut sys = self.build();
        self.arm(&mut sys);
        sys.run(self.max_cycles)
    }

    /// Executes this cell with `sink` attached as an event tracer,
    /// returning the result and the detached sink. The simulated
    /// outcome is identical to [`run`](RunSpec::run) — tracing observes,
    /// never steers (see DESIGN.md §8).
    pub fn run_traced(
        &self,
        sink: Box<dyn pei_trace::TraceSink>,
    ) -> (RunResult, Box<dyn pei_trace::TraceSink>) {
        let mut sys = self.build();
        sys.attach_tracer(sink);
        self.arm(&mut sys);
        let result = sys.run(self.max_cycles);
        let sink = sys.detach_tracer().expect("tracer was just attached");
        (result, sink)
    }

    /// One-line description for failure summaries.
    fn describe(&self) -> String {
        let input = match &self.input {
            SpecInput::Sized { workload, size } => format!("{workload:?}/{size:?}"),
            SpecInput::OnGraph {
                workload, vertices, ..
            } => format!("{workload:?}/graph{vertices}"),
            SpecInput::Mix { a, b, .. } => format!("{:?}+{:?}", a.0, b.0),
        };
        format!(
            "{input} on {:?} (seed {})",
            self.cfg.policy, self.params.seed
        )
    }
}

/// An ordered batch of [`RunSpec`]s with slot-indexed results.
///
/// Build the batch first (recording each cell's index), run it once,
/// then print from the returned `Vec` — the index returned by
/// [`Batch::push`] addresses that spec's result regardless of which
/// worker executed it or when it finished.
#[derive(Debug, Default)]
pub struct Batch {
    specs: Vec<RunSpec>,
}

impl Batch {
    /// An empty batch.
    pub fn new() -> Batch {
        Batch::default()
    }

    /// Queues a spec, returning the index of its result slot.
    pub fn push(&mut self, spec: RunSpec) -> usize {
        self.specs.push(spec);
        self.specs.len() - 1
    }

    /// Number of queued specs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Runs every spec on up to `jobs` worker threads and returns the
    /// results in push order. `jobs == 1` runs inline on the calling
    /// thread; results are identical either way.
    pub fn run(self, jobs: usize) -> Vec<RunResult> {
        run_specs(&self.specs, jobs)
    }

    /// Like [`run`](Batch::run), but driven by the shared command-line
    /// options: `--jobs` picks the worker count and `--check` turns on
    /// checked mode for every cell. The one-line change that gives a
    /// figure binary the full sanitizer surface.
    pub fn run_with(mut self, opts: &ExpOptions) -> Vec<RunResult> {
        if opts.check {
            for spec in &mut self.specs {
                spec.check = true;
            }
        }
        run_specs(&self.specs, opts.jobs)
    }
}

/// Runs `specs` on up to `jobs` worker threads, returning results in
/// spec order. The workers share an atomic cursor over the spec list;
/// each claimed cell writes its result into its own slot, so the output
/// is a pure function of `specs` for every `jobs >= 1`.
///
/// A cell that stalls, hits its cycle limit, or fails an invariant
/// check does **not** take the batch down: its failure outcome lands in
/// its slot like any result, sibling cells keep running, and a summary
/// of every failed cell (spec description plus its
/// [`pei_system::FailureReport`]) goes to stderr before this returns.
///
/// # Panics
///
/// Panics if `jobs == 0`, or propagates the panic of any failed cell.
pub fn run_specs(specs: &[RunSpec], jobs: usize) -> Vec<RunResult> {
    assert!(jobs > 0, "--jobs must be at least 1");
    let workers = jobs.min(specs.len());
    let results: Vec<RunResult> = if workers <= 1 {
        specs.iter().map(RunSpec::run).collect()
    } else {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<RunResult>>> = specs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = specs.get(i) else { break };
                    let result = spec.run();
                    *slots[i].lock().unwrap() = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("worker panicked; result slot poisoned")
                    .expect("every spec gets exactly one result")
            })
            .collect()
    };
    report_failures(specs, &results);
    results
}

/// Prints each failed cell's spec and failure report to stderr; silent
/// when every cell completed.
fn report_failures(specs: &[RunSpec], results: &[RunResult]) {
    for (spec, result) in specs.iter().zip(results) {
        let Some(report) = result.outcome.report() else {
            continue;
        };
        eprintln!(
            "warning: cell failed: {}: {}",
            spec.describe(),
            report.summary()
        );
        for v in &report.violations {
            eprintln!("  {v}");
        }
        if !report.diagnosis.is_empty() {
            eprintln!("  diagnosis: {}", report.diagnosis.trim_end());
        }
        for (name, n) in &report.occupancies {
            eprintln!("  {name} = {n}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExpOptions;
    use pei_core::DispatchPolicy;

    fn tiny_specs() -> Vec<RunSpec> {
        let opts = ExpOptions {
            seed: 7,
            ..ExpOptions::default()
        };
        let mut params = opts.workload_params();
        params.pei_budget = 2_000;
        let mut specs = Vec::new();
        for w in [Workload::Atf, Workload::Hj] {
            for policy in [DispatchPolicy::HostOnly, DispatchPolicy::LocalityAware] {
                specs.push(RunSpec::sized(
                    opts.machine(policy),
                    params,
                    w,
                    InputSize::Small,
                ));
            }
        }
        specs
    }

    #[test]
    fn parallel_matches_serial() {
        let serial = run_specs(&tiny_specs(), 1);
        let parallel = run_specs(&tiny_specs(), 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.cycles, p.cycles);
            assert_eq!(s.instructions, p.instructions);
            assert_eq!(s.offchip_bytes, p.offchip_bytes);
        }
    }

    #[test]
    fn batch_indices_address_results() {
        let mut batch = Batch::new();
        let idx: Vec<usize> = tiny_specs().into_iter().map(|s| batch.push(s)).collect();
        assert_eq!(batch.len(), idx.len());
        let results = batch.run(2);
        assert_eq!(results.len(), idx.len());
        assert_eq!(idx, (0..results.len()).collect::<Vec<_>>());
    }

    /// A four-policy grid: each workload's cells share their input and
    /// differ only in dispatch policy, two per PMU monitor class.
    fn policy_grid() -> Vec<RunSpec> {
        let opts = ExpOptions {
            seed: 7,
            ..ExpOptions::default()
        };
        let mut params = opts.workload_params();
        params.pei_budget = 2_000;
        let mut specs = Vec::new();
        for w in [Workload::Atf, Workload::Hj] {
            for policy in [
                DispatchPolicy::HostOnly,
                DispatchPolicy::PimOnly,
                DispatchPolicy::LocalityAware,
                DispatchPolicy::LocalityAwareBalanced,
            ] {
                specs.push(RunSpec::sized(
                    opts.machine(policy),
                    params,
                    w,
                    InputSize::Small,
                ));
            }
        }
        specs
    }

    #[test]
    fn run_with_is_job_count_invariant_cell_for_cell() {
        // The figure binaries' entry point: every cell runs cold, one
        // claim at a time, so the worker count can't change a result.
        let run = |jobs: usize| {
            let mut batch = Batch::new();
            for spec in policy_grid() {
                batch.push(spec);
            }
            batch.run_with(&ExpOptions {
                jobs,
                ..ExpOptions::default()
            })
        };
        let serial = run(1);
        let parallel = run(3);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.cycles, p.cycles);
            assert_eq!(s.instructions, p.instructions);
            assert_eq!(s.peis, p.peis);
            assert_eq!(s.stats, p.stats);
        }
    }

    #[test]
    #[should_panic(expected = "--jobs must be at least 1")]
    fn zero_jobs_rejected() {
        run_specs(&[], 0);
    }
}
