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
//! * **One slot per distinct cell.** [`Batch::push`] hands an equal
//!   spec the slot it already has, so figures that read the same cell
//!   run it once.
//!
//! Workload inputs come from the process-wide cache in
//! [`pei_workloads::cache`], so the four configurations of one cell
//! share one generated graph no matter which workers execute them.
//! [`run_specs`] drops each graph from the cache when the last cell
//! that reads it finishes, so a batch holds only the graphs it still
//! needs.
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
use pei_workloads::cache::{self, GraphKey};
use pei_workloads::workload::graph_shape;
use pei_workloads::{InputSize, Workload, WorkloadParams};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The input of one simulation cell.
#[derive(Debug, Clone, PartialEq)]
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
/// `--jobs`, scheduling, or which worker picks up which cell. Equal
/// specs are the same cell.
#[derive(Debug, Clone, PartialEq)]
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
    /// that attach observers (a [`pei_trace::Recorder`], say) build
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

    /// Executes this cell with `rec` attached as its event recorder,
    /// returning the result and the detached recorder. The simulated
    /// outcome is identical to [`run`](RunSpec::run) — tracing observes,
    /// never steers (see DESIGN.md §8).
    pub fn run_traced(&self, rec: pei_trace::Recorder) -> (RunResult, pei_trace::Recorder) {
        let mut sys = self.build();
        sys.attach_tracer(rec);
        self.arm(&mut sys);
        let result = sys.run(self.max_cycles);
        let rec = sys.detach_tracer().expect("tracer was just attached");
        (result, rec)
    }

    /// The cache keys of the graphs this cell reads: none for inputs
    /// that are not graphs, two for a mix of two graph workloads.
    fn graph_keys(&self) -> Vec<GraphKey> {
        let sized = |(workload, size): (Workload, InputSize), params: &WorkloadParams| {
            Workload::GRAPH.contains(&workload).then(|| {
                let (n, avg_deg) = graph_shape(size.footprint(params.l3_bytes));
                (n, avg_deg, params.seed)
            })
        };
        match &self.input {
            SpecInput::Sized { workload, size } => sized((*workload, *size), &self.params)
                .into_iter()
                .collect(),
            SpecInput::OnGraph {
                vertices,
                avg_deg,
                graph_seed,
                ..
            } => vec![(*vertices, *avg_deg, *graph_seed)],
            SpecInput::Mix { a, b, params_b } => [sized(*a, &self.params), sized(*b, params_b)]
                .into_iter()
                .flatten()
                .collect(),
        }
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

    /// Queues a spec, returning the index of its result slot. A spec
    /// equal to one already queued gets that spec's slot: the cell runs
    /// once, however many times it is pushed.
    pub fn push(&mut self, spec: RunSpec) -> usize {
        if let Some(slot) = self.specs.iter().position(|s| *s == spec) {
            return slot;
        }
        self.specs.push(spec);
        self.specs.len() - 1
    }

    /// Number of distinct queued specs (result slots).
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
    /// figure the full sanitizer surface.
    pub fn run_with(self, opts: &ExpOptions) -> Vec<RunResult> {
        self.run_for(opts, &[])
    }

    /// [`run_with`](Batch::run_with) for a batch that several figures
    /// share: `users[slot]` names the figures that read each slot, and
    /// a failed cell's one warning names them all.
    pub(crate) fn run_for(mut self, opts: &ExpOptions, users: &[Vec<&str>]) -> Vec<RunResult> {
        if opts.check {
            for spec in &mut self.specs {
                spec.check = true;
            }
        }
        run_named(&self.specs, opts.jobs, users)
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
/// Each graph the specs read leaves the input cache when the last cell
/// that reads it finishes (cells still running keep their own handle
/// on it), whether this batch or an earlier caller put it there.
///
/// # Panics
///
/// Panics if `jobs == 0`, or propagates the panic of any failed cell.
pub fn run_specs(specs: &[RunSpec], jobs: usize) -> Vec<RunResult> {
    run_named(specs, jobs, &[])
}

/// [`run_specs`], whose failure warnings also name `users[slot]`.
fn run_named(specs: &[RunSpec], jobs: usize, users: &[Vec<&str>]) -> Vec<RunResult> {
    assert!(jobs > 0, "--jobs must be at least 1");
    let keys: Vec<Vec<GraphKey>> = specs.iter().map(RunSpec::graph_keys).collect();
    let mut readers: HashMap<GraphKey, usize> = HashMap::new();
    for &key in keys.iter().flatten() {
        *readers.entry(key).or_default() += 1;
    }
    let readers = Mutex::new(readers);
    let run = |(i, spec): (usize, &RunSpec)| {
        let result = spec.run();
        let mut readers = readers.lock().expect("no reader count holder panics");
        for key in &keys[i] {
            let left = readers.get_mut(key).expect("every key was counted");
            *left -= 1;
            if *left == 0 {
                cache::release(*key);
            }
        }
        result
    };
    let workers = jobs.min(specs.len());
    let results: Vec<RunResult> = if workers <= 1 {
        specs.iter().enumerate().map(run).collect()
    } else {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<RunResult>>> = specs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = specs.get(i) else { break };
                    let result = run((i, spec));
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
    for warning in failure_warnings(specs, &results, users) {
        eprint!("{warning}");
    }
    results
}

/// The stderr report of each failed cell: its spec, the figures that
/// read it (`users[slot]`, where given) and its failure report. Empty
/// when every cell completed.
pub(crate) fn failure_warnings(
    specs: &[RunSpec],
    results: &[RunResult],
    users: &[Vec<&str>],
) -> Vec<String> {
    let mut warnings = Vec::new();
    for (slot, (spec, result)) in specs.iter().zip(results).enumerate() {
        let Some(report) = result.outcome.report() else {
            continue;
        };
        let mut w = format!("warning: cell failed: {}", spec.describe());
        if let Some(users) = users.get(slot).filter(|u| !u.is_empty()) {
            let _ = write!(w, " (used by {})", users.join(", "));
        }
        let _ = writeln!(w, ": {}", report.summary());
        for v in &report.violations {
            let _ = writeln!(w, "  {v}");
        }
        for (name, n) in &report.occupancies {
            let _ = writeln!(w, "  {name} = {n}");
        }
        warnings.push(w);
    }
    warnings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExpOptions;
    use pei_core::DispatchPolicy;

    /// Input seed of these tests' grids. The batches they run release
    /// their graphs from the process-wide cache, so the seed is one no
    /// other test in this crate reads (the daemon-path tests in
    /// `service` check that their seed-7 graph stays cached).
    const SEED: u64 = 0x7e57;

    fn tiny_specs() -> Vec<RunSpec> {
        let opts = ExpOptions {
            seed: SEED,
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
            seed: SEED,
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
        // The figures' entry point: every cell runs cold, one
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

    /// A batch whose cells share graphs builds each graph once and
    /// leaves none of them cached: a sized graph workload's graph, read
    /// again by a mix's first half, and an explicit graph, each under
    /// three policies. The seeds are read by no other test.
    #[test]
    fn shared_graphs_are_built_once_and_released() {
        let opts = ExpOptions {
            seed: 0x6a1a,
            ..ExpOptions::default()
        };
        let mut params = opts.workload_params();
        params.pei_budget = 1_000;
        let half = WorkloadParams {
            threads: params.threads / 2,
            ..params
        };
        let params_b = WorkloadParams {
            seed: 0x6a1b,
            heap_base: 0x40_0000_0000,
            ..half
        };
        let small = InputSize::Small;
        let mut batch = Batch::new();
        let mut first = None;
        for policy in [
            DispatchPolicy::HostOnly,
            DispatchPolicy::PimOnly,
            DispatchPolicy::LocalityAware,
        ] {
            let cfg = opts.machine(policy);
            let slot = batch.push(RunSpec::sized(cfg, params, Workload::Bfs, small));
            first.get_or_insert(slot);
            batch.push(RunSpec::on_graph(
                cfg,
                params,
                Workload::Pr,
                3_000,
                10,
                0x6a1c,
            ));
            let (a, b) = ((Workload::Wcc, small), (Workload::Hj, small));
            batch.push(RunSpec::mix(cfg, half, params_b, a, b));
        }
        // Pushing a cell again hands back its slot.
        let again = RunSpec::sized(
            opts.machine(DispatchPolicy::HostOnly),
            params,
            Workload::Bfs,
            small,
        );
        assert_eq!(Some(batch.push(again)), first);
        assert_eq!(batch.len(), 9);
        let mut keys: Vec<GraphKey> = batch.specs.iter().flat_map(RunSpec::graph_keys).collect();
        keys.sort_unstable();
        keys.dedup();
        let (n, avg_deg) = graph_shape(small.footprint(params.l3_bytes));
        assert_eq!(keys, vec![(3_000, 10, 0x6a1c), (n, avg_deg, 0x6a1a)]);

        let results = batch.run(2);
        assert!(results.iter().all(RunResult::ok));
        for &key in &keys {
            assert_eq!(cache::builds(key), 1, "{key:?} built once");
            // Released: the next lookup builds it again.
            cache::shared_power_law(key.0, key.1, key.2);
            assert_eq!(cache::builds(key), 2, "{key:?} left the cache");
        }
    }
}
