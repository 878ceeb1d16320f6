//! Grid workloads: batches of simulation cells, run untraced through
//! `Batch::run_with` exactly as the figure binaries run them, or traced
//! through the benchmark's own pool with a span around every layer call.

use crate::spans::{Recorder, Span, TimedTrace};
use crate::stats::{median, Digest};
use crate::{Outcome, THREADS};
use pei_bench::runner::{Batch, RunSpec, SpecInput};
use pei_bench::{ExpOptions, Scale};
use pei_core::DispatchPolicy;
use pei_system::{RunResult, System};
use pei_workloads::{cache, workload::graph_for, InputSize, Workload};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Passes per run, at least.
const MIN_PASSES: usize = 3;
/// A run takes no further pass once it has lasted this many times
/// `--seconds`: a slow spell of the host can double every pass, and a
/// fixed pass count would stretch the run as much.
const OVERRUN: f64 = 1.5;
/// PEI budget of the paper-machine path workloads: a quarter of the
/// quick scale, so a pass takes under a second and a run holds a dozen.
const PATH_BUDGET: u64 = 10_000;

/// The grid workloads, by name.
pub const NAMES: [&str; 4] = [
    "fig6-small",
    "large-inputs",
    "paper-host-path",
    "paper-pim-path",
];

/// The options and the cells of grid workload `name` at `seed`.
pub fn specs(name: &str, seed: u64) -> (ExpOptions, Vec<RunSpec>) {
    let opts = |paper_machine| ExpOptions {
        scale: Scale::Quick,
        paper_machine,
        seed,
        jobs: THREADS,
        ..ExpOptions::default()
    };
    let sized = |o: &ExpOptions, cfg, w, size| RunSpec::sized(cfg, o.workload_params(), w, size);
    match name {
        // The Host-Only and Locality-Aware cells of the Fig. 6 grid's
        // small-input row, as `fig6 --scale quick` builds them.
        "fig6-small" => {
            let o = opts(false);
            let mut cells = Vec::new();
            for w in Workload::ALL {
                for p in [DispatchPolicy::HostOnly, DispatchPolicy::LocalityAware] {
                    cells.push(sized(&o, o.machine(p), w, InputSize::Small));
                }
            }
            (o, cells)
        }
        "large-inputs" => {
            let o = opts(false);
            let mut cells = Vec::new();
            for w in [Workload::Atf, Workload::Pr, Workload::Hj, Workload::Sc] {
                for p in [DispatchPolicy::HostOnly, DispatchPolicy::LocalityAware] {
                    cells.push(sized(&o, o.machine(p), w, InputSize::Large));
                }
            }
            (o, cells)
        }
        "paper-host-path" | "paper-pim-path" => {
            let o = opts(true);
            let policy = if name == "paper-host-path" {
                DispatchPolicy::HostOnly
            } else {
                DispatchPolicy::PimOnly
            };
            let mut params = o.workload_params();
            params.pei_budget = PATH_BUDGET;
            let cells = [Workload::Atf, Workload::Pr, Workload::Hg, Workload::Sc]
                .into_iter()
                .map(|w| RunSpec::sized(o.machine(policy), params, w, InputSize::Medium))
                .collect();
            (o, cells)
        }
        other => unreachable!("`{other}` is not a grid workload"),
    }
}

/// Seconds one pass (set-up and run) of grid workload `name` took on a
/// quiet 2-CPU host. A run holds `--seconds` worth of passes at this
/// nominal speed, so both sides of a comparison take the same number of
/// passes and a faster commit does not also get more tries at its best.
fn nominal_pass_s(name: &str) -> f64 {
    match name {
        "fig6-small" => 1.0,
        "large-inputs" => 0.7,
        "paper-host-path" => 1.05,
        "paper-pim-path" => 0.95,
        other => unreachable!("`{other}` is not a grid workload"),
    }
}

/// Passes in a run of `seconds`.
fn passes(name: &str, seconds: f64) -> usize {
    ((seconds / nominal_pass_s(name)).round() as usize).max(MIN_PASSES)
}

/// Digest of a batch's results in spec order.
fn digest(results: &[RunResult]) -> Digest {
    let mut d = Digest::default();
    for r in results {
        d.result(&r.stats.to_string(), r.cycles);
    }
    d
}

/// The distinct graph inputs of `cells`: (footprint, seed) pairs.
fn graph_inputs(cells: &[RunSpec]) -> Vec<(usize, u64)> {
    let mut out = Vec::new();
    for c in cells {
        if let SpecInput::Sized { workload, size } = c.input {
            let key = (size.footprint(c.params.l3_bytes), c.params.seed);
            if Workload::GRAPH.contains(&workload) && !out.contains(&key) {
                out.push(key);
            }
        }
    }
    out
}

/// One untraced pass from an empty input cache. Set-up builds the batch
/// and generates its graphs into the process-wide cache; the measured
/// part is `Batch::run_with`, as a figure binary calls it. Returns the
/// set-up and run times and the results.
fn pass(name: &str, seed: u64) -> (f64, f64, Vec<RunResult>) {
    cache::clear();
    let t0 = Instant::now();
    let (opts, specs) = specs(name, seed);
    for (footprint, seed) in graph_inputs(&specs) {
        graph_for(footprint, seed);
    }
    let mut batch = Batch::new();
    for s in specs {
        batch.push(s);
    }
    let t1 = Instant::now();
    let results = batch.run_with(&opts);
    let wall = t1.elapsed().as_secs_f64();
    cache::clear();
    ((t1 - t0).as_secs_f64(), wall, results)
}

/// The digest of one untraced pass, or `None` if a cell failed.
pub fn bless(name: &str, seed: u64) -> Option<String> {
    let (_, _, results) = pass(name, seed);
    results
        .iter()
        .all(RunResult::ok)
        .then(|| digest(&results).hex())
}

/// Untraced: runs [`passes`] passes, fewer only past [`OVERRUN`].
/// Co-tenants on a shared host slow whole passes by up to about 1.7x in
/// bursts of seconds, so timings report the best pass, the estimate of
/// uncontended speed that repeats run to run; `setup_s` is the median
/// set-up.
pub fn run(name: &str, seed: u64, seconds: f64, golden: Option<&str>) -> Outcome {
    let began = Instant::now();
    let (mut setups, mut walls, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cells, mut failed, mut instructions) = (0, 0, 0);
    let planned = passes(name, seconds);
    for _ in 0..planned {
        if walls.len() >= MIN_PASSES && began.elapsed().as_secs_f64() > OVERRUN * seconds {
            break;
        }
        let (setup, wall, results) = pass(name, seed);
        setups.push(setup);
        walls.push(wall);
        cells = results.len() as u64;
        failed += results.iter().filter(|r| !r.ok()).count() as u64;
        instructions = results.iter().map(|r| r.instructions).sum::<u64>();
        digests.push(digest(&results).hex());
    }
    let n = walls.len() as u64;
    let best = walls.iter().cloned().fold(f64::INFINITY, f64::min);
    let mut out = Outcome::checked(cells * n, failed, &digests, golden);
    let walls_text: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    out.details.push(format!(
        "{n} of {planned} passes of {cells} cells, digest {}; pass times (s): {}",
        digests[0],
        walls_text.join(", ")
    ));
    out.metrics = vec![
        ("wall_s", best),
        ("setup_s", median(&setups)),
        ("sim_mips", instructions as f64 / best / 1e6),
        ("peak_rss_mb", crate::stats::peak_rss_mb()),
        // A batch hands back every cell's result when it returns, so each
        // cell's latency is the pass's wall time.
        ("latency_mean_ms", best * 1e3),
        ("latency_p90_ms", best * 1e3),
        ("throughput_per_s", cells as f64 / best),
    ];
    out
}

/// What a direct (traced) execution of cells leaves behind, besides
/// the spans in its recorder.
pub struct Direct {
    pub results: Vec<RunResult>,
    /// Bytes of simulated memory the inputs materialized.
    pub store_bytes: u64,
    /// Trace ops the generators emitted.
    pub ops: u64,
    /// Pool wall time after graph generation, seconds.
    pub wall: f64,
}

/// Traced: generates the cells' graphs (a `workloads.graph` span each),
/// then the benchmark's own pool of [`THREADS`] threads claims cells in
/// spec order, as `run_specs` does, and times each layer call: a `cell`
/// span with children `workloads.build`, `system.new` and `system.run`,
/// the last holding one `workloads.next_phase` span per generated phase.
pub fn run_direct(cells: &[RunSpec], rec: &Arc<Recorder>) -> Direct {
    let next = AtomicUsize::new(0);
    let ops = Arc::new(AtomicU64::new(0));
    let store_bytes = AtomicU64::new(0);
    let slots: Vec<Mutex<Option<RunResult>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    for (i, (footprint, seed)) in graph_inputs(cells).into_iter().enumerate() {
        rec.time("workloads.graph", 0, i as u64, 0, || {
            graph_for(footprint, seed)
        });
    }
    let start = Instant::now();
    std::thread::scope(|scope| {
        for tid in 0..THREADS as u64 {
            let (ops, next, slots, store_bytes) = (&ops, &next, &slots, &store_bytes);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = cells.get(i) else { break };
                let (op, id, t0) = (i as u64, rec.id(), rec.now());
                let SpecInput::Sized { workload, size } = spec.input else {
                    unreachable!("benchmark grids use sized inputs only")
                };
                let (store, trace) = rec.time("workloads.build", id, op, tid, || {
                    workload.build(size, &spec.params)
                });
                store_bytes.fetch_add(store.resident_pages() as u64 * 4096, Ordering::Relaxed);
                let run_id = rec.id();
                let timed = TimedTrace {
                    inner: trace,
                    rec: Arc::clone(rec),
                    parent: run_id,
                    op,
                    tid,
                    ops: Arc::clone(ops),
                };
                let mut sys = rec.time("system.new", id, op, tid, || {
                    let mut sys = System::new(spec.cfg, store);
                    sys.add_workload(Box::new(timed), (0..spec.cfg.cores).collect());
                    sys
                });
                let run_start = rec.now();
                let result = sys.run(spec.max_cycles);
                let span = |id, parent, name, start| Span {
                    id,
                    parent,
                    name,
                    op,
                    tid,
                    start,
                    end: rec.now(),
                };
                rec.push(span(run_id, id, "system.run", run_start));
                drop(sys);
                rec.push(span(id, 0, "cell", t0));
                *slots[i].lock().expect("slot lock poisoned") = Some(result);
            });
        }
    });
    Direct {
        results: slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("slot lock poisoned")
                    .expect("every cell ran")
            })
            .collect(),
        store_bytes: store_bytes.into_inner(),
        ops: ops.load(Ordering::Relaxed),
        wall: start.elapsed().as_secs_f64(),
    }
}

/// Traced grid run: one pass from a cold input cache.
pub fn run_traced(name: &str, seed: u64, golden: Option<&str>) -> (Outcome, Vec<Span>) {
    let (_, cells) = specs(name, seed);
    cache::clear();
    let rec = Arc::new(Recorder::new());
    let direct = run_direct(&cells, &rec);
    let graphs = cache::len();
    cache::clear();
    let spans = rec.spans();
    let results = &direct.results;
    let failed = results.iter().filter(|r| !r.ok()).count() as u64;
    let d = digest(results).hex();
    let mut out = Outcome::checked(
        results.len() as u64,
        failed,
        std::slice::from_ref(&d),
        golden,
    );
    out.details.push(format!("traced pass digest {d}"));
    out.metrics = crate::layer_metrics(&direct, &spans, graphs);
    // The runner layer: cells wait in spec order for one of the pool's
    // threads, then occupy it for their whole span.
    let cell = |s: &&Span| s.name == "cell";
    let first = spans
        .iter()
        .filter(cell)
        .map(|s| s.start)
        .min()
        .unwrap_or(0);
    let n = spans.iter().filter(cell).count() as f64;
    let busy = spans
        .iter()
        .filter(cell)
        .map(|s| s.dur() as f64 / 1e9)
        .sum::<f64>();
    let wait_ms = spans
        .iter()
        .filter(cell)
        .map(|s| (s.start - first) as f64 / 1e6)
        .sum::<f64>();
    out.metrics.extend([
        ("sched.ops", n),
        ("sched.busy_s", busy),
        (
            "sched.idle_frac",
            1.0 - busy / (THREADS as f64 * direct.wall),
        ),
        ("sched.wait_ms_mean", wait_ms / n),
        ("sched.service_ms_mean", busy * 1e3 / n),
    ]);
    (out, spans)
}
