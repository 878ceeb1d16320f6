//! Experiment harness: shared machinery for the figure-reproduction
//! binaries (`fig2` … `fig12`, `pmu_overhead`, `ablations`).
//!
//! Every binary accepts:
//!
//! * `--scale quick|full` — PEI budget per run (quick ≈ 40 K, full ≈
//!   200 K; the paper's analog is its fixed 2-billion-instruction window);
//! * `--paper` — use the paper-scale machine (16 cores, 16 MB L3,
//!   8 HMCs) instead of the proportionally scaled default (4 cores,
//!   1 MB L3, 1 HMC);
//! * `--seed <n>` — RNG seed;
//! * `--jobs <n>` — worker threads for the experiment grid (default:
//!   available parallelism). Tables are byte-identical for every value —
//!   see [`runner`] and the determinism contract in EXPERIMENTS.md;
//! * `--trace <path>` — also capture the binary's representative cell
//!   as a `.petr` event trace (see [`tracecap`]);
//! * `--check` — checked mode: every run sweeps the simulator's
//!   cross-component invariant auditors (MESI, MSHR leaks, flit/credit
//!   conservation, operand accounting, event population; see
//!   `pei_system::check` and DESIGN.md §9), and failed cells surface
//!   structured failure reports on stderr while sibling cells keep
//!   running.
//!
//! A bad argument prints `error: …` and the usage to stderr and exits
//! with status 2 ([`ExpOptions::from_args`]).
//!
//! Binaries describe their grid as [`runner::RunSpec`]s collected into a
//! [`runner::Batch`], run it once, and print from the ordered results.
//! Results print as aligned text tables whose rows mirror the series of
//! the corresponding paper figure; EXPERIMENTS.md records a measured run
//! against the paper's claims.
//!
//! This crate's place in the workspace is mapped in DESIGN.md §5.

#![warn(missing_docs)]

pub mod runner;
pub mod service;
pub mod tracecap;

use pei_core::DispatchPolicy;
use pei_system::MachineConfig;
use pei_workloads::{InputSize, Workload, WorkloadParams};

/// Simulation effort per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~40 K PEIs per run: the full figure suite in minutes.
    Quick,
    /// ~200 K PEIs per run.
    Full,
}

impl Scale {
    /// Command-line / trace-metadata name (`quick` or `full`).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Inverse of [`name`](Scale::name).
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// Parsed command-line options shared by all figure binaries.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Simulation effort.
    pub scale: Scale,
    /// Paper-scale machine instead of the scaled default.
    pub paper_machine: bool,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the experiment grid (`>= 1`). Affects
    /// wall-clock time only, never results.
    pub jobs: usize,
    /// If set, also capture the binary's representative cell as an
    /// event trace (`.petr`, see [`tracecap`]) at this path.
    pub trace: Option<std::path::PathBuf>,
    /// Checked mode: every run sweeps the cross-component invariant
    /// auditors (`pei_system::check`) and failed cells surface
    /// structured reports instead of panicking. Results are
    /// byte-identical to unchecked runs unless a checker fires.
    pub check: bool,
}

impl Default for ExpOptions {
    /// Quick scale, scaled machine, the default seed, one worker per
    /// available hardware thread, and no trace capture.
    fn default() -> Self {
        ExpOptions {
            scale: Scale::Quick,
            paper_machine: false,
            seed: 0x5eed,
            jobs: default_jobs(),
            trace: None,
            check: false,
        }
    }
}

/// The default `--jobs` value: available hardware parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Usage line of the flags [`ExpOptions::parse`] accepts.
const USAGE: &str = "usage: <figure binary> [--scale quick|full] [--paper] [--seed N] \
                         [--jobs N] [--trace PATH] [--check]";

impl ExpOptions {
    /// Parses `std::env::args()`; on a bad argument prints `error: …`
    /// and the usage line to stderr and exits with status 2. A
    /// `--trace` path that cannot be written is refused the same way,
    /// before any cell runs.
    pub fn from_args() -> Self {
        let opts = ExpOptions::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        });
        if let Err(e) = opts.trace.as_deref().map_or(Ok(()), check_writable) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        opts
    }

    /// Parses figure-binary arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Names the offending argument: an unknown flag, a missing value,
    /// or a value that does not parse.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<ExpOptions, String> {
        let mut opts = ExpOptions::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{a} needs a value"));
            match a.as_str() {
                "--scale" => {
                    let v = value()?;
                    opts.scale = Scale::parse(&v)
                        .ok_or_else(|| format!("unknown scale `{v}` (quick|full)"))?;
                }
                "--paper" => opts.paper_machine = true,
                "--seed" => {
                    let v = value()?;
                    opts.seed = v
                        .parse()
                        .map_err(|_| format!("--seed must be an integer, got `{v}`"))?;
                }
                "--jobs" => {
                    let v = value()?;
                    opts.jobs = v
                        .parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("--jobs must be an integer >= 1, got `{v}`"))?;
                }
                "--trace" => opts.trace = Some(value()?.into()),
                "--check" => opts.check = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(opts)
    }

    /// The Ideal-Host reference machine (§7) at the chosen scale.
    pub fn ideal_machine(&self) -> MachineConfig {
        self.machine(DispatchPolicy::HostOnly).ideal_host()
    }

    /// The machine config for `policy` at the chosen machine scale.
    pub fn machine(&self, policy: DispatchPolicy) -> MachineConfig {
        if self.paper_machine {
            MachineConfig::paper(policy)
        } else {
            MachineConfig::scaled(policy)
        }
    }

    /// Workload parameters matched to the machine.
    pub fn workload_params(&self) -> WorkloadParams {
        let m = self.machine(DispatchPolicy::HostOnly);
        WorkloadParams {
            threads: m.cores,
            l3_bytes: m.mem.l3.capacity,
            pei_budget: match self.scale {
                Scale::Quick => 40_000,
                Scale::Full => 200_000,
            },
            phase_chunk: 8_192,
            seed: self.seed,
            heap_base: WorkloadParams::DEFAULT_HEAP_BASE,
        }
    }
}

/// Checks that an output file can be written at `path`, so a bad path
/// fails before a long run rather than after it. Opens the file for
/// appending (an existing file keeps its contents); a file the check
/// creates is removed again.
///
/// # Errors
///
/// Names the path and the I/O error, e.g. a missing directory.
pub fn check_writable(path: &std::path::Path) -> Result<(), String> {
    let existed = path.exists();
    std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    if !existed {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

/// Upper bound on simulated cycles before declaring a run stuck.
pub const CYCLE_LIMIT: u64 = 50_000_000_000;

/// If `--trace <path>` was given, captures the binary's representative
/// cell — `workload` at `size` under `policy`, at the options' scale and
/// seed — as a replayable `.petr` event trace at that path (see
/// [`tracecap`]). Call once, after printing the figure, with the cell
/// that best characterizes the figure's behavior. No-op without
/// `--trace`.
pub fn write_trace_if_requested(
    opts: &ExpOptions,
    workload: Workload,
    size: InputSize,
    policy: DispatchPolicy,
) {
    let Some(path) = &opts.trace else { return };
    let spec = tracecap::CaptureSpec {
        workload,
        size,
        policy,
        scale: opts.scale,
        paper_machine: opts.paper_machine,
        seed: opts.seed,
        pei_budget: None,
    };
    let (_, trace) = spec.capture();
    std::fs::write(path, trace.to_bytes())
        .unwrap_or_else(|e| panic!("cannot write trace {}: {e}", path.display()));
    eprintln!(
        "captured {} records ({} dropped) from {} to {}",
        trace.records.len(),
        trace.dropped,
        spec,
        path.display()
    );
}

/// Geometric mean.
///
/// # Panics
///
/// Panics if `xs` is empty or contains non-positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean requires positive values");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

/// Prints a header line for a figure table.
pub fn print_title(title: &str) {
    println!("\n# {title}");
    println!("{}", "=".repeat(title.len() + 2));
}

/// Formats a row of right-aligned f64 cells after a left-aligned label.
pub fn print_row(label: &str, cells: &[f64]) {
    print!("{label:<22}");
    for c in cells {
        print!(" {c:>10.3}");
    }
    println!();
}

/// Prints column headers aligned with [`print_row`].
pub fn print_cols(first: &str, cols: &[&str]) {
    print!("{first:<22}");
    for c in cols {
        print!(" {c:>10}");
    }
    println!();
}

/// The nine-graph series of Figs. 2 and 8: synthetic stand-ins for the
/// paper's nine real-world graphs, ordered by vertex count (the paper
/// sorts its x-axis the same way). Returns `(name, vertices)`.
pub fn nine_graphs(l3_bytes: usize) -> Vec<(&'static str, usize)> {
    // Vertex counts span ~L3/3 to ~14×L3 of PEI-visible data (~48 B per
    // vertex) with a 1.6× ladder, mirroring the paper's 62 K – 5 M vertex
    // range (~77×) around its 16 MB L3.
    let base = (l3_bytes / 48 / 3).max(256);
    let names = [
        "syn-p2p-Gnutella31",
        "syn-email-EuAll",
        "syn-soc-Slashdot",
        "syn-web-Stanford",
        "syn-amazon-2008",
        "syn-frwiki-2013",
        "syn-wiki-Talk",
        "syn-cit-Patents",
        "syn-soc-LiveJournal",
    ];
    names
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, (base as f64 * 1.6f64.powi(i as i32)) as usize))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn nine_graphs_grow_monotonically() {
        let g = nine_graphs(1 << 20);
        assert_eq!(g.len(), 9);
        for w in g.windows(2) {
            assert!(w[1].1 > w[0].1);
        }
        // Smallest well under L3, largest far above it.
        assert!(g[0].1 * 48 < (1 << 20) / 2);
        assert!(g[8].1 * 48 > 8 * (1 << 20));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        geomean(&[1.0, 0.0]);
    }
}
