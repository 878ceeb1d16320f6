//! Simulator-throughput benchmark: host events/sec and sim-cycles/sec
//! over a fixed workload mix, recorded to `BENCH_sim_throughput.json`.
//!
//! Unlike the figure binaries this measures the *simulator*, not the
//! simulated machine: the same mix run on the same hardware gives a
//! perf trajectory for the event kernel across PRs (see EXPERIMENTS.md
//! §"Simulator throughput" for the methodology and JSON schema).
//!
//! ```text
//! cargo run -p pei-bench --release --bin sim_throughput -- \
//!     [--scale quick|full] [--paper] [--seed <n>] [--repeat <n>] [--label <s>] [--out <path>] \
//!     [--append] [--traced] [--checked]
//! ```
//!
//! Runs are strictly serial (`jobs` is fixed at 1) so wall-clock time
//! divides cleanly into per-run throughput. With `--append`, the new
//! record is spliced into the existing JSON array at `--out` instead of
//! replacing it, so the checked-in file accumulates a history.
//!
//! `--traced` attaches a [`pei_trace::NullSink`] to every measured run:
//! the simulator takes the full per-event capture path (interning
//! lookups, one virtual call per event) but retains nothing, so the
//! throughput delta against an untraced run isolates the cost of
//! tracing itself (EXPERIMENTS.md §"Tracing overhead"). Simulated
//! results are identical either way — tracing observes, never steers.
//!
//! `--checked` enables checked mode (`pei_system::check`) on every
//! measured run: the invariant auditors sweep the whole machine at the
//! default interval, so the delta against an unchecked run measures the
//! sanitizer's overhead (EXPERIMENTS.md §"Checked-mode overhead").
//! Simulated results are likewise identical — sweeps observe only.
//!
//! `--paper` selects the paper-scale machine. A bad argument prints
//! `error: …` and the usage to stderr and exits with status 2.

use std::fmt::Write as _;
use std::time::Instant;

use pei_bench::runner::RunSpec;
use pei_bench::tracecap::policy_name;
use pei_bench::{check_writable, ExpOptions, Scale};
use pei_core::DispatchPolicy;
use pei_trace::NullSink;
use pei_workloads::{InputSize, Workload};

/// The fixed mix: one graph, one analytics, and one ML workload, each
/// under the host-only and locality-aware policies at medium size —
/// exercising the core/cache path, the PMU/PCU path, and both.
const MIX: [(Workload, DispatchPolicy); 6] = [
    (Workload::Atf, DispatchPolicy::HostOnly),
    (Workload::Atf, DispatchPolicy::LocalityAware),
    (Workload::Hj, DispatchPolicy::HostOnly),
    (Workload::Hj, DispatchPolicy::LocalityAware),
    (Workload::Sc, DispatchPolicy::HostOnly),
    (Workload::Sc, DispatchPolicy::LocalityAware),
];

const USAGE: &str = "usage: sim_throughput [--scale quick|full] [--paper] [--seed N] [--repeat N] \
                     [--label S] [--out PATH] [--append] [--traced] [--checked]";

struct Args {
    opts: ExpOptions,
    repeat: usize,
    label: String,
    out: String,
    append: bool,
    traced: bool,
    checked: bool,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        opts: ExpOptions {
            jobs: 1,
            ..ExpOptions::default()
        },
        repeat: 3,
        label: String::from("dev"),
        out: String::from("BENCH_sim_throughput.json"),
        append: false,
        traced: false,
        checked: false,
    };
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--scale" => {
                let v = value()?;
                a.opts.scale =
                    Scale::parse(&v).ok_or_else(|| format!("unknown scale `{v}` (quick|full)"))?;
            }
            "--seed" => {
                let v = value()?;
                a.opts.seed = v
                    .parse()
                    .map_err(|_| format!("--seed must be an integer, got `{v}`"))?;
            }
            "--repeat" => {
                let v = value()?;
                a.repeat = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--repeat must be an integer >= 1, got `{v}`"))?;
            }
            "--label" => a.label = value()?,
            "--out" => a.out = value()?,
            "--append" => a.append = true,
            "--traced" => a.traced = true,
            "--checked" => a.checked = true,
            "--paper" => a.opts.paper_machine = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

struct Measured {
    workload: &'static str,
    policy: &'static str,
    events: u64,
    sim_cycles: u64,
    wall_s: f64,
}

fn record_json(args: &Args, runs: &[Measured]) -> String {
    let scale = args.opts.scale.name();
    let mut s = String::new();
    let _ = write!(
        s,
        "  {{\n    \"label\": \"{}\",\n    \"scale\": \"{scale}\",\n    \"paper\": {},\n    \"seed\": {},\n    \"traced\": {},\n    \"checked\": {},\n    \"runs\": [",
        args.label,
        args.opts.paper_machine,
        args.opts.seed,
        args.traced,
        args.checked,
    );
    let (mut ev_tot, mut cy_tot, mut wall_tot) = (0u64, 0u64, 0f64);
    for (i, r) in runs.iter().enumerate() {
        ev_tot += r.events;
        cy_tot += r.sim_cycles;
        wall_tot += r.wall_s;
        let _ = write!(
            s,
            "{}\n      {{\"workload\": \"{}\", \"policy\": \"{}\", \"events\": {}, \"sim_cycles\": {}, \"wall_s\": {:.3}, \"events_per_s\": {:.0}, \"sim_cycles_per_s\": {:.0}}}",
            if i == 0 { "" } else { "," },
            r.workload,
            r.policy,
            r.events,
            r.sim_cycles,
            r.wall_s,
            r.events as f64 / r.wall_s,
            r.sim_cycles as f64 / r.wall_s,
        );
    }
    let _ = write!(
        s,
        "\n    ],\n    \"total\": {{\"events\": {ev_tot}, \"sim_cycles\": {cy_tot}, \"wall_s\": {wall_tot:.3}, \"events_per_s\": {:.0}, \"sim_cycles_per_s\": {:.0}}}\n  }}",
        ev_tot as f64 / wall_tot,
        cy_tot as f64 / wall_tot,
    );
    s
}

/// Prints the table header.
fn print_header() {
    println!(
        "{:<16} {:>15} {:>12} {:>12} {:>9} {:>12} {:>14}",
        "workload", "policy", "events", "sim_cycles", "wall_s", "events/s", "sim_cycles/s"
    );
}

/// Prints one measured row.
fn print_row(m: &Measured) {
    println!(
        "{:<16} {:>15} {:>12} {:>12} {:>9.3} {:>12.0} {:>14.0}",
        m.workload,
        m.policy,
        m.events,
        m.sim_cycles,
        m.wall_s,
        m.events as f64 / m.wall_s,
        m.sim_cycles as f64 / m.wall_s,
    );
}

/// Serializes the record and writes (or `--append`-splices) it to
/// `--out`.
fn write_record(args: &Args, runs: &[Measured]) {
    let record = record_json(args, runs);
    let body = match std::fs::read_to_string(&args.out) {
        Ok(existing) if args.append => {
            // The file is a JSON array of records; splice before the
            // closing bracket. Fall back to replacing on any mismatch.
            match existing.trim_end().strip_suffix(']') {
                Some(head) if head.trim_start().starts_with('[') => {
                    format!("{},\n{record}\n]\n", head.trim_end())
                }
                _ => format!("[\n{record}\n]\n"),
            }
        }
        _ => format!("[\n{record}\n]\n"),
    };
    std::fs::write(&args.out, body).expect("write BENCH_sim_throughput.json");
    println!("wrote {}", args.out);
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n\n{USAGE}");
        std::process::exit(2);
    });
    if let Err(e) = check_writable(std::path::Path::new(&args.out)) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let mut runs = Vec::new();
    print_header();
    for (w, policy) in MIX {
        let mut spec = RunSpec::sized(
            args.opts.machine(policy),
            args.opts.workload_params(),
            w,
            InputSize::Medium,
        );
        spec.check = args.checked;
        // Best-of-N wall time: simulated results are identical across
        // repeats (determinism contract), so the minimum isolates the
        // simulator's speed from scheduler noise on a shared host.
        let mut wall_s = f64::INFINITY;
        let mut res = None;
        for _ in 0..args.repeat {
            let t0 = Instant::now();
            let r = if args.traced {
                spec.run_traced(Box::new(NullSink::new())).0
            } else {
                spec.run()
            };
            wall_s = wall_s.min(t0.elapsed().as_secs_f64().max(1e-9));
            res = Some(r);
        }
        let res = res.expect("repeat >= 1");
        let events = res.stats.expect("sim.events") as u64;
        let m = Measured {
            workload: w.label(),
            policy: policy_name(policy),
            events,
            sim_cycles: res.cycles,
            wall_s,
        };
        print_row(&m);
        runs.push(m);
    }
    let (ev, cy, wall) = runs.iter().fold((0u64, 0u64, 0f64), |(e, c, w), r| {
        (e + r.events, c + r.sim_cycles, w + r.wall_s)
    });
    println!(
        "{:<16} {:>15} {:>12} {:>12} {:>9.3} {:>12.0} {:>14.0}",
        "TOTAL",
        "",
        ev,
        cy,
        wall,
        ev as f64 / wall,
        cy as f64 / wall,
    );
    write_record(&args, &runs);
}
