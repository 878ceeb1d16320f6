//! `pei_benchmark`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path pei_benchmark/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] \
//!     [--traced SPANS.json] [--runs N] [--out RESULTS.json]... [--label TEXT]
//! cargo run --release --manifest-path pei_benchmark/Cargo.toml -- \
//!     --compare A.json B.json [--out VERDICT.json]
//! ```
//!
//! One workload per process: with `--trace 0` the run prints every
//! end-to-end metric, with `--trace 1` every per-layer metric, each as
//! `workload metric value unit`, and its last stdout line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.
//! `--workload all` runs every workload, each in a fresh child process
//! so caches start cold and peak RSS is per workload; with several
//! `--out` files, the sets take turns run by run. See README.md.

mod compare;
mod grid;
mod serve;
mod spans;
mod stats;

use pei_types::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Grid threads and daemon workers.
pub const THREADS: usize = 2;
/// `ExpOptions`' default seed, `0x5eed`. Seed 7 is held out from
/// development; both have golden digests.
const DEFAULT_SEED: u64 = 24301;
const DEFAULT_SECONDS: f64 = 12.0;

/// Every workload, in run order.
pub const WORKLOADS: [&str; 6] = [
    grid::NAMES[0],
    grid::NAMES[1],
    grid::NAMES[2],
    grid::NAMES[3],
    serve::NAMES[0],
    serve::NAMES[1],
];

/// End-to-end metrics (untraced runs), with units. Their bounds and
/// directions live in BENCHMARK.json.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_mips", "M/s"),
    ("peak_rss_mb", "MiB"),
    ("latency_mean_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics (traced runs), with units.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("workloads.graph_gen_s", "s"),
    ("workloads.build_s", "s"),
    ("workloads.trace_gen_s", "s"),
    ("workloads.graphs", "count"),
    ("workloads.builds", "count"),
    ("workloads.ops", "count"),
    ("workloads.store_mb", "MiB"),
    ("system.new_s", "s"),
    ("system.run_self_s", "s"),
    ("system.ns_per_event", "ns"),
    ("system.events", "count"),
    ("system.sim_cycles", "count"),
    ("system.instructions", "count"),
    ("system.peis", "count"),
    ("cpu.stall_pei_buffer", "count"),
    ("mem.l1_misses", "count"),
    ("mem.l2_misses", "count"),
    ("mem.l3_misses", "count"),
    ("mem.xbar_messages", "count"),
    ("hmc.dram_accesses", "count"),
    ("hmc.link_flits", "count"),
    ("core.pmu_mem_dispatched", "count"),
    ("core.mpcu_executed", "count"),
    ("core.pim_dir_queued", "count"),
    ("sched.ops", "count"),
    ("sched.busy_s", "s"),
    ("sched.idle_frac", "ratio"),
    ("sched.wait_ms_mean", "ms"),
    ("sched.service_ms_mean", "ms"),
];

/// What one run of one workload reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable notes printed to stderr.
    pub details: Vec<String>,
}

impl Default for Outcome {
    fn default() -> Outcome {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            details: Vec::new(),
        }
    }
}

impl Outcome {
    /// Accounts `attempted` operations of which `failed` did not complete;
    /// any pass digest that differs from `golden` fails them all.
    pub fn checked(
        attempted: u64,
        failed: u64,
        digests: &[String],
        golden: Option<&str>,
    ) -> Outcome {
        let mut out = Outcome {
            attempted,
            failed,
            ..Outcome::default()
        };
        match golden {
            Some(g) if digests.iter().any(|d| d != g) => {
                out.failed = attempted;
                out.details
                    .push(format!("digest mismatch: expected {g}, got {digests:?}"));
            }
            Some(_) => out.details.push("digest matches the golden".to_owned()),
            None => out
                .details
                .push("no golden digest for this seed; checked completion only".to_owned()),
        }
        if digests.iter().any(|d| d != &digests[0]) {
            out.failed = attempted;
            out.details.push("passes of one run disagree".to_owned());
        }
        out.correct = out.failed == 0;
        out
    }

    fn to_json(&self, declared: &[(&str, &str)]) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                (
                    (*name).to_owned(),
                    Json::Obj(vec![
                        ("value".to_owned(), Json::from(*value)),
                        ("unit".to_owned(), Json::from(unit_of(declared, name))),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_owned(), Json::from(self.correct)),
            ("attempted".to_owned(), Json::from(self.attempted)),
            ("failed".to_owned(), Json::from(self.failed)),
            ("metrics".to_owned(), Json::Obj(metrics)),
        ])
    }
}

fn unit_of<'a>(declared: &[(&'a str, &'a str)], name: &str) -> &'a str {
    declared
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared for this mode"))
}

/// The workloads/system/simulated-machine layer metrics of cells run
/// directly under [`grid::run_direct`].
pub fn layer_metrics(
    direct: &grid::Direct,
    spans: &[spans::Span],
    graphs: usize,
) -> Vec<(&'static str, f64)> {
    let selfs = spans::self_times(spans);
    let s = |name| spans::self_seconds(spans, &selfs, name);
    let sum = |key: &str| {
        direct
            .results
            .iter()
            .map(|r| r.stats.get(key).unwrap_or(0.0))
            .sum::<f64>()
    };
    let events = sum("sim.events");
    vec![
        ("workloads.graph_gen_s", s("workloads.graph")),
        ("workloads.build_s", s("workloads.build")),
        ("workloads.trace_gen_s", s("workloads.next_phase")),
        ("workloads.graphs", graphs as f64),
        ("workloads.builds", direct.results.len() as f64),
        ("workloads.ops", direct.ops as f64),
        (
            "workloads.store_mb",
            direct.store_bytes as f64 / (1 << 20) as f64,
        ),
        ("system.new_s", s("system.new")),
        ("system.run_self_s", s("system.run")),
        ("system.ns_per_event", s("system.run") * 1e9 / events),
        ("system.events", events),
        (
            "system.sim_cycles",
            direct.results.iter().map(|r| r.cycles as f64).sum(),
        ),
        (
            "system.instructions",
            direct.results.iter().map(|r| r.instructions as f64).sum(),
        ),
        (
            "system.peis",
            direct.results.iter().map(|r| r.peis as f64).sum(),
        ),
        ("cpu.stall_pei_buffer", sum("core.stall.pei_buffer")),
        ("mem.l1_misses", sum("cache.l1.misses")),
        ("mem.l2_misses", sum("cache.l2.misses")),
        ("mem.l3_misses", sum("l3.misses")),
        ("mem.xbar_messages", sum("xbar.messages")),
        ("hmc.dram_accesses", sum("dram.reads") + sum("dram.writes")),
        (
            "hmc.link_flits",
            sum("link.req_flits") + sum("link.res_flits"),
        ),
        ("core.pmu_mem_dispatched", sum("pmu.mem_dispatched")),
        ("core.mpcu_executed", sum("mpcu.executed")),
        ("core.pim_dir_queued", sum("pmu.dir.queued")),
    ]
}

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn golden_path(workload: &str, seed: u64) -> PathBuf {
    if serve::NAMES.contains(&workload) {
        bench_dir().join("expected/serve-recipes.digest")
    } else {
        bench_dir().join(format!("expected/{workload}.{seed}.digest"))
    }
}

/// Golden digests as `key → hex`: one entry keyed `""` for a grid at a
/// seed, one per recipe for the serve workloads.
fn golden(workload: &str, seed: u64) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(golden_path(workload, seed)).unwrap_or_default();
    text.lines()
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ').unwrap_or(("", l));
            (!v.is_empty()).then(|| (k.to_owned(), v.to_owned()))
        })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    runs: usize,
    out: Vec<PathBuf>,
    label: String,
    compare: Option<(PathBuf, PathBuf)>,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        spans: None,
        runs: 1,
        out: Vec::new(),
        label: String::new(),
        compare: None,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = value(&flag, &mut it)?,
            "--seed" => {
                let v = value(&flag, &mut it)?;
                a.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not an integer"))?;
            }
            "--seconds" => {
                let v = value(&flag, &mut it)?;
                a.seconds = v
                    .parse()
                    .map_err(|_| format!("--seconds: `{v}` is not a number"))?;
            }
            "--trace" => {
                a.trace = match value(&flag, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: `{v}` is not 0 or 1")),
                }
            }
            "--traced" => {
                a.trace = true;
                a.spans = Some(value(&flag, &mut it)?.into());
            }
            "--runs" => {
                let v = value(&flag, &mut it)?;
                a.runs = v
                    .parse()
                    .map_err(|_| format!("--runs: `{v}` is not an integer"))?;
            }
            "--out" => a.out.push(value(&flag, &mut it)?.into()),
            "--label" => a.label = value(&flag, &mut it)?,
            "--compare" => {
                let x = value(&flag, &mut it)?;
                a.compare = Some((x.into(), value(&flag, &mut it)?.into()));
            }
            "--bless" => a.bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let known = a.workload == "all" || WORKLOADS.contains(&a.workload.as_str());
    if a.compare.is_none() && !known {
        return Err(format!("--workload must be `all` or one of {WORKLOADS:?}"));
    }
    if a.bless && a.workload == "all" {
        return Err("--bless records one workload's digests; name it".to_owned());
    }
    if a.out.len() > 1 && (a.compare.is_some() || a.workload != "all") {
        return Err("several --out files take turns only under --workload all".to_owned());
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 || a.runs == 0 {
        return Err("--seconds and --runs must be positive".to_owned());
    }
    Ok(a)
}

/// Runs one workload in this process and prints its metrics and result.
fn run_one(a: &Args) -> bool {
    let w = a.workload.as_str();
    let golden = golden(w, a.seed);
    let (out, spans) = if grid::NAMES.contains(&w) {
        let g = golden.get("").map(String::as_str);
        if a.trace {
            grid::run_traced(w, a.seed, g)
        } else {
            (grid::run(w, a.seed, a.seconds, g), Vec::new())
        }
    } else {
        serve::run(w, a.seed, a.seconds, a.trace, &golden)
    };
    let declared: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    assert_eq!(
        out.metrics.iter().map(|m| m.0).collect::<Vec<_>>(),
        declared.iter().map(|m| m.0).collect::<Vec<_>>(),
        "a run reports exactly the declared metrics, in order"
    );
    for d in &out.details {
        eprintln!("# {w}: {d}");
    }
    for (name, value) in &out.metrics {
        println!("{w} {name} {value} {}", unit_of(declared, name));
    }
    if let (Some(path), true) = (&a.spans, a.trace) {
        if let Err(e) = std::fs::write(path, spans::chrome_trace(&spans)) {
            eprintln!("# {w}: cannot write {}: {e}", path.display());
        }
    }
    println!("{}", out.to_json(declared).encode());
    out.correct
}

/// `--workload all`: each workload (and each of `--runs` repetitions) in
/// a fresh child process; prints their lines and gathers their results.
/// With several `--out` files, the sets take turns at every workload of
/// every repetition, so slow spells of a shared host fall on all alike.
fn run_all(a: &Args) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let sets = a.out.len().max(1);
    let mut runs = vec![Vec::new(); sets];
    let mut all_correct = true;
    let mut modes = vec![false; a.runs];
    if a.trace {
        modes.push(true);
    }
    for trace in modes {
        for w in WORKLOADS {
            for (set, set_runs) in runs.iter_mut().enumerate() {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", w, "--seed", &a.seed.to_string()])
                    .args(["--seconds", &a.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }]);
                if let (true, Some(p)) = (trace, &a.spans) {
                    let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("spans");
                    let file = match sets {
                        1 => format!("{stem}.{w}.json"),
                        _ => format!("{stem}.{set}.{w}.json"),
                    };
                    cmd.arg("--traced").arg(p.with_file_name(file));
                }
                let output = cmd
                    .stderr(Stdio::inherit())
                    .output()
                    .expect("spawn a workload process");
                let text = String::from_utf8_lossy(&output.stdout);
                print!("{text}");
                let result = text.lines().last().and_then(|l| Json::parse(l).ok());
                let ok = output.status.success()
                    && result
                        .as_ref()
                        .and_then(|r| r.get("correct"))
                        .and_then(Json::as_bool)
                        == Some(true);
                if !ok {
                    eprintln!("# {w}: run failed or incorrect ({})", output.status);
                }
                all_correct &= ok;
                set_runs.push(Json::Obj(vec![
                    ("workload".to_owned(), Json::from(w)),
                    ("seed".to_owned(), Json::from(a.seed)),
                    ("trace".to_owned(), Json::from(u64::from(trace))),
                    ("result".to_owned(), result.unwrap_or(Json::Null)),
                ]));
            }
        }
    }
    for (set, (path, set_runs)) in a.out.iter().zip(runs).enumerate() {
        let label = match sets {
            1 => a.label.clone(),
            _ => format!("{}; set {} of {sets}, taking turns", a.label, set + 1),
        };
        let doc = Json::Obj(vec![
            ("label".to_owned(), Json::from(label.as_str())),
            ("nproc".to_owned(), Json::from(nproc() as u64)),
            ("seconds".to_owned(), Json::from(a.seconds)),
            ("runs".to_owned(), Json::Arr(set_runs)),
        ]);
        if let Err(e) = std::fs::write(path, doc.encode() + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            return false;
        }
    }
    all_correct
}

/// `--bless`: records the golden digests the checks compare against —
/// for a grid, its untraced pass at `--seed`; for the serve workloads,
/// every recipe run once, directly.
fn bless(a: &Args) -> bool {
    let w = a.workload.as_str();
    let text = if serve::NAMES.contains(&w) {
        serve::bless()
    } else {
        match grid::bless(w, a.seed) {
            Some(d) => format!("{d}\n"),
            None => {
                eprintln!("{w} did not complete; nothing blessed");
                return false;
            }
        }
    };
    let path = golden_path(w, a.seed);
    std::fs::create_dir_all(path.parent().expect("expected/ has a parent"))
        .expect("create expected/");
    std::fs::write(&path, text).expect("write golden digests");
    eprintln!("wrote {}", path.display());
    true
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pei_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some((x, y)) = &a.compare {
        compare::run(x, y, a.out.first().map(PathBuf::as_path))
    } else {
        if nproc() < THREADS {
            eprintln!("warning: {} CPU(s) for {THREADS} grid threads / daemon workers; timings will not match a {THREADS}-CPU baseline", nproc());
        }
        if a.bless {
            bless(&a)
        } else if a.workload == "all" {
            run_all(&a)
        } else {
            run_one(&a)
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("section present")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn printed_metrics_are_well_named_and_declared() {
        for (section, ours) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let theirs = declared(section);
            let ours: Vec<(String, String)> = ours
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(ours, theirs, "{section} matches BENCHMARK.json");
            for (name, _) in &ours {
                assert!(
                    !name.is_empty()
                        && name
                            .bytes()
                            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                    "{name}"
                );
            }
        }
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn a_digest_mismatch_fails_every_operation() {
        let ok = Outcome::checked(8, 0, &["ab".into()], Some("ab"));
        assert!(ok.correct && ok.failed == 0);
        let bad = Outcome::checked(8, 1, &["ab".into()], Some("cd"));
        assert!(!bad.correct && bad.failed == 8);
        let unknown = Outcome::checked(8, 0, &["ab".into(), "ab".into()], None);
        assert!(unknown.correct);
        let split = Outcome::checked(8, 0, &["ab".into(), "cd".into()], None);
        assert_eq!(split.failed, 8);
    }
}
