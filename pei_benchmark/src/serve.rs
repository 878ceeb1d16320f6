//! Daemon workloads: an in-process `pei_serve::Daemon` driven over a
//! Unix socket pair by a two-thread load generator (sender and
//! receiver) on one connection.

use crate::grid::run_direct;
use crate::spans::{Recorder, Span};
use crate::stats::{mean, median, peak_rss_mb, percentile, tail_percentile, Digest, TAIL_SAMPLES};
use crate::{Outcome, THREADS};
use pei_bench::service::resolve_recipe;
use pei_engine::SimRng;
use pei_serve::{Daemon, ServeConfig};
use pei_types::wire::{Priority, Recipe, Request, Response, StatsFrame};
use pei_workloads::cache;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

pub const NAMES: [&str; 2] = ["serve-sweep", "serve-open"];

const WORKLOADS: [&str; 8] = ["atf", "bfs", "pr", "hj", "sc", "svm", "hg", "rp"];
const SIZES: [&str; 2] = ["small", "medium"];
const POLICIES: [&str; 3] = ["host", "pim", "la"];
const TENANTS: [&str; 3] = ["tenant-a", "tenant-b", "tenant-c"];
/// Recipe seeds are drawn from `1..=RECIPE_SEEDS`.
const RECIPE_SEEDS: u64 = 4;
const BUDGET: u64 = 2_000;

/// `serve-sweep` keeps this many jobs outstanding: a closed loop whose
/// queue never drains.
const SWEEP_WINDOW: usize = 32;
/// `serve-open` Poisson arrival rate, jobs per second: about 43 % of the
/// 44–47 jobs/s that `serve-sweep` measures two workers complete of the
/// same mix on a quiet 2-CPU host.
const OPEN_RATE: f64 = 20.0;
/// The `serve-open` latency limit on the p95 pooled over a run.
const LATENCY_LIMIT_MS: f64 = 250.0;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// How a serve workload loads the daemon.
struct Plan {
    /// Shuffled rounds of every recipe combination per pass, so every
    /// pass holds each equally often.
    rounds: usize,
    /// A closed loop of [`SWEEP_WINDOW`] outstanding jobs rather than
    /// open-loop arrivals.
    closed: bool,
    /// Jobs per second: the arrival rate of an open loop, the nominal
    /// completion rate of a closed one. It sizes a run at `--seconds`.
    rate: f64,
}

impl Plan {
    fn per_pass(&self) -> usize {
        self.rounds * WORKLOADS.len() * SIZES.len() * POLICIES.len()
    }

    /// Passes a run needs so that the faster half of its counted passes
    /// (see [`faster_half`]) holds enough jobs for p90 to keep
    /// [`TAIL_SAMPLES`] beyond it. A closed loop's first pass is not
    /// counted.
    fn min_passes(&self) -> usize {
        let half = (10 * TAIL_SAMPLES).div_ceil(self.per_pass());
        2 * half - 1 + usize::from(self.closed)
    }

    /// Passes in a run of `seconds`.
    fn passes(&self, seconds: f64) -> usize {
        ((seconds * self.rate / self.per_pass() as f64).round() as usize).max(self.min_passes())
    }
}

fn plan(name: &str) -> Plan {
    match name {
        "serve-sweep" => Plan {
            rounds: 3,
            closed: true,
            rate: 48.0,
        },
        // One round per pass: 2.4 s passes, shorter than most slow
        // spells of a shared host, so the faster half of them misses
        // most of those spells.
        "serve-open" => Plan {
            rounds: 1,
            closed: false,
            rate: OPEN_RATE,
        },
        other => unreachable!("`{other}` is not a serve workload"),
    }
}

/// One submission: what to run and whose fair-share queue it joins.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub recipe: Recipe,
    pub tenant: &'static str,
}

pub fn recipe(workload: &str, size: &str, policy: &str, seed: u64) -> Recipe {
    let mut r = Recipe::new(workload, size, policy);
    r.seed = seed;
    r.budget = Some(BUDGET);
    r
}

/// The golden-table key of a recipe.
pub fn key(r: &Recipe) -> String {
    format!("{} {} {} {}", r.workload, r.size, r.policy, r.seed)
}

/// Every recipe a serve workload can draw.
pub fn all_recipes() -> Vec<Recipe> {
    let mut out = Vec::new();
    for w in WORKLOADS {
        for s in SIZES {
            for p in POLICIES {
                for seed in 1..=RECIPE_SEEDS {
                    out.push(recipe(w, s, p, seed));
                }
            }
        }
    }
    out
}

/// One job per distinct input (workload, size, recipe seed).
pub fn inputs() -> Vec<Recipe> {
    all_recipes()
        .into_iter()
        .filter(|r| r.policy == "la")
        .collect()
}

/// The set-up warm-up: one job per distinct graph (the graph workloads
/// share one graph per size and seed). It fills the process-wide graph
/// cache, which a long-lived daemon's users find warm; other inputs are
/// built per job and have nothing to warm.
fn warmup() -> Vec<Recipe> {
    inputs()
        .into_iter()
        .filter(|r| r.workload == "atf")
        .collect()
}

/// `rounds` shuffled rounds of every (workload, size, policy)
/// combination, so each appears equally often whatever the seed, each
/// with a drawn recipe seed; tenants take turns.
pub fn draw(seed: u64, rounds: usize) -> Vec<Job> {
    let mut rng = SimRng::seed_from(seed);
    let mut out = Vec::new();
    for _ in 0..rounds {
        let mut round: Vec<(&str, &str, &str)> = WORKLOADS
            .iter()
            .flat_map(|w| {
                SIZES
                    .iter()
                    .flat_map(move |s| POLICIES.map(|p| (*w, *s, p)))
            })
            .collect();
        rng.shuffle(&mut round);
        for (w, s, p) in round {
            let seed = 1 + rng.gen_range(RECIPE_SEEDS);
            out.push(Job {
                recipe: recipe(w, s, p, seed),
                tenant: TENANTS[out.len() % TENANTS.len()],
            });
        }
    }
    out
}

/// Arrival times (seconds from the start) of a Poisson process with
/// exactly `n` arrivals in each of `passes` consecutive spans of `span`
/// seconds: sorted uniform points per span. Fixing the count per span
/// keeps every pass's offered load the same for every seed, so seeds
/// vary only where the bursts fall.
pub fn poisson(seed: u64, passes: usize, n: usize, span: f64) -> Vec<f64> {
    let mut rng = SimRng::seed_from(seed ^ 0x0a77_1e5c_4ed0_1e00);
    (0..passes)
        .flat_map(|k| {
            let mut t: Vec<f64> = (0..n).map(|_| (k as f64 + rng.gen_f64()) * span).collect();
            t.sort_by(f64::total_cmp);
            t
        })
        .collect()
}

/// How the sender paces submissions.
enum Pace {
    /// Keep this many jobs outstanding.
    Closed(usize),
    /// Send each job at its offset (seconds) from the session start.
    Open(Vec<f64>),
}

/// The client-side record of one submission.
#[derive(Default, Clone)]
struct Rec {
    due: Option<Instant>,
    write: Option<Instant>,
    encode_ns: u64,
    ack: Option<Instant>,
    done: Option<Instant>,
    decode_ns: u64,
    ok: bool,
    mismatch: bool,
    instructions: u64,
    frame_bytes: usize,
}

#[derive(Default)]
struct Shared {
    recs: Vec<Rec>,
    /// Admission answers seen (an ack or a job-less rejection, both in
    /// submission order).
    admitted: usize,
    ids: HashMap<u64, usize>,
    outstanding: usize,
    terminals: usize,
}

struct Log {
    /// Start of the session to the end of its warm-up.
    setup: Duration,
    /// The measured submissions (warm-up excluded).
    recs: Vec<Rec>,
    stats: StatsFrame,
}

/// One session: attach, submit `warm` back to back and wait for it, then
/// submit `jobs` at `pace`, wait for every terminal frame, and shut the
/// daemon down.
fn session(
    daemon: &Daemon,
    started: Instant,
    warm: &[Recipe],
    jobs: &[Job],
    pace: &Pace,
    golden: &BTreeMap<String, String>,
) -> Log {
    let (client, server) = UnixStream::pair().expect("socket pair");
    let server_read = server.try_clone().expect("split the daemon's end");
    let client_read = client.try_clone().expect("split the client's end");
    let subs: Vec<Job> = warm
        .iter()
        .map(|r| Job {
            recipe: r.clone(),
            tenant: TENANTS[0],
        })
        .chain(jobs.iter().cloned())
        .collect();
    let state = Mutex::new(Shared {
        recs: vec![Rec::default(); subs.len()],
        ..Shared::default()
    });
    let changed = Condvar::new();
    let wait_until = |cond: &dyn Fn(&Shared) -> bool| {
        let mut g = state.lock().expect("state lock poisoned");
        while !cond(&g) {
            g = changed.wait(g).expect("state lock poisoned");
        }
    };
    let mut setup = Duration::ZERO;
    let stats = std::thread::scope(|scope| {
        scope.spawn(|| daemon.serve(BufReader::new(server_read), server));
        scope.spawn(|| {
            for line in BufReader::new(client_read).lines() {
                let Ok(line) = line else { break };
                let at = Instant::now();
                let resp = Response::decode(&line).expect("the daemon sends well-formed frames");
                let decode_ns = at.elapsed().as_nanos() as u64;
                let mut g = state.lock().expect("state lock poisoned");
                let idx = match &resp {
                    Response::Ack { job } => {
                        let i = g.admitted;
                        g.admitted += 1;
                        g.ids.insert(*job, i);
                        g.recs[i].ack = Some(at);
                        continue;
                    }
                    Response::Error { job: None, .. } => {
                        g.admitted += 1;
                        g.admitted - 1
                    }
                    Response::Result(r) => g.ids[&r.job],
                    Response::Error { job: Some(j), .. } | Response::Cancelled { job: j, .. } => {
                        g.ids[j]
                    }
                    Response::Bye => break,
                    Response::Progress { .. } | Response::Stats(_) => continue,
                };
                let rec = &mut g.recs[idx];
                rec.done = Some(at);
                rec.decode_ns = decode_ns;
                if let Response::Result(r) = &resp {
                    let d = Digest::of_result(&r.stats, r.cycles).hex();
                    rec.mismatch = golden
                        .get(&key(&subs[idx].recipe))
                        .is_some_and(|want| *want != d);
                    rec.ok = true;
                    rec.instructions = r.instructions;
                    rec.frame_bytes = line.len();
                }
                g.outstanding -= 1;
                g.terminals += 1;
                drop(g);
                changed.notify_all();
            }
        });
        let mut w = client;
        let mut send = |i: usize, req: Request| {
            let t = Instant::now();
            let line = req.encode() + "\n";
            let encode_ns = t.elapsed().as_nanos() as u64;
            let write = Instant::now();
            {
                let mut g = state.lock().expect("state lock poisoned");
                g.outstanding += 1;
                g.recs[i].write = Some(write);
                g.recs[i].encode_ns = encode_ns;
            }
            w.write_all(line.as_bytes()).expect("write a frame");
            w.flush().expect("flush a frame");
        };
        let submit = |j: &Job| Request::Submit {
            recipe: j.recipe.clone(),
            trace: None,
            tenant: Some(j.tenant.to_owned()),
            priority: Priority::Normal,
            deadline_ms: None,
        };
        for (i, j) in subs.iter().enumerate().take(warm.len()) {
            wait_until(&|g| g.outstanding < SWEEP_WINDOW);
            send(i, submit(j));
        }
        wait_until(&|g| g.terminals == warm.len());
        setup = started.elapsed();
        let t0 = Instant::now();
        for (i, j) in subs.iter().enumerate().skip(warm.len()) {
            let due = match pace {
                Pace::Closed(k) => {
                    wait_until(&|g| g.outstanding < *k);
                    Instant::now()
                }
                Pace::Open(at) => {
                    let due = t0 + Duration::from_secs_f64(at[i - warm.len()]);
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    due
                }
            };
            state.lock().expect("state lock poisoned").recs[i].due = Some(due);
            send(i, submit(j));
        }
        wait_until(&|g| g.terminals == subs.len());
        let stats = daemon.stats();
        w.write_all(format!("{}\n", Request::Shutdown.encode()).as_bytes())
            .expect("write shutdown");
        stats
    });
    let mut recs = state.into_inner().expect("state lock poisoned").recs;
    Log {
        setup,
        recs: recs.split_off(warm.len()),
        stats,
    }
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: THREADS,
        ..ServeConfig::default()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A job's latency, from when it was due to its terminal frame; a job
/// that failed misses every latency limit.
fn latency_ms(r: &Rec) -> f64 {
    match (r.ok && !r.mismatch, r.due, r.done) {
        (true, Some(due), Some(done)) => ms(done - due),
        _ => f64::INFINITY,
    }
}

/// The latencies of the faster half (rounded up) of `passes`, ranked by
/// mean latency, pooled. Slow spells of a shared host last seconds and
/// so fall on whole passes; pooling keeps enough jobs for the tail.
fn faster_half(passes: &[&[f64]]) -> Vec<f64> {
    let mut ranked = passes.to_vec();
    ranked.sort_by(|a, b| mean(a).total_cmp(&mean(b)));
    ranked[..ranked.len().div_ceil(2)].concat()
}

/// Runs workload `name`: set-up (daemon start, session attach, warm-up)
/// [`SETUPS`] times, then passes of balanced recipe rounds on the last
/// session. As for the grids, throughput timings report the best pass;
/// latencies come from the [`faster_half`] of the passes. Traced runs
/// replace the warm-up with a direct, span-timed execution of one job
/// per distinct input.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    golden: &BTreeMap<String, String>,
) -> (Outcome, Vec<Span>) {
    let plan = plan(name);
    let per_pass = plan.per_pass();
    let passes = plan.passes(seconds);
    let jobs = draw(seed, passes * plan.rounds);
    let pace = if plan.closed {
        Pace::Closed(SWEEP_WINDOW)
    } else {
        Pace::Open(poisson(seed, passes, per_pass, per_pass as f64 / plan.rate))
    };
    let mut out = Outcome::default();
    let mut spans = Vec::new();
    let mut setups = Vec::new();
    let mut log = None;
    let rec = Arc::new(Recorder::new());
    if traced {
        // One direct, span-timed run per distinct input stands in for the
        // warm-up and gives the layer metrics below the daemon.
        cache::clear();
        let direct_inputs = inputs();
        let cells: Vec<_> = direct_inputs
            .iter()
            .map(|r| resolve_recipe(r).expect("serve recipes resolve"))
            .collect();
        let direct = run_direct(&cells, &rec);
        let mismatches = direct_inputs
            .iter()
            .zip(&direct.results)
            .filter(|(r, res)| {
                !res.ok()
                    || golden
                        .get(&key(r))
                        .is_some_and(|g| *g != Digest::of_run(res).hex())
            })
            .count();
        if mismatches > 0 {
            out.correct = false;
            out.details.push(format!(
                "{mismatches} direct run(s) failed or differ from the golden digests"
            ));
        }
        out.metrics = crate::layer_metrics(&direct, &rec.spans(), cache::len());
        let daemon = Daemon::start(config());
        log = Some(session(&daemon, Instant::now(), &[], &jobs, &pace, golden));
    } else {
        let warm = warmup();
        for rep in 0..SETUPS {
            cache::clear();
            let started = Instant::now();
            let daemon = Daemon::start(config());
            let last = rep + 1 == SETUPS;
            let measured: &[Job] = if last { &jobs } else { &[] };
            let l = session(&daemon, started, &warm, measured, &pace, golden);
            setups.push(l.setup.as_secs_f64());
            if last {
                log = Some(l);
            }
        }
    }
    cache::clear();
    let Log { recs, stats, .. } = log.expect("the measured session ran");

    let n = recs.len();
    let ok = recs.iter().filter(|r| r.ok).count();
    let mismatched = recs.iter().filter(|r| r.mismatch).count();
    out.attempted = n as u64;
    out.failed = if mismatched > 0 { n } else { n - ok } as u64;
    out.correct &= out.failed == 0;
    if mismatched > 0 {
        out.details.push(format!(
            "{mismatched} result(s) differ from the golden digests"
        ));
    } else if !golden.is_empty() {
        out.details
            .push("every result matches its recipe's golden digest".to_owned());
    }
    let lat_ms: Vec<f64> = recs.iter().map(latency_ms).collect();
    let span_s = |rs: &[Rec]| {
        let first = rs
            .iter()
            .filter_map(|r| r.due)
            .min()
            .expect("jobs were sent");
        let last = rs.iter().filter_map(|r| r.done).max().unwrap_or(first);
        (last - first).as_secs_f64()
    };
    let wall = span_s(&recs);
    let p90 = percentile(&lat_ms, 90.0);
    out.details.push(format!(
        "{passes} passes of {per_pass} jobs; all {n}: mean {:.1} ms, p50 {:.1} ms, p90 {p90:.1} ms",
        mean(&lat_ms),
        percentile(&lat_ms, 50.0)
    ));
    if !plan.closed {
        let late: Vec<f64> = recs
            .iter()
            .filter_map(|r| Some(ms(r.write? - r.due?)))
            .collect();
        out.details.push(format!(
            "load generator lateness p95 {:.3} ms, max {:.3} ms",
            percentile(&late, 95.0),
            late.iter().cloned().fold(0.0, f64::max)
        ));
        let p95 = percentile(&lat_ms, 95.0);
        out.details.push(format!(
            "latency limit p95 <= {LATENCY_LIMIT_MS} ms at {OPEN_RATE} jobs/s, pooled over {n} jobs: p95 {p95:.1} ms, {}",
            if p95 <= LATENCY_LIMIT_MS {
                "held"
            } else {
                "missed"
            }
        ));
    }
    if !traced {
        // A closed loop's first pass fills its window from an empty
        // queue, so its latencies are not the steady state's.
        let ramp = usize::from(plan.closed);
        let counted: Vec<(&[Rec], &[f64])> = recs
            .chunks(per_pass)
            .zip(lat_ms.chunks(per_pass))
            .skip(ramp)
            .collect();
        let best = |f: &dyn Fn(&[Rec]) -> f64, lower: bool| {
            let v = counted.iter().map(|(r, _)| f(r));
            if lower {
                v.fold(f64::INFINITY, f64::min)
            } else {
                v.fold(0.0, f64::max)
            }
        };
        let fast = faster_half(&counted.iter().map(|(_, l)| *l).collect::<Vec<_>>());
        out.details.push(format!(
            "latencies over the faster half of {} counted passes: {} jobs, p90 the highest percentile with {TAIL_SAMPLES} beyond it: p{}",
            counted.len(),
            fast.len(),
            tail_percentile(fast.len()).unwrap_or(0.0)
        ));
        let instr = |r: &[Rec]| r.iter().map(|x| x.instructions as f64).sum::<f64>();
        let done = |r: &[Rec]| r.iter().filter(|x| x.ok).count() as f64;
        let per: Vec<String> = recs
            .chunks(per_pass)
            .zip(lat_ms.chunks(per_pass))
            .map(|(r, l)| {
                format!(
                    "{:.1}/{:.1} ms {:.1}/s",
                    mean(l),
                    percentile(l, 90.0),
                    done(r) / span_s(r)
                )
            })
            .collect();
        out.details
            .push(format!("passes (mean/p90, throughput): {}", per.join(", ")));
        out.metrics = vec![
            ("wall_s", best(&span_s, true)),
            ("setup_s", median(&setups)),
            ("sim_mips", best(&|r| instr(r) / span_s(r) / 1e6, false)),
            ("peak_rss_mb", peak_rss_mb()),
            ("latency_mean_ms", mean(&fast)),
            ("latency_p90_ms", percentile(&fast, 90.0)),
            ("throughput_per_s", best(&|r| done(r) / span_s(r), false)),
        ];
        return (out, spans);
    }

    // Traced: the daemon-side scheduler layer from its stats frame, the
    // client-side layers from the load generator's own timestamps.
    let busy_ms: u64 = stats.workers.iter().map(|w| w.busy_ms).sum();
    let service_ms = busy_ms as f64 / stats.completed.max(1) as f64;
    let pending_ms: Vec<f64> = recs
        .iter()
        .filter_map(|r| Some(ms(r.done? - r.ack?)))
        .collect();
    out.metrics.extend([
        ("sched.ops", stats.completed as f64),
        ("sched.busy_s", busy_ms as f64 / 1e3),
        (
            "sched.idle_frac",
            1.0 - busy_ms as f64 / 1e3 / (THREADS as f64 * wall),
        ),
        ("sched.wait_ms_mean", mean(&pending_ms) - service_ms),
        ("sched.service_ms_mean", service_ms),
    ]);
    let ack_ms: Vec<f64> = recs
        .iter()
        .filter_map(|r| Some(ms(r.ack? - r.write?)))
        .collect();
    let enc_us: Vec<f64> = recs.iter().map(|r| r.encode_ns as f64 / 1e3).collect();
    let dec_us: Vec<f64> = recs.iter().map(|r| r.decode_ns as f64 / 1e3).collect();
    let kb: Vec<f64> = recs
        .iter()
        .filter(|r| r.ok)
        .map(|r| r.frame_bytes as f64 / 1024.0)
        .collect();
    let wait_p95 = stats
        .tenants
        .iter()
        .map(|t| t.wait_p95_ms)
        .max()
        .unwrap_or(0);
    out.details.extend([
        format!(
            "client: ack p50 {:.3} ms p95 {:.3} ms; encode p50 {:.2} us; decode p50 {:.2} us; result frame mean {:.2} KiB",
            percentile(&ack_ms, 50.0),
            percentile(&ack_ms, 95.0),
            percentile(&enc_us, 50.0),
            percentile(&dec_us, 50.0),
            mean(&kb)
        ),
        format!(
            "daemon: queue wait p95 {wait_p95} ms (worst tenant), queue high water {}, graph cache {} entries, queue-full {}, deadline-exceeded {}, dropped progress {}",
            stats.queue_high_water,
            stats.graph_cache_entries,
            stats.queue_full,
            stats.deadline_exceeded,
            stats.dropped_progress
        ),
    ]);
    for (i, r) in recs.iter().enumerate() {
        let (Some(write), Some(done)) = (r.write, r.done) else {
            continue;
        };
        let (op, id, tid) = (i as u64, rec.id(), 100);
        let enc = Duration::from_nanos(r.encode_ns);
        let dec = Duration::from_nanos(r.decode_ns);
        let mut child = |name, a: Instant, b: Instant| {
            spans.push(Span {
                id: rec.id(),
                parent: id,
                name,
                op,
                tid,
                start: rec.at(a),
                end: rec.at(b),
            })
        };
        child("wire.encode", write - enc, write);
        if let Some(ack) = r.ack {
            child("serve.admit", write, ack);
            child("serve.pending", ack, done);
        }
        child("wire.decode", done, done + dec);
        spans.push(Span {
            id,
            parent: 0,
            name: "job",
            op,
            tid,
            start: rec.at(write - enc),
            end: rec.at(done + dec),
        });
    }
    let mut all = rec.spans();
    all.append(&mut spans);
    (out, all)
}

/// The golden digest of every recipe, from direct one-shot runs — the
/// reference the daemon's results must reproduce byte for byte.
pub fn bless() -> String {
    let recipes = all_recipes();
    let cells: Vec<_> = recipes
        .iter()
        .map(|r| resolve_recipe(r).expect("serve recipes resolve"))
        .collect();
    let results = pei_bench::runner::run_specs(&cells, THREADS);
    cache::clear();
    recipes
        .iter()
        .zip(&results)
        .map(|(r, res)| {
            assert!(res.ok(), "{} failed", key(r));
            format!("{} {}\n", key(r), Digest::of_run(res).hex())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_reproducible_with_the_requested_mean_rate() {
        let (passes, n) = (50, plan("serve-open").per_pass());
        let span = n as f64 / OPEN_RATE;
        let a = poisson(24301, passes, n, span);
        assert_eq!(a, poisson(24301, passes, n, span));
        assert_ne!(a, poisson(7, passes, n, span));
        assert!(a.windows(2).all(|w| w[1] >= w[0]));
        for (k, pass) in a.chunks(n).enumerate() {
            assert!(pass
                .iter()
                .all(|t| (k as f64 * span..(k + 1) as f64 * span).contains(t)));
        }
        // Exponential gaps: mean 1/rate, coefficient of variation 1.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((mean * OPEN_RATE - 1.0).abs() < 0.05, "rate {}", 1.0 / mean);
        assert!(
            (var.sqrt() / mean - 1.0).abs() < 0.1,
            "cv {}",
            var.sqrt() / mean
        );
    }

    #[test]
    fn recipe_draw_is_deterministic_and_balanced() {
        let a = draw(24301, 6);
        assert_eq!(a, draw(24301, 6));
        assert_ne!(a, draw(7, 6));
        assert_eq!(a.len(), 6 * 48);
        let mut counts: HashMap<(String, String, String), usize> = HashMap::new();
        for j in &a {
            let r = &j.recipe;
            *counts
                .entry((r.workload.clone(), r.size.clone(), r.policy.clone()))
                .or_default() += 1;
            assert!((1..=RECIPE_SEEDS).contains(&r.seed));
            assert_eq!(r.budget, Some(BUDGET));
            assert!(resolve_recipe(r).is_ok());
        }
        assert_eq!(counts.len(), 48);
        assert!(counts.values().all(|&c| c == 6));
    }

    #[test]
    fn faster_half_keeps_ten_samples_beyond_p90() {
        for name in NAMES {
            let p = plan(name);
            for seconds in [0.1, 15.0] {
                let counted = p.passes(seconds) - usize::from(p.closed);
                let pass = vec![1.0; p.per_pass()];
                let fast = faster_half(&vec![pass.as_slice(); counted]);
                assert!(
                    tail_percentile(fast.len()).is_some_and(|t| t >= 90.0),
                    "{name} at {seconds} s"
                );
            }
        }
        let (slow, quick, mid) = ([9.0, 9.0], [1.0, 2.0], [3.0, 3.0]);
        assert_eq!(faster_half(&[&slow, &quick, &mid]), [1.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn warmup_covers_each_graph_once() {
        let w = warmup();
        assert_eq!(w.len(), SIZES.len() * RECIPE_SEEDS as usize);
        assert_eq!(inputs().len(), WORKLOADS.len() * w.len());
        assert_eq!(all_recipes().len(), inputs().len() * POLICIES.len());
    }
}
