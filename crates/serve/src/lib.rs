//! `pei-serve`: the simulator as a long-running service (DESIGN.md §12).
//!
//! One-shot binaries pay the full startup bill per cell: process spawn
//! and input-graph construction. A daemon pays those costs once per
//! *process*: the [`Daemon`] keeps the process-wide `Arc<Graph>` input
//! cache alive across submissions, so a sweep's jobs on one input
//! generate its graph once. Every job runs cold and sliced, through
//! [`run_bounded`] (with a recorder attached when the job asked for a
//! `.petr` capture).
//!
//! The wire protocol is newline-delimited JSON over a Unix socket, TCP,
//! or stdio; the frame types live in [`pei_types::wire`] and the
//! grammar in DESIGN.md §12. A session submits recipes — optionally
//! tagged with a `tenant` and a `priority` band — and receives, per
//! job: one `ack` carrying the job id, `progress` heartbeats while the
//! run advances, and exactly one terminal frame — `result`,
//! `cancelled`, or a structured `error`. Malformed frames and failed
//! runs (checked-mode violations, stalls, cycle limits, even a worker
//! panic) come back as `error` frames; the daemon never dies on a bad
//! submission.
//!
//! Scheduling is strict across priority bands and fair within one:
//! each band keeps a sub-queue per tenant, drained round-robin one job
//! at a time, so a tenant flooding the queue cannot starve the others —
//! under saturation any two continuously-backlogged tenants' completion
//! counts stay within `workers + 1` jobs of each other.
//!
//! The byte-identity contract holds end to end: the `stats` text inside
//! a `result` frame equals the one-shot binary's rendering of the same
//! recipe, whichever worker or scheduling path served the job (pinned
//! by this crate's tests and the CI serve-smoke job).
//!
//! Every resource a client can consume is bounded, with a defined
//! shedding order (DESIGN.md §12 "Overload semantics"): submissions
//! past [`ServeConfig::max_queue`] are rejected with a structured
//! `queue-full` error instead of queueing; every job can carry a
//! wall-clock `deadline_ms` budget (or inherit
//! [`ServeConfig::deadline_ms`]) enforced at slice boundaries exactly
//! like cancellation; a slow reader's `progress` heartbeats are
//! coalesced once its writer queue fills (never `ack` or terminal
//! frames); and a session that disconnects has its queued and in-flight
//! jobs cancelled so orphaned work stops burning worker slots. The
//! seeded chaos harness in [`chaos`] and `tests/chaos.rs` drives
//! misbehaving clients over every transport to pin those bounds.

pub mod chaos;

use pei_bench::runner::RunSpec;
use pei_bench::service::{resolve_capture, resolve_recipe, result_frame, run_bounded, Stopped};
use pei_bench::tracecap::CaptureSpec;
use pei_trace::Recorder;
use pei_types::wire::{Priority, Recipe, Request, Response, StatsFrame, TenantStat, WorkerStat};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default bound on queued jobs (admission control): submissions past
/// it are rejected with a `queue-full` error frame.
pub const DEFAULT_MAX_QUEUE: u64 = 1024;

/// Default bound on frames queued to one session's writer before
/// `progress` heartbeats start being coalesced.
pub const DEFAULT_WRITER_QUEUE: usize = 256;

/// Tenant name used when a submission names none.
pub const DEFAULT_TENANT: &str = "default";

/// Queue-wait samples retained per tenant for the p50/p95 figures in
/// the `stats` frame (a sliding window of the most recent waits).
const WAIT_SAMPLES: usize = 512;

/// The pseudo fault kind that makes the executing worker panic mid-job.
/// Like the simulator fault kinds it is for tests only (the drain-path
/// pinning in this crate's suite and CI); it is intercepted by the
/// daemon before recipe resolution and never reaches the simulator.
pub const PANIC_WORKER_FAULT: &str = "panic-worker";

/// How a [`Daemon`] is provisioned.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing jobs (bounds concurrency; `max_queue`
    /// bounds backlog).
    pub workers: usize,
    /// Cancellation/heartbeat granularity: jobs pause every this many
    /// simulated cycles to check their cancel flag and emit a
    /// `progress` frame. Slicing never changes results — only where the
    /// run loop pauses.
    pub slice: u64,
    /// Admission control: total queued jobs the daemon accepts.
    /// Submissions arriving with the queue at the bound get a terminal
    /// `queue-full` error frame instead of enqueueing. `None` =
    /// unbounded.
    pub max_queue: Option<u64>,
    /// Default wall-clock budget, in milliseconds from the ack, for
    /// jobs that don't carry their own `deadline_ms`. Past it, a job is
    /// abandoned at the next slice boundary with a terminal
    /// `deadline-exceeded` error. `None` = no default budget.
    pub deadline_ms: Option<u64>,
    /// Frames queued to one session's writer before `progress`
    /// heartbeats are coalesced (slow-client backpressure). Ack,
    /// terminal, `stats`, and `bye` frames always queue — their count
    /// is bounded by the session's own submissions.
    pub writer_queue: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 1,
            slice: 1_000_000,
            max_queue: Some(DEFAULT_MAX_QUEUE),
            deadline_ms: None,
            writer_queue: DEFAULT_WRITER_QUEUE,
        }
    }
}

/// Why a job's cancel flag was raised — the first cause wins, so the
/// accounting stays stable when a client `cancel` races a disconnect
/// reap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StopCause {
    /// A client `cancel` frame.
    Client,
    /// The submitting session's reader hit EOF or its writer failed.
    Disconnect,
}

/// A queued or running job as the scheduler tracks it, from its ack to
/// [`finish`].
struct Live {
    /// The flag [`run_bounded`] polls between slices, without the lock.
    cancel: Arc<AtomicBool>,
    /// What raised `cancel` first (for the `cancelled` vs
    /// `disconnect-cancelled` totals).
    cause: Option<StopCause>,
    /// The submitting session, for the disconnect reap.
    session: u64,
}

impl Live {
    fn stop(&mut self, cause: StopCause) {
        self.cause.get_or_insert(cause);
        self.cancel.store(true, Ordering::Relaxed);
    }
}

/// A queued unit of work: the resolved spec plus everything needed to
/// report back to the submitting session.
struct Job {
    id: u64,
    spec: RunSpec,
    /// `Some` when the submission asked for a `.petr` capture: the
    /// replayable recipe and the daemon-side path to write.
    capture: Option<(CaptureSpec, String)>,
    /// Test fault: panic the worker instead of running (see
    /// [`PANIC_WORKER_FAULT`]).
    panic: bool,
    cancel: Arc<AtomicBool>,
    /// Wall-clock budget: the instant past which the run is abandoned,
    /// and the millisecond figure it came from (for the error message).
    deadline: Option<Instant>,
    deadline_ms: Option<u64>,
    reply: SessionTx,
}

/// The bounded per-session writer queue. Critical frames (`ack`,
/// terminals, `stats`, `bye`) always queue — a session can have at most
/// its own outstanding jobs' worth of them in flight — while `progress`
/// heartbeats past `cap` are coalesced or shed, so a reader that stops
/// draining costs the daemon a bounded number of buffered frames, never
/// a blocked worker.
struct FrameQueue {
    inner: Mutex<FrameQueueInner>,
    /// Wakes the writer thread when a frame lands or the last sender
    /// drops.
    ready: Condvar,
    /// Queued-frame count past which heartbeats are shed.
    cap: usize,
    /// Heartbeats coalesced or dropped on this session.
    dropped: AtomicU64,
    /// The session's id, which the live-job map records for the
    /// disconnect reap.
    session: u64,
}

struct FrameQueueInner {
    frames: VecDeque<Response>,
    /// Live [`SessionTx`] clones; the writer exits when this reaches
    /// zero with the queue empty.
    senders: usize,
    /// The transport failed: discard everything from now on so workers
    /// never accumulate frames for (or block on) a dead session.
    dead: bool,
}

/// A handle for queueing response frames to one session's writer
/// thread; clones are counted so the writer knows when every job that
/// could still report has done so.
struct SessionTx {
    q: Arc<FrameQueue>,
}

impl SessionTx {
    fn new(cap: usize, session: u64) -> SessionTx {
        SessionTx {
            q: Arc::new(FrameQueue {
                inner: Mutex::new(FrameQueueInner {
                    frames: VecDeque::new(),
                    senders: 1,
                    dead: false,
                }),
                ready: Condvar::new(),
                cap: cap.max(1),
                dropped: AtomicU64::new(0),
                session,
            }),
        }
    }

    /// Queues a critical frame (never shed; discarded only if the
    /// transport already failed).
    fn send(&self, resp: Response) {
        let mut g = self.q.inner.lock().unwrap();
        if g.dead {
            return;
        }
        g.frames.push_back(resp);
        drop(g);
        self.q.ready.notify_one();
    }

    /// Queues a `progress` heartbeat, shedding under backpressure: when
    /// the queue is at capacity the job's older queued heartbeat is
    /// replaced by this one (coalesced), or — if none is queued — the
    /// new one is dropped. Returns `false` when a heartbeat was shed
    /// either way.
    fn send_progress(&self, job: u64, cycle: u64) -> bool {
        let mut g = self.q.inner.lock().unwrap();
        if g.dead {
            self.q.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if g.frames.len() >= self.q.cap {
            // Coalesce: the newest heartbeat supersedes an older queued
            // one for the same job; one frame's worth of history is
            // shed either way.
            for f in g.frames.iter_mut().rev() {
                if matches!(f, Response::Progress { job: j, .. } if *j == job) {
                    *f = Response::Progress { job, cycle };
                    break;
                }
            }
            self.q.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        g.frames.push_back(Response::Progress { job, cycle });
        drop(g);
        self.q.ready.notify_one();
        true
    }

    /// Heartbeats shed on this session so far.
    fn dropped(&self) -> u64 {
        self.q.dropped.load(Ordering::Relaxed)
    }
}

impl Clone for SessionTx {
    fn clone(&self) -> SessionTx {
        self.q.inner.lock().unwrap().senders += 1;
        SessionTx {
            q: Arc::clone(&self.q),
        }
    }
}

impl Drop for SessionTx {
    fn drop(&mut self) {
        let remaining = {
            let mut g = self.q.inner.lock().unwrap();
            g.senders -= 1;
            g.senders
        };
        if remaining == 0 {
            self.q.ready.notify_all();
        }
    }
}

/// Drains one session's [`FrameQueue`] into its transport. Returns
/// `true` on a clean exit (all senders gone, queue flushed) and `false`
/// when a write or flush failed — the queue is then marked dead so
/// later sends become no-ops, and the caller reaps the session's jobs.
fn writer_loop<W: Write>(q: &FrameQueue, mut writer: W) -> bool {
    loop {
        let frame = {
            let mut g = q.inner.lock().unwrap();
            loop {
                if let Some(f) = g.frames.pop_front() {
                    break f;
                }
                if g.senders == 0 || g.dead {
                    return !g.dead;
                }
                g = q.ready.wait(g).unwrap();
            }
        };
        if writeln!(writer, "{}", frame.encode()).is_err() || writer.flush().is_err() {
            let mut g = q.inner.lock().unwrap();
            g.dead = true;
            g.frames.clear();
            return false;
        }
    }
}

/// Per-worker scheduler accounting (mirrors [`WorkerStat`]).
#[derive(Default, Clone)]
struct WorkerSlot {
    jobs: u64,
    busy: bool,
    busy_ms: u64,
}

/// Per-tenant scheduler accounting (mirrors [`TenantStat`]).
#[derive(Default)]
struct TenantAcct {
    submitted: u64,
    completed: u64,
    /// Most recent queue waits, milliseconds (bounded window).
    waits_ms: VecDeque<u64>,
}

/// One strict-priority band: per-tenant sub-queues of jobs with their
/// enqueue instants (for the wait percentiles), plus the round-robin
/// ring of tenants that currently have backlog. Invariant: a tenant is
/// in `ring` exactly once iff its queue is non-empty.
#[derive(Default)]
struct Band {
    queues: HashMap<String, VecDeque<(Job, Instant)>>,
    ring: VecDeque<String>,
}

impl Band {
    fn push(&mut self, tenant: &str, job: Job) {
        let q = self.queues.entry(tenant.to_owned()).or_default();
        if q.is_empty() {
            self.ring.push_back(tenant.to_owned());
        }
        q.push_back((job, Instant::now()));
    }

    /// Round-robin over the backlogged tenants: the front tenant
    /// releases one job and goes to the back of the ring if it still
    /// has backlog. Jobs have no reliable cost estimate before they
    /// run, so each counts as one: two continuously-backlogged tenants'
    /// service never diverges by more than one round's worth of
    /// in-flight work (`workers + 1` jobs).
    fn pop(&mut self) -> Option<(Job, Instant, String)> {
        while let Some(tenant) = self.ring.pop_front() {
            let q = self
                .queues
                .get_mut(&tenant)
                .expect("ring tenants have queues");
            if let Some((job, enqueued)) = q.pop_front() {
                if !q.is_empty() {
                    self.ring.push_back(tenant.clone());
                }
                return Some((job, enqueued, tenant));
            }
            // A tenant in the ring with no backlog violates the
            // invariant; drop it and keep scanning.
        }
        None
    }

    fn len(&self) -> u64 {
        self.queues.values().map(|q| q.len() as u64).sum()
    }
}

/// Everything the daemon's sessions and workers share — queues, worker
/// slots, the live-job map, the totals, per-tenant accounting and the
/// shutdown flag — lives under this one mutex, so a `stats` frame is a
/// single coherent snapshot: `submitted` always equals `queue_depth +
/// running` plus the five terminal totals, and the busy slots number
/// `running`.
#[derive(Default)]
struct Sched {
    /// Strict bands, indexed by [`band_index`].
    bands: [Band; 3],
    slots: Vec<WorkerSlot>,
    /// Every queued or running job, by id: inserted at submit, removed
    /// by [`finish`]. `shutdown` waits (on [`Shared::drained`]) until it
    /// is empty.
    live: HashMap<u64, Live>,
    /// The `stats` frame's counters — `running`, the job totals,
    /// `rejected`, `queue_full`, `queue_high_water` and
    /// `dropped_progress` — kept current; [`stats_frame`] fills in the
    /// rest.
    stats: StatsFrame,
    tenants: HashMap<String, TenantAcct>,
    /// Set by `shutdown` frames (and by [`Daemon`]'s drop): submits are
    /// refused, and workers drain the queue, then exit.
    shutdown: bool,
    /// Ids of the last job acked and the last session opened.
    last_job: u64,
    last_session: u64,
}

impl Sched {
    /// Highest-priority job, fair within the band.
    fn pop(&mut self) -> Option<(Job, Instant, String)> {
        self.bands.iter_mut().find_map(Band::pop)
    }

    fn queue_depth(&self) -> u64 {
        self.bands.iter().map(Band::len).sum()
    }
}

fn band_index(p: Priority) -> usize {
    match p {
        Priority::High => 0,
        Priority::Normal => 1,
        Priority::Low => 2,
    }
}

/// State shared by every session and worker of one daemon.
struct Shared {
    sched: Mutex<Sched>,
    /// Signals workers that a job was queued (or shutdown was set).
    ready: Condvar,
    /// Signals a draining `shutdown` that [`finish`] ended the last live
    /// job.
    drained: Condvar,
    /// The configuration, with `workers` and `slice` at least 1.
    cfg: ServeConfig,
    start: Instant,
}

/// A running simulation service: a worker pool draining a shared job
/// queue. Sessions attach via [`serve`](Daemon::serve) — any
/// `BufRead`/`Write` pair works, so the same daemon backs a Unix
/// socket, a TCP connection, stdio, or an in-process test harness.
/// Dropping the daemon drains queued jobs and joins the workers.
pub struct Daemon {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Starts the worker pool.
    pub fn start(cfg: ServeConfig) -> Daemon {
        let cfg = ServeConfig {
            workers: cfg.workers.max(1),
            slice: cfg.slice.max(1),
            ..cfg
        };
        let shared = Arc::new(Shared {
            sched: Mutex::new(Sched {
                slots: vec![WorkerSlot::default(); cfg.workers],
                ..Sched::default()
            }),
            ready: Condvar::new(),
            drained: Condvar::new(),
            cfg,
            start: Instant::now(),
        });
        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pei-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("worker thread spawns")
            })
            .collect();
        Daemon { shared, workers }
    }

    /// Runs one session: reads request frames from `reader` line by
    /// line and streams response frames to `writer` (each frame one
    /// line, flushed). Returns when the reader ends or a `shutdown`
    /// frame completes — after every job this session submitted has
    /// sent its terminal frame, so a caller may drop the transport
    /// immediately. A reader that ends *without* a clean shutdown (or
    /// a writer that fails) counts as a disconnect: the session's
    /// queued and in-flight jobs are cancelled through the ordinary
    /// cancellation path and tallied as `disconnect_cancelled`.
    pub fn serve<R: BufRead, W: Write + Send + 'static>(&self, reader: R, writer: W) {
        serve_session(&self.shared, reader, writer);
    }

    /// Whether a `shutdown` frame has been received (socket accept
    /// loops poll this to stop accepting).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.sched.lock().unwrap().shutdown
    }

    /// The daemon's current scheduler statistics (the same frame a
    /// `stats` request returns).
    pub fn stats(&self) -> StatsFrame {
        stats_frame(&self.shared)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shared.sched.lock().unwrap().shutdown = true;
        self.shared.ready.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// An `error` frame without checker violations.
fn error(job: Option<u64>, kind: &str, message: String) -> Response {
    Response::Error {
        job,
        kind: kind.to_owned(),
        message,
        violations: Vec::new(),
    }
}

/// The `error` kind of a job whose wall-clock budget lapsed.
const DEADLINE_EXCEEDED: &str = "deadline-exceeded";

/// Claims jobs off the shared queue until the queue is empty *and*
/// shutdown was requested (queued work always drains), and ends each
/// through [`finish`]. A panicking job does not kill the worker:
/// `catch_unwind` turns the unwind into the job's `worker-panic` error
/// frame, and the loop keeps serving.
fn worker_loop(shared: &Shared, slot: usize) {
    loop {
        let (job, tenant) = {
            let mut s = shared.sched.lock().unwrap();
            loop {
                if let Some((job, enqueued, tenant)) = s.pop() {
                    let wait_ms = enqueued.elapsed().as_millis() as u64;
                    let acct = s.tenants.entry(tenant.clone()).or_default();
                    if acct.waits_ms.len() == WAIT_SAMPLES {
                        acct.waits_ms.pop_front();
                    }
                    acct.waits_ms.push_back(wait_ms);
                    s.stats.running += 1;
                    s.slots[slot].busy = true;
                    break (job, tenant);
                }
                if s.shutdown {
                    return;
                }
                s = shared.ready.wait(s).unwrap();
            }
        };
        let began = Instant::now();
        let mut shed = 0;
        let frame = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(&job, shared.cfg.slice, &mut shed)
        }))
        .unwrap_or_else(|_| {
            let message = format!(
                "worker panicked while executing job {}; the job is counted as failed and the daemon keeps serving",
                job.id
            );
            error(Some(job.id), "worker-panic", message)
        });
        let busy_ms = began.elapsed().as_millis() as u64;
        finish(shared, slot, &tenant, job, busy_ms, frame, shed);
    }
}

/// Runs one job and returns its terminal frame, counting the heartbeats
/// its session shed into `shed`. Bad outcomes become `error` frames,
/// cancellation becomes `cancelled`, a lapsed deadline becomes a
/// `deadline-exceeded` error; scheduler state is [`finish`]'s. (The
/// [`PANIC_WORKER_FAULT`] test fault panics here on purpose, to pin the
/// `catch_unwind` in [`worker_loop`].)
fn execute(job: &Job, slice: u64, shed: &mut u64) -> Response {
    let id = job.id;
    if job.panic {
        panic!("injected {PANIC_WORKER_FAULT} fault (job {id})");
    }
    let mut last_cycle = 0u64;
    let outcome = run_bounded(
        &job.spec,
        job.capture.is_some().then(Recorder::new),
        slice,
        &job.cancel,
        job.deadline,
        |cycle| {
            last_cycle = cycle;
            if !job.reply.send_progress(id, cycle) {
                *shed += 1;
            }
        },
    );
    match outcome {
        Err(Stopped::Cancelled) => Response::Cancelled {
            job: id,
            cycle: last_cycle,
        },
        Err(Stopped::DeadlineExceeded) => error(
            Some(id),
            DEADLINE_EXCEEDED,
            format!(
                "job {id} exceeded its {} ms wall-clock deadline at cycle {last_cycle}; \
                 the run stopped at a slice boundary and cached state is untouched",
                job.deadline_ms.unwrap_or(0)
            ),
        ),
        Ok((result, rec)) => {
            let mut trace_path = None;
            if let (Some(mut rec), Some((cs, path))) = (rec, &job.capture) {
                let bytes = cs.seal(&result, &mut rec).to_bytes();
                if let Err(e) = std::fs::write(path, bytes) {
                    return error(
                        Some(id),
                        "trace-io",
                        format!("can't write trace `{path}`: {e}"),
                    );
                }
                trace_path = Some(path.clone());
            }
            match result.outcome.report() {
                Some(report) => Response::Error {
                    job: Some(id),
                    kind: report.kind.label().to_owned(),
                    message: report.summary(),
                    violations: report.violations.iter().map(|v| v.to_string()).collect(),
                },
                None => Response::Result(result_frame(id, &result, trace_path)),
            }
        }
    }
}

/// Ends a job in one critical section: drops its live entry, counts it
/// in exactly one total (chosen from its terminal frame and, for a
/// cancellation, the first stop cause), queues that frame, frees the
/// worker's slot, and wakes a draining `shutdown` when no job is left.
fn finish(
    shared: &Shared,
    slot: usize,
    tenant: &str,
    job: Job,
    busy_ms: u64,
    frame: Response,
    shed: u64,
) {
    let mut s = shared.sched.lock().unwrap();
    let cause = s.live.remove(&job.id).and_then(|live| live.cause);
    let total = match (&frame, cause) {
        (Response::Result(_), _) => &mut s.stats.completed,
        (Response::Cancelled { .. }, Some(StopCause::Disconnect)) => {
            &mut s.stats.disconnect_cancelled
        }
        (Response::Cancelled { .. }, _) => &mut s.stats.cancelled,
        (Response::Error { kind, .. }, _) if kind == DEADLINE_EXCEEDED => {
            &mut s.stats.deadline_exceeded
        }
        _ => &mut s.stats.failed,
    };
    *total += 1;
    s.stats.running -= 1;
    s.stats.dropped_progress += shed;
    job.reply.send(frame);
    let w = &mut s.slots[slot];
    w.busy = false;
    w.jobs += 1;
    w.busy_ms += busy_ms;
    if let Some(acct) = s.tenants.get_mut(tenant) {
        acct.completed += 1;
    }
    if s.live.is_empty() {
        shared.drained.notify_all();
    }
}

/// Nearest-rank percentile of a sorted sample window (0 when empty).
fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as u64 * p / 100) as usize]
}

fn stats_frame(shared: &Shared) -> StatsFrame {
    let graph_cache_entries = pei_workloads::cache::len() as u64;
    let s = shared.sched.lock().unwrap();
    let mut tenants: Vec<TenantStat> = s
        .tenants
        .iter()
        .map(|(name, acct)| {
            let mut waits: Vec<u64> = acct.waits_ms.iter().copied().collect();
            waits.sort_unstable();
            TenantStat {
                tenant: name.clone(),
                submitted: acct.submitted,
                completed: acct.completed,
                wait_p50_ms: percentile(&waits, 50),
                wait_p95_ms: percentile(&waits, 95),
            }
        })
        .collect();
    tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    StatsFrame {
        queue_depth: s.queue_depth(),
        uptime_ms: shared.start.elapsed().as_millis() as u64,
        workers: s
            .slots
            .iter()
            .map(|w| WorkerStat {
                jobs: w.jobs,
                busy: w.busy,
                busy_ms: w.busy_ms,
            })
            .collect(),
        tenants,
        graph_cache_entries,
        ..s.stats.clone()
    }
}

/// Refuses a request before it becomes a job: a job-less `error` frame,
/// counted in `rejected`.
fn reject(s: &mut Sched, tx: &SessionTx, kind: &str, message: String) {
    s.stats.rejected += 1;
    tx.send(error(None, kind, message));
}

/// Cancels, through the ordinary cancellation path, every live job of
/// `session` — the disconnect reap. The first cause wins, so a job a
/// client `cancel` already stopped stays a client cancel.
fn reap_session(shared: &Shared, session: u64) {
    let mut s = shared.sched.lock().unwrap();
    for live in s.live.values_mut().filter(|l| l.session == session) {
        live.stop(StopCause::Disconnect);
    }
}

/// The session loop behind [`Daemon::serve`]. Response frames funnel
/// through a bounded [`FrameQueue`] into a per-session writer thread,
/// so worker threads never block on (or interleave within) the
/// transport; a reader EOF/error or a writer failure reaps the
/// session's outstanding jobs.
fn serve_session<R: BufRead, W: Write + Send + 'static>(
    shared: &Arc<Shared>,
    reader: R,
    writer: W,
) {
    let session = {
        let mut s = shared.sched.lock().unwrap();
        s.last_session += 1;
        s.last_session
    };
    let tx = SessionTx::new(shared.cfg.writer_queue, session);
    let writer_thread = {
        let q = Arc::clone(&tx.q);
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            // Reaps on transport failure even while the reader is still
            // blocked on a half-open peer.
            if !writer_loop(&q, writer) {
                reap_session(&shared, q.session);
            }
        })
    };
    let mut clean_shutdown = false;
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        match Request::decode(&line) {
            // A malformed line poisons only itself: report the offset
            // and keep reading.
            Err(e) => reject(
                &mut shared.sched.lock().unwrap(),
                &tx,
                "bad-frame",
                e.to_string(),
            ),
            Ok(Request::Submit {
                recipe,
                trace,
                tenant,
                priority,
                deadline_ms,
            }) => submit(shared, &tx, &recipe, trace, tenant, priority, deadline_ms),
            Ok(Request::Cancel { job }) => {
                let mut s = shared.sched.lock().unwrap();
                match s.live.get_mut(&job) {
                    Some(live) => live.stop(StopCause::Client),
                    None => tx.send(error(
                        Some(job),
                        "unknown-job",
                        format!("no queued or running job {job}"),
                    )),
                }
            }
            Ok(Request::Stats) => {
                let mut frame = stats_frame(shared);
                frame.session_dropped_progress = tx.dropped();
                tx.send(Response::Stats(frame));
            }
            Ok(Request::Shutdown) => {
                // Stop accepting (under the lock, so no submit can race
                // past a worker's exit check), then sleep until `finish`
                // ends the last live job — a condvar wait, not a poll
                // loop, and panic-proof because a panicking job ends
                // through `finish` too.
                let mut s = shared.sched.lock().unwrap();
                s.shutdown = true;
                shared.ready.notify_all();
                while !s.live.is_empty() {
                    s = shared.drained.wait(s).unwrap();
                }
                drop(s);
                tx.send(Response::Bye);
                clean_shutdown = true;
                break;
            }
        }
    }
    if !clean_shutdown {
        // The client went away (EOF or a read error) without a clean
        // shutdown: cancel its orphaned work so queued and in-flight
        // jobs stop burning worker slots.
        reap_session(shared, session);
    }
    // Per-job sender clones keep the writer alive until every job this
    // session submitted has reported; joining here means a returned
    // `serve` call has delivered all its terminal frames.
    drop(tx);
    let _ = writer_thread.join();
}

/// Handles one `submit` frame: resolve, admission-check, ack, and
/// enqueue into the tenant's sub-queue of the requested band.
fn submit(
    shared: &Shared,
    tx: &SessionTx,
    recipe: &Recipe,
    trace: Option<String>,
    tenant: Option<String>,
    priority: Priority,
    deadline_ms: Option<u64>,
) {
    let refuse = |kind: &str, message: String| {
        reject(&mut shared.sched.lock().unwrap(), tx, kind, message);
    };
    let tenant = tenant.unwrap_or_else(|| DEFAULT_TENANT.to_owned());
    if tenant.is_empty() || tenant.len() > 128 {
        return refuse(
            "bad-recipe",
            "`tenant` must be 1..=128 bytes (omit it for the default tenant)".to_owned(),
        );
    }
    // The panic-worker test fault is daemon-level: strip it before the
    // simulator vocabulary sees it.
    let mut recipe = recipe.clone();
    let panic = recipe.fault_kinds.iter().any(|k| k == PANIC_WORKER_FAULT);
    if panic {
        recipe.fault_kinds.retain(|k| k != PANIC_WORKER_FAULT);
        if recipe.fault_kinds.is_empty() {
            recipe.fault_seed = None;
        }
    }
    let spec = match resolve_recipe(&recipe) {
        Ok(spec) => spec,
        Err(e) => return refuse("bad-recipe", e),
    };
    let capture = match trace {
        None => None,
        Some(path) => match resolve_capture(&recipe) {
            Ok(cs) => Some((cs, path)),
            Err(e) => return refuse("bad-recipe", e),
        },
    };
    // Ack and enqueue under the sched lock: a worker can't pop the job
    // (so no result frame can overtake the ack), the shutdown flag
    // can't flip between the check and the push (so no job is ever
    // stranded in the queue after the workers exit), and the admission
    // check can't race another submit past the bound.
    let mut s = shared.sched.lock().unwrap();
    if s.shutdown {
        return reject(
            &mut s,
            tx,
            "shutting-down",
            "the daemon is draining".to_owned(),
        );
    }
    if let Some(max) = shared.cfg.max_queue.filter(|&max| s.queue_depth() >= max) {
        s.stats.queue_full += 1;
        return reject(
            &mut s,
            tx,
            "queue-full",
            format!("the queue is at its bound ({max} jobs); resubmit once backlog drains"),
        );
    }
    s.last_job += 1;
    let id = s.last_job;
    let cancel = Arc::new(AtomicBool::new(false));
    let live = Live {
        cancel: Arc::clone(&cancel),
        cause: None,
        session: tx.q.session,
    };
    s.live.insert(id, live);
    s.stats.submitted += 1;
    s.tenants.entry(tenant.clone()).or_default().submitted += 1;
    // The wall-clock budget runs from the ack.
    let deadline_ms = deadline_ms.or(shared.cfg.deadline_ms);
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    tx.send(Response::Ack { job: id });
    s.bands[band_index(priority)].push(
        &tenant,
        Job {
            id,
            spec,
            capture,
            panic,
            cancel,
            deadline,
            deadline_ms,
            reply: tx.clone(),
        },
    );
    let depth = s.queue_depth();
    s.stats.queue_high_water = s.stats.queue_high_water.max(depth);
    drop(s);
    shared.ready.notify_one();
}
