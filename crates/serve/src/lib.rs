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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
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

/// A job's cancellation handle: the flag the engine polls at slice
/// boundaries, plus the cause that raised it first (for the
/// `cancelled` vs `disconnect-cancelled` counters).
struct JobCtl {
    cancel: AtomicBool,
    /// 0 = not stopped, 1 = [`StopCause::Client`], 2 =
    /// [`StopCause::Disconnect`].
    cause: AtomicU8,
}

impl JobCtl {
    fn new() -> JobCtl {
        JobCtl {
            cancel: AtomicBool::new(false),
            cause: AtomicU8::new(0),
        }
    }

    fn stop(&self, cause: StopCause) {
        let code = match cause {
            StopCause::Client => 1,
            StopCause::Disconnect => 2,
        };
        let _ = self
            .cause
            .compare_exchange(0, code, Ordering::Relaxed, Ordering::Relaxed);
        self.cancel.store(true, Ordering::Relaxed);
    }

    fn cause(&self) -> Option<StopCause> {
        match self.cause.load(Ordering::Relaxed) {
            1 => Some(StopCause::Client),
            2 => Some(StopCause::Disconnect),
            _ => None,
        }
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
    ctl: Arc<JobCtl>,
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
    fn new(cap: usize) -> SessionTx {
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

/// Everything the scheduler must keep mutually consistent — queues,
/// worker slots, running/outstanding counts, per-tenant accounting —
/// lives under this one mutex, so a `stats` frame is a single coherent
/// snapshot (no `running > 0` with every slot idle).
struct Sched {
    /// Strict bands, indexed by [`band_index`].
    bands: [Band; 3],
    slots: Vec<WorkerSlot>,
    /// Jobs currently executing.
    running: u64,
    /// Queued + running jobs; `shutdown` waits (on [`Shared::drained`])
    /// until this reaches zero.
    outstanding: u64,
    /// Highest queue depth ever observed (updated at enqueue).
    high_water: u64,
    tenants: HashMap<String, TenantAcct>,
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
    /// Signals the draining `shutdown` handler that
    /// [`Sched::outstanding`] reached zero. No busy-wait: the handler
    /// sleeps on this condvar and worker release (normal or via the
    /// panic guard) notifies it.
    drained: Condvar,
    /// Set by `shutdown` frames (and by [`Daemon`]'s drop), always
    /// under the [`Sched`] lock so no submit can race past a worker's
    /// exit check. Workers drain the queue, then exit.
    shutdown: AtomicBool,
    /// Cancellation handles of every queued or running job, removed on
    /// the terminal frame; `cancel` frames and disconnect reaping look
    /// their targets up here.
    /// Lock order: may be taken *while holding* the `sched` lock, never
    /// held while *acquiring* it.
    jobs: Mutex<HashMap<u64, Arc<JobCtl>>>,
    next_job: AtomicU64,
    slice: u64,
    /// Admission bound on queued jobs (`None` = unbounded).
    max_queue: Option<u64>,
    /// Default per-job wall-clock budget in milliseconds.
    default_deadline_ms: Option<u64>,
    /// Per-session writer-queue bound.
    writer_queue: usize,
    /// Jobs accepted (acked). After a drain, `submitted ==
    /// completed + failed + cancelled + deadline_exceeded +
    /// disconnect_cancelled` — the accounting partition the chaos
    /// harness pins.
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    rejected: AtomicU64,
    /// Subset of `rejected` turned away by admission control.
    queue_full: AtomicU64,
    deadline_exceeded: AtomicU64,
    disconnect_cancelled: AtomicU64,
    /// Heartbeats shed across all sessions (each session also keeps its
    /// own count in its [`FrameQueue`]).
    dropped_progress: AtomicU64,
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
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            sched: Mutex::new(Sched {
                bands: Default::default(),
                slots: vec![WorkerSlot::default(); workers],
                running: 0,
                outstanding: 0,
                high_water: 0,
                tenants: HashMap::new(),
            }),
            ready: Condvar::new(),
            drained: Condvar::new(),
            shutdown: AtomicBool::new(false),
            jobs: Mutex::new(HashMap::new()),
            next_job: AtomicU64::new(0),
            slice: cfg.slice.max(1),
            max_queue: cfg.max_queue,
            default_deadline_ms: cfg.deadline_ms,
            writer_queue: cfg.writer_queue,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            queue_full: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            disconnect_cancelled: AtomicU64::new(0),
            dropped_progress: AtomicU64::new(0),
            start: Instant::now(),
        });
        let workers = (0..workers)
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
        self.shared.shutdown.load(Ordering::Relaxed)
    }

    /// The daemon's current scheduler statistics (the same frame a
    /// `stats` request returns).
    pub fn stats(&self) -> StatsFrame {
        stats_frame(&self.shared)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        {
            let _s = self.shared.sched.lock().unwrap();
            self.shared.shutdown.store(true, Ordering::Relaxed);
        }
        self.shared.ready.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Restores a worker's claim on the scheduler: slot freed, counters
/// stepped, the draining shutdown handler woken if this was the last
/// outstanding job. Shared by the normal completion path and the panic
/// guard, so the accounting is identical whether `execute` returned or
/// unwound.
fn release_claim(shared: &Shared, slot: usize, tenant: &str, busy_ms: u64) {
    let mut s = shared.sched.lock().unwrap();
    s.slots[slot].busy = false;
    s.slots[slot].jobs += 1;
    s.slots[slot].busy_ms += busy_ms;
    s.running -= 1;
    s.outstanding -= 1;
    s.tenants.entry(tenant.to_owned()).or_default().completed += 1;
    if s.outstanding == 0 {
        shared.drained.notify_all();
    }
}

/// Armed around job execution: if the worker unwinds mid-job, the drop
/// handler makes the job externally indistinguishable from a reported
/// failure — the cancel-map entry is removed, a structured
/// `worker-panic` error frame is the job's terminal frame (so clients
/// never block on a silent job), the job counts as `failed`, and the
/// slot/running/outstanding claim is released (so a draining `shutdown`
/// still reaches zero and answers `bye`). Defused on normal return.
struct PanicGuard<'a> {
    shared: &'a Shared,
    slot: usize,
    id: u64,
    tenant: String,
    reply: SessionTx,
    began: Instant,
    armed: bool,
}

impl PanicGuard<'_> {
    fn defuse(&mut self) {
        self.armed = false;
    }
}

impl Drop for PanicGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        // Scoped: never hold the jobs lock while acquiring sched.
        self.shared.jobs.lock().unwrap().remove(&self.id);
        self.shared.failed.fetch_add(1, Ordering::Relaxed);
        self.reply.send(Response::Error {
            job: Some(self.id),
            kind: "worker-panic".to_owned(),
            message: format!(
                "worker panicked while executing job {}; the job is counted as failed and the daemon keeps serving",
                self.id
            ),
            violations: Vec::new(),
        });
        release_claim(
            self.shared,
            self.slot,
            &self.tenant,
            self.began.elapsed().as_millis() as u64,
        );
    }
}

/// Claims jobs off the shared queue until the queue is empty *and*
/// shutdown was requested (queued work always drains). A panicking job
/// does not kill the worker: the unwind is caught, the [`PanicGuard`]
/// restores the claim, and the loop keeps serving.
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
                    s.running += 1;
                    s.slots[slot].busy = true;
                    break (job, tenant);
                }
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                s = shared.ready.wait(s).unwrap();
            }
        };
        let began = Instant::now();
        let mut guard = PanicGuard {
            shared,
            slot,
            id: job.id,
            tenant: tenant.clone(),
            reply: job.reply.clone(),
            began,
            armed: true,
        };
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute(shared, job);
        }))
        .is_err();
        if !unwound {
            guard.defuse();
            release_claim(shared, slot, &tenant, began.elapsed().as_millis() as u64);
        }
        // On unwind the guard already released the claim (its Drop ran
        // during the unwind, inside catch_unwind).
        drop(guard);
    }
}

/// Runs one job to its terminal frame. Never panics the worker on bad
/// outcomes: they become `error` frames, cancellation becomes
/// `cancelled`, a lapsed deadline becomes a `deadline-exceeded` error.
/// (The [`PANIC_WORKER_FAULT`] test fault panics here on purpose, to
/// pin the guard in [`worker_loop`].)
fn execute(shared: &Shared, job: Job) {
    let Job {
        id,
        spec,
        capture,
        panic,
        ctl,
        deadline,
        deadline_ms,
        reply,
    } = job;
    if panic {
        panic!("injected {PANIC_WORKER_FAULT} fault (job {id})");
    }
    let mut last_cycle = 0u64;
    let outcome = run_bounded(
        &spec,
        capture.is_some().then(Recorder::new),
        shared.slice,
        &ctl.cancel,
        deadline,
        |cycle| {
            last_cycle = cycle;
            if !reply.send_progress(id, cycle) {
                shared.dropped_progress.fetch_add(1, Ordering::Relaxed);
            }
        },
    );
    let mut trace_path = None;
    let outcome = match (outcome, capture) {
        (Ok((result, Some(mut rec))), Some((cs, path))) => {
            let bytes = cs.seal(&result, &mut rec).to_bytes();
            match std::fs::write(&path, bytes) {
                Ok(()) => {
                    trace_path = Some(path);
                    Ok(result)
                }
                Err(e) => {
                    shared.jobs.lock().unwrap().remove(&id);
                    shared.failed.fetch_add(1, Ordering::Relaxed);
                    reply.send(Response::Error {
                        job: Some(id),
                        kind: "trace-io".to_owned(),
                        message: format!("can't write trace `{path}`: {e}"),
                        violations: Vec::new(),
                    });
                    return;
                }
            }
        }
        (outcome, _) => outcome.map(|(result, _)| result),
    };
    shared.jobs.lock().unwrap().remove(&id);
    match outcome {
        Err(Stopped::Cancelled) => {
            match ctl.cause() {
                Some(StopCause::Disconnect) => {
                    shared.disconnect_cancelled.fetch_add(1, Ordering::Relaxed);
                }
                _ => {
                    shared.cancelled.fetch_add(1, Ordering::Relaxed);
                }
            }
            reply.send(Response::Cancelled {
                job: id,
                cycle: last_cycle,
            });
        }
        Err(Stopped::DeadlineExceeded) => {
            shared.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            let ms = deadline_ms.unwrap_or(0);
            reply.send(Response::Error {
                job: Some(id),
                kind: "deadline-exceeded".to_owned(),
                message: format!(
                    "job {id} exceeded its {ms} ms wall-clock deadline at cycle {}; \
                     the run stopped at a slice boundary and cached state is untouched",
                    last_cycle
                ),
                violations: Vec::new(),
            });
        }
        Ok(result) => match result.outcome.report() {
            Some(report) => {
                shared.failed.fetch_add(1, Ordering::Relaxed);
                reply.send(Response::Error {
                    job: Some(id),
                    kind: report.kind.label().to_owned(),
                    message: report.summary(),
                    violations: report.violations.iter().map(|v| v.to_string()).collect(),
                });
            }
            None => {
                shared.completed.fetch_add(1, Ordering::Relaxed);
                reply.send(Response::Result(result_frame(id, &result, trace_path)));
            }
        },
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
    // One lock: queue depth, running, the worker slots, and the tenant
    // table are a single coherent snapshot (a frame can never report
    // `running > 0` with every slot idle).
    let (queue_depth, running, high_water, workers, mut tenants) = {
        let s = shared.sched.lock().unwrap();
        let workers: Vec<WorkerStat> = s
            .slots
            .iter()
            .map(|w| WorkerStat {
                jobs: w.jobs,
                busy: w.busy,
                busy_ms: w.busy_ms,
            })
            .collect();
        let tenants: Vec<TenantStat> = s
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
        (s.queue_depth(), s.running, s.high_water, workers, tenants)
    };
    tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    StatsFrame {
        queue_depth,
        running,
        submitted: shared.submitted.load(Ordering::Relaxed),
        completed: shared.completed.load(Ordering::Relaxed),
        failed: shared.failed.load(Ordering::Relaxed),
        cancelled: shared.cancelled.load(Ordering::Relaxed),
        rejected: shared.rejected.load(Ordering::Relaxed),
        queue_full: shared.queue_full.load(Ordering::Relaxed),
        deadline_exceeded: shared.deadline_exceeded.load(Ordering::Relaxed),
        disconnect_cancelled: shared.disconnect_cancelled.load(Ordering::Relaxed),
        queue_high_water: high_water,
        dropped_progress: shared.dropped_progress.load(Ordering::Relaxed),
        // Meaningful only inside a session (each fills in its own).
        session_dropped_progress: 0,
        uptime_ms: shared.start.elapsed().as_millis() as u64,
        workers,
        tenants,
        graph_cache_entries: pei_workloads::cache::len() as u64,
    }
}

/// Cancels (through the ordinary cancellation path) every still-live
/// job in `ids` — the disconnect reap. Jobs already terminal are gone
/// from the map and unaffected; first-cause-wins in [`JobCtl`] keeps a
/// racing client `cancel` counted as a client cancel.
fn reap_session(shared: &Shared, ids: &Mutex<Vec<u64>>) {
    let ids = ids.lock().unwrap();
    let jobs = shared.jobs.lock().unwrap();
    for id in ids.iter() {
        if let Some(ctl) = jobs.get(id) {
            ctl.stop(StopCause::Disconnect);
        }
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
    let tx = SessionTx::new(shared.writer_queue);
    // Every job id this session submitted, for the disconnect reap
    // (shared with the writer thread, which reaps on transport failure
    // even while the reader is still blocked on a half-open peer).
    let session_jobs = Arc::new(Mutex::new(Vec::<u64>::new()));
    let writer_thread = {
        let q = Arc::clone(&tx.q);
        let shared = Arc::clone(shared);
        let ids = Arc::clone(&session_jobs);
        std::thread::spawn(move || {
            if !writer_loop(&q, writer) {
                reap_session(&shared, &ids);
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
            Err(e) => {
                // A malformed line poisons only itself: report the
                // offset and keep reading.
                shared.rejected.fetch_add(1, Ordering::Relaxed);
                tx.send(Response::Error {
                    job: None,
                    kind: "bad-frame".to_owned(),
                    message: e.to_string(),
                    violations: Vec::new(),
                });
            }
            Ok(Request::Submit {
                recipe,
                trace,
                tenant,
                priority,
                deadline_ms,
            }) => {
                if let Some(id) = submit(shared, &tx, &recipe, trace, tenant, priority, deadline_ms)
                {
                    session_jobs.lock().unwrap().push(id);
                }
            }
            Ok(Request::Cancel { job }) => {
                let ctl = shared.jobs.lock().unwrap().get(&job).map(Arc::clone);
                match ctl {
                    Some(ctl) => ctl.stop(StopCause::Client),
                    None => {
                        tx.send(Response::Error {
                            job: Some(job),
                            kind: "unknown-job".to_owned(),
                            message: format!("no queued or running job {job}"),
                            violations: Vec::new(),
                        });
                    }
                }
            }
            Ok(Request::Stats) => {
                let mut frame = stats_frame(shared);
                frame.session_dropped_progress = tx.dropped();
                tx.send(Response::Stats(frame));
            }
            Ok(Request::Shutdown) => {
                // Stop accepting (flag set under the sched lock so no
                // submit can race past a worker's exit check), then
                // sleep until the workers report the last outstanding
                // job done — a condvar wait, not a poll loop, and
                // panic-proof because the guard releases claims on
                // unwind too.
                {
                    let _s = shared.sched.lock().unwrap();
                    shared.shutdown.store(true, Ordering::Relaxed);
                }
                shared.ready.notify_all();
                let mut s = shared.sched.lock().unwrap();
                while s.outstanding > 0 {
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
        reap_session(shared, &session_jobs);
    }
    // Per-job sender clones keep the writer alive until every job this
    // session submitted has reported; joining here means a returned
    // `serve` call has delivered all its terminal frames.
    drop(tx);
    let _ = writer_thread.join();
}

/// Handles one `submit` frame: admission-check, resolve, ack, enqueue
/// into the tenant's sub-queue of the requested band. Returns the job
/// id when the submission was accepted (acked), `None` when rejected.
fn submit(
    shared: &Arc<Shared>,
    tx: &SessionTx,
    recipe: &Recipe,
    trace: Option<String>,
    tenant: Option<String>,
    priority: Priority,
    deadline_ms: Option<u64>,
) -> Option<u64> {
    let reject = |kind: &str, message: String| {
        shared.rejected.fetch_add(1, Ordering::Relaxed);
        tx.send(Response::Error {
            job: None,
            kind: kind.to_owned(),
            message,
            violations: Vec::new(),
        });
        None
    };
    let tenant = tenant.unwrap_or_else(|| DEFAULT_TENANT.to_owned());
    if tenant.is_empty() || tenant.len() > 128 {
        return reject(
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
        Err(e) => return reject("bad-recipe", e),
    };
    let capture = match trace {
        None => None,
        Some(path) => match resolve_capture(&recipe) {
            Ok(cs) => Some((cs, path)),
            Err(e) => return reject("bad-recipe", e),
        },
    };
    // Ack and enqueue under the sched lock: a worker can't pop the job
    // (so no result frame can overtake the ack), the shutdown flag
    // can't flip between the check and the push (so no job is ever
    // stranded in the queue after the workers exit), and the admission
    // check can't race another submit past the bound.
    let mut s = shared.sched.lock().unwrap();
    if shared.shutdown.load(Ordering::Relaxed) {
        drop(s);
        return reject("shutting-down", "the daemon is draining".to_owned());
    }
    if let Some(max) = shared.max_queue {
        if s.queue_depth() >= max {
            drop(s);
            shared.queue_full.fetch_add(1, Ordering::Relaxed);
            return reject(
                "queue-full",
                format!("the queue is at its bound ({max} jobs); resubmit once backlog drains"),
            );
        }
    }
    let id = shared.next_job.fetch_add(1, Ordering::Relaxed) + 1;
    let ctl = Arc::new(JobCtl::new());
    shared.jobs.lock().unwrap().insert(id, Arc::clone(&ctl));
    s.outstanding += 1;
    s.tenants.entry(tenant.clone()).or_default().submitted += 1;
    shared.submitted.fetch_add(1, Ordering::Relaxed);
    // The wall-clock budget runs from the ack.
    let deadline_ms = deadline_ms.or(shared.default_deadline_ms);
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    tx.send(Response::Ack { job: id });
    s.bands[band_index(priority)].push(
        &tenant,
        Job {
            id,
            spec,
            capture,
            panic,
            ctl,
            deadline,
            deadline_ms,
            reply: tx.clone(),
        },
    );
    let depth = s.queue_depth();
    if depth > s.high_water {
        s.high_water = depth;
    }
    drop(s);
    shared.ready.notify_one();
    Some(id)
}
