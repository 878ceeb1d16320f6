//! The seeded chaos harness (DESIGN.md §12 "Overload semantics"): one
//! deterministic [`ChaosPlan`] of misbehaving clients — mid-frame
//! disconnects, torn writes, byte-at-a-time slow readers, submit floods
//! past the admission bound, deadline-busting jobs — executed over all
//! three transports the daemon serves: an in-process pipe (the stdio
//! framing), a Unix socket, and TCP.
//!
//! The invariants asserted are interleaving-proof, so the same plan
//! must pass identically on every transport:
//!
//! - accounting partition: `submitted == completed + failed +
//!   cancelled + deadline_exceeded + disconnect_cancelled`, and
//!   `rejected == queue_full + torn tails` (a rejection never becomes
//!   a job);
//! - no leaked worker slot: after the drain, `running == 0`,
//!   `queue_depth == 0`, and every worker reports idle;
//! - every slammed session's accepted jobs are reaped as
//!   `disconnect_cancelled`; every deadline-busting job dies
//!   `deadline-exceeded`; nobody else is cancelled or failed;
//! - a well-behaved control client's results stay byte-identical to the
//!   one-shot run throughout the storm, and the final `shutdown` drains
//!   to `bye`.
//!
//! Choreography: a pinner session first occupies both workers with long
//! jobs (so floods pile into the queue instead of draining, deadlines
//! lapse before their jobs can start, and slammed jobs cannot complete
//! before the reap), then the non-flood chaos clients submit, then —
//! after a beat — the floods hit a queue whose depth is known to be
//! under the bound, guaranteeing both admission (for the choreographed
//! jobs) and overflow (for the floods).

use pei_bench::service::resolve_recipe;
use pei_serve::chaos::{ChaosBehavior, ChaosKnobs, ChaosPlan, ChaosScript, ReadStyle};
use pei_serve::{Daemon, ServeConfig};
use pei_types::wire::{Priority, Recipe, Request, Response};
use std::io::{BufRead, BufReader, Lines, Read, Write};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SEED: u64 = 0x0c4a05;
const CLIENTS: usize = 10;
const MAX_QUEUE: u64 = 24;
const BUSTER_DEADLINE_MS: u64 = 150;

fn quick_recipe() -> Recipe {
    let mut r = Recipe::new("atf", "small", "la");
    r.seed = 7;
    r.budget = Some(2_000);
    r
}

/// The long recipe must outlive every deadline and slam in the plan
/// (~1 s wall) in both build profiles: the optimized simulator is ~10x
/// faster and the medium input's trace exhausts at ~430k cycles, so
/// release steps up to the large input.
fn long_recipe() -> Recipe {
    let (size, budget) = if cfg!(debug_assertions) {
        ("medium", 200_000)
    } else {
        ("large", 2_000_000)
    };
    let mut r = Recipe::new("atf", size, "la");
    r.seed = 7;
    r.budget = Some(budget);
    r
}

fn knobs() -> ChaosKnobs {
    ChaosKnobs {
        max_queue: MAX_QUEUE,
        deadline_ms: BUSTER_DEADLINE_MS,
        quick: quick_recipe(),
        long: long_recipe(),
    }
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        slice: 2_000,
        max_queue: Some(MAX_QUEUE),
        writer_queue: 16,
        ..ServeConfig::default()
    }
}

/// One client connection: a writer half and a reader half. Dropping
/// both is the slam (or, for a drained session, the graceful close).
struct Conn {
    w: Box<dyn Write + Send>,
    r: Box<dyn Read + Send>,
}

// ---- in-process pipe transport (the stdio framing) ----

struct PipeWriter {
    tx: mpsc::Sender<Vec<u8>>,
}

impl Write for PipeWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.tx
            .send(buf.to_vec())
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::BrokenPipe, "peer hung up"))?;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

struct PipeReader {
    rx: mpsc::Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.buf.len() {
            match self.rx.recv_timeout(Duration::from_secs(60)) {
                Ok(bytes) => {
                    self.buf = bytes;
                    self.pos = 0;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(0),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "pipe idle for 60 s",
                    ))
                }
            }
        }
        let n = (self.buf.len() - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn pipe() -> (PipeWriter, PipeReader) {
    let (tx, rx) = mpsc::channel();
    (
        PipeWriter { tx },
        PipeReader {
            rx,
            buf: Vec::new(),
            pos: 0,
        },
    )
}

// ---- frame helpers ----

fn submit_line(recipe: Recipe, tenant: &str, deadline_ms: Option<u64>) -> String {
    format!(
        "{}\n",
        Request::Submit {
            recipe,
            trace: None,
            tenant: Some(tenant.to_owned()),
            priority: Priority::Normal,
            deadline_ms,
        }
        .encode()
    )
}

fn next_frame(lines: &mut Lines<BufReader<Box<dyn Read + Send>>>) -> Response {
    let line = lines
        .next()
        .expect("the daemon never hangs up on a well-behaved client")
        .expect("the stream stays readable");
    Response::decode(&line).expect("the daemon emits well-formed frames")
}

// ---- client runners ----

/// Executes one chaos client's script: the writes (with their pauses),
/// then the scripted read behavior, then the hangup.
fn run_chaos_client(conn: Conn, script: &ChaosScript) {
    let Conn { mut w, r } = conn;
    for step in &script.writes {
        if step.pause_ms > 0 {
            std::thread::sleep(Duration::from_millis(step.pause_ms));
        }
        if w.write_all(&step.bytes).and_then(|()| w.flush()).is_err() {
            break; // the daemon closed on us; the invariants still hold
        }
    }
    match script.read {
        ReadStyle::Drain => {
            // Every complete submit resolves as an ack + terminal or as
            // a job-less rejection; count resolutions, then hang up.
            let mut resolved = 0;
            let mut lines = BufReader::new(r).lines();
            while resolved < script.submits {
                match next_frame(&mut lines) {
                    Response::Result(_) | Response::Cancelled { .. } | Response::Error { .. } => {
                        resolved += 1
                    }
                    _ => {}
                }
            }
        }
        ReadStyle::ByteAtATime {
            pause_ms,
            max_bytes,
        } => {
            let mut r = r;
            let mut byte = [0u8; 1];
            for _ in 0..max_bytes {
                std::thread::sleep(Duration::from_millis(pause_ms));
                match r.read(&mut byte) {
                    Ok(1..) => {}
                    Ok(0) | Err(_) => break,
                }
            }
        }
        ReadStyle::None => {}
    }
}

/// Submits the two long pinner jobs and signals once both are mid-run
/// (both workers occupied), then drains to their byte-identical results.
fn run_pinner(conn: Conn, long_ref: &str, pinned: &mpsc::Sender<()>) {
    let Conn { mut w, r } = conn;
    for _ in 0..2 {
        w.write_all(submit_line(long_recipe(), "pin", None).as_bytes())
            .expect("pin submits are written");
    }
    w.flush().expect("pin submits are flushed");
    let mut lines = BufReader::new(r).lines();
    let mut running = std::collections::HashSet::new();
    let mut results = 0;
    let mut signalled = false;
    while results < 2 {
        match next_frame(&mut lines) {
            Response::Progress { job, cycle } if cycle > 0 => {
                running.insert(job);
                if running.len() == 2 && !signalled {
                    signalled = true;
                    pinned.send(()).expect("the harness is waiting");
                }
            }
            Response::Result(rf) => {
                assert_eq!(rf.stats, long_ref, "pinner results stay byte-identical");
                results += 1;
            }
            Response::Ack { .. } | Response::Progress { .. } => {}
            other => panic!("a pinner job should complete, got {other:?}"),
        }
    }
    assert!(signalled, "both workers were observed mid-run");
}

/// The well-behaved control client: one deadline-busting job (must die
/// `deadline-exceeded`), then quick jobs submitted one at a time —
/// retrying politely on `queue-full` — whose results must stay
/// byte-identical to the one-shot run all through the storm.
fn run_control(conn: Conn, quick_ref: &str) {
    let Conn { mut w, r } = conn;
    let mut lines = BufReader::new(r).lines();
    w.write_all(submit_line(long_recipe(), "control", Some(100)).as_bytes())
        .and_then(|()| w.flush())
        .expect("the buster submit is written");
    let buster = loop {
        match next_frame(&mut lines) {
            Response::Ack { job } => break job,
            Response::Progress { .. } => {}
            other => panic!("the buster should be acked, got {other:?}"),
        }
    };
    let mut buster_done = false;
    let on_buster_terminal = |kind: &str, done: &mut bool| {
        assert_eq!(kind, "deadline-exceeded", "the buster died on its budget");
        *done = true;
    };
    for _ in 0..3 {
        // Submit one quick job, retrying while the queue is at its
        // bound (the polite reaction to a `queue-full` rejection).
        let id = 'accepted: loop {
            w.write_all(submit_line(quick_recipe(), "control", None).as_bytes())
                .and_then(|()| w.flush())
                .expect("the control submit is written");
            loop {
                match next_frame(&mut lines) {
                    Response::Ack { job } => break 'accepted job,
                    Response::Error {
                        job: None, kind, ..
                    } => {
                        assert_eq!(kind, "queue-full", "the only polite rejection");
                        std::thread::sleep(Duration::from_millis(25));
                        break;
                    }
                    Response::Error {
                        job: Some(j), kind, ..
                    } if j == buster => on_buster_terminal(&kind, &mut buster_done),
                    Response::Progress { .. } => {}
                    other => panic!("unexpected frame for the control client: {other:?}"),
                }
            }
        };
        loop {
            match next_frame(&mut lines) {
                Response::Result(rf) if rf.job == id => {
                    assert_eq!(
                        rf.stats, quick_ref,
                        "control results stay byte-identical mid-storm"
                    );
                    break;
                }
                Response::Error {
                    job: Some(j), kind, ..
                } if j == buster => on_buster_terminal(&kind, &mut buster_done),
                Response::Progress { .. } => {}
                other => panic!("the control job should complete, got {other:?}"),
            }
        }
    }
    while !buster_done {
        match next_frame(&mut lines) {
            Response::Error {
                job: Some(j), kind, ..
            } if j == buster => on_buster_terminal(&kind, &mut buster_done),
            Response::Progress { .. } => {}
            other => panic!("waiting on the buster terminal, got {other:?}"),
        }
    }
}

// ---- the storm ----

/// `lossy_tails` reflects the transport: over an in-process pipe a
/// torn tail always reaches the parser (EOF yields the partial line),
/// but a socket peer that slams with unread data in its receive queue
/// resets the connection and the kernel may discard the tail before
/// the daemon reads it — so sockets only bound the rejection count.
fn storm(daemon: &Arc<Daemon>, connect: &(dyn Fn() -> Conn + Sync), lossy_tails: bool) {
    let quick_ref = resolve_recipe(&quick_recipe())
        .unwrap()
        .run()
        .stats
        .to_string();
    let long_ref = resolve_recipe(&long_recipe())
        .unwrap()
        .run()
        .stats
        .to_string();

    let plan = ChaosPlan::generate(SEED, CLIENTS);
    assert_eq!(
        plan,
        ChaosPlan::generate(SEED, CLIENTS),
        "the plan is a pure function of the seed"
    );
    let k = knobs();
    let scripts: Vec<(ChaosBehavior, ChaosScript)> = plan
        .clients
        .iter()
        .map(|c| (c.behavior, c.script(&k)))
        .collect();
    // The exact counters the daemon must report, derived from the plan.
    let torn_tails: u64 = scripts.iter().filter(|(_, s)| s.torn_tail).count() as u64;
    let slam_submits: u64 = scripts
        .iter()
        .filter(|(_, s)| s.slam)
        .map(|(_, s)| s.submits)
        .sum();
    let buster_submits: u64 = scripts
        .iter()
        .filter(|(b, _)| *b == ChaosBehavior::DeadlineBuster)
        .map(|(_, s)| s.submits)
        .sum();

    std::thread::scope(|scope| {
        let (pinned_tx, pinned_rx) = mpsc::channel();
        let pinner = scope.spawn(move || run_pinner(connect(), &long_ref, &pinned_tx));
        pinned_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("both workers get pinned");

        let control = scope.spawn(|| run_control(connect(), &quick_ref));
        let mut clients = Vec::new();
        // Choreographed admissions first (their queue slots are under
        // the bound), floods after a beat (guaranteed to overflow it).
        for flood_wave in [false, true] {
            for (behavior, script) in &scripts {
                if (*behavior == ChaosBehavior::SubmitFlood) == flood_wave {
                    clients.push(scope.spawn(move || run_chaos_client(connect(), script)));
                }
            }
            if !flood_wave {
                std::thread::sleep(Duration::from_millis(150));
            }
        }
        for c in clients {
            c.join().expect("chaos clients never panic");
        }
        control
            .join()
            .expect("the control client survived the storm");
        pinner.join().expect("the pinner drained its jobs");
    });

    // Slammed sessions' jobs may still be queued or mid-slice; the
    // workers drain them to their `cancelled` terminals.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let s = daemon.stats();
        assert_eq!(
            s.submitted,
            s.queue_depth
                + s.running
                + s.completed
                + s.failed
                + s.cancelled
                + s.deadline_exceeded
                + s.disconnect_cancelled,
            "every snapshot balances, drained or not: {s:?}"
        );
        if s.queue_depth == 0 && s.running == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "the daemon never drained: {s:?}");
        std::thread::sleep(Duration::from_millis(20));
    }

    let stats = daemon.stats();
    assert_eq!(
        stats.submitted,
        stats.completed
            + stats.failed
            + stats.cancelled
            + stats.deadline_exceeded
            + stats.disconnect_cancelled,
        "every accepted job reached exactly one terminal: {stats:?}"
    );
    assert_eq!(stats.failed, 0, "no job failed: {stats:?}");
    assert_eq!(stats.cancelled, 0, "no client sent a cancel: {stats:?}");
    assert_eq!(
        stats.disconnect_cancelled, slam_submits,
        "every slammed session's jobs were reaped, nothing else: {stats:?}"
    );
    assert_eq!(
        stats.deadline_exceeded,
        buster_submits + 1, // the plan's busters plus the control buster
        "every deadline-busting job died on its budget: {stats:?}"
    );
    assert!(stats.queue_full >= 1, "the floods overflowed: {stats:?}");
    if lossy_tails {
        assert!(
            stats.rejected >= stats.queue_full && stats.rejected <= stats.queue_full + torn_tails,
            "rejections are queue-full plus at most the torn tails: {stats:?}"
        );
    } else {
        assert_eq!(
            stats.rejected,
            stats.queue_full + torn_tails,
            "rejections are exactly queue-full plus the torn tails: {stats:?}"
        );
    }
    assert!(
        stats.queue_high_water <= MAX_QUEUE,
        "admission held the bound: {stats:?}"
    );
    assert!(stats.workers.iter().all(|w| !w.busy), "no leaked slot");

    // The storm is over; a clean shutdown must still drain to `bye`.
    let Conn { mut w, r } = connect();
    w.write_all(format!("{}\n", Request::Shutdown.encode()).as_bytes())
        .and_then(|()| w.flush())
        .expect("the shutdown frame is written");
    let mut lines = BufReader::new(r).lines();
    assert!(
        matches!(next_frame(&mut lines), Response::Bye),
        "shutdown answers bye"
    );
    let stats = daemon.stats();
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.running, 0);
    assert!(stats.workers.iter().all(|w| !w.busy));
}

#[test]
fn chaos_storm_over_in_process_pipes() {
    let daemon = Arc::new(Daemon::start(config()));
    let sessions: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
    let connect = {
        let daemon = Arc::clone(&daemon);
        let sessions = Arc::clone(&sessions);
        move || {
            let (client_w, daemon_r) = pipe();
            let (daemon_w, client_r) = pipe();
            let daemon = Arc::clone(&daemon);
            sessions.lock().unwrap().push(std::thread::spawn(move || {
                daemon.serve(BufReader::new(daemon_r), daemon_w);
            }));
            Conn {
                w: Box::new(client_w),
                r: Box::new(client_r),
            }
        }
    };
    storm(&daemon, &connect, false);
    for s in sessions.lock().unwrap().drain(..) {
        s.join().expect("every session ended");
    }
}

/// Accepts connections until the daemon's shutdown flag flips (the same
/// poll loop the binary runs), serving each on its own thread.
fn spawn_acceptor(
    daemon: &Arc<Daemon>,
    mut accept: impl FnMut() -> Option<(Box<dyn Read + Send>, Box<dyn Write + Send>)> + Send + 'static,
) -> JoinHandle<()> {
    let daemon = Arc::clone(daemon);
    std::thread::spawn(move || {
        let mut sessions = Vec::new();
        while !daemon.shutdown_requested() {
            match accept() {
                Some((r, w)) => {
                    let daemon = Arc::clone(&daemon);
                    sessions.push(std::thread::spawn(move || {
                        daemon.serve(BufReader::new(r), w);
                    }));
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        for s in sessions {
            s.join().expect("every session ended");
        }
    })
}

#[test]
fn chaos_storm_over_unix_sockets() {
    let dir = std::env::temp_dir().join("pei-serve-chaos");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("chaos-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let daemon = Arc::new(Daemon::start(config()));
    let listener = std::os::unix::net::UnixListener::bind(&path).expect("bind the socket");
    listener.set_nonblocking(true).unwrap();
    let acceptor = spawn_acceptor(&daemon, move || {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return None,
            Err(e) => panic!("accept failed: {e}"),
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let r = stream.try_clone().expect("socket handles clone");
        Some((Box::new(r), Box::new(stream)))
    });

    let connect = {
        let path = path.clone();
        move || {
            let stream =
                std::os::unix::net::UnixStream::connect(&path).expect("connect to the daemon");
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            let w = stream.try_clone().expect("socket handles clone");
            Conn {
                w: Box::new(w),
                r: Box::new(stream),
            }
        }
    };
    storm(&daemon, &connect, true);
    acceptor.join().expect("the acceptor wound down");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn chaos_storm_over_tcp() {
    let daemon = Arc::new(Daemon::start(config()));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    listener.set_nonblocking(true).unwrap();
    let acceptor = spawn_acceptor(&daemon, move || {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return None,
            Err(e) => panic!("accept failed: {e}"),
        };
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let r = stream.try_clone().expect("socket handles clone");
        Some((Box::new(r), Box::new(stream)))
    });

    let connect = move || {
        let stream = std::net::TcpStream::connect(addr).expect("connect to the daemon");
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let w = stream.try_clone().expect("socket handles clone");
        Conn {
            w: Box::new(w),
            r: Box::new(stream),
        }
    };
    storm(&daemon, &connect, true);
    acceptor.join().expect("the acceptor wound down");
}
