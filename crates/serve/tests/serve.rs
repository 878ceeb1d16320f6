//! End-to-end daemon tests: scripted sessions over in-process
//! transports, pinning the wire contract of DESIGN.md §12 — every
//! result byte-identical to its one-shot equivalent, failures and
//! malformed frames as structured errors with the daemon still alive,
//! and cancellation that leaves the resident input cache intact.

use pei_bench::service::{resolve_capture, resolve_recipe};
use pei_serve::{Daemon, ServeConfig, PANIC_WORKER_FAULT};
use pei_trace::Trace;
use pei_types::wire::{Priority, Recipe, Request, Response};
use std::io::{BufReader, Read, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A reader that reveals each request line after an optional delay —
/// how the tests steer *when* a cancel lands relative to a running job.
struct Paced {
    parts: std::vec::IntoIter<(u64, String)>,
    buf: Vec<u8>,
    pos: usize,
}

impl Paced {
    fn new(script: Vec<(u64, Request)>) -> Paced {
        Paced {
            parts: script
                .into_iter()
                .map(|(ms, req)| (ms, format!("{}\n", req.encode())))
                .collect::<Vec<_>>()
                .into_iter(),
            buf: Vec::new(),
            pos: 0,
        }
    }
}

impl Read for Paced {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.buf.len() {
            let Some((delay, line)) = self.parts.next() else {
                return Ok(0);
            };
            if delay > 0 {
                std::thread::sleep(Duration::from_millis(delay));
            }
            self.buf = line.into_bytes();
            self.pos = 0;
        }
        let n = (self.buf.len() - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A `Write` the test can read back after the session returns.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs one scripted session to completion and decodes every response
/// frame. `Daemon::serve` returns only after all terminal frames are
/// delivered, so the decoded list is complete.
fn run_session(daemon: &Daemon, script: Vec<(u64, Request)>) -> Vec<Response> {
    let out = SharedBuf::default();
    daemon.serve(BufReader::new(Paced::new(script)), out.clone());
    let bytes = out.0.lock().unwrap().clone();
    String::from_utf8(bytes)
        .expect("frames are UTF-8")
        .lines()
        .map(|l| Response::decode(l).expect("daemon emits well-formed frames"))
        .collect()
}

/// A sub-second recipe (the same cell the bench service tests use).
fn quick_recipe(policy: &str) -> Recipe {
    let mut r = Recipe::new("atf", "small", policy);
    r.seed = 7;
    r.budget = Some(2_000);
    r
}

fn submit(recipe: Recipe) -> (u64, Request) {
    (
        0,
        Request::Submit {
            recipe,
            trace: None,
            tenant: None,
            priority: Priority::Normal,
            deadline_ms: None,
        },
    )
}

fn submit_as(recipe: Recipe, tenant: &str, priority: Priority) -> (u64, Request) {
    (
        0,
        Request::Submit {
            recipe,
            trace: None,
            tenant: Some(tenant.to_owned()),
            priority,
            deadline_ms: None,
        },
    )
}

/// The terminal frame of `job`, with every non-terminal frame checked
/// on the way.
fn terminal_for(responses: &[Response], job: u64) -> &Response {
    let mut terminal = None;
    for r in responses {
        match r {
            Response::Progress { job: j, .. } if *j == job => {
                assert!(terminal.is_none(), "heartbeat after the terminal frame");
            }
            Response::Result(rf) if rf.job == job => terminal = Some(r),
            Response::Cancelled { job: j, .. } | Response::Error { job: Some(j), .. }
                if *j == job =>
            {
                terminal = Some(r)
            }
            _ => {}
        }
    }
    terminal.unwrap_or_else(|| panic!("job {job} never reached a terminal frame: {responses:?}"))
}

fn sliced_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        slice: 5_000,
        ..ServeConfig::default()
    }
}

#[test]
fn submitted_recipe_is_byte_identical_to_the_one_shot_run() {
    let recipe = quick_recipe("la");
    let reference = resolve_recipe(&recipe).unwrap().run();

    let daemon = Daemon::start(sliced_config(1));
    let responses = run_session(
        &daemon,
        vec![submit(recipe), (0, Request::Stats), (0, Request::Shutdown)],
    );

    assert!(
        matches!(responses.first(), Some(Response::Ack { job: 1 })),
        "ack comes first: {responses:?}"
    );
    match terminal_for(&responses, 1) {
        Response::Result(r) => {
            assert_eq!(r.stats, reference.stats.to_string(), "byte-identity");
            assert_eq!(r.cycles, reference.cycles);
            assert_eq!(r.instructions, reference.instructions);
            assert_eq!(r.peis, reference.peis);
            assert_eq!(r.offchip_bytes, reference.offchip_bytes);
            assert_eq!(r.offchip_flits, reference.offchip_flits);
            assert_eq!(r.dram_accesses, reference.dram_accesses);
            assert!(r.trace.is_none());
        }
        other => panic!("expected a result frame, got {other:?}"),
    }
    let stats = responses
        .iter()
        .find_map(|r| match r {
            Response::Stats(s) => Some(s),
            _ => None,
        })
        .expect("the stats request was answered");
    assert_eq!(stats.workers.len(), 1);
    assert!(
        stats.graph_cache_entries >= 1,
        "the input graph stayed resident"
    );
    assert!(
        matches!(responses.last(), Some(Response::Bye)),
        "shutdown answers bye last: {responses:?}"
    );
}

#[test]
fn concurrent_sessions_interleave_without_losing_byte_identity() {
    // Sessions A and B submit four policies of one cell (by their CLI
    // names, `bd` included), all on one input graph from the shared
    // input cache. Session C injects a checked-mode fault, which must
    // come back as a structured error frame *and leave the daemon
    // serving*: C's second, healthy submission completes.
    let reference = |policy: &str| resolve_recipe(&quick_recipe(policy)).unwrap().run();
    let daemon = Arc::new(Daemon::start(sliced_config(2)));

    let mut faulty = quick_recipe("la");
    faulty.check = true;
    faulty.fault_seed = Some(13);
    faulty.fault_kinds = vec!["corrupt-line".into()];

    // Sessions must stay connected until their terminals arrive: an EOF
    // with jobs still outstanding is a disconnect, and the daemon reaps
    // (cancels) the orphaned work. Each session here submits, waits for
    // all its terminal frames, and only then hangs up.
    let spawn = |recipes: Vec<Recipe>| {
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || {
            let expected = recipes.len();
            let (tx, rx) = std::sync::mpsc::channel();
            let out = SharedBuf::default();
            let session = {
                let daemon = Arc::clone(&daemon);
                let out = out.clone();
                std::thread::spawn(move || {
                    daemon.serve(
                        BufReader::new(ChannelReader {
                            rx,
                            buf: Vec::new(),
                            pos: 0,
                        }),
                        out,
                    );
                })
            };
            for (_, req) in recipes.into_iter().map(submit) {
                tx.send(req).expect("session is reading");
            }
            let deadline = std::time::Instant::now() + Duration::from_secs(120);
            loop {
                let bytes = out.0.lock().unwrap().clone();
                let text = String::from_utf8(bytes).expect("frames are UTF-8");
                let complete = &text[..text.rfind('\n').map_or(0, |i| i + 1)];
                let terminals = complete
                    .lines()
                    .map(|l| Response::decode(l).expect("well-formed frames"))
                    .filter(|r| {
                        matches!(
                            r,
                            Response::Result(_)
                                | Response::Cancelled { .. }
                                | Response::Error { .. }
                        )
                    })
                    .count();
                if terminals == expected {
                    break;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "timed out waiting for {expected} terminals; saw:\n{text}"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            drop(tx);
            session.join().unwrap();
            let bytes = out.0.lock().unwrap().clone();
            String::from_utf8(bytes)
                .unwrap()
                .lines()
                .map(|l| Response::decode(l).unwrap())
                .collect::<Vec<Response>>()
        })
    };
    let a = spawn(vec![quick_recipe("la"), quick_recipe("bd")]);
    let b = spawn(vec![quick_recipe("host"), quick_recipe("pim")]);
    let c = spawn(vec![faulty, quick_recipe("pim")]);
    let (a, b, c) = (a.join().unwrap(), b.join().unwrap(), c.join().unwrap());

    // Job ids are daemon-global; recover each session's ids in order.
    let ids = |responses: &[Response]| -> Vec<u64> {
        responses
            .iter()
            .filter_map(|r| match r {
                Response::Ack { job } => Some(*job),
                _ => None,
            })
            .collect()
    };
    for (responses, policies) in [(&a, ["la", "bd"]), (&b, ["host", "pim"])] {
        for (job, policy) in ids(responses).into_iter().zip(policies) {
            match terminal_for(responses, job) {
                Response::Result(r) => {
                    assert_eq!(
                        r.stats,
                        reference(policy).stats.to_string(),
                        "{policy} under concurrency"
                    );
                }
                other => panic!("{policy} should complete, got {other:?}"),
            }
        }
    }
    let c_ids = ids(&c);
    match terminal_for(&c, c_ids[0]) {
        Response::Error {
            kind, violations, ..
        } => {
            assert_eq!(kind, "check-failed", "the mesi auditor catches the fault");
            assert!(
                violations.iter().any(|v| v.contains("mesi")),
                "violations name the checker: {violations:?}"
            );
        }
        other => panic!("the faulted run should fail, got {other:?}"),
    }
    match terminal_for(&c, c_ids[1]) {
        Response::Result(r) => assert_eq!(r.stats, reference("pim").stats.to_string()),
        other => panic!("the daemon must keep serving after a failure, got {other:?}"),
    }

    let stats = daemon.stats();
    assert_eq!(stats.completed, 5);
    assert_eq!(stats.failed, 1);
}

/// A reader fed line by line from the test thread, so a request can be
/// held back until the daemon's output shows the right moment to send
/// it (e.g. a cancel after the victim's first heartbeat).
struct ChannelReader {
    rx: std::sync::mpsc::Receiver<Request>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.buf.len() {
            let Ok(req) = self.rx.recv() else {
                return Ok(0);
            };
            self.buf = format!("{}\n", req.encode()).into_bytes();
            self.pos = 0;
        }
        let n = (self.buf.len() - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Polls the session's output until a complete frame satisfies `pred`.
fn wait_for(out: &SharedBuf, what: &str, pred: impl Fn(&Response) -> bool) -> Response {
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let bytes = out.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).expect("frames are UTF-8");
        // Only lines already terminated by \n are complete frames.
        let complete = &text[..text.rfind('\n').map_or(0, |i| i + 1)];
        for line in complete.lines() {
            let r = Response::decode(line).expect("daemon emits well-formed frames");
            if pred(&r) {
                return r;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}; saw:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn cancel_stops_queued_and_running_jobs_and_spares_the_cache() {
    // Job 1 runs untraced in the first session and traced in the
    // second: a traced job is sliced like any other, so it too stops
    // mid-run and writes no capture.
    cancel_mid_run(None);
    let path = std::env::temp_dir().join("pei-serve-test-cancelled.petr");
    let _ = std::fs::remove_file(&path);
    cancel_mid_run(Some(path.to_string_lossy().into_owned()));
    assert!(!path.exists(), "a cancelled traced job writes no capture");
}

fn cancel_mid_run(trace: Option<String>) {
    // One worker: job 1 (a run of over a second) occupies it, job 2
    // waits queued. Cancelling 2 immediately kills it before it starts
    // (cycle 0); job 1 is cancelled only after its first heartbeat
    // proves it is mid-run, so its cancel cycle must be > 0. Job 3 must
    // then run clean, and the input cache must keep its graphs.
    let mut long = quick_recipe("la");
    long.size = "medium".to_owned();
    long.budget = Some(200_000);
    let reference = resolve_recipe(&quick_recipe("la")).unwrap().run();

    let daemon = Arc::new(Daemon::start(sliced_config(1)));
    let (tx, rx) = std::sync::mpsc::channel();
    let out = SharedBuf::default();
    let session = {
        let daemon = Arc::clone(&daemon);
        let out = out.clone();
        std::thread::spawn(move || {
            daemon.serve(
                BufReader::new(ChannelReader {
                    rx,
                    buf: Vec::new(),
                    pos: 0,
                }),
                out,
            );
        })
    };
    let send = |req: Request| tx.send(req).expect("session is reading");

    send(Request::Submit {
        recipe: long.clone(),
        trace,
        tenant: None,
        priority: Priority::Normal,
        deadline_ms: None,
    });
    send(Request::Submit {
        recipe: long,
        trace: None,
        tenant: None,
        priority: Priority::Normal,
        deadline_ms: None,
    });
    send(Request::Cancel { job: 2 });
    wait_for(
        &out,
        "job 1's first heartbeat",
        |r| matches!(r, Response::Progress { job: 1, cycle } if *cycle > 0),
    );
    send(Request::Cancel { job: 1 });
    wait_for(&out, "job 1's cancellation", |r| {
        matches!(r, Response::Cancelled { job: 1, .. })
    });
    send(Request::Submit {
        recipe: quick_recipe("la"),
        trace: None,
        tenant: None,
        priority: Priority::Normal,
        deadline_ms: None,
    });
    send(Request::Shutdown);
    session.join().unwrap();

    let bytes = out.0.lock().unwrap().clone();
    let responses: Vec<Response> = String::from_utf8(bytes)
        .unwrap()
        .lines()
        .map(|l| Response::decode(l).unwrap())
        .collect();

    match terminal_for(&responses, 2) {
        Response::Cancelled { cycle, .. } => {
            assert_eq!(*cycle, 0, "job 2 never started");
        }
        other => panic!("job 2 should be cancelled, got {other:?}"),
    }
    match terminal_for(&responses, 1) {
        Response::Cancelled { cycle, .. } => {
            assert!(*cycle > 0, "job 1 was cancelled mid-run");
        }
        other => panic!("job 1 should be cancelled, got {other:?}"),
    }
    match terminal_for(&responses, 3) {
        Response::Result(r) => assert_eq!(r.stats, reference.stats.to_string()),
        other => panic!("job 3 should complete, got {other:?}"),
    }

    let stats = daemon.stats();
    assert_eq!(stats.cancelled, 2);
    assert_eq!(stats.completed, 1);
    assert!(
        stats.graph_cache_entries >= 1,
        "the input graphs stayed resident"
    );
}

#[test]
fn malformed_frames_and_unknown_jobs_error_without_killing_the_session() {
    let daemon = Daemon::start(ServeConfig::default());
    let garbage = (0, Request::Stats); // placeholder, replaced below
    let mut script = Paced::new(vec![
        garbage,
        (0, Request::Cancel { job: 99 }),
        submit(quick_recipe("la")),
        (0, Request::Shutdown),
    ]);
    // Swap the first line for raw garbage the typed script can't express,
    // then a recipe asking for the removed sharded engine, which no
    // longer has a typed form either.
    script.buf = b"{\"type\" oops\n\
        {\"type\":\"submit\",\"recipe\":{\"workload\":\"atf\",\"shards\":2}}\n"
        .to_vec();

    let out = SharedBuf::default();
    daemon.serve(BufReader::new(script), out.clone());
    let bytes = out.0.lock().unwrap().clone();
    let responses: Vec<Response> = String::from_utf8(bytes)
        .unwrap()
        .lines()
        .map(|l| Response::decode(l).unwrap())
        .collect();

    match &responses[0] {
        Response::Error {
            job: None,
            kind,
            message,
            ..
        } => {
            assert_eq!(kind, "bad-frame");
            assert!(message.contains("byte"), "offset reported: {message}");
        }
        other => panic!("garbage should error, got {other:?}"),
    }
    match &responses[1] {
        Response::Error {
            job: None,
            kind,
            message,
            ..
        } => {
            assert_eq!(kind, "bad-frame");
            assert!(message.contains("`shards`"), "names the member: {message}");
        }
        other => panic!("a `shards` recipe should error, got {other:?}"),
    }
    // The stats frame from the placeholder request proves the session
    // survived both...
    assert!(matches!(&responses[2], Response::Stats(s) if s.rejected == 2));
    // ...as does the unknown-job error after it...
    match &responses[3] {
        Response::Error { kind, .. } => assert_eq!(kind, "unknown-job"),
        other => panic!("cancelling job 99 should error, got {other:?}"),
    }
    // ...the next submit runs...
    assert!(matches!(terminal_for(&responses, 1), Response::Result(_)));
    // ...and shutdown still answers.
    assert!(matches!(responses.last(), Some(Response::Bye)));
}

#[test]
fn bad_recipes_are_rejected_as_structured_errors() {
    let daemon = Daemon::start(ServeConfig::default());
    let mut traced_checked = quick_recipe("la");
    traced_checked.check = true;
    let responses = run_session(
        &daemon,
        vec![
            submit(quick_recipe("warp-speed")),
            (
                0,
                Request::Submit {
                    recipe: traced_checked,
                    trace: Some("/tmp/should-not-exist.petr".into()),
                    tenant: None,
                    priority: Priority::Normal,
                    deadline_ms: None,
                },
            ),
            (0, Request::Shutdown),
        ],
    );
    match &responses[0] {
        Response::Error {
            job: None,
            kind,
            message,
            ..
        } => {
            assert_eq!(kind, "bad-recipe");
            assert!(message.contains("policy"), "{message}");
        }
        other => panic!("unknown policy should reject, got {other:?}"),
    }
    match &responses[1] {
        Response::Error { kind, message, .. } => {
            assert_eq!(kind, "bad-recipe");
            assert!(message.contains("check"), "{message}");
        }
        other => panic!("traced+checked should reject, got {other:?}"),
    }
    assert_eq!(daemon.stats().rejected, 2);
}

#[test]
fn traced_submissions_write_a_replayable_capture() {
    let dir = std::env::temp_dir().join("pei-serve-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("atf-la.petr");
    let _ = std::fs::remove_file(&path);

    // Sliced finely, so the traced job pauses many times on its way.
    let daemon = Daemon::start(sliced_config(1));
    let responses = run_session(
        &daemon,
        vec![
            (
                0,
                Request::Submit {
                    recipe: quick_recipe("la"),
                    trace: Some(path.to_string_lossy().into_owned()),
                    tenant: None,
                    priority: Priority::Normal,
                    deadline_ms: None,
                },
            ),
            (0, Request::Shutdown),
        ],
    );
    let frame = match terminal_for(&responses, 1) {
        Response::Result(r) => r,
        other => panic!("traced run should complete, got {other:?}"),
    };
    assert_eq!(frame.trace.as_deref(), Some(&*path.to_string_lossy()));

    let trace = Trace::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
    assert_eq!(trace.meta_get("spec.workload"), Some("ATF"));
    assert_eq!(
        trace.meta_get("stats"),
        Some(frame.stats.as_str()),
        "the capture's stats metadata equals the wire stats"
    );
    // The sliced daemon capture equals the one-shot capture of the same
    // recipe: same event stream, same stats metadata.
    let (_, one_shot) = resolve_capture(&quick_recipe("la")).unwrap().capture();
    assert_eq!(pei_trace::diff(&trace, &one_shot), None);
    assert_eq!(trace.meta_get("stats"), one_shot.meta_get("stats"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_panicking_worker_reports_the_job_failed_and_the_daemon_drains() {
    // Job 1 carries the test-only panic fault; job 2 is healthy and
    // shares the single worker. The panic must surface as a terminal
    // `worker-panic` error frame, the worker must survive to run job 2,
    // and shutdown must drain to `bye` instead of hanging on the
    // accounting the panicking job abandoned.
    let mut bomb = quick_recipe("la");
    bomb.fault_kinds = vec![PANIC_WORKER_FAULT.to_owned()];
    let reference = resolve_recipe(&quick_recipe("la")).unwrap().run();

    let daemon = Daemon::start(sliced_config(1));
    let responses = run_session(
        &daemon,
        vec![
            submit(bomb),
            submit(quick_recipe("la")),
            (0, Request::Shutdown),
        ],
    );

    match terminal_for(&responses, 1) {
        Response::Error { kind, message, .. } => {
            assert_eq!(kind, "worker-panic");
            assert!(message.contains("job 1"), "{message}");
        }
        other => panic!("the panicking job should fail, got {other:?}"),
    }
    match terminal_for(&responses, 2) {
        Response::Result(r) => {
            assert_eq!(r.stats, reference.stats.to_string(), "the worker survived");
        }
        other => panic!("the healthy job should complete, got {other:?}"),
    }
    assert!(
        matches!(responses.last(), Some(Response::Bye)),
        "shutdown drained to bye after the panic: {responses:?}"
    );

    let stats = daemon.stats();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.running, 0, "the panicking job's claim was released");
    assert_eq!(stats.queue_depth, 0);
    assert!(
        stats.workers.iter().all(|w| !w.busy),
        "no slot stays marked busy after an unwind: {:?}",
        stats.workers
    );
}

#[test]
fn every_stats_snapshot_balances_while_jobs_finish() {
    // Two workers end 30 short jobs while the test thread polls `stats`
    // as fast as it can. A job is queued, running or ended in exactly
    // one total in every snapshot: never counted twice while it
    // finishes, never held by more slots than there are workers.
    const WORKERS: u64 = 2;
    let daemon = Arc::new(Daemon::start(sliced_config(WORKERS as usize)));
    let script: Vec<_> = (0..30)
        .map(|i| {
            let mut r = quick_recipe("la");
            r.budget = Some(300 + i % 5);
            submit(r)
        })
        .chain([(0, Request::Shutdown)])
        .collect();
    let session = {
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || run_session(&daemon, script))
    };
    let (mut polls, mut broken, mut first_broken) = (0u64, 0u64, None);
    while !session.is_finished() {
        let s = daemon.stats();
        polls += 1;
        let accounted = s.queue_depth
            + s.running
            + s.completed
            + s.failed
            + s.cancelled
            + s.deadline_exceeded
            + s.disconnect_cancelled;
        let busy = s.workers.iter().filter(|w| w.busy).count() as u64;
        if accounted != s.submitted || s.running > WORKERS || busy != s.running {
            broken += 1;
            first_broken.get_or_insert(s);
        }
    }
    let responses = session.join().unwrap();
    assert_eq!(
        broken, 0,
        "{broken} of {polls} snapshots broke the partition; the first: {first_broken:?}"
    );
    for job in 1..=30 {
        assert!(
            matches!(terminal_for(&responses, job), Response::Result(_)),
            "job {job} completed"
        );
    }
    let s = daemon.stats();
    assert_eq!((s.submitted, s.completed, s.running), (30, 30, 0));
}

#[test]
fn tenants_drain_round_robin_within_bands_and_high_priority_preempts_the_queue() {
    // One worker; a filler job pins it while the backlog builds, so the
    // drain order is decided purely by the scheduler: tenant a queues
    // four jobs, then tenant b queues four, then tenant c queues one at
    // high priority. The high job runs first, and a/b alternate
    // round-robin even though a's whole burst arrived earlier.
    let mut filler = quick_recipe("la");
    filler.size = "medium".to_owned();
    filler.budget = Some(200_000);

    let daemon = Arc::new(Daemon::start(sliced_config(1)));
    let (tx, rx) = std::sync::mpsc::channel();
    let out = SharedBuf::default();
    let session = {
        let daemon = Arc::clone(&daemon);
        let out = out.clone();
        std::thread::spawn(move || {
            daemon.serve(
                BufReader::new(ChannelReader {
                    rx,
                    buf: Vec::new(),
                    pos: 0,
                }),
                out,
            );
        })
    };
    let send = |req: Request| tx.send(req).expect("session is reading");

    send(submit_as(filler, "a", Priority::Normal).1);
    wait_for(
        &out,
        "the filler's first heartbeat",
        |r| matches!(r, Response::Progress { job: 1, cycle } if *cycle > 0),
    );
    // The worker is pinned mid-run; everything below queues up.
    for _ in 0..4 {
        send(submit_as(quick_recipe("la"), "a", Priority::Normal).1);
    }
    for _ in 0..4 {
        send(submit_as(quick_recipe("la"), "b", Priority::Normal).1);
    }
    send(submit_as(quick_recipe("la"), "c", Priority::High).1);
    send(Request::Stats);
    send(Request::Shutdown);
    session.join().unwrap();

    let bytes = out.0.lock().unwrap().clone();
    let responses: Vec<Response> = String::from_utf8(bytes)
        .unwrap()
        .lines()
        .map(|l| Response::decode(l).unwrap())
        .collect();
    let completion_order: Vec<u64> = responses
        .iter()
        .filter_map(|r| match r {
            Response::Result(rf) => Some(rf.job),
            _ => None,
        })
        .collect();
    // Jobs 2–5 are a's, 6–9 are b's, 10 is c's high-priority job.
    assert_eq!(
        completion_order,
        vec![1, 10, 2, 6, 3, 7, 4, 8, 5, 9],
        "high drains first, then a/b alternate round-robin"
    );

    let stats = responses
        .iter()
        .find_map(|r| match r {
            Response::Stats(s) => Some(s.clone()),
            _ => None,
        })
        .expect("the stats request was answered");
    let tenant = |name: &str| {
        stats
            .tenants
            .iter()
            .find(|t| t.tenant == name)
            .unwrap_or_else(|| panic!("tenant {name} missing: {:?}", stats.tenants))
    };
    assert_eq!(tenant("a").submitted, 5, "filler plus the burst of four");
    assert_eq!(tenant("b").submitted, 4);
    assert_eq!(tenant("c").submitted, 1);
    let names: Vec<&str> = stats.tenants.iter().map(|t| t.tenant.as_str()).collect();
    assert_eq!(names, vec!["a", "b", "c"], "tenants are reported sorted");

    // After the session drains, every submission completed and the
    // queued bursts show a non-zero measured wait behind the filler.
    let stats = daemon.stats();
    for name in ["a", "b", "c"] {
        let t = stats
            .tenants
            .iter()
            .find(|t| t.tenant == name)
            .unwrap_or_else(|| panic!("tenant {name} missing after drain"));
        assert_eq!(t.completed, t.submitted, "{name} drained");
        if name != "a" {
            assert!(t.wait_p50_ms > 0, "{name} queued behind the filler: {t:?}");
        }
        assert!(t.wait_p95_ms >= t.wait_p50_ms, "{name}: {t:?}");
    }
}

#[test]
fn a_tcp_session_is_byte_identical_to_an_in_process_session() {
    // Two fresh daemons with the same config run the same script: one
    // over an in-process reader/writer pair, one over a real TCP
    // socket. Both start their job counters at 1, so every frame —
    // acks, results, bye — must match byte for byte; the transport is
    // invisible to the wire contract.
    let script = || {
        vec![
            submit(quick_recipe("la")),
            submit(quick_recipe("pim")),
            (0, Request::Shutdown),
        ]
    };
    let reference_daemon = Daemon::start(sliced_config(1));
    let reference_out = SharedBuf::default();
    reference_daemon.serve(BufReader::new(Paced::new(script())), reference_out.clone());
    let reference_bytes = reference_out.0.lock().unwrap().clone();

    let daemon = Arc::new(Daemon::start(sliced_config(1)));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let server = {
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("one client connects");
            let reading = stream.try_clone().expect("split the stream");
            daemon.serve(BufReader::new(reading), stream);
        })
    };

    let mut client = std::net::TcpStream::connect(addr).expect("connect to the daemon");
    for (_, req) in script() {
        client
            .write_all(format!("{}\n", req.encode()).as_bytes())
            .expect("send a frame");
    }
    client.flush().unwrap();
    let mut tcp_bytes = Vec::new();
    client
        .read_to_end(&mut tcp_bytes)
        .expect("read the session to EOF");
    server.join().unwrap();

    assert_eq!(
        String::from_utf8_lossy(&tcp_bytes),
        String::from_utf8_lossy(&reference_bytes),
        "the TCP transport changes no frame"
    );
    assert_eq!(tcp_bytes, reference_bytes);
}

fn submit_deadline(recipe: Recipe, deadline_ms: u64) -> (u64, Request) {
    (
        0,
        Request::Submit {
            recipe,
            trace: None,
            tenant: None,
            priority: Priority::Normal,
            deadline_ms: Some(deadline_ms),
        },
    )
}

/// The long-running filler recipe the overload tests use to pin a
/// worker for around a second of wall clock. The deadline tests need it
/// to outlast a few-hundred-millisecond budget in both build profiles;
/// the optimized simulator is ~10x faster and the medium input's trace
/// exhausts at ~430k cycles, so release steps up to the large input.
fn long_recipe() -> Recipe {
    let mut r = quick_recipe("la");
    if cfg!(debug_assertions) {
        r.size = "medium".to_owned();
        r.budget = Some(200_000);
    } else {
        r.size = "large".to_owned();
        r.budget = Some(2_000_000);
    }
    r
}

#[test]
fn submissions_past_the_queue_bound_are_rejected_queue_full() {
    // One worker, `max_queue` 1: the filler pins the worker (a running
    // job no longer counts against the bound), job 2 occupies the only
    // queue slot, and job 3 must be turned away with a structured
    // `queue-full` error — rejected at admission, never becoming a job.
    let reference = resolve_recipe(&quick_recipe("la")).unwrap().run();
    let daemon = Arc::new(Daemon::start(ServeConfig {
        workers: 1,
        slice: 5_000,
        max_queue: Some(1),
        ..ServeConfig::default()
    }));
    let (tx, rx) = std::sync::mpsc::channel();
    let out = SharedBuf::default();
    let session = {
        let daemon = Arc::clone(&daemon);
        let out = out.clone();
        std::thread::spawn(move || {
            daemon.serve(
                BufReader::new(ChannelReader {
                    rx,
                    buf: Vec::new(),
                    pos: 0,
                }),
                out,
            );
        })
    };
    let send = |req: Request| tx.send(req).expect("session is reading");

    send(submit(long_recipe()).1);
    wait_for(
        &out,
        "the filler's first heartbeat",
        |r| matches!(r, Response::Progress { job: 1, cycle } if *cycle > 0),
    );
    send(submit(quick_recipe("la")).1);
    wait_for(&out, "job 2's ack", |r| {
        matches!(r, Response::Ack { job: 2 })
    });
    send(submit(quick_recipe("la")).1);
    let rejection = wait_for(
        &out,
        "the queue-full rejection",
        |r| matches!(r, Response::Error { job: None, kind, .. } if kind == "queue-full"),
    );
    match rejection {
        Response::Error { message, .. } => {
            assert!(message.contains("1 jobs"), "the bound is named: {message}");
        }
        other => panic!("expected the rejection frame, got {other:?}"),
    }
    send(Request::Cancel { job: 1 });
    send(Request::Shutdown);
    session.join().unwrap();

    let bytes = out.0.lock().unwrap().clone();
    let responses: Vec<Response> = String::from_utf8(bytes)
        .unwrap()
        .lines()
        .map(|l| Response::decode(l).unwrap())
        .collect();
    match terminal_for(&responses, 2) {
        Response::Result(r) => {
            assert_eq!(
                r.stats,
                reference.stats.to_string(),
                "job 2 still ran clean"
            );
        }
        other => panic!("job 2 should complete, got {other:?}"),
    }
    assert!(matches!(responses.last(), Some(Response::Bye)));

    let stats = daemon.stats();
    assert_eq!(stats.submitted, 2, "the rejected submit never became a job");
    assert_eq!(stats.queue_full, 1);
    assert_eq!(stats.rejected, 1, "queue-full rejections count as rejected");
    assert_eq!(stats.queue_high_water, 1, "depth never exceeded the bound");
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.cancelled, 1);
    assert_eq!(
        stats.submitted,
        stats.completed
            + stats.failed
            + stats.cancelled
            + stats.deadline_exceeded
            + stats.disconnect_cancelled,
        "the accounting partition balances"
    );
}

#[test]
fn deadlines_bound_running_and_queued_jobs_and_spare_the_cache() {
    // One worker. Job 1 is a >1 s run with a 300 ms budget: it must be
    // abandoned mid-run at a slice boundary. Job 2 (200 ms budget)
    // spends longer than that queued behind job 1, so it must die on
    // the pre-check without simulating a cycle. Job 3 is healthy and
    // must stay byte-identical — a lapsed deadline never corrupts the
    // resident input cache.
    let reference = resolve_recipe(&quick_recipe("la")).unwrap().run();
    let daemon = Daemon::start(sliced_config(1));
    let responses = run_session(
        &daemon,
        vec![
            submit_deadline(long_recipe(), 300),
            submit_deadline(long_recipe(), 200),
            submit(quick_recipe("la")),
            (0, Request::Shutdown),
        ],
    );
    match terminal_for(&responses, 1) {
        Response::Error { kind, message, .. } => {
            assert_eq!(kind, "deadline-exceeded");
            assert!(message.contains("300 ms"), "{message}");
            assert!(
                !message.contains("at cycle 0;"),
                "job 1 was abandoned mid-run: {message}"
            );
        }
        other => panic!("job 1 should exceed its deadline, got {other:?}"),
    }
    match terminal_for(&responses, 2) {
        Response::Error { kind, message, .. } => {
            assert_eq!(kind, "deadline-exceeded");
            assert!(
                message.contains("at cycle 0;"),
                "job 2 expired while queued: {message}"
            );
        }
        other => panic!("job 2 should expire queued, got {other:?}"),
    }
    match terminal_for(&responses, 3) {
        Response::Result(r) => assert_eq!(r.stats, reference.stats.to_string()),
        other => panic!("job 3 should complete, got {other:?}"),
    }
    let stats = daemon.stats();
    assert_eq!(stats.deadline_exceeded, 2);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.cancelled, 0, "deadlines are not client cancels");
    assert_eq!(stats.failed, 0);

    // The daemon-wide default budget applies when a submit names none.
    let daemon = Daemon::start(ServeConfig {
        workers: 1,
        slice: 5_000,
        deadline_ms: Some(200),
        ..ServeConfig::default()
    });
    let responses = run_session(&daemon, vec![submit(long_recipe()), (0, Request::Shutdown)]);
    match terminal_for(&responses, 1) {
        Response::Error { kind, message, .. } => {
            assert_eq!(kind, "deadline-exceeded");
            assert!(message.contains("200 ms"), "{message}");
        }
        other => panic!("the default budget should apply, got {other:?}"),
    }
    assert_eq!(daemon.stats().deadline_exceeded, 1);
}

#[test]
fn a_vanishing_client_gets_its_queued_and_running_jobs_reaped() {
    // One worker; the session starts a long job, queues a second, and
    // then disconnects (reader EOF, no shutdown frame). Both jobs must
    // be cancelled through the disconnect path — freeing the worker —
    // and a later well-behaved session must run byte-identically.
    let reference = resolve_recipe(&quick_recipe("la")).unwrap().run();
    let daemon = Arc::new(Daemon::start(sliced_config(1)));
    let (tx, rx) = std::sync::mpsc::channel();
    let out = SharedBuf::default();
    let session = {
        let daemon = Arc::clone(&daemon);
        let out = out.clone();
        std::thread::spawn(move || {
            daemon.serve(
                BufReader::new(ChannelReader {
                    rx,
                    buf: Vec::new(),
                    pos: 0,
                }),
                out,
            );
        })
    };
    tx.send(submit(long_recipe()).1).unwrap();
    tx.send(submit(long_recipe()).1).unwrap();
    wait_for(
        &out,
        "job 1's first heartbeat",
        |r| matches!(r, Response::Progress { job: 1, cycle } if *cycle > 0),
    );
    drop(tx); // the client vanishes mid-job
    session.join().unwrap();

    // `serve` returns only after the reaped jobs delivered terminals.
    let bytes = out.0.lock().unwrap().clone();
    let responses: Vec<Response> = String::from_utf8(bytes)
        .unwrap()
        .lines()
        .map(|l| Response::decode(l).unwrap())
        .collect();
    match terminal_for(&responses, 1) {
        Response::Cancelled { cycle, .. } => {
            assert!(*cycle > 0, "job 1 was reaped mid-run");
        }
        other => panic!("job 1 should be reaped, got {other:?}"),
    }
    match terminal_for(&responses, 2) {
        Response::Cancelled { cycle, .. } => {
            assert_eq!(*cycle, 0, "job 2 was reaped while queued");
        }
        other => panic!("job 2 should be reaped, got {other:?}"),
    }

    let stats = daemon.stats();
    assert_eq!(stats.disconnect_cancelled, 2);
    assert_eq!(stats.cancelled, 0, "no client cancel was involved");
    assert_eq!(stats.running, 0, "no leaked worker slot");
    assert_eq!(stats.queue_depth, 0);
    assert!(stats.workers.iter().all(|w| !w.busy));

    let responses = run_session(
        &daemon,
        vec![submit(quick_recipe("la")), (0, Request::Shutdown)],
    );
    let id = responses
        .iter()
        .find_map(|r| match r {
            Response::Ack { job } => Some(*job),
            _ => None,
        })
        .expect("the later session is served");
    match terminal_for(&responses, id) {
        Response::Result(r) => assert_eq!(r.stats, reference.stats.to_string()),
        other => panic!("the daemon must keep serving after a reap, got {other:?}"),
    }
}

/// A writer that stalls before every write — a reader that has stopped
/// draining its socket, as seen from the daemon's writer thread.
#[derive(Clone)]
struct StallingBuf {
    inner: SharedBuf,
    stall: Duration,
}

impl Write for StallingBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        std::thread::sleep(self.stall);
        self.inner.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn slow_readers_shed_heartbeats_but_never_acks_or_terminals() {
    // A tiny slice makes the job produce ~40 heartbeats in microseconds
    // while the stalled writer drains one frame per 5 ms through a
    // 2-frame queue: coalescing must shed most heartbeats, yet the ack,
    // the result (byte-identical), the stats frame, and bye all arrive.
    let reference = resolve_recipe(&quick_recipe("la")).unwrap().run();
    let daemon = Arc::new(Daemon::start(ServeConfig {
        workers: 1,
        slice: 50,
        writer_queue: 2,
        ..ServeConfig::default()
    }));
    let (tx, rx) = std::sync::mpsc::channel();
    let out = SharedBuf::default();
    let session = {
        let daemon = Arc::clone(&daemon);
        let out = StallingBuf {
            inner: out.clone(),
            stall: Duration::from_millis(5),
        };
        std::thread::spawn(move || {
            daemon.serve(
                BufReader::new(ChannelReader {
                    rx,
                    buf: Vec::new(),
                    pos: 0,
                }),
                out,
            );
        })
    };
    tx.send(submit(quick_recipe("la")).1).unwrap();
    wait_for(
        &out,
        "the job's result",
        |r| matches!(r, Response::Result(rf) if rf.job == 1),
    );
    tx.send(Request::Stats).unwrap();
    tx.send(Request::Shutdown).unwrap();
    session.join().unwrap();

    let bytes = out.0.lock().unwrap().clone();
    let responses: Vec<Response> = String::from_utf8(bytes)
        .unwrap()
        .lines()
        .map(|l| Response::decode(l).unwrap())
        .collect();
    assert!(matches!(responses.first(), Some(Response::Ack { job: 1 })));
    match terminal_for(&responses, 1) {
        Response::Result(r) => {
            assert_eq!(r.stats, reference.stats.to_string(), "terminals never shed");
        }
        other => panic!("the job should complete, got {other:?}"),
    }
    assert!(matches!(responses.last(), Some(Response::Bye)));

    let heartbeats = responses
        .iter()
        .filter(|r| matches!(r, Response::Progress { .. }))
        .count() as u64;
    let stats = responses
        .iter()
        .find_map(|r| match r {
            Response::Stats(s) => Some(s.clone()),
            _ => None,
        })
        .expect("the stats request was answered");
    assert!(
        stats.session_dropped_progress >= 1,
        "the 2-frame queue shed heartbeats: {stats:?}"
    );
    assert!(
        stats.dropped_progress >= stats.session_dropped_progress,
        "the daemon-wide counter covers this session: {stats:?}"
    );
    // Conservation: one heartbeat per 50-cycle slice was produced, and
    // each was either delivered or counted shed — none vanished.
    assert!(
        heartbeats + stats.session_dropped_progress >= reference.cycles / 50 - 1,
        "heartbeats delivered ({heartbeats}) plus shed ({}) cover the {} slices",
        stats.session_dropped_progress,
        reference.cycles / 50
    );
}
