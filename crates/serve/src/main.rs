//! `pei-serve` — the PEI simulator as a daemon.
//!
//! ```text
//! pei-serve --socket /tmp/pei.sock          # accept Unix connections
//! pei-serve --tcp 127.0.0.1:7745           # accept TCP connections
//! pei-serve --socket /tmp/pei.sock --tcp 0.0.0.0:7745   # both at once
//! pei-serve --stdio                         # one session on stdin/stdout
//! ```
//!
//! Submit work with `pei-sim --submit <socket-path|host:port> ...` or by
//! writing newline-delimited JSON request frames (DESIGN.md §12). Flags
//! are read by `pei_bench::cli`: a bad one, or a socket that cannot be
//! bound, prints `error: …` and exits with status 2.

use pei_bench::cli::{self, fail};
use pei_bench::ExpOptions;
use pei_serve::{Daemon, ServeConfig};
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
usage: pei-serve (--socket PATH | --tcp ADDR | --stdio) [options]

  --socket PATH   listen for connections on a Unix socket at PATH
  --tcp ADDR      listen for TCP connections on ADDR (host:port);
                  may be combined with --socket to serve both
  --stdio         serve exactly one session on stdin/stdout, then exit
  --workers N     worker threads executing jobs (default: CPU count)
  --slice N       cancellation/heartbeat granularity in simulated
                  cycles (default: 1000000)
  --max-queue N   admission bound: total queued jobs across all
                  sessions; submits past it are rejected with a
                  `queue-full` error frame (default: 1024;
                  0 = unbounded)
  --deadline-ms N default wall-clock budget per job in milliseconds,
                  applied when a submit carries no `deadline_ms` of its
                  own; jobs past budget stop at the next slice boundary
                  with a `deadline-exceeded` error (default: 0 = none)
";

/// One listening transport: anything that can hand back a buffered
/// reader/writer pair per connection. Both listeners run non-blocking so
/// the accept loops can poll the daemon's shutdown flag.
trait Listener: Send + 'static {
    fn accept_session(&self) -> std::io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)>;
    fn describe(&self) -> String;
}

impl Listener for UnixListener {
    fn accept_session(&self) -> std::io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
        let (stream, _) = self.accept()?;
        let reading = stream.try_clone()?;
        Ok((Box::new(reading), Box::new(stream)))
    }
    fn describe(&self) -> String {
        match self.local_addr() {
            Ok(a) => format!("{a:?}"),
            Err(_) => "unix socket".to_owned(),
        }
    }
}

impl Listener for TcpListener {
    fn accept_session(&self) -> std::io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
        let (stream, _) = self.accept()?;
        stream.set_nodelay(true).ok(); // frames are latency-sensitive lines
        let reading = stream.try_clone()?;
        Ok((Box::new(reading), Box::new(stream)))
    }
    fn describe(&self) -> String {
        match self.local_addr() {
            Ok(a) => format!("tcp {a}"),
            Err(_) => "tcp".to_owned(),
        }
    }
}

/// Accepts connections until the daemon's shutdown flag flips, serving
/// each on its own thread. Identical for Unix and TCP: `Daemon::serve`
/// only needs a `BufRead`/`Write` pair.
fn accept_loop(daemon: &Arc<Daemon>, listener: impl Listener) {
    loop {
        if daemon.shutdown_requested() {
            break;
        }
        match listener.accept_session() {
            Ok((reader, writer)) => {
                let daemon = Arc::clone(daemon);
                std::thread::spawn(move || {
                    daemon.serve(BufReader::new(reader), writer);
                });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                eprintln!("pei-serve: accept on {} failed: {e}", listener.describe());
                break;
            }
        }
    }
}

fn main() {
    let mut socket: Option<String> = None;
    let mut tcp: Option<String> = None;
    let mut stdio = false;
    let mut cfg = ServeConfig {
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..ServeConfig::default()
    };
    cli::parse_env(USAGE, &[], &mut ExpOptions::default(), |arg, args| {
        match arg {
            "--socket" => socket = Some(args.value()?),
            "--tcp" => tcp = Some(args.value()?),
            "--stdio" => stdio = true,
            "--workers" => cfg.workers = args.count()?,
            "--slice" => cfg.slice = args.count()? as u64,
            "--max-queue" => cfg.max_queue = Some(args.int()?).filter(|&n| n > 0),
            "--deadline-ms" => cfg.deadline_ms = Some(args.int()?).filter(|&n| n > 0),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            _ => return Ok(false),
        }
        Ok(true)
    });
    let listening = socket.is_some() || tcp.is_some();
    if stdio == listening {
        fail(&format!(
            "pick --stdio, or at least one of --socket PATH / --tcp ADDR\n\n{USAGE}"
        ));
    }

    if stdio {
        let daemon = Daemon::start(cfg);
        let stdin = std::io::stdin();
        daemon.serve(stdin.lock(), std::io::stdout());
        return; // dropping the daemon drains and joins the workers
    }

    let daemon = Arc::new(Daemon::start(cfg));
    let mut loops = Vec::new();
    if let Some(addr) = &tcp {
        let listener = TcpListener::bind(addr)
            .unwrap_or_else(|e| fail(&format!("can't bind tcp `{addr}`: {e}")));
        listener
            .set_nonblocking(true)
            .unwrap_or_else(|e| fail(&format!("can't poll tcp `{addr}`: {e}")));
        eprintln!(
            "pei-serve: listening on tcp {}",
            listener
                .local_addr()
                .map_or_else(|_| addr.clone(), |a| a.to_string())
        );
        let daemon = Arc::clone(&daemon);
        loops.push(std::thread::spawn(move || accept_loop(&daemon, listener)));
    }
    if let Some(path) = &socket {
        let _ = std::fs::remove_file(path);
        let listener =
            UnixListener::bind(path).unwrap_or_else(|e| fail(&format!("can't bind `{path}`: {e}")));
        listener
            .set_nonblocking(true)
            .unwrap_or_else(|e| fail(&format!("can't poll `{path}`: {e}")));
        eprintln!("pei-serve: listening on {path}");
        let daemon = Arc::clone(&daemon);
        loops.push(std::thread::spawn(move || accept_loop(&daemon, listener)));
    }
    for l in loops {
        let _ = l.join();
    }
    if let Some(path) = &socket {
        let _ = std::fs::remove_file(path);
    }
}
