//! `pei-sim` — command-line front-end to the simulator: run any of the
//! paper's ten workloads on any machine configuration and print the
//! results (optionally the full per-component statistics).
//!
//! ```text
//! cargo run --release --bin pei-sim -- --workload pr --size large --policy la
//! cargo run --release --bin pei-sim -- -w hj -s medium -p pim --stats
//! cargo run --release --bin pei-sim -- -w bfs -s small -p la --paper --budget 100000
//! cargo run --release --bin pei-sim -- -w sc -s large -p bd --vm
//! ```
//!
//! A run is a [`CaptureSpec`], the recipe `trace_capture` and the
//! `pei-serve` daemon also take: its flags are read by the same
//! reader, it runs as the same [`RunSpec`](pei_bench::runner::RunSpec),
//! and `--submit` sends it as a wire recipe. Local and served results
//! print from one `ResultFrame`.

use pei::cpu::{PageMap, TlbConfig};
use pei_bench::cli::{self, fail, Shared};
use pei_bench::service::{recipe, result_frame};
use pei_bench::tracecap::CaptureSpec;
use pei_bench::ExpOptions;
use pei_types::wire::{Priority, Request, Response, ResultFrame};
use std::time::{Duration, Instant};

struct Args {
    spec: CaptureSpec,
    ideal_host: bool,
    stats: bool,
    vm: bool,
    submit: Option<String>,
    tenant: Option<String>,
    priority: Option<Priority>,
    connect_timeout_ms: u64,
    deadline_ms: Option<u64>,
}

const USAGE: &str = "\
pei-sim — PIM-enabled-instructions simulator (ISCA 2015 reproduction)

USAGE:
  pei-sim --workload <W> [--size S] [--policy P] [options]

OPTIONS:
  -w, --workload  atf|bfs|pr|sp|wcc|hj|hg|rp|sc|svm     (required)
  -s, --size      small|medium|large                    [default: medium]
  -p, --policy    host|pim|la|bd                        [default: la]
      --ideal-host  use the Ideal-Host reference configuration
      --paper     paper-scale machine (16 cores, 16 MB L3, 8 HMCs)
      --budget N  PEI simulation window                 [default: 40000]
      --seed N    RNG seed                              [default: 24301]
      --vm        virtual memory: per-core TLBs + shuffled page map
      --stats     print the full statistics report
      --submit S  don't simulate locally: submit the run to the pei-serve
                  daemon at S — a Unix socket path, or host:port for a
                  daemon listening with --tcp — and print its result
                  (incompatible with --ideal-host and --vm)
      --tenant T  tag the --submit under tenant T's fair-share queue
      --priority P  schedule the --submit in band P (high|normal|low)
      --connect-timeout MS  keep retrying the --submit connection (with
                  exponential backoff) for up to MS milliseconds before
                  giving up — covers the daemon's startup window
                  [default: 10000]
      --deadline-ms N  wall-clock budget for the submitted job in
                  milliseconds; the daemon stops it at the next slice
                  boundary past budget with a `deadline-exceeded` error
  -h, --help      this text
";

fn parse_args() -> Args {
    let mut opts = ExpOptions::default();
    let mut a = Args {
        spec: CaptureSpec::default(),
        ideal_host: false,
        stats: false,
        vm: false,
        submit: None,
        tenant: None,
        priority: None,
        connect_timeout_ms: 10_000,
        deadline_ms: None,
    };
    let mut saw_workload = false;
    cli::parse_env(
        USAGE,
        &[Shared::Paper, Shared::Seed],
        &mut opts,
        |arg, args| {
            match arg {
                "--ideal-host" => a.ideal_host = true,
                "--vm" => a.vm = true,
                "--stats" => a.stats = true,
                "--submit" => a.submit = Some(args.value()?),
                "--tenant" => a.tenant = Some(args.value()?),
                "--priority" => {
                    a.priority = Some(args.choice("high|normal|low", Priority::parse)?);
                }
                "--connect-timeout" => a.connect_timeout_ms = args.int()?,
                "--deadline-ms" => a.deadline_ms = Some(args.int()?),
                "-h" | "--help" => {
                    print!("{USAGE}");
                    std::process::exit(0);
                }
                _ => {
                    saw_workload |= matches!(arg, "-w" | "--workload");
                    return a.spec.read_flag(arg, args);
                }
            }
            Ok(true)
        },
    );
    (a.spec.paper_machine, a.spec.seed) = (opts.paper_machine, opts.seed);
    let refuse = |msg: &str| fail(&format!("{msg}\n\n{USAGE}"));
    if !saw_workload {
        refuse("--workload is required");
    }
    if a.submit.is_some() && (a.ideal_host || a.vm) {
        refuse("--submit sends a recipe; --ideal-host and --vm have no recipe form");
    }
    if a.submit.is_none() && (a.tenant.is_some() || a.priority.is_some()) {
        refuse("--tenant and --priority only make sense with --submit");
    }
    if a.submit.is_none() && a.deadline_ms.is_some() {
        refuse("--deadline-ms only makes sense with --submit");
    }
    a
}

/// The `sim_speed` line: simulated cycles per second of `wall`. A
/// local run's `wall` is the simulation alone; a served run's spans
/// submit to result frame (queue wait, input build, encode and
/// transport included), and its line says so.
fn sim_speed_line(cycles: u64, wall: Duration, served: bool) -> String {
    let speed = cycles as f64 / wall.as_secs_f64();
    let span = if served { " (submit to result)" } else { "" };
    format!("sim_speed        {speed:>11.0} sim-cycles/s{span}")
}

/// Prints a run's metrics, and with `stats` its full statistics
/// report. `sim_speed` divides the simulated cycles by `wall`, the span
/// [`sim_speed_line`] names.
fn print_result(r: &ResultFrame, wall: Duration, served: bool, stats: bool) {
    println!("cycles           {:>14}", r.cycles);
    println!("instructions     {:>14}", r.instructions);
    println!(
        "ipc              {:>14.3}",
        r.instructions as f64 / r.cycles.max(1) as f64
    );
    println!("peis             {:>14}", r.peis);
    println!("pim_fraction     {:>13.1}%", 100.0 * r.pim_fraction);
    println!("offchip_bytes    {:>14}", r.offchip_bytes);
    println!(
        "offchip_flits    {:>14}",
        format!("{}/{}", r.offchip_flits.0, r.offchip_flits.1)
    );
    println!("dram_accesses    {:>14}", r.dram_accesses);
    println!("energy_total_nj  {:>14.0}", r.energy_total_nj);
    println!("{}", sim_speed_line(r.cycles, wall, served));
    if stats {
        println!("\n--- full statistics ---\n{}", r.stats);
    }
}

/// `--submit`: run the recipe on a `pei-serve` daemon instead of
/// simulating locally, printing the result as a local run prints it
/// (the byte-identity contract makes them interchangeable). The
/// address is a Unix socket path, or `host:port` for a daemon
/// listening with `--tcp` (anything containing a `:` and no `/` is
/// treated as TCP).
fn submit_to_daemon(socket: &str, args: &Args) -> ! {
    use std::io::{BufRead, BufReader, Read, Write};

    // `host:port` → TCP, anything else → Unix socket path. Connection
    // refusals are retried with exponential backoff until
    // --connect-timeout lapses: a daemon started a moment ago may not
    // have bound its listener yet, and polling beats guessing a sleep.
    let tcp = socket.contains(':') && !socket.contains('/');
    let connect = || -> std::io::Result<(Box<dyn Read>, Box<dyn Write>)> {
        if tcp {
            let stream = std::net::TcpStream::connect(socket)?;
            stream.set_nodelay(true).ok();
            let w = stream.try_clone()?;
            Ok((Box::new(stream), Box::new(w)))
        } else {
            let stream = std::os::unix::net::UnixStream::connect(socket)?;
            let w = stream.try_clone()?;
            Ok((Box::new(stream), Box::new(w)))
        }
    };
    let give_up_at = Instant::now() + Duration::from_millis(args.connect_timeout_ms);
    let mut backoff = Duration::from_millis(10);
    let (reader, mut writer) = loop {
        match connect() {
            Ok(pair) => break pair,
            Err(e) => {
                let now = Instant::now();
                if now >= give_up_at {
                    eprintln!(
                        "error: cannot reach pei-serve at {}{socket} after {} ms: {e}",
                        if tcp { "tcp " } else { "" },
                        args.connect_timeout_ms
                    );
                    std::process::exit(1);
                }
                std::thread::sleep(backoff.min(give_up_at - now));
                backoff = (backoff * 2).min(Duration::from_millis(500));
            }
        }
    };
    writeln!(
        writer,
        "{}",
        Request::Submit {
            recipe: recipe(&args.spec),
            trace: None,
            tenant: args.tenant.clone(),
            priority: args.priority.unwrap_or_default(),
            deadline_ms: args.deadline_ms,
        }
        .encode()
    )
    .expect("submit frame written");
    writer.flush().expect("submit frame flushed");
    let start = Instant::now();
    for line in BufReader::new(reader).lines() {
        let line = line.unwrap_or_else(|e| {
            eprintln!("error: connection to {socket} broke: {e}");
            std::process::exit(1);
        });
        match Response::decode(&line) {
            Err(e) => {
                eprintln!("error: undecodable frame from the daemon: {e}");
                std::process::exit(1);
            }
            Ok(Response::Ack { job }) => {
                eprintln!("submitted to {socket} as job {job}...");
            }
            Ok(Response::Progress { .. }) => {}
            Ok(Response::Result(r)) => {
                print_result(&r, start.elapsed(), true, args.stats);
                std::process::exit(0);
            }
            Ok(Response::Cancelled { job, cycle }) => {
                eprintln!("error: job {job} was cancelled at cycle {cycle}");
                std::process::exit(1);
            }
            Ok(Response::Error {
                kind,
                message,
                violations,
                ..
            }) => {
                eprintln!("error [{kind}]: {message}");
                for v in violations {
                    eprintln!("  violation: {v}");
                }
                std::process::exit(1);
            }
            Ok(Response::Stats(_) | Response::Bye) => {}
        }
    }
    eprintln!("error: {socket} closed the connection without a result");
    std::process::exit(1);
}

fn main() {
    let args = parse_args();
    if let Some(socket) = &args.submit {
        submit_to_daemon(socket, &args);
    }

    let mut run = args.spec.to_run_spec();
    if args.ideal_host {
        run.cfg = run.cfg.ideal_host();
    }
    if args.vm {
        run.cfg.tlb = Some(TlbConfig::typical());
        run.cfg.page_map = PageMap::Shuffled {
            seed: args.spec.seed,
        };
    }
    // The spec names an overridden budget itself.
    let mut notes = Vec::new();
    if args.spec.pei_budget.is_none() {
        notes.push(format!("budget {} PEIs", run.params.pei_budget));
    }
    if args.ideal_host {
        notes.push("Ideal-Host".to_string());
    }
    if args.vm {
        notes.push("virtual memory".to_string());
    }
    let notes = if notes.is_empty() {
        String::new()
    } else {
        format!(" ({})", notes.join(", "))
    };
    eprintln!("running {} under {}{notes}...", args.spec, run.cfg.policy);
    let mut sys = run.build();
    let start = Instant::now();
    let r = sys.run(run.max_cycles);
    let wall = start.elapsed();
    print_result(&result_frame(0, &r, None), wall, false, args.stats);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_sim_speed_names_its_span() {
        let wall = Duration::from_millis(500);
        assert_eq!(
            sim_speed_line(1_000_000, wall, false),
            "sim_speed            2000000 sim-cycles/s"
        );
        assert_eq!(
            sim_speed_line(1_000_000, wall, true),
            "sim_speed            2000000 sim-cycles/s (submit to result)"
        );
    }
}
