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

use pei::cpu::trace_io::RecordedTrace;
use pei::cpu::{PageMap, TlbConfig};
use pei::prelude::*;
use pei_bench::tracecap::parse_policy_short;

struct Args {
    workload: Workload,
    size: InputSize,
    policy: DispatchPolicy,
    paper: bool,
    ideal_host: bool,
    budget: u64,
    seed: u64,
    stats: bool,
    vm: bool,
    record: Option<String>,
    replay: Option<String>,
    submit: Option<String>,
    tenant: Option<String>,
    priority: Option<String>,
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
      --seed N    RNG seed                              [default: 0x5eed]
      --vm        virtual memory: per-core TLBs + shuffled page map
      --stats     print the full statistics report
      --record F  save the generated trace + initial memory to file F
                  (then run it)
      --replay F  run a trace previously saved with --record (workload /
                  size / budget arguments are ignored)
      --submit S  don't simulate locally: submit the run to the pei-serve
                  daemon at S — a Unix socket path, or host:port for a
                  daemon listening with --tcp — and print its result
                  (incompatible with --ideal-host, --vm, --record,
                  and --replay)
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

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Pr,
        size: InputSize::Medium,
        policy: DispatchPolicy::LocalityAware,
        paper: false,
        ideal_host: false,
        budget: 40_000,
        seed: 0x5eed,
        stats: false,
        vm: false,
        record: None,
        replay: None,
        submit: None,
        tenant: None,
        priority: None,
        connect_timeout_ms: 10_000,
        deadline_ms: None,
    };
    let mut saw_workload = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "-w" | "--workload" => {
                args.workload = match value("--workload")?.to_lowercase().as_str() {
                    "atf" => Workload::Atf,
                    "bfs" => Workload::Bfs,
                    "pr" => Workload::Pr,
                    "sp" => Workload::Sp,
                    "wcc" => Workload::Wcc,
                    "hj" => Workload::Hj,
                    "hg" => Workload::Hg,
                    "rp" => Workload::Rp,
                    "sc" => Workload::Sc,
                    "svm" => Workload::Svm,
                    other => return Err(format!("unknown workload `{other}`")),
                };
                saw_workload = true;
            }
            "-s" | "--size" => {
                args.size = match value("--size")?.to_lowercase().as_str() {
                    "small" | "s" => InputSize::Small,
                    "medium" | "m" => InputSize::Medium,
                    "large" | "l" => InputSize::Large,
                    other => return Err(format!("unknown size `{other}`")),
                };
            }
            "-p" | "--policy" => {
                let v = value("--policy")?.to_lowercase();
                args.policy =
                    parse_policy_short(&v).ok_or_else(|| format!("unknown policy `{v}`"))?;
            }
            "--ideal-host" => args.ideal_host = true,
            "--paper" => args.paper = true,
            "--budget" => args.budget = value("--budget")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--vm" => args.vm = true,
            "--stats" => args.stats = true,
            "--record" => args.record = Some(value("--record")?),
            "--replay" => args.replay = Some(value("--replay")?),
            "--submit" => args.submit = Some(value("--submit")?),
            "--tenant" => args.tenant = Some(value("--tenant")?),
            "--priority" => args.priority = Some(value("--priority")?),
            "--connect-timeout" => {
                args.connect_timeout_ms = value("--connect-timeout")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--deadline-ms" => {
                args.deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !saw_workload && args.replay.is_none() {
        return Err("--workload is required (unless --replay)".into());
    }
    if args.submit.is_some()
        && (args.ideal_host || args.vm || args.record.is_some() || args.replay.is_some())
    {
        return Err(
            "--submit sends a recipe the daemon can replay; --ideal-host, --vm, --record, \
             and --replay have no recipe form"
                .into(),
        );
    }
    if args.submit.is_none() && (args.tenant.is_some() || args.priority.is_some()) {
        return Err("--tenant and --priority only make sense with --submit".into());
    }
    if args.submit.is_none() && args.deadline_ms.is_some() {
        return Err("--deadline-ms only makes sense with --submit".into());
    }
    if let Some(p) = &args.priority {
        if pei_types::wire::Priority::parse(p).is_none() {
            return Err(format!("unknown priority `{p}` (high|normal|low)"));
        }
    }
    Ok(args)
}

/// `--submit`: run the recipe on a `pei-serve` daemon instead of
/// simulating locally, printing the result in the exact format a local
/// run prints (the byte-identity contract makes them interchangeable).
/// The address is a Unix socket path, or `host:port` for a daemon
/// listening with `--tcp` (anything containing a `:` and no `/` is
/// treated as TCP).
fn submit_to_daemon(socket: &str, args: &Args) -> ! {
    use pei_types::wire::{Priority, Recipe, Request, Response};
    use std::io::{BufRead, BufReader, Read, Write};

    let mut recipe = Recipe::new(
        &format!("{}", args.workload).to_lowercase(),
        &format!("{}", args.size).to_lowercase(),
        match args.policy {
            DispatchPolicy::HostOnly => "host",
            DispatchPolicy::PimOnly => "pim",
            DispatchPolicy::LocalityAware => "la",
            DispatchPolicy::LocalityAwareBalanced => "lab",
        },
    );
    recipe.paper = args.paper;
    recipe.seed = args.seed;
    recipe.budget = Some(args.budget);

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
    let give_up_at =
        std::time::Instant::now() + std::time::Duration::from_millis(args.connect_timeout_ms);
    let mut backoff = std::time::Duration::from_millis(10);
    let (reader, mut writer) = loop {
        match connect() {
            Ok(pair) => break pair,
            Err(e) => {
                let now = std::time::Instant::now();
                if now >= give_up_at {
                    eprintln!(
                        "error: cannot reach pei-serve at {}{socket} after {} ms: {e}",
                        if tcp { "tcp " } else { "" },
                        args.connect_timeout_ms
                    );
                    std::process::exit(1);
                }
                std::thread::sleep(backoff.min(give_up_at - now));
                backoff = (backoff * 2).min(std::time::Duration::from_millis(500));
            }
        }
    };
    writeln!(
        writer,
        "{}",
        Request::Submit {
            recipe,
            trace: None,
            tenant: args.tenant.clone(),
            priority: args
                .priority
                .as_deref()
                .and_then(Priority::parse)
                .unwrap_or_default(),
            deadline_ms: args.deadline_ms,
        }
        .encode()
    )
    .expect("submit frame written");
    writer.flush().expect("submit frame flushed");
    let start = std::time::Instant::now();
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
                let wall = start.elapsed();
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
                println!(
                    "sim_speed        {:>11.0} sim-cycles/s",
                    r.cycles as f64 / wall.as_secs_f64()
                );
                if args.stats {
                    println!("\n--- full statistics ---\n{}", r.stats);
                }
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

/// Prints `error: {msg}` and exits with status 2: a file that cannot be
/// read or written is refused like a bad argument.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };

    if let Some(socket) = &args.submit {
        submit_to_daemon(socket, &args);
    }

    let mut cfg = if args.paper {
        MachineConfig::paper(args.policy)
    } else {
        MachineConfig::scaled(args.policy)
    };
    if args.ideal_host {
        cfg = cfg.ideal_host();
    }
    if args.vm {
        cfg.tlb = Some(TlbConfig::typical());
        cfg.page_map = PageMap::Shuffled { seed: args.seed };
    }

    let params = WorkloadParams {
        threads: cfg.cores,
        l3_bytes: cfg.mem.l3.capacity,
        pei_budget: args.budget,
        phase_chunk: 8_192,
        seed: args.seed,
        heap_base: WorkloadParams::DEFAULT_HEAP_BASE,
    };

    let (store, trace): (BackingStore, Box<dyn PhasedTrace>) = if let Some(path) = &args.replay {
        let f =
            std::fs::File::open(path).unwrap_or_else(|e| fail(format!("cannot open {path}: {e}")));
        let mut f = std::io::BufReader::new(f);
        let store = BackingStore::load(&mut f)
            .unwrap_or_else(|e| fail(format!("cannot replay {path}: {e}")));
        let trace = RecordedTrace::load(&mut f)
            .unwrap_or_else(|e| fail(format!("cannot replay {path}: {e}")));
        eprintln!("replaying {path} under {}...", cfg.policy);
        (store, Box::new(trace))
    } else {
        // Create the record file first, so a bad path fails before the
        // workload is built.
        let record = args.record.as_ref().map(|path| {
            let f = std::fs::File::create(path)
                .unwrap_or_else(|e| fail(format!("cannot create {path}: {e}")));
            (path, std::io::BufWriter::new(f))
        });
        eprintln!(
            "running {} ({}) under {} on the {} machine (budget {} PEIs)...",
            args.workload,
            args.size,
            cfg.policy,
            if args.paper { "paper-scale" } else { "scaled" },
            args.budget
        );
        let (store, mut trace) = args.workload.build(args.size, &params);
        if let Some((path, mut f)) = record {
            let rec = RecordedTrace::record(trace.as_mut());
            store
                .save(&mut f)
                .and_then(|()| rec.save(&mut f))
                .and_then(|()| std::io::Write::flush(&mut f))
                .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
            eprintln!(
                "recorded {} ops across {} phases to {path}",
                rec.total_ops(),
                rec.phases_left()
            );
            (store, Box::new(rec))
        } else {
            (store, trace)
        }
    };
    let mut sys = System::new(cfg, store);
    sys.add_workload(trace, (0..cfg.cores).collect());
    let start = std::time::Instant::now();
    let r = sys.run(u64::MAX);
    let wall = start.elapsed();

    println!("cycles           {:>14}", r.cycles);
    println!("instructions     {:>14}", r.instructions);
    println!("ipc              {:>14.3}", r.ipc());
    println!("peis             {:>14}", r.peis);
    println!("pim_fraction     {:>13.1}%", 100.0 * r.pim_fraction);
    println!("offchip_bytes    {:>14}", r.offchip_bytes);
    println!(
        "offchip_flits    {:>14}",
        format!("{}/{}", r.offchip_flits.0, r.offchip_flits.1)
    );
    println!("dram_accesses    {:>14}", r.dram_accesses);
    println!("energy_total_nj  {:>14.0}", r.energy.total());
    println!(
        "sim_speed        {:>11.0} sim-cycles/s",
        r.cycles as f64 / wall.as_secs_f64()
    );
    if args.stats {
        println!("\n--- full statistics ---\n{}", r.stats);
    }
}
