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
    save_at: Option<u64>,
    save_to: String,
    resume: Option<String>,
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
      --save-at N pause at the first event boundary >= cycle N, write a
                  machine snapshot (see --save-to), and exit
      --save-to F snapshot path for --save-at          [default: pei.snap]
      --resume F  restore the snapshot at F and run to completion; the
                  workload is rebuilt from the snapshot's own metadata,
                  so no other arguments are needed
      --submit S  don't simulate locally: submit the run to the pei-serve
                  daemon at S — a Unix socket path, or host:port for a
                  daemon listening with --tcp — and print its result
                  (incompatible with --ideal-host, --vm, --record,
                  --replay, --save-at, and --resume)
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
        save_at: None,
        save_to: String::from("pei.snap"),
        resume: None,
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
            "--save-at" => {
                args.save_at = Some(value("--save-at")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--save-to" => args.save_to = value("--save-to")?,
            "--resume" => args.resume = Some(value("--resume")?),
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
    if !saw_workload && args.replay.is_none() && args.resume.is_none() {
        return Err("--workload is required (unless --replay or --resume)".into());
    }
    if args.resume.is_some() && (args.save_at.is_some() || args.record.is_some()) {
        return Err("--resume cannot be combined with --save-at or --record".into());
    }
    if args.submit.is_some()
        && (args.ideal_host
            || args.vm
            || args.record.is_some()
            || args.replay.is_some()
            || args.save_at.is_some()
            || args.resume.is_some())
    {
        return Err(
            "--submit sends a recipe the daemon can replay; --ideal-host, --vm, --record, \
             --replay, --save-at, and --resume have no recipe form"
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

/// The snapshot metadata keys `--save-at` writes and `--resume` reads
/// to rebuild the identical workload without re-supplying arguments.
fn snapshot_meta(args: &Args) -> Vec<(String, String)> {
    let mut meta = vec![
        ("tool".into(), "pei-sim".into()),
        (
            "workload".into(),
            format!("{}", args.workload).to_lowercase(),
        ),
        ("size".into(), format!("{}", args.size).to_lowercase()),
        (
            "policy".into(),
            match args.policy {
                DispatchPolicy::HostOnly => "host",
                DispatchPolicy::PimOnly => "pim",
                DispatchPolicy::LocalityAware => "la",
                DispatchPolicy::LocalityAwareBalanced => "bd",
            }
            .into(),
        ),
        ("paper".into(), format!("{}", args.paper)),
        ("ideal_host".into(), format!("{}", args.ideal_host)),
        ("budget".into(), format!("{}", args.budget)),
        ("seed".into(), format!("{}", args.seed)),
        ("vm".into(), format!("{}", args.vm)),
    ];
    if let Some(path) = &args.replay {
        meta.push(("replay".into(), path.clone()));
    }
    meta
}

/// Rebuilds `--save-at`-era arguments from a snapshot's metadata.
fn args_from_meta(snap: &Snapshot, resume_path: &str) -> Result<Args, String> {
    let get = |k: &str| {
        snap.meta_get(k)
            .map(str::to_owned)
            .ok_or_else(|| format!("snapshot {resume_path} has no `{k}` metadata"))
    };
    let parse_u64 = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|e| format!("bad `{k}` metadata: {e}"))
    };
    Ok(Args {
        workload: match get("workload")?.as_str() {
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
            other => return Err(format!("unknown workload `{other}` in snapshot metadata")),
        },
        size: match get("size")?.as_str() {
            "small" => InputSize::Small,
            "medium" => InputSize::Medium,
            "large" => InputSize::Large,
            other => return Err(format!("unknown size `{other}` in snapshot metadata")),
        },
        policy: {
            let v = get("policy")?;
            parse_policy_short(&v)
                .ok_or_else(|| format!("unknown policy `{v}` in snapshot metadata"))?
        },
        paper: get("paper")? == "true",
        ideal_host: get("ideal_host")? == "true",
        budget: parse_u64("budget")?,
        seed: parse_u64("seed")?,
        stats: false,
        vm: get("vm")? == "true",
        record: None,
        replay: snap.meta_get("replay").map(str::to_owned),
        save_at: None,
        save_to: String::new(),
        resume: None,
        submit: None,
        tenant: None,
        priority: None,
        connect_timeout_ms: 10_000,
        deadline_ms: None,
    })
}

fn main() {
    let cli = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };

    if let Some(socket) = &cli.submit {
        submit_to_daemon(socket, &cli);
    }

    // Under --resume the run is described by the snapshot's own
    // metadata, not the command line (only --stats carries over).
    let mut resume_snap = None;
    let args = if let Some(path) = &cli.resume {
        let snap = match Snapshot::read(std::path::Path::new(path)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read snapshot {path}: {e}");
                std::process::exit(1);
            }
        };
        let mut a = match args_from_meta(&snap, path) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
        a.stats = cli.stats;
        eprintln!(
            "resuming {} ({}) under {} from {path} at cycle {}...",
            a.workload,
            a.size,
            match a.policy {
                DispatchPolicy::HostOnly => "host",
                DispatchPolicy::PimOnly => "pim",
                DispatchPolicy::LocalityAware => "la",
                DispatchPolicy::LocalityAwareBalanced => "bd",
            },
            snap.cycle()
        );
        resume_snap = Some(snap);
        a
    } else {
        cli
    };

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
        if resume_snap.is_none() {
            eprintln!("replaying {path} under {}...", cfg.policy);
        }
        let mut f =
            std::io::BufReader::new(std::fs::File::open(path).expect("cannot open replay file"));
        let store = BackingStore::load(&mut f).expect("corrupt store section");
        let trace = RecordedTrace::load(&mut f).expect("corrupt trace section");
        (store, Box::new(trace))
    } else {
        if resume_snap.is_none() {
            eprintln!(
                "running {} ({}) under {} on the {} machine (budget {} PEIs)...",
                args.workload,
                args.size,
                cfg.policy,
                if args.paper { "paper-scale" } else { "scaled" },
                args.budget
            );
        }
        let (store, mut trace) = args.workload.build(args.size, &params);
        if let Some(path) = &args.record {
            let rec = RecordedTrace::record(trace.as_mut());
            let mut f = std::io::BufWriter::new(
                std::fs::File::create(path).expect("cannot create record file"),
            );
            store.save(&mut f).expect("store write failed");
            rec.save(&mut f).expect("trace write failed");
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
    if let Some(snap) = &resume_snap {
        if let Err(e) = sys.restore(snap) {
            eprintln!("error: cannot resume: {e}");
            std::process::exit(1);
        }
    }
    let start = std::time::Instant::now();
    let r = if let Some(at) = args.save_at {
        match sys.run_paused(u64::MAX, Some(at)) {
            RunStatus::Paused { at: cycle } => {
                let snap = match sys.snapshot_with_meta(&snapshot_meta(&args)) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("error: cannot snapshot: {e}");
                        std::process::exit(1);
                    }
                };
                if let Err(e) = snap.write(std::path::Path::new(&args.save_to)) {
                    eprintln!("error: cannot write {}: {e}", args.save_to);
                    std::process::exit(1);
                }
                eprintln!(
                    "saved snapshot at cycle {cycle} ({} bytes) to {}; resume with --resume {}",
                    snap.as_bytes().len(),
                    args.save_to,
                    args.save_to
                );
                return;
            }
            RunStatus::Completed(r) => {
                eprintln!(
                    "run completed at cycle {} before --save-at {at}; nothing saved",
                    r.cycles
                );
                r
            }
        }
    } else {
        sys.run(u64::MAX)
    };
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
