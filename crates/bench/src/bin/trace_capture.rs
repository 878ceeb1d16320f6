//! Captures, replays, and exports `.petr` event traces (DESIGN.md §8).
//!
//! Three modes, one per invocation (`--replay`, `--export` and `-o`
//! exclude each other, and `--replay` takes no `--perfetto`):
//!
//! ```text
//! # Capture one cell, writing a replayable trace (and optionally a
//! # Perfetto/Chrome trace_event JSON next to it):
//! trace_capture --workload ATF --size medium --policy locality-aware \
//!     [--scale quick|full] [--paper] [--seed <n>] [--budget <n>] \
//!     -o out.petr [--perfetto out.json]
//!
//! # Re-execute a capture's recipe and verify byte-identity of both the
//! # event stream and the statistics report (exit 1 on divergence):
//! trace_capture --replay in.petr
//!
//! # Convert an existing capture for chrome://tracing / ui.perfetto.dev:
//! trace_capture --export in.petr --perfetto out.json
//! ```
//!
//! The recipe flags are read by `CaptureSpec::read_flag`, as in
//! `pei-sim`: `-w/--workload`, `-s/--size`, `-p/--policy` (the short
//! names `host|pim|la|bd` or the long trace-metadata names), values
//! case-insensitive, and `--budget`. A capture carries its own recipe,
//! so `--replay` and `--export` refuse every recipe flag, `--scale`,
//! `--paper` and `--seed` included. Bad arguments, unreadable traces
//! and traces without a replayable recipe print `error: …` and exit
//! with status 2.

use pei_bench::cli::{self, fail, Shared};
use pei_bench::tracecap::{self, CaptureSpec};
use pei_bench::ExpOptions;
use pei_trace::{perfetto, Trace};

const USAGE: &str = "usage: trace_capture --workload <W> --size <S> --policy <P> \
     [--scale quick|full] [--paper] [--seed <n>] [--budget <n>] -o <out.petr> \
     [--perfetto <out.json>] | --replay <in.petr> | --export <in.petr> --perfetto <out.json>";

struct Args {
    spec: CaptureSpec,
    out: Option<String>,
    perfetto: Option<String>,
    replay: Option<String>,
    export: Option<String>,
}

fn parse_args() -> Args {
    let mut opts = ExpOptions::default();
    let mut a = Args {
        spec: CaptureSpec::default(),
        out: None,
        perfetto: None,
        replay: None,
        export: None,
    };
    let mut recipe_flags = Vec::new();
    let shared = cli::parse_env(
        USAGE,
        &[Shared::Scale, Shared::Paper, Shared::Seed],
        &mut opts,
        |arg, args| {
            match arg {
                "-o" | "--out" => a.out = Some(args.value()?),
                "--perfetto" => a.perfetto = Some(args.value()?),
                "--replay" => a.replay = Some(args.value()?),
                "--export" => a.export = Some(args.value()?),
                _ => {
                    let read = a.spec.read_flag(arg, args)?;
                    if read {
                        recipe_flags.push(arg.to_owned());
                    }
                    return Ok(read);
                }
            }
            Ok(true)
        },
    );
    recipe_flags.extend(shared);
    (a.spec.scale, a.spec.paper_machine, a.spec.seed) = (opts.scale, opts.paper_machine, opts.seed);
    let modes: Vec<&str> = [
        ("--replay", a.replay.is_some()),
        ("--export", a.export.is_some()),
        ("-o", a.out.is_some()),
    ]
    .into_iter()
    .filter_map(|(flag, given)| given.then_some(flag))
    .collect();
    if modes.len() > 1 {
        fail(&format!(
            "{} can't be combined: each is its own mode\n\n{USAGE}",
            modes.join(" and ")
        ));
    }
    if !recipe_flags.is_empty() && (a.replay.is_some() || a.export.is_some()) {
        fail(&format!(
            "{} can't be combined with {}: the capture carries its own recipe\n\n{USAGE}",
            recipe_flags.join(" and "),
            modes[0]
        ));
    }
    if a.replay.is_some() && a.perfetto.is_some() {
        fail(&format!(
            "--replay and --perfetto can't be combined: export a capture with \
             --export <in.petr> --perfetto <out.json>\n\n{USAGE}"
        ));
    }
    if a.export.is_some() && a.perfetto.is_none() {
        fail(&format!("--export needs --perfetto <out.json>\n\n{USAGE}"));
    }
    if a.replay.is_none() && a.export.is_none() && a.out.is_none() {
        fail(&format!("capture mode needs -o <out.petr>\n\n{USAGE}"));
    }
    a
}

fn load(path: &str) -> Trace {
    Trace::load(std::path::Path::new(path))
        .unwrap_or_else(|e| fail(&format!("cannot load trace {path}: {e}")))
}

fn write(path: &str, bytes: impl AsRef<[u8]>) {
    std::fs::write(path, bytes).unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
}

fn main() {
    let args = parse_args();

    if let Some(path) = &args.replay {
        let t = load(path);
        let r =
            tracecap::replay(&t).unwrap_or_else(|e| fail(&format!("cannot replay {path}: {e}")));
        println!("replayed {}: {} records", r.spec, t.records.len());
        if let Some(d) = &r.divergence {
            println!("event stream DIVERGED: {d}");
        } else {
            println!("event stream identical");
        }
        println!(
            "statistics report {}",
            if r.stats_match {
                "byte-identical"
            } else {
                "DIVERGED"
            }
        );
        if !r.identical() {
            std::process::exit(1);
        }
        return;
    }

    if let Some(path) = &args.export {
        let json_path = args.perfetto.as_deref().expect("checked by parse_args");
        let t = load(path);
        write(json_path, perfetto::chrome_trace_json(&t));
        println!("exported {} records to {json_path}", t.records.len());
        return;
    }

    let out = args.out.as_deref().expect("checked by parse_args");
    let (result, trace) = args.spec.capture();
    write(out, trace.to_bytes());
    println!(
        "captured {}: {} records ({} dropped), {} cycles, wrote {out}",
        args.spec,
        trace.records.len(),
        trace.dropped,
        result.cycles
    );
    if let Some(json_path) = &args.perfetto {
        write(json_path, perfetto::chrome_trace_json(&trace));
        println!("exported Perfetto JSON to {json_path}");
    }
}
