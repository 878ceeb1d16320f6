//! Bad command lines are errors, not panics: every harness binary
//! parses its flags through `pei_bench::cli`, which prints `error: …`
//! on stderr and exits with status 2. That includes flags that were
//! removed — `--shards` (the sharded engine), `figures --trace` (use
//! `trace_capture`) and `sim_throughput --checked` (now `--check`) —
//! and output paths that cannot be written, which are refused before
//! any cell runs. Each case names a piece of the error it must be
//! refused with, so a case cannot pass for a reason other than its own.

use std::process::Command;

/// (binary, arguments, text the error must contain) for each command
/// line that must be refused.
fn cases() -> Vec<(&'static str, Vec<String>, &'static str)> {
    let missing = std::env::temp_dir().join("pei-cli-errors-missing.petr");
    let missing = missing.to_string_lossy().into_owned();
    let no_dir = std::env::temp_dir().join("pei-cli-errors-no-such-dir");
    let unwritable = |file: &str| no_dir.join(file).to_string_lossy().into_owned();
    let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
    let figures = env!("CARGO_BIN_EXE_figures");
    let sim_throughput = env!("CARGO_BIN_EXE_sim_throughput");
    let trace_capture = env!("CARGO_BIN_EXE_trace_capture");
    vec![
        (figures, args("fig6 --bogus"), "`--bogus`"),
        (figures, args("fig6 --jobs x"), "--jobs must be"),
        (figures, args("fig6 --seed"), "--seed needs a value"),
        (figures, args("fig5"), "unknown figure `fig5`"),
        (figures, args(""), "no figure named"),
        (figures, args("--scale quick"), "no figure named"),
        (
            figures,
            vec!["fig10".into(), "--trace".into(), unwritable("x.petr")],
            "`--trace`",
        ),
        (figures, args("fig6 --shards 2"), "`--shards`"),
        (sim_throughput, args("--bogus"), "`--bogus`"),
        (sim_throughput, args("--checked"), "`--checked`"),
        (sim_throughput, args("--jobs 2"), "`--jobs`"),
        (sim_throughput, args("--shards 2"), "`--shards`"),
        (
            sim_throughput,
            vec!["--out".into(), unwritable("x.json")],
            "cannot write",
        ),
        // `lab` is an alias of `bd`: this capture is refused only for
        // its missing output path.
        (trace_capture, args("--policy lab"), "needs -o"),
        (trace_capture, args("--policy warp -o x.petr"), "`warp`"),
        (trace_capture, args("--size tiny -o x.petr"), "`tiny`"),
        (trace_capture, args("--shards 2"), "`--shards`"),
        (
            trace_capture,
            vec!["--replay".into(), missing.clone()],
            "cannot load",
        ),
        // One mode per invocation: conflicts are refused before any
        // trace is read or written.
        (
            trace_capture,
            args("--replay a.petr --export a.petr --perfetto out.json -o b.petr -w hj"),
            "--replay and --export and -o can't be combined",
        ),
        (
            trace_capture,
            args("--export a.petr --perfetto out.json -o b.petr"),
            "--export and -o can't be combined",
        ),
        (
            trace_capture,
            args("--replay a.petr --perfetto out.json"),
            "--replay and --perfetto can't be combined",
        ),
        // A capture carries its own recipe: recipe flags are refused
        // with --replay and --export whatever their value, before any
        // trace is read.
        (
            trace_capture,
            args("--replay a.petr -w hj"),
            "-w can't be combined with --replay",
        ),
        (
            trace_capture,
            args("--replay a.petr --seed 24301"),
            "--seed can't be combined with --replay",
        ),
        (
            trace_capture,
            args("--export a.petr --perfetto o.json --paper"),
            "--paper can't be combined with --export",
        ),
        (
            trace_capture,
            args("--budget 5 --export a.petr --perfetto o.json --scale quick"),
            "--budget and --scale can't be combined with --export",
        ),
        (
            env!("CARGO_BIN_EXE_trace_diff"),
            vec![missing.clone(), missing],
            "cannot load",
        ),
        (
            env!("CARGO_BIN_EXE_trace_diff"),
            args("a.petr"),
            "two trace paths",
        ),
    ]
}

#[test]
fn bad_arguments_exit_2_with_an_error_not_a_panic() {
    for (bin, args, reason) in cases() {
        let out = Command::new(bin)
            .args(&args)
            .output()
            .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("{bin} {}", args.join(" "));
        assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
        assert!(stderr.starts_with("error:"), "{what}: {stderr}");
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
        assert!(
            stderr.contains(reason),
            "{what} must name {reason}: {stderr}"
        );
    }
}
