//! Bad command lines are errors, not panics: every harness binary
//! parses its flags through `pei_bench::cli`, which prints `error: …`
//! on stderr and exits with status 2. That includes flags that were
//! removed — `--shards` (the sharded engine), `figures --trace` (use
//! `trace_capture`) and `sim_throughput --checked` (now `--check`) —
//! and output paths that cannot be written, which are refused before
//! any cell runs.

use std::process::Command;

/// (binary, arguments) pairs that must each be refused.
fn cases() -> Vec<(&'static str, Vec<String>)> {
    let missing = std::env::temp_dir().join("pei-cli-errors-missing.petr");
    let missing = missing.to_string_lossy().into_owned();
    let no_dir = std::env::temp_dir().join("pei-cli-errors-no-such-dir");
    let unwritable = |file: &str| no_dir.join(file).to_string_lossy().into_owned();
    let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
    let figures = env!("CARGO_BIN_EXE_figures");
    let sim_throughput = env!("CARGO_BIN_EXE_sim_throughput");
    let trace_capture = env!("CARGO_BIN_EXE_trace_capture");
    vec![
        (figures, args("fig6 --bogus")),
        (figures, args("fig6 --jobs x")),
        (figures, args("fig6 --seed")),
        (figures, args("fig5")),
        (figures, args("")),
        (figures, args("--scale quick")),
        (
            figures,
            vec!["fig10".into(), "--trace".into(), unwritable("x.petr")],
        ),
        (figures, args("fig6 --shards 2")),
        (sim_throughput, args("--bogus")),
        (sim_throughput, args("--checked")),
        (sim_throughput, args("--jobs 2")),
        (sim_throughput, args("--shards 2")),
        (sim_throughput, vec!["--out".into(), unwritable("x.json")]),
        (trace_capture, args("--policy lab")),
        (trace_capture, args("--policy warp")),
        (trace_capture, args("--shards 2")),
        (trace_capture, vec!["--replay".into(), missing.clone()]),
        (
            env!("CARGO_BIN_EXE_trace_diff"),
            vec![missing.clone(), missing],
        ),
        (env!("CARGO_BIN_EXE_trace_diff"), args("a.petr")),
    ]
}

#[test]
fn bad_arguments_exit_2_with_an_error_not_a_panic() {
    for (bin, args) in cases() {
        let out = Command::new(bin)
            .args(&args)
            .output()
            .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("{bin} {}", args.join(" "));
        assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
        assert!(stderr.starts_with("error:"), "{what}: {stderr}");
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    }
}
