//! Bad command lines are errors, not panics: every harness binary that
//! parses its own flags prints `error: …` on stderr and exits with
//! status 2. That includes `--shards`, which selected the sharded
//! engine before it was removed.

use std::process::Command;

/// (binary, arguments) pairs that must each be refused.
fn cases() -> Vec<(&'static str, Vec<String>)> {
    let missing = std::env::temp_dir().join("pei-cli-errors-missing.petr");
    let missing = missing.to_string_lossy().into_owned();
    let mut cases = vec![
        (env!("CARGO_BIN_EXE_fig6"), vec!["--bogus".to_owned()]),
        (
            env!("CARGO_BIN_EXE_fig6"),
            vec!["--jobs".into(), "x".into()],
        ),
        (env!("CARGO_BIN_EXE_fig6"), vec!["--seed".to_owned()]),
        (env!("CARGO_BIN_EXE_sim_throughput"), vec!["--bogus".into()]),
        (
            env!("CARGO_BIN_EXE_trace_capture"),
            vec!["--policy".into(), "lab".into()],
        ),
        (
            env!("CARGO_BIN_EXE_trace_capture"),
            vec!["--policy".into(), "warp".into()],
        ),
        (
            env!("CARGO_BIN_EXE_trace_capture"),
            vec!["--replay".into(), missing.clone()],
        ),
        (
            env!("CARGO_BIN_EXE_trace_diff"),
            vec![missing.clone(), missing],
        ),
    ];
    for bin in [
        env!("CARGO_BIN_EXE_fig2"),
        env!("CARGO_BIN_EXE_fig6"),
        env!("CARGO_BIN_EXE_fig7"),
        env!("CARGO_BIN_EXE_fig8"),
        env!("CARGO_BIN_EXE_fig9"),
        env!("CARGO_BIN_EXE_fig10"),
        env!("CARGO_BIN_EXE_fig11"),
        env!("CARGO_BIN_EXE_fig12"),
        env!("CARGO_BIN_EXE_pmu_overhead"),
        env!("CARGO_BIN_EXE_ablations"),
        env!("CARGO_BIN_EXE_sim_throughput"),
        env!("CARGO_BIN_EXE_trace_capture"),
        env!("CARGO_BIN_EXE_trace_bisect"),
    ] {
        cases.push((bin, vec!["--shards".into(), "2".into()]));
    }
    cases
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
