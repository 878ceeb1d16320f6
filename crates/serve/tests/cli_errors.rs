//! Bad `pei-serve` command lines are errors, not panics: the daemon
//! reads its flags through `pei_bench::cli`, like the other binaries,
//! so each case below prints `error: …` naming the flag on stderr and
//! exits with status 2 before any worker or listener starts.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_with_an_error_not_a_panic() {
    let cases: [(&[&str], &str); 5] = [
        (&["--stdio", "--bogus"], "`--bogus`"),
        (
            &["--stdio", "--workers", "0"],
            "--workers must be an integer >= 1",
        ),
        (&["--stdio", "--slice", "x"], "--slice must be an integer"),
        (
            &["--stdio", "--slice", "0"],
            "--slice must be an integer >= 1",
        ),
        (
            &["--workers", "2"],
            "pick --stdio, or at least one of --socket",
        ),
    ];
    for (args, reason) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_pei-serve"))
            .args(args)
            .output()
            .expect("run pei-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("pei-serve {}", args.join(" "));
        assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
        assert!(stderr.starts_with("error:"), "{what}: {stderr}");
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
        assert!(
            stderr.contains(reason),
            "{what} must name {reason}: {stderr}"
        );
    }
}
