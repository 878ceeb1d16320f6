//! `pei-sim` refuses bad command lines and bad files with `error: …` on
//! stderr and exit status 2, never a panic: a replay file that is
//! missing or corrupt, a record path in a directory that does not
//! exist, and the snapshot flags (`--save-at`, `--resume`) that were
//! removed with machine snapshot/restore.

use std::path::PathBuf;
use std::process::Command;

/// A scratch path unique to this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pei-sim-cli-{}-{name}", std::process::id()))
}

#[test]
fn bad_files_and_removed_flags_exit_2_with_an_error_not_a_panic() {
    let missing = scratch("missing.trc");
    let garbage = scratch("garbage.trc");
    // 100 bytes of a fixed LCG stream: not a recorded trace.
    let mut x: u32 = 0x5eed;
    let bytes: Vec<u8> = (0..100)
        .map(|_| {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (x >> 24) as u8
        })
        .collect();
    std::fs::write(&garbage, bytes).expect("write scratch file");
    let no_dir = scratch("no-such-dir").join("x.trc");
    let path = |p: &PathBuf| p.to_string_lossy().into_owned();

    let cases: Vec<Vec<String>> = vec![
        vec!["--replay".into(), path(&missing)],
        vec!["--replay".into(), path(&garbage)],
        vec![
            "-w".into(),
            "atf".into(),
            "-s".into(),
            "small".into(),
            "--record".into(),
            path(&no_dir),
        ],
        vec!["-w".into(), "atf".into(), "--save-at".into(), "100".into()],
        vec!["--resume".into(), "x.snap".into()],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_pei-sim"))
            .args(&args)
            .output()
            .expect("run pei-sim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("pei-sim {}", args.join(" "));
        assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
        assert!(stderr.starts_with("error:"), "{what}: {stderr}");
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    }
    let _ = std::fs::remove_file(&garbage);
}
