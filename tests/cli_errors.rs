//! `pei-sim` refuses bad command lines with `error: …` on stderr and
//! exit status 2, never a panic. That includes flags that were removed:
//! `--record`/`--replay` (the `.trc` op-trace file; re-run the recipe,
//! or capture it with `trace_capture`) and `--save-at`/`--resume`
//! (machine snapshot/restore).

use std::process::Command;

#[test]
fn removed_flags_exit_2_with_an_error_not_a_panic() {
    let cases = [
        "--replay x.trc",
        "-w atf -s small --record x.trc",
        "-w atf --save-at 100",
        "--resume x.snap",
    ];
    for line in cases {
        let args: Vec<&str> = line.split_whitespace().collect();
        let out = Command::new(env!("CARGO_BIN_EXE_pei-sim"))
            .args(&args)
            .output()
            .expect("run pei-sim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("pei-sim {line}");
        assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
        assert!(stderr.starts_with("error:"), "{what}: {stderr}");
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
        let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
        assert!(
            stderr.contains(&format!("unknown argument `{flag}`")),
            "{what}: {stderr}"
        );
    }
}
