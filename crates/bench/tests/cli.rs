//! The figure binaries' command line: `--help` and bad arguments end
//! the process with a usage message and an exit code, never a panic.

use std::process::Command;

fn fig3(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fig3"))
        .args(args)
        .output()
        .expect("fig3 runs")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = fig3(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("usage:") && stdout.contains("--txs N"),
        "{stdout}"
    );
}

#[test]
fn unknown_argument_exits_two_without_a_panic() {
    for args in [&["--bogus"][..], &["--txs", "many"][..], &["--seed"][..]] {
        let out = fig3(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error:") && stderr.contains("usage:"),
            "{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}
