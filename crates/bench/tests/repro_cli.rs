//! `repro`'s argument handling: `--help` prints the usage and exits 0;
//! an unknown argument or a flag missing its value prints the usage to
//! stderr and exits 2 — none of them may fall through to running the
//! experiments.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("repro — "), "{stdout}");
    assert!(stdout.contains("USAGE:") && stdout.contains("--experiment <name>"));
    assert!(out.stderr.is_empty());
}

#[test]
fn bad_arguments_print_usage_and_exit_two() {
    for args in [
        &["--bogus"][..],
        &["--experiment"],
        &["--jobs"],
        &["--experiment", "fig2", "extra"],
        &["--experiment", "no-such-experiment"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("USAGE:"), "{args:?}: {stderr}");
    }
}
