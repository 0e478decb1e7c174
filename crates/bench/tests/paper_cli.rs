//! The `paper` binary's command line, end to end.

use std::process::Command;

fn paper(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("spawn paper")
}

#[test]
fn unknown_figure_is_a_usage_error() {
    let out = paper(&["--scale", "quick", "fig99"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("fig99: unknown figure"), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn scale_value_is_not_a_figure_and_a_repeated_figure_runs_once() {
    // Figure 13 samples the datasets only, so this runs no engine.
    let out = paper(&["--scale", "quick", "fig13", "fig13"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("== Figure 13 — datasets ==").count(), 1);
    assert_eq!(stdout.matches("== ").count(), 1, "{stdout}");
    assert!(stdout.contains("scale: Quick"));
}
