//! The one command, at smoke scale, through the real binary.

use std::process::Command;
use std::time::{Duration, Instant};

fn run(args: &[&str]) -> (bool, String, Duration) {
    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_tkm_benchmark"))
        .args(args)
        .output()
        .expect("spawn tkm_benchmark");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        start.elapsed(),
    )
}

#[test]
fn quick_run_of_all_workloads_exits_zero() {
    let (ok, stdout, took) = run(&["--quick"]);
    assert!(ok, "{stdout}");
    assert!(took < Duration::from_secs(10), "--quick took {took:?}");
    let results: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(results.len(), 5, "one result line per workload");
    let last = stdout.lines().last().unwrap();
    assert!(
        last.starts_with("{\"correct\":true,\"attempted\":"),
        "{last}"
    );
    assert!(last.contains("\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":"));
}

#[test]
fn driver_command_line_yields_one_result_line_last() {
    let (ok, stdout, _) = run(&[
        "--workload",
        "fanout",
        "--seed",
        "9",
        "--seconds",
        "1",
        "--trace",
        "1",
        "--quick",
    ]);
    assert!(ok, "{stdout}");
    let last = stdout.lines().last().unwrap();
    assert!(last.starts_with("{\"correct\":true"), "{last}");
    assert!(last.contains("\"trace.attributed_share\":{\"value\":"));
    assert!(
        !last.contains("setup_s"),
        "--trace 1 carries per-layer metrics only"
    );
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--frobnicate"][..]] {
        let (ok, stdout, _) = run(args);
        assert!(!ok);
        assert!(stdout.is_empty(), "{stdout}");
    }
}
