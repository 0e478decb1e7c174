//! Smoke guarantees for target wiring: every benchmark binary, criterion
//! bench, example and paper figure the ROADMAP's experiments rely on must
//! exist exactly where the manifests expect them, so `cargo check
//! --workspace --all-targets` (run in CI) compiles them all and none can
//! silently rot.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn stems(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("missing directory {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            if path.extension()? == "rs" {
                Some(path.file_stem()?.to_str()?.to_string())
            } else {
                None
            }
        })
        .collect()
}

#[test]
fn all_paper_figure_binaries_exist() {
    let expected: BTreeSet<String> = ["paper", "serve"].into_iter().map(String::from).collect();
    let found = stems(&repo_root().join("crates/bench/src/bin"));
    assert_eq!(
        found, expected,
        "bench binaries drifted; update this list *and* README.md"
    );
}

/// The `paper` binary runs the rows of one figure table; a figure that
/// dropped out of it would vanish as silently as a deleted binary.
#[test]
fn figure_table_lists_every_paper_figure() {
    let ids: Vec<&str> = tkm_bench::figures::FIGURES.iter().map(|f| f.id).collect();
    assert_eq!(
        ids,
        [
            "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
            "table2", "model", "kmax", "ext"
        ],
        "figure table drifted; update this list *and* README.md"
    );
}

#[test]
fn all_criterion_benches_exist_and_are_registered() {
    let expected: BTreeSet<String> = [
        "cell_scan",
        "micro_compute",
        "micro_engines",
        "micro_structures",
        "replay",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    let found = stems(&repo_root().join("crates/bench/benches"));
    assert_eq!(found, expected, "criterion benches drifted");

    // Each must be registered with `harness = false` (the criterion
    // stand-in provides `main` via `criterion_main!`).
    let manifest =
        std::fs::read_to_string(repo_root().join("crates/bench/Cargo.toml")).expect("manifest");
    for bench in &expected {
        assert!(
            manifest.contains(&format!("name = \"{bench}\"")),
            "bench {bench} is not declared in crates/bench/Cargo.toml"
        );
    }
    assert_eq!(
        manifest.matches("harness = false").count(),
        expected.len(),
        "every [[bench]] must set harness = false"
    );
}

#[test]
fn all_examples_exist() {
    let expected: BTreeSet<String> = [
        "constrained_dashboard",
        "csv_monitor",
        "network_flows",
        "quickstart",
        "stock_ticker",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    let found = stems(&repo_root().join("examples"));
    assert_eq!(found, expected, "examples drifted; update README.md too");
}

#[test]
fn workspace_members_match_directories() {
    let manifest = std::fs::read_to_string(repo_root().join("Cargo.toml")).expect("root manifest");
    let members: BTreeSet<String> = manifest
        .lines()
        .filter_map(|l| l.trim().strip_prefix("\"crates/")?.strip_suffix("\","))
        .map(String::from)
        .collect();
    let crates = repo_root().join("crates");
    let on_disk: BTreeSet<String> = std::fs::read_dir(&crates)
        .expect("crates/")
        .map(|entry| entry.expect("dir entry").file_name())
        .map(|name| name.to_str().expect("utf-8 directory name").to_string())
        .collect();
    assert_eq!(
        members, on_disk,
        "[workspace] members and the directories under crates/ differ"
    );
    for dir in &on_disk {
        assert!(
            crates.join(dir).join("Cargo.toml").is_file(),
            "crates/{dir}/Cargo.toml missing"
        );
    }
    for dir in ["rand", "proptest", "criterion"] {
        assert!(
            manifest.contains(&format!("\"vendor/{dir}\"")),
            "vendor/{dir} missing from [workspace] members"
        );
    }
}

#[test]
fn committed_proptest_regressions_parse() {
    let path = repo_root().join("proptest-regressions/proptest_engines.txt");
    let text = std::fs::read_to_string(&path).expect("committed regression file");
    let seeds: Vec<u64> = text
        .lines()
        .filter_map(|l| l.trim().strip_prefix("cc "))
        .map(|h| u64::from_str_radix(h.trim(), 16).expect("valid hex seed"))
        .collect();
    assert!(
        !seeds.is_empty(),
        "regression file must pin at least one seed"
    );
}
