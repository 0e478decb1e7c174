//! Fixture-corpus tests: one known-bad and one allow-suppressed
//! snippet per rule, with exact `file:line` assertions, plus a lexer
//! torture file and end-to-end checks of the installed binary
//! (exit codes and JSON diagnostics).

use std::path::PathBuf;
use std::process::Command;

use tkm_lint::lint_source;

fn fixture(name: &str) -> (String, String) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read fixture {name}: {e}"));
    (path.display().to_string(), text)
}

/// Lints a fixture and returns `(rule, line)` pairs in file order.
fn diag_lines(name: &str) -> Vec<(String, u32)> {
    let (path, text) = fixture(name);
    lint_source(&path, &text)
        .into_iter()
        .map(|d| (d.rule.to_string(), d.line))
        .collect()
}

#[test]
fn alloc_bad_reports_every_allocation() {
    let got = diag_lines("alloc_bad.rs");
    let want: Vec<(String, u32)> = [6, 10, 11, 12, 13, 14]
        .iter()
        .map(|&l| ("alloc".to_string(), l))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn alloc_allowed_is_clean() {
    assert_eq!(diag_lines("alloc_allowed.rs"), vec![]);
}

#[test]
fn panic_bad_reports_every_abort_path() {
    let got = diag_lines("panic_bad.rs");
    let want: Vec<(String, u32)> = [4, 5, 7, 11, 16, 17]
        .iter()
        .map(|&l| ("panic".to_string(), l))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn panic_allowed_is_clean() {
    assert_eq!(diag_lines("panic_allowed.rs"), vec![]);
}

#[test]
fn space_bad_reports_unaccounted_structs() {
    let got = diag_lines("space_bad.rs");
    let want = vec![("space".to_string(), 4), ("space".to_string(), 10)];
    assert_eq!(got, want);
}

#[test]
fn space_allowed_is_clean() {
    assert_eq!(diag_lines("space_allowed.rs"), vec![]);
}

#[test]
fn lexer_survives_torture_file() {
    assert_eq!(diag_lines("lexer_torture.rs"), vec![]);
}

#[test]
fn diagnostics_carry_column_spans() {
    let (path, text) = fixture("panic_bad.rs");
    let diags = lint_source(&path, &text);
    assert!(diags.iter().all(|d| d.col > 0));
    // `.unwrap()` on line 4 points at the `unwrap` identifier.
    let first = &diags[0];
    let line = text.lines().nth(first.line as usize - 1).expect("line");
    let at = &line[first.col as usize - 1..];
    assert!(at.starts_with("unwrap"), "span points at `{at}`");
}

// ---------------------------------------------------------------------
// End-to-end: the actual binary, exit codes, and JSON output.
// ---------------------------------------------------------------------

fn run_binary(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tkm_lint"))
        .args(args)
        .output()
        .expect("spawn tkm_lint");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code().unwrap_or(-1), stdout)
}

#[test]
fn binary_exits_nonzero_on_every_known_bad_fixture() {
    for name in ["alloc_bad.rs", "panic_bad.rs", "space_bad.rs"] {
        let (path, _) = fixture(name);
        let (code, stdout) = run_binary(&["--json", &path]);
        assert_eq!(code, 1, "{name} must fail the lint");
        assert!(stdout.contains("\"diagnostics\":["), "{name}: json body");
        assert!(stdout.contains("\"line\":"), "{name}: line spans");
        assert!(
            stdout.contains(&format!("\"file\":\"{path}\"")),
            "{name}: file spans"
        );
    }
}

#[test]
fn binary_exits_zero_on_allowed_fixtures() {
    for name in [
        "alloc_allowed.rs",
        "panic_allowed.rs",
        "space_allowed.rs",
        "lexer_torture.rs",
    ] {
        let (path, _) = fixture(name);
        let (code, stdout) = run_binary(&["--json", &path]);
        assert_eq!(code, 0, "{name} must pass the lint: {stdout}");
        assert!(stdout.contains("\"violations\":0"), "{name}: clean report");
    }
}

#[test]
fn binary_version_names_tool_and_rules() {
    let (code, stdout) = run_binary(&["--version"]);
    assert_eq!(code, 0);
    assert_eq!(stdout.trim(), tkm_lint::describe());
    assert!(stdout.contains("alloc, panic, space"));
}

#[test]
fn malformed_directives_are_violations() {
    let diags = lint_source(
        "typo.rs",
        "// lint: allow(panic)\nfn f() {}\n// lint: hotpath\nfn g() {}\n",
    );
    assert_eq!(diags.len(), 2);
    assert!(diags.iter().all(|d| d.rule == "directive"));
    assert_eq!((diags[0].line, diags[1].line), (1, 3));
}
