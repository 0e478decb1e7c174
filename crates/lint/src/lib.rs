#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! `tkm_lint` — workspace-aware static analysis for the top-k monitor.
//!
//! The paper's per-cycle cost model (§6, reproduced in `tkm_analysis`)
//! only predicts the numbers `benchmark/` measures while two
//! structural properties hold: the steady-state maintenance tick is
//! allocation-free, and every heap-owning structure is counted by
//! `space_bytes`. Both were established by hand (PR 3 / PR 4) and were
//! previously guarded only by a coarse after-the-fact perf tripwire.
//! This crate checks them *statically*, at review time, along with one
//! robustness rule (no panicking calls in library code).
//!
//! The analysis is deliberately token-based: a hand-rolled lexer
//! ([`lexer`]) plus a structural scan ([`scan`]) that recovers item
//! bodies, `#[cfg(test)]` regions, and `// lint:` directives. No AST,
//! no `syn`, no crates.io dependencies — it must build offline and lint
//! the workspace in milliseconds.
//!
//! See the repository README ("Static analysis") for the rule table and
//! the allow-comment grammar.

pub mod lexer;
pub mod rules;
pub mod scan;

use std::collections::BTreeMap;
use std::fmt;

/// Crate version, surfaced in `--version`, JSON reports, and the replay
/// bench's baseline-check output (so perf regressions and lint
/// violations are distinguishable in CI logs).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// The rule names accepted by `// lint: allow(<rule>, reason=...)`.
pub const RULES: &[&str] = &["alloc", "panic", "space"];

/// One-line identification string: name, version, and active rules.
pub fn describe() -> String {
    format!("tkm_lint {VERSION} (rules: {})", RULES.join(", "))
}

/// A single lint finding with a `file:line:col` span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule that fired (`alloc`, `panic`, `space`, or `directive` for
    /// malformed `// lint:` comments).
    pub rule: &'static str,
    /// Path of the offending file, as given to the linter.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic; `rule` must be one of the static rule names.
    pub fn new(
        rule: &'static str,
        file: &str,
        line: u32,
        col: u32,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            file: file.to_string(),
            line,
            col,
            message: message.into(),
        }
    }

    /// Renders the diagnostic as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"rule":{},"file":{},"line":{},"col":{},"message":{}}}"#,
            json_str(self.rule),
            json_str(&self.file),
            self.line,
            self.col,
            json_str(&self.message)
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Minimal JSON string escaping (std-only, ASCII control chars + quotes
/// + backslashes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a full machine-readable report for `--json` mode.
pub fn json_report(diags: &[Diagnostic], files_scanned: usize) -> String {
    let body: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
    format!(
        r#"{{"tool":{},"files_scanned":{},"violations":{},"diagnostics":[{}]}}"#,
        json_str(&describe()),
        files_scanned,
        diags.len(),
        body.join(",")
    )
}

/// How a source file participates in the rules.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Cargo package name the file belongs to (e.g. `tkm_grid`).
    pub crate_name: String,
    /// True for library-target sources — the `panic` rule applies.
    /// False for `src/bin/**`, `src/main.rs`, tests, and examples.
    pub is_lib: bool,
    /// True when the crate participates in `space_bytes` accounting
    /// (`tkm_grid`, `tkm_core`, `tkm_skyband`, `tkm_window`).
    pub space_checked: bool,
}

/// One source file queued for linting.
#[derive(Debug)]
pub struct SourceFile {
    /// Path used in diagnostics (relative to the workspace root when
    /// walking a workspace).
    pub path: String,
    /// Full file contents.
    pub text: String,
    /// Rule participation.
    pub class: FileClass,
}

/// Crates whose heap-owning structs must appear in `space_bytes`
/// accounting (the space formulas of paper §6 are validated against
/// these).
pub const SPACE_CHECKED_CRATES: &[&str] = &["tkm_grid", "tkm_core", "tkm_skyband", "tkm_window"];

/// Lints a batch of files and returns all diagnostics, sorted by
/// file, line, and column. The batch matters for the `space` rule,
/// which reasons per crate across files.
pub fn lint_files(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut catalogs: BTreeMap<String, rules::SpaceCatalog> = BTreeMap::new();

    for f in files {
        let toks = lexer::lex(&f.text);
        let sc = scan::scan(&f.path, &toks);
        out.extend(sc.errors.iter().cloned());
        rules::per_file(f, &toks, &sc, &mut out);
        if f.class.space_checked && f.class.is_lib {
            let cat = catalogs.entry(f.class.crate_name.clone()).or_default();
            rules::collect_space(f, &toks, &sc, cat);
        }
    }
    rules::finish_space(catalogs, &mut out);

    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    out
}

/// Convenience for tests and single-file use: lint one file treated as
/// a library source in a space-checked crate (the strictest class).
pub fn lint_source(path: &str, text: &str) -> Vec<Diagnostic> {
    lint_files(&[SourceFile {
        path: path.to_string(),
        text: text.to_string(),
        class: FileClass {
            crate_name: "fixture".to_string(),
            is_lib: true,
            space_checked: true,
        },
    }])
}
