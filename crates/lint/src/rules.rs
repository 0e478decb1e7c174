//! The three repo-specific rules.
//!
//! | rule | scope | what it catches |
//! |------|-------|-----------------|
//! | `alloc` | `// lint: hot-path` regions | heap-allocating calls on the steady-state tick path |
//! | `panic` | library targets, outside `#[cfg(test)]` | `unwrap`/`expect`/`panic!`-family calls |
//! | `space` | structs in the space-accounted crates | heap-owning structs missing from `space_bytes` accounting |

use std::collections::{BTreeMap, HashSet};

use crate::lexer::{Tok, TokKind};
use crate::scan::Scan;
use crate::{Diagnostic, SourceFile};

/// Container types whose constructors allocate.
const ALLOC_CONTAINERS: &[&str] = &[
    "Vec", "String", "Box", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque", "Rc", "Arc",
];

/// Allocating associated functions on those containers.
const ALLOC_CTORS: &[&str] = &[
    "new",
    "with_capacity",
    "with_capacity_and_hasher",
    "from",
    "from_iter",
    "default",
];

/// Allocating method calls.
const ALLOC_METHODS: &[&str] = &["collect", "to_vec", "to_owned", "to_string", "clone"];

/// Allocating macros.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Macros that abort the process when reached.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Methods that panic on the unhappy path.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Heap-owning field types that must show up in space accounting.
const HEAP_FIELD_TYPES: &[&str] = &[
    "Vec",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "VecDeque",
    "String",
];

/// Skips a balanced `<...>` group starting at `i` (which must be `<`);
/// returns the index just past the matching `>`. `>>` lexes as two
/// tokens, so plain depth counting works.
fn skip_angles(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        match toks[j].kind {
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            // A `;` or `{` inside an unclosed angle run means this was a
            // comparison, not generics; bail out where we started.
            TokKind::Punct(';') | TokKind::Punct('{') => return i + 1,
            _ => {}
        }
        j += 1;
    }
    i + 1
}

/// Returns the index of the next non-comment token at or after `i`.
fn next_code(toks: &[Tok], mut i: usize) -> Option<usize> {
    while i < toks.len() {
        if !toks[i].is_comment() {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// After a callee identifier, steps over an optional turbofish
/// (`::<...>`) and reports whether a call-open `(` follows.
fn call_follows(toks: &[Tok], i: usize) -> bool {
    let Some(mut j) = next_code(toks, i) else {
        return false;
    };
    if toks[j].is_punct(':') && next_code(toks, j + 1).is_some_and(|k| toks[k].is_punct(':')) {
        let Some(k) = next_code(toks, j + 1) else {
            return false;
        };
        let Some(l) = next_code(toks, k + 1) else {
            return false;
        };
        if toks[l].is_punct('<') {
            j = skip_angles(toks, l);
        } else {
            return false;
        }
    }
    next_code(toks, j).is_some_and(|k| toks[k].is_punct('('))
}

/// Matches `Container::method` starting at the container ident `i`,
/// stepping over one optional turbofish (`Vec::<u8>::new`). Returns the
/// method name on a match.
fn path_ctor(toks: &[Tok], i: usize) -> Option<&str> {
    let c1 = next_code(toks, i + 1)?;
    if !toks[c1].is_punct(':') {
        return None;
    }
    let c2 = next_code(toks, c1 + 1)?;
    if !toks[c2].is_punct(':') {
        return None;
    }
    let mut j = next_code(toks, c2 + 1)?;
    if toks[j].is_punct('<') {
        j = skip_angles(toks, j);
        let c3 = next_code(toks, j)?;
        if !toks[c3].is_punct(':') {
            return None;
        }
        let c4 = next_code(toks, c3 + 1)?;
        if !toks[c4].is_punct(':') {
            return None;
        }
        j = next_code(toks, c4 + 1)?;
    }
    toks[j].ident()
}

/// Collects the argument spans of every `debug_assert*!` invocation:
/// code inside them only runs in debug builds, so the `panic` rule does
/// not apply there (the assertion aborting is the point).
fn debug_assert_spans(toks: &[Tok]) -> Vec<crate::scan::Region> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if !name.starts_with("debug_assert") {
            continue;
        }
        let Some(bang) = next_code(toks, i + 1) else {
            continue;
        };
        if !toks[bang].is_punct('!') {
            continue;
        }
        let Some(open) = next_code(toks, bang + 1) else {
            continue;
        };
        let span = match toks[open].kind {
            TokKind::Punct('(') => paren_span(toks, open),
            TokKind::Punct('{') => crate::scan::item_body(toks, open),
            _ => None,
        };
        if let Some(r) = span {
            out.push(r);
        }
    }
    out
}

/// True when the token at `i` sits in a `const` item initializer
/// (`const _: () = assert!(...)`): the assertion is evaluated at
/// compile time, so it cannot abort a running process. The check scans
/// back to the nearest statement boundary for `const` plus `=`.
fn in_const_item(toks: &[Tok], i: usize) -> bool {
    let mut saw_const = false;
    let mut saw_eq = false;
    for t in toks[..i].iter().rev() {
        match &t.kind {
            TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => break,
            TokKind::Punct('=') => saw_eq = true,
            TokKind::Ident(s) if s == "const" => saw_const = true,
            _ => {}
        }
    }
    saw_const && saw_eq
}

/// Runs the two per-file rules (`alloc`, `panic`).
pub fn per_file(file: &SourceFile, toks: &[Tok], scan: &Scan, out: &mut Vec<Diagnostic>) {
    let debug_spans = debug_assert_spans(toks);
    for (i, t) in toks.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        let in_test = scan.in_test(i);
        let in_debug_assert = debug_spans.iter().any(|r| r.contains(i));

        // --- alloc: hot-path regions must not allocate ---------------
        if scan.in_hot(i) && !in_test {
            let mut hit: Option<String> = None;
            if ALLOC_CONTAINERS.contains(&name) {
                if let Some(m) = path_ctor(toks, i) {
                    if ALLOC_CTORS.contains(&m) {
                        hit = Some(format!("`{name}::{m}`"));
                    }
                }
            }
            if hit.is_none()
                && ALLOC_MACROS.contains(&name)
                && next_code(toks, i + 1).is_some_and(|j| toks[j].is_punct('!'))
            {
                hit = Some(format!("`{name}!`"));
            }
            if hit.is_none()
                && ALLOC_METHODS.contains(&name)
                && i > 0
                && toks[i - 1].is_punct('.')
                && call_follows(toks, i + 1)
            {
                hit = Some(format!("`.{name}()`"));
            }
            if let Some(what) = hit {
                if !scan.allowed("alloc", t.line) {
                    out.push(Diagnostic::new(
                        "alloc",
                        &file.path,
                        t.line,
                        t.col,
                        format!(
                            "{what} allocates inside a `lint: hot-path` region; reuse scratch \
                             capacity or add `// lint: allow(alloc, reason=...)`"
                        ),
                    ));
                }
            }
        }

        // --- panic: library code must return errors, not abort -------
        if file.class.is_lib && !in_test && !in_debug_assert {
            let mut hit: Option<String> = None;
            if PANIC_MACROS.contains(&name)
                && next_code(toks, i + 1).is_some_and(|j| toks[j].is_punct('!'))
                && !in_const_item(toks, i)
            {
                hit = Some(format!("`{name}!`"));
            }
            if hit.is_none()
                && PANIC_METHODS.contains(&name)
                && i > 0
                && toks[i - 1].is_punct('.')
                && call_follows(toks, i + 1)
            {
                hit = Some(format!("`.{name}()`"));
            }
            if let Some(what) = hit {
                if !scan.allowed("panic", t.line) {
                    out.push(Diagnostic::new(
                        "panic",
                        &file.path,
                        t.line,
                        t.col,
                        format!(
                            "{what} can abort library code; return a `TkmError`, use a \
                             `debug_assert!`, or add `// lint: allow(panic, reason=...)`"
                        ),
                    ));
                }
            }
        }
    }
}

/// Per-crate facts the space rule accumulates across files.
#[derive(Debug, Default)]
pub struct SpaceCatalog {
    /// Type names that are the target of an `impl` containing
    /// `fn space_bytes`.
    covered: HashSet<String>,
    /// Every identifier mentioned inside any `space_bytes` body —
    /// catches helper structs accounted via `size_of::<Helper>()`.
    mentioned: HashSet<String>,
    /// Heap-owning struct declarations awaiting the coverage check.
    candidates: Vec<SpaceCandidate>,
}

#[derive(Debug)]
struct SpaceCandidate {
    name: String,
    file: String,
    line: u32,
    col: u32,
    field_type: String,
    suppressed: bool,
}

/// Collects space-rule facts from one file into the crate's catalog.
pub fn collect_space(file: &SourceFile, toks: &[Tok], scan: &Scan, cat: &mut SpaceCatalog) {
    let mut i = 0usize;
    while i < toks.len() {
        match toks[i].ident() {
            Some("struct") if !scan.in_test(i) => {
                i = collect_struct(file, toks, scan, i, cat);
            }
            Some("impl") => {
                i = collect_impl(toks, i, cat);
            }
            _ => i += 1,
        }
    }
}

/// Handles one `struct` item; returns the index to resume scanning at.
fn collect_struct(
    file: &SourceFile,
    toks: &[Tok],
    scan: &Scan,
    i: usize,
    cat: &mut SpaceCatalog,
) -> usize {
    let Some(ni) = next_code(toks, i + 1) else {
        return i + 1;
    };
    let Some(name) = toks[ni].ident() else {
        return i + 1;
    };
    let name = name.to_string();
    let (line, col) = (toks[i].line, toks[i].col);

    // Body: `{ fields }`, tuple `( fields ) ;`, or unit `;`.
    let mut j = next_code(toks, ni + 1).unwrap_or(toks.len());
    if j < toks.len() && toks[j].is_punct('<') {
        j = skip_angles(toks, j);
    }
    let body = match crate::scan::item_body(toks, j) {
        Some(r) => r,
        None => {
            // Tuple struct: fields live in the `(...)` group.
            match next_code(toks, j) {
                Some(k) if toks[k].is_punct('(') => match paren_span(toks, k) {
                    Some(r) => r,
                    None => return j,
                },
                _ => return j,
            }
        }
    };

    // Find the first heap-owning field type in the body.
    let mut k = body.start;
    while k < body.end {
        if let Some(ty) = toks[k].ident() {
            let heap = HEAP_FIELD_TYPES.contains(&ty)
                || (ty == "Box"
                    && next_code(toks, k + 1).is_some_and(|a| toks[a].is_punct('<'))
                    && next_code(toks, k + 1)
                        .and_then(|a| next_code(toks, a + 1))
                        .is_some_and(|b| toks[b].is_punct('[')));
            if heap {
                let suppressed = scan.allowed("space", line)
                    || scan.allowed("space", toks[ni].line)
                    || scan.allowed("space", toks[k].line);
                cat.candidates.push(SpaceCandidate {
                    name,
                    file: file.path.clone(),
                    line,
                    col,
                    field_type: ty.to_string(),
                    suppressed,
                });
                return body.end;
            }
        }
        k += 1;
    }
    body.end
}

/// Returns the span of the `(...)` group opening at `open`.
fn paren_span(toks: &[Tok], open: usize) -> Option<crate::scan::Region> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return Some(crate::scan::Region {
                        start: open,
                        end: j + 1,
                    });
                }
            }
            _ => {}
        }
    }
    None
}

/// Handles one `impl` item: records its target as covered when the body
/// declares `fn space_bytes`, and harvests identifiers mentioned inside
/// that function. Returns the index to resume at (just after the impl
/// header, so nested items are still scanned normally).
fn collect_impl(toks: &[Tok], i: usize, cat: &mut SpaceCatalog) -> usize {
    // Header: `impl [<...>] Path [for Path] [where ...] {`.
    let mut j = next_code(toks, i + 1).unwrap_or(toks.len());
    if j < toks.len() && toks[j].is_punct('<') {
        j = skip_angles(toks, j);
    }
    let mut target: Option<String> = None;
    let mut angle = 0i32;
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct('{') | TokKind::Punct(';') => break,
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => angle -= 1,
            TokKind::Ident(s) if s == "for" => {
                // Trait impl: only the type after `for` is the target.
                target = None;
            }
            TokKind::Ident(s) if s == "where" => break,
            TokKind::Ident(s) if angle == 0 => target = Some(s.clone()),
            _ => {}
        }
        j += 1;
    }
    let Some(target) = target else { return j };
    let Some(body) = crate::scan::item_body(toks, i + 1) else {
        return j;
    };

    // Look for `fn space_bytes` directly inside the impl body.
    let mut k = body.start;
    while k < body.end {
        if toks[k].ident() == Some("fn")
            && next_code(toks, k + 1).is_some_and(|n| toks[n].ident() == Some("space_bytes"))
        {
            cat.covered.insert(target.clone());
            if let Some(fnbody) = crate::scan::item_body(toks, k + 1) {
                for t in &toks[fnbody.start..fnbody.end] {
                    if let Some(id) = t.ident() {
                        cat.mentioned.insert(id.to_string());
                    }
                }
                k = fnbody.end;
                continue;
            }
        }
        k += 1;
    }
    j
}

/// Emits the space-rule diagnostics once every file of a crate has been
/// collected.
pub fn finish_space(catalogs: BTreeMap<String, SpaceCatalog>, out: &mut Vec<Diagnostic>) {
    for (_crate_name, cat) in catalogs {
        for c in &cat.candidates {
            if c.suppressed || cat.covered.contains(&c.name) || cat.mentioned.contains(&c.name) {
                continue;
            }
            out.push(Diagnostic::new(
                "space",
                &c.file,
                c.line,
                c.col,
                format!(
                    "struct `{}` owns heap memory (`{}` field) but is not covered by any \
                     `space_bytes` accounting in this crate; account for it or add \
                     `// lint: allow(space, reason=...)`",
                    c.name, c.field_type
                ),
            ));
        }
    }
}
