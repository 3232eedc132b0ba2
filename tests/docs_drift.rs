//! The metric documentation and the code that registers metrics agree.
//!
//! A metric is registered where the program calls `counter`, `histogram`,
//! `windowed_counter` or `windowed_histogram` with a string literal; a
//! dynamic family is one built with `format!("prefix.{…}")` in the same
//! call (`serve.rejected.*`, `exec.calls.*`). Only the non-test part of
//! each `crates/*/src/**/*.rs` file counts: the text before its first
//! `#[cfg(test)]`. Two directions are checked:
//!
//! * every metric name the metric taxonomy of `docs/OBSERVABILITY.md`
//!   names — each table's first column and the prose around the tables —
//!   is registered, or belongs to a dynamic family, so a retired metric
//!   cannot linger in the doc;
//! * every registered literal appears backticked somewhere in
//!   `docs/*.md`, so a new metric cannot ship undocumented.
//!
//! The CLI's flags get the same treatment: every `"--flag" =>` arm of the
//! `silkroute` binary's `parse_args` is listed both in its module doc's
//! `OPTS:` block and in `usage()`, and every flag those two list is parsed.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const CALLS: [&str; 4] = [
    "counter",
    "histogram",
    "windowed_counter",
    "windowed_histogram",
];

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The non-test source of every crate: each file cut at its first
/// `#[cfg(test)]`.
fn program_source() -> Vec<String> {
    let mut files = Vec::new();
    for krate in fs::read_dir(repo().join("crates")).expect("crates/") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(!files.is_empty(), "no crate sources found");
    files
        .iter()
        .map(|f| {
            let text = fs::read_to_string(f).expect("read source");
            match text.find("#[cfg(test)]") {
                Some(cut) => text[..cut].to_string(),
                None => text,
            }
        })
        .collect()
}

/// The string-literal argument of every registration call in `src`
/// opening with `prefix` right after the call's `(`: the literal itself
/// for `"`, the literal part before the first `{` for `&format!("`.
fn call_args(src: &str, prefix: &str, out: &mut BTreeSet<String>) {
    for call in CALLS {
        let needle = format!("{call}({prefix}");
        for (at, _) in src.match_indices(&needle) {
            // `counter(` inside `windowed_counter(` is the longer call's.
            let before = src[..at].chars().next_back();
            if before.is_some_and(|c| c.is_alphanumeric() || c == '_') {
                continue;
            }
            let rest = &src[at + needle.len()..];
            let end = rest.find(['"', '{']).expect("unterminated literal");
            let closes_literal = rest.as_bytes()[end] == b'"';
            // A literal call ends its literal with `"`; a family's format
            // string continues with a placeholder.
            if closes_literal == (prefix == "\"") {
                out.insert(rest[..end].to_string());
            }
        }
    }
}

/// `(literals, family prefixes)` registered by the program.
fn registered() -> (BTreeSet<String>, BTreeSet<String>) {
    let (mut literals, mut families) = (BTreeSet::new(), BTreeSet::new());
    for src in program_source() {
        call_args(&src, "\"", &mut literals);
        call_args(&src, "&format!(\"", &mut families);
    }
    (literals, families)
}

/// Backticked spans of `text` that look like registry names: dotted
/// lowercase identifiers (`server.queries`, `serve.rejected.quota`) that
/// are not file names (`vexec.rs`).
fn backticked_names(text: &str) -> BTreeSet<String> {
    text.split('`')
        .skip(1)
        .step_by(2)
        .filter(|span| {
            span.contains('.')
                && !span.ends_with(".rs")
                && !span.ends_with(".md")
                && span.split('.').all(|part| {
                    !part.is_empty()
                        && part
                            .chars()
                            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                })
        })
        .map(str::to_string)
        .collect()
}

/// The `## Metric taxonomy` section of docs/OBSERVABILITY.md.
fn taxonomy() -> String {
    let doc = fs::read_to_string(repo().join("docs/OBSERVABILITY.md")).expect("read doc");
    let start = doc
        .find("## Metric taxonomy")
        .expect("OBSERVABILITY.md has a metric taxonomy");
    let body = &doc[start + 2..];
    let end = body.find("\n## ").unwrap_or(body.len());
    body[..end].to_string()
}

#[test]
fn documented_metrics_are_registered() {
    let (literals, families) = registered();
    assert!(
        literals.len() >= 40,
        "found only {} registered metrics: {literals:?}",
        literals.len()
    );
    assert!(families.contains("serve.rejected."), "{families:?}");
    let section = taxonomy();
    let named = backticked_names(&section);
    assert!(named.contains("server.queries"), "{named:?}");
    let stale: Vec<_> = named
        .iter()
        .filter(|n| !literals.contains(*n) && !families.iter().any(|f| n.starts_with(f.as_str())))
        .collect();
    assert!(
        stale.is_empty(),
        "docs/OBSERVABILITY.md names metrics no code registers: {stale:?}"
    );
}

#[test]
fn registered_metrics_are_documented() {
    let (literals, _) = registered();
    let mut docs = String::new();
    for entry in fs::read_dir(repo().join("docs")).expect("docs/") {
        let path = entry.expect("doc entry").path();
        if path.extension().is_some_and(|x| x == "md") {
            docs += &fs::read_to_string(&path).expect("read doc");
        }
    }
    let undocumented: Vec<_> = literals
        .iter()
        .filter(|name| !docs.contains(&format!("`{name}`")))
        .collect();
    assert!(
        undocumented.is_empty(),
        "metrics registered but never backticked in docs/*.md: {undocumented:?}"
    );
}

/// Every `--flag` token in `text`.
fn flags_in(text: &str) -> BTreeSet<String> {
    text.match_indices("--")
        .filter(|(at, _)| !text[..*at].ends_with('-'))
        .map(|(at, _)| {
            let rest = &text[at + 2..];
            let end = rest
                .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                .unwrap_or(rest.len());
            format!("--{}", &rest[..end])
        })
        .filter(|f| f.len() > 2)
        .collect()
}

#[test]
fn cli_flags_agree_with_doc_and_usage() {
    let src = fs::read_to_string(repo().join("crates/silkroute/src/bin/silkroute.rs"))
        .expect("read the silkroute binary");
    let parsed: BTreeSet<String> = src
        .match_indices("\" =>")
        .filter_map(|(at, _)| {
            let open = src[..at].rfind('"')?;
            let flag = &src[open + 1..at];
            flag.starts_with("--").then(|| flag.to_string())
        })
        .collect();
    assert!(parsed.contains("--mb") && parsed.len() >= 20, "{parsed:?}");
    let opts = src
        .lines()
        .take_while(|l| l.starts_with("//!"))
        .skip_while(|l| !l.contains("OPTS:"))
        .take_while(|l| l.trim() != "//!")
        .collect::<Vec<_>>()
        .join("\n");
    let usage_at = src.find("fn usage()").expect("usage()");
    let usage_end = usage_at + src[usage_at..].find("\n}").expect("end of usage()");
    for (what, listed) in [
        ("the module doc's OPTS block", flags_in(&opts)),
        ("usage()", flags_in(&src[usage_at..usage_end])),
    ] {
        let unlisted: Vec<_> = parsed.difference(&listed).collect();
        assert!(
            unlisted.is_empty(),
            "flags parsed but not in {what}: {unlisted:?}"
        );
        let unparsed: Vec<_> = listed.difference(&parsed).collect();
        assert!(
            unparsed.is_empty(),
            "flags in {what} but never parsed: {unparsed:?}"
        );
    }
}
