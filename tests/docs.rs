//! The docs cite only what the tree holds: every path README.md and
//! DESIGN.md write in backticks under `crates/`, `src/`, `tests/`,
//! `scripts/` or `benchmark/`, or inside a crate's `src/` or `tests/` with
//! `crates/` left off, must exist, `{a,b}` alternatives expanded.
//! A path's `::item` or `:line` suffix is not part of it, a glob (`*`) is
//! not a path, and fenced code blocks are commands, not citations.

use std::path::Path;

const ROOTS: [&str; 5] = ["crates/", "src/", "tests/", "scripts/", "benchmark/"];

/// Paths the docs name that running the benchmark makes; a checkout has
/// none of them.
const MADE_BY_RUNS: [&str; 1] = ["benchmark/.stage"];

/// The inline code spans of a markdown text, outside fenced blocks.
fn code_spans(text: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose.split('`').skip(1).step_by(2).map(|span| span.replace('\n', " ")).collect()
}

/// `span` with its first `{a,b,…}` group replaced by each alternative in
/// turn, and so on for the groups after it.
fn expand(span: &str) -> Vec<String> {
    let Some((head, rest)) = span.split_once('{') else { return vec![span.to_string()] };
    let Some((group, tail)) = rest.split_once('}') else { return vec![span.to_string()] };
    let tails = expand(tail);
    group.split(',').flat_map(|alt| tails.iter().map(move |t| format!("{head}{alt}{t}"))).collect()
}

/// Whether `span` reads as a path inside a crate with the `crates/` left
/// off, such as `pipeline/src/watch.rs`: no such path exists at the root.
fn crate_relative(span: &str) -> bool {
    span.split('/').nth(1).is_some_and(|dir| dir == "src" || dir == "tests")
}

/// The tree paths a doc cites: its code spans under [`ROOTS`], expanded,
/// without item or line suffixes.
fn cited_paths(text: &str) -> Vec<String> {
    code_spans(text)
        .iter()
        .filter(|span| ROOTS.iter().any(|root| span.starts_with(root)) || crate_relative(span))
        .filter(|span| !span.contains('*') && !span.contains(char::is_whitespace))
        .flat_map(|span| expand(span))
        .map(|path| path.split(':').next().unwrap_or_default().to_string())
        .filter(|path| !MADE_BY_RUNS.contains(&path.trim_end_matches('/')))
        .collect()
}

#[test]
fn every_path_the_docs_cite_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in ["README.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for path in cited_paths(&text) {
            checked += 1;
            if !root.join(&path).exists() {
                missing.push(format!("{doc}: `{path}`"));
            }
        }
    }
    assert!(missing.is_empty(), "cited but not in the tree:\n{}", missing.join("\n"));
    assert!(checked > 50, "only {checked} paths found: is the scanner reading the docs?");
}

#[test]
fn the_scanner_reads_spans_groups_and_suffixes() {
    let text = "see `crates/core/src/{geo,id}.rs` and `src/main.rs::COMMANDS`,\n\
                `crates/core/src/geo.rs:14,56`, `tests/*props*.rs`, `cargo test`\n\
                ```\nscripts/none.sh `crates/none`\n```\nand `benchmark/.stage`";
    assert_eq!(
        cited_paths(text),
        [
            "crates/core/src/geo.rs",
            "crates/core/src/id.rs",
            "src/main.rs",
            "crates/core/src/geo.rs"
        ]
    );
}
