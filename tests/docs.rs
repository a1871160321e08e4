//! The docs cite only what the tree holds. README.md, DESIGN.md and
//! EXPERIMENTS.md are read outside fenced code blocks (those are commands,
//! not citations), and each backticked span is checked by its form:
//!
//! - a path under `crates/`, `src/`, `tests/`, `scripts/`, `benchmark/` or
//!   `docs/`, or inside a crate's `src/` or `tests/` with `crates/` left
//!   off, must exist, `{a,b}` alternatives expanded; a `:line` suffix is
//!   not part of it, a glob (`*`) is not a path, and a `::item` suffix must
//!   be declared in that file (fn, field, const, type, variant, module);
//! - `Type::item`, where the product (`crates/`, `src/`, `benchmark/src`)
//!   declares `Type`, needs `item` declared somewhere in the tree, and
//!   `module::item`, where product source has a `module.rs` or `module/`,
//!   needs `item` declared there; any other owner (a crate, `std`, a type
//!   the tree does not declare) is skipped;
//! - a `metamess_*` name needs that string in product source, or must be a
//!   crate name; a `…` or `*` ends it, and a `{label}` suffix is dropped;
//! - `DESIGN.md § Title` and `EXPERIMENTS.md § Title` need a heading that
//!   begins with the title, or a table row (the history index) that does;
//!   a bare `§N` in prose needs a heading numbered `N.`.
//!
//! DESIGN.md and EXPERIMENTS.md also keep to a line budget, and each of
//! DESIGN.md's invariants names a test as `<file>.rs::<fn>`.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};

/// The docs whose citations are checked.
const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

const ROOTS: [&str; 6] = ["crates/", "src/", "tests/", "scripts/", "benchmark/", "docs/"];

/// Paths the docs name that running the benchmark makes; a checkout has
/// none of them.
const MADE_BY_RUNS: [&str; 1] = ["benchmark/.stage"];

/// Lines each doc may hold.
const BUDGETS: [(&str, usize); 2] = [("DESIGN.md", 500), ("EXPERIMENTS.md", 800)];

/// A markdown text without its fenced blocks.
fn prose(text: &str) -> String {
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
    prose
}

/// The inline code spans of a markdown text, outside fenced blocks.
fn code_spans(text: &str) -> Vec<String> {
    prose(text).split('`').skip(1).step_by(2).map(|span| span.replace('\n', " ")).collect()
}

/// `span` with its first `{a,b,…}` group replaced by each alternative in
/// turn, and so on for the groups after it.
fn expand(span: &str) -> Vec<String> {
    let Some((head, rest)) = span.split_once('{') else { return vec![span.to_string()] };
    let Some((group, tail)) = rest.split_once('}') else { return vec![span.to_string()] };
    let tails = expand(tail);
    group
        .split(',')
        .flat_map(|alt| tails.iter().map(move |t| format!("{head}{}{t}", alt.trim())))
        .collect()
}

/// Whether `span` reads as a path inside a crate with the `crates/` left
/// off, such as `pipeline/src/watch.rs`: no such path exists at the root.
fn crate_relative(span: &str) -> bool {
    span.split('/').nth(1).is_some_and(|dir| dir == "src" || dir == "tests")
}

/// The tree paths a doc cites, each with the item it names after `::`
/// (empty when none): its code spans under [`ROOTS`], expanded, without
/// line suffixes.
fn cited_paths(text: &str) -> Vec<(String, String)> {
    code_spans(text)
        .iter()
        .map(|span| span.replace(", ", ","))
        .filter(|span| ROOTS.iter().any(|root| span.starts_with(root)) || crate_relative(span))
        .filter(|span| !span.contains('*') && !span.contains(char::is_whitespace))
        .flat_map(|span| expand(&span))
        .map(|cited| match cited.split_once("::") {
            Some((path, item)) => (path.to_string(), item.rsplit("::").next().unwrap().to_string()),
            None => (cited.split(':').next().unwrap().to_string(), String::new()),
        })
        .filter(|(path, _)| !MADE_BY_RUNS.contains(&path.trim_end_matches('/')))
        .collect()
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The words that declare the name after them.
const KEYWORDS: [&str; 10] =
    ["fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union", "macro_rules!"];

/// The names a Rust source declares: after `fn`, `struct`, `enum`, `trait`,
/// `type`, `const`, `static`, `mod`, `union` or `macro_rules!`, and the
/// first name of a line that reads as a field (`name:`) or a variant
/// (`Name,`, `Name(`, `Name {`, `Name =` or `Name` alone). The second pair
/// over-accepts (a struct literal's field reads as a field), never misses.
fn declarations(source: &str) -> Vec<(&str, &str)> {
    let mut names = Vec::new();
    for line in source.lines().map(str::trim).filter(|l| !l.starts_with("//")) {
        let words: Vec<&str> =
            line.split(|c: char| !is_ident(c) && c != '!').filter(|w| !w.is_empty()).collect();
        for pair in words.windows(2) {
            if KEYWORDS.contains(&pair[0]) {
                names.push((pair[0], pair[1]));
            }
        }
        let head = line.strip_prefix("pub ").or_else(|| {
            line.strip_prefix("pub(").and_then(|rest| rest.split_once(") ").map(|(_, r)| r))
        });
        let head = head.unwrap_or(line);
        let name_len = head.find(|c: char| !is_ident(c)).unwrap_or(head.len());
        let (name, rest) = head.split_at(name_len);
        let rest = rest.trim_start();
        let field = rest.starts_with(':') && !rest.starts_with("::");
        let variant = rest.is_empty() || [",", "(", "{", "= "].iter().any(|p| rest.starts_with(p));
        if !name.is_empty() && (field || variant) {
            names.push(("", name));
        }
    }
    names
}

/// What the tree holds, read once: every `.rs` file's declarations, the
/// product's types, its source text and the crate names.
struct Tree {
    root: PathBuf,
    /// The names each `.rs` file under `crates/`, `src/`, `tests/`,
    /// `examples/` and `benchmark/` declares, by its path.
    by_file: HashMap<String, BTreeSet<String>>,
    /// The types `crates/`, `src/` and `benchmark/src` declare.
    product_types: BTreeSet<String>,
    /// The text of every `.rs` file under `crates/*/src` and `src/`.
    product_source: String,
    /// `metamess` and each `metamess_<crate>`.
    crates: BTreeSet<String>,
}

/// The `.rs` files under `dir`, skipping build output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() && name != "target" && name != ".stage" {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

impl Tree {
    fn read() -> Tree {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let mut files = Vec::new();
        for dir in ["crates", "src", "tests", "examples", "benchmark"] {
            rust_files(&root.join(dir), &mut files);
        }
        let mut tree = Tree {
            by_file: HashMap::new(),
            product_types: BTreeSet::new(),
            product_source: String::new(),
            crates: BTreeSet::from(["metamess".to_string()]),
            root,
        };
        for file in files {
            let rel = file.strip_prefix(&tree.root).unwrap().to_string_lossy().replace('\\', "/");
            if rel == file!() {
                continue; // its test texts declare what the docs must not cite
            }
            let source = std::fs::read_to_string(&file).unwrap();
            let product = rel.starts_with("src/")
                || (rel.starts_with("crates/") && rel.split('/').nth(2) == Some("src"));
            let mut declared = BTreeSet::new();
            for (keyword, name) in declarations(&source) {
                let is_type = ["struct", "enum", "trait", "type", "union"].contains(&keyword);
                if is_type && (product || rel.starts_with("benchmark/src/")) {
                    tree.product_types.insert(name.to_string());
                }
                declared.insert(name.to_string());
            }
            if product {
                tree.product_source.push_str(&source);
            }
            tree.by_file.insert(rel, declared);
        }
        let crate_dirs = std::fs::read_dir(tree.root.join("crates")).unwrap();
        for dir in crate_dirs.flatten() {
            let name = dir.file_name().to_string_lossy().to_string();
            tree.crates.insert(format!("metamess_{name}"));
        }
        tree
    }

    /// Whether `item` is declared in a file `in_file` accepts; a trailing
    /// `*` asks for any name that begins with the rest.
    fn declares(&self, in_file: impl Fn(&str) -> bool, item: &str) -> bool {
        let mut files = self.by_file.iter().filter(|(file, _)| in_file(file));
        files.any(|(_, names)| names.iter().any(|name| named(name, item)))
    }
}

/// Whether `file` is product source of the module `module`: a file
/// `<module>.rs`, or any file under a directory `<module>/`, below a
/// crate's `src/` or the root `src/`.
fn of_module(file: &str, module: &str) -> bool {
    let Some((_, inner)) = file.split_once("src/") else { return false };
    let product = file.starts_with("src/") || file.split('/').nth(2) == Some("src");
    let mut parts = inner.split('/');
    let stem = parts.next_back().and_then(|name| name.strip_suffix(".rs"));
    product && (stem == Some(module) || parts.any(|dir| dir == module))
}

/// Whether the declared `name` is the cited `item` (or, for `item*`, begins
/// with it).
fn named(name: &str, item: &str) -> bool {
    match item.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => name == item,
    }
}

/// Each `owner::item` in a span: the identifier before a `::` and the
/// identifier (with a trailing `*`) after it.
fn owned_items(span: &str) -> Vec<(String, String)> {
    span.match_indices("::")
        .filter_map(|(at, _)| {
            let before = &span[..at];
            let owner = &before[before.rfind(|c: char| !is_ident(c)).map_or(0, |i| i + 1)..];
            let after = &span[at + 2..];
            let len = after.find(|c: char| !is_ident(c)).unwrap_or(after.len());
            let item = &after[..len + usize::from(after[len..].starts_with('*'))];
            (!owner.is_empty() && !item.is_empty()).then(|| (owner.to_string(), item.to_string()))
        })
        .collect()
}

/// The `metamess_*` names of a doc's spans: ended at `…`, `*` or
/// whitespace, a `{label}` suffix dropped, `{a,b}` groups expanded.
fn metamess_names(text: &str) -> Vec<String> {
    code_spans(text)
        .iter()
        .filter(|span| span.starts_with("metamess_"))
        .map(|span| span.split(['…', '*', ' ', '(']).next().unwrap())
        .map(|name| match name.rfind('{') {
            Some(at) if name.ends_with('}') => &name[..at],
            _ => name,
        })
        .flat_map(expand)
        .map(|name| name.split(['{', '}', '=', '<']).next().unwrap().to_string())
        .collect()
}

/// A heading or table cell made comparable: no `#`s, pipes, backticks or
/// quotes, and no leading section number such as `5.`.
fn normalized(title: &str) -> String {
    let title = title.trim_start_matches(['#', '|', ' ']).replace(['`', '"', '*'], "");
    let unnumbered = title.trim_start_matches(|c: char| c.is_ascii_digit() || c == '.');
    if unnumbered.len() < title.len() && unnumbered.starts_with(' ') {
        unnumbered.trim().to_string()
    } else {
        title.trim().to_string()
    }
}

/// What a `§` citation can land on in `doc`: its headings, the first cell
/// of each of its table rows, and its section numbers as `N`.
fn section_targets(doc: &str) -> Vec<String> {
    let mut targets = Vec::new();
    for line in prose(doc).lines() {
        if line.starts_with('#') {
            let heading = line.trim_start_matches('#').trim();
            if let Some((number, _)) = heading.split_once(". ") {
                if number.chars().all(|c| c.is_ascii_digit()) {
                    targets.push(number.to_string());
                }
            }
            targets.push(normalized(heading));
        } else if line.starts_with('|') {
            targets.push(normalized(line.split('|').nth(1).unwrap_or_default()));
        }
    }
    targets
}

/// The `§` citations of a doc, as `(cited doc, title)`: code spans that
/// read `DESIGN.md § Title` or `EXPERIMENTS.md § Title`, and a bare
/// `DESIGN.md §N` in prose.
fn section_citations(text: &str) -> Vec<(String, String)> {
    let mut cited = Vec::new();
    for target in ["DESIGN.md", "EXPERIMENTS.md"] {
        for span in code_spans(text) {
            if let Some(title) = span.strip_prefix(target).and_then(|s| s.trim().strip_prefix('§'))
            {
                cited.push((target.to_string(), normalized(title.trim_end_matches(['.', ',']))));
            }
        }
        let prose = prose(text).replace('`', "");
        for (at, _) in prose.match_indices(&format!("{target} §")) {
            let after = &prose[at + target.len() + " §".len()..];
            let number: String = after.chars().take_while(char::is_ascii_digit).collect();
            if !number.is_empty() {
                cited.push((target.to_string(), number));
            }
        }
    }
    cited
}

fn read_doc(root: &Path, doc: &str) -> String {
    std::fs::read_to_string(root.join(doc)).unwrap()
}

#[test]
fn every_path_the_docs_cite_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        for (path, _) in cited_paths(&read_doc(root, doc)) {
            checked += 1;
            if !root.join(&path).exists() {
                missing.push(format!("{doc}: `{path}`"));
            }
        }
    }
    assert!(missing.is_empty(), "cited but not in the tree:\n{}", missing.join("\n"));
    assert!(checked > 100, "only {checked} paths found: is the scanner reading the docs?");
}

#[test]
fn every_item_the_docs_cite_is_declared() {
    let tree = Tree::read();
    let mut missing = Vec::new();
    let (mut in_files, mut on_owners) = (0, 0);
    for doc in DOCS {
        let text = read_doc(&tree.root, doc);
        for (path, item) in cited_paths(&text) {
            if !item.is_empty() && path.ends_with(".rs") {
                in_files += 1;
                if !tree.declares(|file| file == path, &item) {
                    missing.push(format!("{doc}: `{path}::{item}`"));
                }
            }
        }
        for (owner, item) in code_spans(&text).iter().flat_map(|span| owned_items(span)) {
            let declared = if tree.product_types.contains(&owner) {
                tree.declares(|_| true, &item)
            } else if tree.by_file.keys().any(|file| of_module(file, &owner)) {
                tree.declares(|file| of_module(file, &owner), &item)
            } else {
                continue; // a crate, std or a type the tree does not declare
            };
            on_owners += 1;
            if !declared {
                missing.push(format!("{doc}: `{owner}::{item}`"));
            }
        }
    }
    assert!(missing.is_empty(), "cited but declared nowhere:\n{}", missing.join("\n"));
    assert!(in_files > 40, "only {in_files} `<file>::<item>` spans found");
    assert!(on_owners > 60, "only {on_owners} `Type::item` or `module::item` spans found");
}

#[test]
fn every_metamess_name_the_docs_cite_is_in_the_product() {
    let tree = Tree::read();
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        for name in metamess_names(&read_doc(&tree.root, doc)) {
            checked += 1;
            let krate = name.split("::").next().unwrap();
            if !tree.crates.contains(krate) && !tree.product_source.contains(&name) {
                missing.push(format!("{doc}: `{name}`"));
            }
        }
    }
    assert!(missing.is_empty(), "named but not in product source:\n{}", missing.join("\n"));
    assert!(checked > 20, "only {checked} `metamess_*` names found");
}

#[test]
fn every_section_the_docs_cite_has_a_heading() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let targets: HashMap<&str, Vec<String>> =
        DOCS[1..].iter().map(|doc| (*doc, section_targets(&read_doc(root, doc)))).collect();
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        for (cited, title) in section_citations(&read_doc(root, doc)) {
            checked += 1;
            if !targets[cited.as_str()].iter().any(|t| t.starts_with(&title)) {
                missing.push(format!("{doc}: `{cited} § {title}`"));
            }
        }
    }
    assert!(missing.is_empty(), "cited sections without a heading:\n{}", missing.join("\n"));
    assert!(checked > 5, "only {checked} section citations found");
}

#[test]
fn design_and_experiments_keep_their_line_budgets() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (doc, budget) in BUDGETS {
        let lines = read_doc(root, doc).lines().count();
        assert!(lines <= budget, "{doc} is {lines} lines, over its {budget}");
    }
}

#[test]
fn every_design_invariant_names_its_test() {
    let design = read_doc(Path::new(env!("CARGO_MANIFEST_DIR")), "DESIGN.md");
    let invariants = design
        .split("\n## ")
        .find(|section| section.lines().next().unwrap().contains("Invariants"))
        .expect("DESIGN.md has an Invariants section");
    let sections: Vec<&str> = invariants.split("\n### ").skip(1).collect();
    assert!(sections.len() >= 9, "only {} invariants found", sections.len());
    for section in sections {
        let names_a_test = cited_paths(section)
            .iter()
            .any(|(path, item)| path.ends_with(".rs") && !item.is_empty());
        assert!(
            names_a_test,
            "invariant names no `<file>.rs::<fn>`: {}",
            section.lines().next().unwrap()
        );
    }
}

#[test]
fn the_scanner_reads_spans_groups_and_suffixes() {
    let text = "see `crates/core/src/{geo,id}.rs` and `src/main.rs::COMMANDS`,\n\
                `crates/core/src/geo.rs:14,56`, `tests/*props*.rs`, `cargo test`\n\
                ```\nscripts/none.sh `crates/none`\n```\nand `benchmark/.stage`";
    let paths: Vec<String> = cited_paths(text).into_iter().map(|(path, _)| path).collect();
    assert_eq!(
        paths,
        [
            "crates/core/src/geo.rs",
            "crates/core/src/id.rs",
            "src/main.rs",
            "crates/core/src/geo.rs"
        ]
    );
    assert_eq!(cited_paths("`tests/cli.rs::{a, b}`")[1], ("tests/cli.rs".into(), "b".into()));
}

#[test]
fn the_scanner_reads_items_names_and_sections() {
    let source =
        "pub struct Wal {\n    pub len: u64,\n}\nenum Op {\n    Put(u8),\n    Delete,\n}\n\
                  impl Wal {\n    pub(crate) fn read_from(&self) {}\n}\n// fn read_tail";
    let names: Vec<&str> = declarations(source).into_iter().map(|(_, name)| name).collect();
    for name in ["Wal", "len", "Op", "Put", "Delete", "read_from"] {
        assert!(names.contains(&name), "{name} in {names:?}");
    }
    assert!(!names.contains(&"read_tail"));
    assert_eq!(
        owned_items("`Wal::read_tail` and metamess_core::Op::Put, ShardedEngine::search*"),
        [
            ("Wal", "read_tail"),
            ("metamess_core", "Op"),
            ("Op", "Put"),
            ("ShardedEngine", "search*")
        ]
        .map(|(t, i)| (t.to_string(), i.to_string()))
    );
    assert!(of_module("crates/core/src/store/durable.rs", "store"));
    assert!(of_module("crates/search/src/fanout.rs", "fanout"));
    assert!(!of_module("crates/search/tests/fanout.rs", "fanout"));
    let text =
        "`metamess_events_total{level=…}`, `metamess_pipeline_stages_{ran,skipped}_total`,\n\
                `metamess_remote_…` and `metamess_core::store`";
    assert_eq!(
        metamess_names(text),
        [
            "metamess_events_total",
            "metamess_pipeline_stages_ran_total",
            "metamess_pipeline_stages_skipped_total",
            "metamess_remote_",
            "metamess_core::store"
        ]
    );
    let doc = "# T\n## 5. Dependencies\n### Durability: the bytes\n| One reload path (PR 52) | x |";
    let targets = section_targets(doc);
    for cited in ["5", "Durability", "One reload path"] {
        assert!(targets.iter().any(|t| t.starts_with(cited)), "{cited} in {targets:?}");
    }
    assert_eq!(
        section_citations("`DESIGN.md § Durability` and (DESIGN.md §5)"),
        [("DESIGN.md".to_string(), "Durability".to_string()), ("DESIGN.md".into(), "5".into())]
    );
}
