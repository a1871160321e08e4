//! Seeded sweeps over vocabulary invariants: each property runs on `CASES`
//! generators; a failure names its seed.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use common::{sweep, Rng, ALPHA, IDENT, LOWER};
use metamess_core::text::{normalize_term, split_identifier, term_eq};
use metamess_vocab::{SynonymTable, Taxonomy, TaxonomyNode, UnitRegistry, Vocabulary};
use std::collections::BTreeSet;

const CASES: u64 = 256;

/// Seeds of the index-vs-tree-walk sweep: `METAMESS_TORTURE_CASES`, else 200.
fn torture_cases() -> u64 {
    std::env::var("METAMESS_TORTURE_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(200)
}

#[test]
fn synonym_table_translation_is_functional() {
    sweep(CASES, |rng| {
        let entries = rng.vec(1, 12, |rng| {
            (rng.string(LOWER, 2, 8), rng.vec(0, 4, |rng| rng.string(LOWER, 2, 8)))
        });
        // Build the table, skipping entries the invariants reject.
        let mut t = SynonymTable::new();
        for (pref, alts) in &entries {
            if t.add_preferred(pref.clone()).is_err() {
                continue;
            }
            for a in alts {
                let _ = t.add_alternate(pref.clone(), a.clone());
            }
        }
        // Every name resolves to exactly one preferred term, and resolving a
        // preferred term is the identity.
        for e in t.entries() {
            let (p, _) = t.resolve(&e.preferred).unwrap();
            assert_eq!(p, e.preferred.as_str());
            for a in &e.alternates {
                let (p2, _) = t.resolve(a).unwrap();
                assert_eq!(p2, e.preferred.as_str());
                // an alternate is never itself a preferred term
                assert!(t.entry(a).is_none());
            }
        }
    });
}

#[test]
fn unit_conversion_round_trips() {
    let r = UnitRegistry::builtin();
    sweep(CASES, |rng| {
        let x = rng.float(-500.0, 500.0);
        for (a, b) in [("C", "F"), ("C", "K"), ("m", "ft"), ("m/s", "kn"), ("dbar", "mbar")] {
            let y = r.convert(x, a, b).unwrap();
            let back = r.convert(y, b, a).unwrap();
            assert!((back - x).abs() < 1e-6, "{a}<->{b} at {x}: {back}");
            // affine map agrees with convert
            let (s, o) = r.affine_to(a, b).unwrap();
            assert!((s * x + o - y).abs() < 1e-6);
        }
    });
}

#[test]
fn resolve_variable_is_deterministic_and_case_insensitive() {
    let v = Vocabulary::observatory_default();
    sweep(CASES, |rng| {
        let name = rng.string(&format!("{ALPHA}_"), 1, 14);
        let r1 = v.resolve_variable(&name, None);
        assert_eq!(r1, v.resolve_variable(&name, None));
        // QA patterns are substring/prefix based and case-insensitive, as is
        // the synonym table, so case never changes the outcome.
        assert_eq!(r1, v.resolve_variable(&name.to_uppercase(), None));
    });
}

#[test]
fn expand_term_always_contains_a_canonical_spelling() {
    let v = Vocabulary::observatory_default();
    sweep(CASES, |rng| {
        let term = rng.string(IDENT, 1, 12);
        let expanded = v.expand_term(&term);
        assert!(!expanded.is_empty());
        let canonical =
            v.synonyms.resolve(&term).map(|(c, _)| c.to_string()).unwrap_or_else(|| term.clone());
        assert!(
            expanded.iter().any(|e| metamess_core::text::term_eq(e, &canonical)),
            "{expanded:?} missing {canonical}"
        );
    });
}

#[test]
fn vocabulary_json_round_trip_preserves_resolution() {
    let v = Vocabulary::observatory_default();
    let back = Vocabulary::from_json(&v.to_json()).unwrap();
    sweep(CASES, |rng| {
        for n in rng.vec(1, 10, |rng| rng.string(IDENT, 1, 10)) {
            assert_eq!(v.resolve_variable(&n, None), back.resolve_variable(&n, None));
            assert_eq!(v.resolve_variable(&n, Some("ctd")), back.resolve_variable(&n, Some("ctd")));
        }
    });
}

// The naive lookups the vocabulary's indexes replace: a depth-first walk of
// the taxonomy tree per call, and a split of every preferred term per
// ambiguity check.

fn walk_find<'a>(nodes: &'a [TaxonomyNode], name: &str) -> Option<&'a TaxonomyNode> {
    nodes.iter().find_map(|n| {
        if term_eq(&n.name, name) {
            Some(n)
        } else {
            walk_find(&n.children, name)
        }
    })
}

fn walk_path(t: &Taxonomy, name: &str) -> Option<Vec<String>> {
    fn walk<'a>(nodes: &'a [TaxonomyNode], name: &str, prefix: &mut Vec<&'a str>) -> bool {
        for n in nodes {
            prefix.push(&n.name);
            if term_eq(&n.name, name) || walk(&n.children, name, prefix) {
                return true;
            }
            prefix.pop();
        }
        false
    }
    let mut prefix = Vec::new();
    walk(t.root_nodes(), name, &mut prefix).then(|| prefix.into_iter().map(String::from).collect())
}

fn walk_children(t: &Taxonomy, name: &str) -> Vec<String> {
    walk_find(t.root_nodes(), name)
        .map(|n| n.children.iter().map(|c| c.name.clone()).collect())
        .unwrap_or_default()
}

fn walk_descendants(t: &Taxonomy, name: &str) -> Vec<String> {
    fn collect(node: &TaxonomyNode, out: &mut Vec<String>) {
        for c in &node.children {
            out.push(c.name.clone());
            collect(c, out);
        }
    }
    let mut out = Vec::new();
    if let Some(n) = walk_find(t.root_nodes(), name) {
        collect(n, &mut out);
    }
    out
}

fn walk_hierarchy_of(v: &Vocabulary, canonical: &str) -> Vec<String> {
    v.taxonomies.iter().find_map(|t| walk_path(t, canonical)).unwrap_or_default()
}

fn walk_expand_term(v: &Vocabulary, term: &str) -> Vec<String> {
    let canonical = v.synonyms.resolve(term).map_or(term, |(c, _)| c).to_string();
    let mut out = vec![canonical.clone()];
    if let Some(e) = v.synonyms.entry(&canonical) {
        out.extend(e.alternates.iter().cloned());
    }
    for t in v.taxonomies.iter() {
        for d in walk_descendants(t, &canonical) {
            if !out.iter().any(|x| term_eq(x, &d)) {
                out.push(d);
            }
        }
    }
    out
}

fn walk_canonical_keys(v: &Vocabulary, term: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    if let Some((canon, _)) = v.synonyms.resolve(term) {
        out.insert(normalize_term(canon));
        for anc in walk_hierarchy_of(v, canon) {
            out.insert(normalize_term(&anc));
        }
    }
    out
}

fn walk_expand_keys(v: &Vocabulary, term: &str) -> BTreeSet<String> {
    let mut keys = walk_canonical_keys(v, term);
    keys.insert(normalize_term(term));
    keys.extend(walk_expand_term(v, term).iter().map(|e| normalize_term(e)));
    keys
}

fn walk_extending_token<'a>(t: &'a SynonymTable, prefix: &str) -> Vec<&'a str> {
    t.preferred_terms()
        .filter(|term| {
            split_identifier(term).iter().any(|tok| tok.starts_with(prefix) && tok != prefix)
        })
        .collect()
}

/// A snake-case word over a four-letter alphabet, so words share tokens
/// and token prefixes.
fn word(rng: &mut Rng) -> String {
    rng.vec(1, 4, |rng| rng.string("abte", 1, 4)).join("_")
}

/// `w` respelled: letters flipped to capitals, padded with blanks.
fn respelled(rng: &mut Rng, w: &str) -> String {
    let mut out: String =
        w.chars().map(|c| if rng.below(4) == 0 { c.to_ascii_uppercase() } else { c }).collect();
    if rng.below(4) == 0 {
        out.insert(0, ' ');
    }
    if rng.below(4) == 0 {
        out.push(*rng.pick(&[' ', '\t']));
    }
    out
}

/// Taxonomy paths over `pool`, into one to three taxonomies, with one name
/// at two depths of one of them.
fn grow_taxonomies(rng: &mut Rng, v: &mut Vocabulary, pool: &[String]) {
    let names = &["a", "b", "c"][..rng.size(1, 4)];
    for _ in 0..rng.size(1, 10) {
        let path: Vec<String> = (0..rng.size(1, 5))
            .map(|_| {
                let w = rng.pick(pool).clone();
                respelled(rng, &w)
            })
            .collect();
        let refs: Vec<&str> = path.iter().map(String::as_str).collect();
        let tax = *rng.pick(names);
        v.taxonomies.get_or_create(tax).insert_path(&refs).unwrap();
    }
    let (deep, other) = (rng.pick(pool).clone(), rng.pick(pool).clone());
    let (other_again, deep_again) = (respelled(rng, &other), respelled(rng, &deep));
    let name = *rng.pick(names);
    let tax = v.taxonomies.get_or_create(name);
    tax.insert_path(&[&other, &other_again, &deep]).unwrap();
    tax.insert_path(&[&deep_again, &other]).unwrap();
}

fn grow_synonyms(rng: &mut Rng, v: &mut Vocabulary, pool: &[String]) {
    for _ in 0..rng.size(1, 8) {
        let w = rng.pick(pool).clone();
        let preferred = respelled(rng, &w);
        let _ = v.synonyms.add_preferred(preferred.clone());
        for _ in 0..rng.size(0, 3) {
            let w = rng.pick(pool).clone();
            let _ = v.synonyms.add_alternate(preferred.clone(), respelled(rng, &w));
        }
    }
}

/// Every indexed lookup of `v` against its tree walk, for each probe.
fn agrees_with_the_walk(v: &Vocabulary, probes: &[String]) {
    for p in probes {
        assert_eq!(*v.hierarchy_of(p), walk_hierarchy_of(v, p), "hierarchy_of({p:?})");
        assert_eq!(v.expand_term(p), walk_expand_term(v, p), "expand_term({p:?})");
        assert_eq!(v.canonical_keys(p), walk_canonical_keys(v, p), "canonical_keys({p:?})");
        assert_eq!(v.expand_keys(p), walk_expand_keys(v, p), "expand_keys({p:?})");
        for t in v.taxonomies.iter() {
            assert_eq!(t.path_of(p).map(|h| h.to_vec()), walk_path(t, p), "path_of({p:?})");
            assert_eq!(t.contains(p), walk_find(t.root_nodes(), p).is_some(), "contains({p:?})");
            assert_eq!(t.children_of(p), walk_children(t, p), "children_of({p:?})");
            assert_eq!(t.descendants(p), walk_descendants(t, p), "descendants({p:?})");
        }
        for prefix in [p.clone(), normalize_term(p)] {
            assert_eq!(
                v.synonyms.extending_token(&prefix),
                walk_extending_token(&v.synonyms, &prefix),
                "extending_token({prefix:?})"
            );
        }
    }
}

#[test]
fn indexed_lookups_answer_what_walking_the_tree_answers() {
    sweep(torture_cases(), |rng| {
        let pool = rng.vec(4, 12, word);
        let mut v = Vocabulary::new();
        grow_synonyms(rng, &mut v, &pool);
        grow_taxonomies(rng, &mut v, &pool);
        let mut probes: Vec<String> = pool.iter().map(|w| respelled(rng, w)).collect();
        probes.extend(pool.iter().map(|w| w[..rng.size(1, w.len() + 1)].to_string()));
        probes.extend(v.synonyms.entries().flat_map(|e| e.alternates.clone()));
        probes.push(word(rng));
        probes.push(String::new());
        agrees_with_the_walk(&v, &probes);
        // a change after the first lookups is seen by the next ones
        grow_synonyms(rng, &mut v, &pool);
        grow_taxonomies(rng, &mut v, &pool);
        agrees_with_the_walk(&v, &probes);
        // and so is a vocabulary read back, by `from_json` or by a derive
        let json = v.to_json();
        let back = Vocabulary::from_json(&json).unwrap();
        assert_eq!(back, v);
        agrees_with_the_walk(&back, &probes);
        let plain: Vocabulary = serde_json::from_str(&json).unwrap();
        agrees_with_the_walk(&plain, &probes);
        assert_eq!(back.to_json(), json, "the indexes are not written");
    });
}
