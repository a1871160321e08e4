//! Seeded sweeps over vocabulary invariants: each property runs on `CASES`
//! generators; a failure names its seed.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use common::{sweep, ALPHA, IDENT, LOWER};
use metamess_vocab::{SynonymTable, UnitRegistry, Vocabulary};

const CASES: u64 = 256;

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
        // text round trip preserves resolution
        let t2 = SynonymTable::parse_text(&t.to_text()).unwrap();
        for e in t.entries() {
            for a in &e.alternates {
                assert_eq!(t2.resolve(a).map(|(p, _)| p.to_string()), Some(e.preferred.clone()));
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
