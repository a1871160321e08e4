//! Seeded sweeps over distances, keys, and clustering invariants: each
//! property runs on `CASES` generators; a failure names its seed.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use common::{printable, sweep, ALPHA, IDENT, LOWER};
use metamess_discover::*;

const CASES: u64 = 256;

#[test]
fn levenshtein_metric_axioms() {
    sweep(CASES, |rng| {
        let [a, b, c] = [(); 3].map(|()| rng.string(IDENT, 0, 12));
        let dab = levenshtein(&a, &b);
        assert_eq!(dab, levenshtein(&b, &a)); // symmetry
        assert_eq!(levenshtein(&a, &a), 0); // identity
        if a != b {
            assert!(dab > 0); // separation
        }
        // triangle inequality
        assert!(dab <= levenshtein(&a, &c) + levenshtein(&c, &b));
        // bounded by longer length
        assert!(dab <= a.chars().count().max(b.chars().count()));
        // at least the length difference
        assert!(dab >= a.chars().count().abs_diff(b.chars().count()));
    });
}

#[test]
fn osa_never_exceeds_levenshtein() {
    sweep(CASES, |rng| {
        let (a, b) = (rng.string(LOWER, 0, 10), rng.string(LOWER, 0, 10));
        assert!(osa_distance(&a, &b) <= levenshtein(&a, &b));
    });
}

#[test]
fn bounded_levenshtein_agrees() {
    sweep(CASES, |rng| {
        let (a, b) = (rng.string(IDENT, 0, 10), rng.string(IDENT, 0, 10));
        let max = rng.size(0, 6);
        let full = levenshtein(&a, &b);
        match levenshtein_bounded(&a, &b, max) {
            Some(d) => {
                assert_eq!(d, full);
                assert!(d <= max);
            }
            None => assert!(full > max),
        }
    });
}

#[test]
fn normalized_distance_in_unit_interval() {
    sweep(CASES, |rng| {
        let (a, b) = (rng.string(&printable(), 0, 16), rng.string(&printable(), 0, 16));
        assert!((0.0..=1.0).contains(&normalized_distance(&a, &b)));
        assert_eq!(normalized_distance(&a, &a), 0.0);
    });
}

#[test]
fn jaro_winkler_in_unit_interval() {
    sweep(CASES, |rng| {
        let (a, b) = (rng.string(LOWER, 0, 12), rng.string(LOWER, 0, 12));
        let s = jaro_winkler(&a, &b);
        assert!((0.0..=1.0).contains(&s), "{s}");
        assert!((s - jaro_winkler(&b, &a)).abs() < 1e-12);
    });
}

#[test]
fn fingerprint_is_idempotent_and_order_invariant() {
    sweep(CASES, |rng| {
        let words = rng.vec(1, 5, |rng| rng.string(LOWER, 1, 6));
        let joined = words.join(" ");
        let mut shuffled = words.clone();
        shuffled.reverse();
        let k = fingerprint_key(&joined);
        assert_eq!(k, fingerprint_key(&shuffled.join("  ")));
        assert_eq!(fingerprint_key(&k), k);
    });
}

#[test]
fn keys_never_panic_on_arbitrary_input() {
    sweep(CASES, |rng| {
        let s = rng.text(0, 24);
        for m in [
            KeyMethod::Fingerprint,
            KeyMethod::IdentifierFingerprint,
            KeyMethod::NgramFingerprint { n: 2 },
            KeyMethod::Metaphone,
            KeyMethod::Soundex,
        ] {
            let _ = m.key(&s);
        }
        let _ = soundex(&s);
        let _ = metaphone_lite(&s);
    });
}

#[test]
fn clusters_partition_their_members() {
    sweep(CASES, |rng| {
        let vcs = rng.vec(1, 30, |rng| {
            ValueCount::new(rng.string(&format!("{ALPHA}_ "), 1, 10), 1 + rng.below(19))
        });
        let clusters = key_collision_clusters(&vcs, KeyMethod::Fingerprint);
        // every member value appears in at most one cluster
        let mut seen = std::collections::HashSet::new();
        for c in &clusters {
            assert!(c.members.len() >= 2);
            for m in &c.members {
                assert!(seen.insert(m.value.clone()), "value {} in two clusters", m.value);
                // members of a cluster share the cluster key
                assert_eq!(KeyMethod::Fingerprint.key(&m.value), c.key);
            }
            // canonical has the max count
            let maxc = c.members.iter().map(|m| m.count).max().unwrap();
            assert_eq!(c.members[0].count, maxc);
        }
    });
}

#[test]
fn knn_members_within_radius_of_some_member() {
    sweep(CASES, |rng| {
        let vcs = rng.vec(2, 15, |rng| ValueCount::new(rng.string(LOWER, 4, 8), 1));
        let cfg = KnnConfig { radius: 2, blocking: None, min_length: 4 };
        for c in &knn_clusters(&vcs, &cfg) {
            for m in &c.members {
                // connectivity: some other member within the radius
                let linked = c
                    .members
                    .iter()
                    .any(|o| o.value != m.value && levenshtein(&o.value, &m.value) <= cfg.radius);
                assert!(linked, "member {} unlinked in cluster {:?}", m.value, c.key);
            }
        }
    });
}

#[test]
fn blocking_is_a_subset_of_unblocked() {
    sweep(CASES, |rng| {
        let vcs = rng.vec(2, 12, |rng| ValueCount::new(rng.string(LOWER, 4, 7), 1));
        let unblocked = knn_clusters(&vcs, &KnnConfig { radius: 2, blocking: None, min_length: 4 });
        let blocked = knn_clusters(&vcs, &KnnConfig::default());
        // Every blocked pair-link also exists unblocked, so blocked clusters
        // are refinements: each blocked cluster's members all appear together
        // in one unblocked cluster.
        for bc in &blocked {
            let holder = unblocked.iter().find(|uc| {
                bc.members.iter().all(|m| uc.members.iter().any(|u| u.value == m.value))
            });
            assert!(holder.is_some());
        }
    });
}

#[test]
fn rule_confidence_in_unit_interval() {
    sweep(CASES, |rng| {
        let vcs = rng.vec(2, 20, |rng| {
            ValueCount::new(rng.string(&format!("{ALPHA}_"), 1, 8), 1 + rng.below(49))
        });
        let clusters = key_collision_clusters(&vcs, KeyMethod::IdentifierFingerprint);
        for r in clusters_to_rules(&clusters, "field") {
            assert!((0.0..=1.0).contains(&r.confidence));
            assert!(!r.from.is_empty());
            assert!(!r.from.contains(&r.to));
        }
    });
}
