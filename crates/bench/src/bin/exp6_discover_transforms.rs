//! **E6 — Figure: Discovering Transformations with Google Refine.**
//!
//! Compares the clustering methods on discovery quality against the injected
//! ground truth (which variant pairs truly denote the same canonical
//! variable), and round-trips the winning rules through Refine's JSON.
//!
//! A *discovered pair* is (variant, canonical-pick) from a cluster; it is
//! correct when the ground truth maps the variant to the same canonical
//! variable the pick resolves to.
//!
//! ```text
//! cargo run --release -p metamess-bench --bin exp6_discover_transforms
//! ```

use metamess_archive::{generate, ArchiveSpec, MessCategory};
use metamess_bench::pct;
use metamess_discover::{
    clusters_to_rules, key_collision_clusters, knn_clusters, Cluster, KeyMethod, KnnConfig,
    ValueCount,
};
use metamess_pipeline::{ArchiveInput, Pipeline, PipelineContext};
use metamess_transform::{operations_to_json, parse_operations};
use metamess_vocab::Vocabulary;
use std::collections::BTreeMap;
use std::time::Instant;

fn main() {
    let spec = ArchiveSpec::default();
    let archive = generate(&spec);
    let truth = archive.truth.clone();

    // Harvest + known transformations, discovery's actual input state.
    let mut ctx = PipelineContext::new(
        ArchiveInput::Memory(archive.files),
        Vocabulary::observatory_default(),
    );
    Pipeline::known_only().run(&mut ctx).expect("runs");

    // The value pool: unresolved names with counts + resolved canonicals as
    // anchors (exactly what the discovery stage builds).
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for d in ctx.catalog.iter() {
        for v in &d.variables {
            if v.flags.qa || v.flags.hidden || v.flags.ambiguous {
                continue;
            }
            let key = v.canonical_name.clone().unwrap_or_else(|| v.name.clone());
            *counts.entry(key).or_insert(0) += 1;
        }
    }
    let pool: Vec<ValueCount> =
        counts.into_iter().map(|(value, count)| ValueCount { value, count }).collect();

    // Oracle: harvested variant → truth canonical (only messy name variants;
    // QA and clean names have no translation to discover).
    let mut oracle: BTreeMap<&str, &str> = BTreeMap::new();
    for d in &truth.datasets {
        for v in &d.variables {
            if matches!(
                v.category,
                MessCategory::Misspelling | MessCategory::Synonym | MessCategory::Abbreviation
            ) {
                oracle.insert(v.harvested.as_str(), v.canonical.as_str());
            }
        }
    }
    let discoverable = oracle.len();
    println!(
        "E6: transformation discovery over {} distinct values ({} truly-variant names)\n",
        pool.len(),
        discoverable
    );

    let vocab = Vocabulary::observatory_default();
    let evaluate = |name: &str, clusters: &[Cluster], elapsed: std::time::Duration| {
        let mut proposed = 0usize;
        let mut correct = 0usize;
        let mut found: Vec<&str> = Vec::new();
        for c in clusters {
            let pick_canonical = vocab
                .synonyms
                .resolve(c.canonical())
                .map(|(p, _)| p.to_string())
                .unwrap_or_else(|| c.canonical().to_string());
            for m in c.variants() {
                proposed += 1;
                if let Some(truth_canonical) = oracle.get(m.value.as_str()) {
                    if *truth_canonical == pick_canonical {
                        correct += 1;
                        found.push(oracle.keys().find(|k| **k == m.value.as_str()).unwrap());
                    }
                }
            }
        }
        let recall = found.len() as f64 / discoverable.max(1) as f64;
        let precision = if proposed == 0 { 1.0 } else { correct as f64 / proposed as f64 };
        println!(
            "  {:<28} {:>8} clusters {:>6} pairs  precision {:>7}  recall {:>7}  {:>9.2?}",
            name,
            clusters.len(),
            proposed,
            pct(precision),
            pct(recall),
            elapsed
        );
    };

    println!("method comparison (precision/recall over variant pairs):");
    for method in [
        KeyMethod::Fingerprint,
        KeyMethod::IdentifierFingerprint,
        KeyMethod::NgramFingerprint { n: 2 },
        KeyMethod::Metaphone,
        KeyMethod::Soundex,
    ] {
        let t = Instant::now();
        let clusters = key_collision_clusters(&pool, method);
        evaluate(&method.name(), &clusters, t.elapsed());
    }
    for radius in [1usize, 2, 3] {
        let cfg = KnnConfig { radius, ..KnnConfig::default() };
        let t = Instant::now();
        let clusters = knn_clusters(&pool, &cfg);
        evaluate(&format!("knn-lev{radius} (blocked)"), &clusters, t.elapsed());
    }
    let t = Instant::now();
    let unblocked = knn_clusters(&pool, &KnnConfig { blocking: None, ..KnnConfig::default() });
    evaluate("knn-lev2 (no blocking)", &unblocked, t.elapsed());

    // Combined (what the pipeline runs) + the Refine JSON round trip.
    let mut combined = key_collision_clusters(&pool, KeyMethod::IdentifierFingerprint);
    combined.extend(key_collision_clusters(&pool, KeyMethod::NgramFingerprint { n: 2 }));
    combined.extend(key_collision_clusters(&pool, KeyMethod::Metaphone));
    combined.extend(knn_clusters(&pool, &KnnConfig::default()));
    let rules = clusters_to_rules(&combined, "field");
    let ops: Vec<_> = rules.iter().map(|r| r.operation.clone()).collect();
    let json = operations_to_json(&ops);
    let back = parse_operations(&json).expect("round trip");
    assert_eq!(back, ops);
    println!(
        "\ncombined methods: {} rules exported as Refine JSON ({} bytes) and re-imported intact",
        ops.len(),
        json.len()
    );
    println!("highest-confidence rules:");
    for r in rules.iter().take(6) {
        println!(
            "  {:<24} <- {:?}  (confidence {:.2}, method {}, support {})",
            r.to, r.from, r.confidence, r.method, r.support
        );
    }
}
