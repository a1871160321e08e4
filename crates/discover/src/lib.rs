//! # metamess-discover
//!
//! Transformation discovery: the native reimplementation of the clustering
//! workflow the poster runs through Google Refine. Values harvested from an
//! archive are clustered by key collision (fingerprint, n-gram fingerprint,
//! phonetic) or nearest-neighbour edit distance, and each cluster becomes a
//! proposed `core/mass-edit` rule with a confidence score for the curator —
//! the machinery for "the mess that's left" after known translations run.

#![forbid(unsafe_code)]

mod cluster;
mod distance;
mod keys;
mod phonetic;
mod rules;
mod unionfind;

pub use cluster::{key_collision_clusters, knn_clusters, Cluster, KnnConfig, ValueCount};
pub use distance::{
    jaro, jaro_winkler, levenshtein, levenshtein_bounded, normalized_distance, osa_distance,
};
pub use keys::{fingerprint_key, ngram_fingerprint, KeyMethod};
pub use phonetic::{metaphone_lite, soundex};
pub use rules::{
    accepted_operations, cluster_to_rule, clusters_to_rules, confidence, RuleProposal,
};
pub use unionfind::UnionFind;
