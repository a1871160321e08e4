//! The oracle the responses are checked against: score every dataset of the
//! catalog with the exact scorer, sort all of them, keep the best `limit`.
//! No index, no candidate generation, no top-k heap, no cache.

use metamess_core::{Catalog, DatasetId};
use metamess_search::{score_dataset_prepared, PreparedTerm, Query};
use metamess_vocab::Vocabulary;

/// `(id, score)` of the best `query.limit` datasets, best first; ties go to
/// the smaller path, as the engine documents.
///
/// The variable terms are prepared once per query rather than once per
/// dataset (`score_dataset` would redo it 100 000 times); the scorer that
/// runs per dataset is the same exact one.
pub fn reference_search(
    catalog: &Catalog,
    vocab: &Vocabulary,
    query: &Query,
) -> Vec<(DatasetId, f64)> {
    let prepared: Vec<PreparedTerm> =
        query.variables.iter().map(|t| PreparedTerm::prepare(t, vocab)).collect();
    let mut scored: Vec<(f64, &str, DatasetId)> = catalog
        .iter()
        .map(|d| (score_dataset_prepared(query, &prepared, d, vocab).total, d.path.as_str(), d.id))
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("scores are not NaN").then(a.1.cmp(b.1)));
    scored.truncate(query.limit);
    scored.into_iter().map(|(score, _, id)| (id, score)).collect()
}
