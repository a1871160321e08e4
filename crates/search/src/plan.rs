//! Query planning: everything about a query that does not depend on the
//! dataset being scored, computed once per query.
//!
//! Before the plan existed, `SearchEngine::candidates` re-expanded every
//! vocabulary term per query and `PreparedTerm` redid the same resolution
//! for scoring — two code paths doing overlapping dictionary walks. The
//! plan runs both once, through the vocabulary's shared expansion helpers
//! (`Vocabulary::expand_keys` / `canonical_keys`), and is reused across all
//! candidates and all shards.

use crate::query::Query;
use crate::score::PreparedTerm;
use metamess_vocab::Vocabulary;
use std::collections::BTreeSet;

/// Precomputed per-query state: scoring context and candidate-probe keys
/// for every variable term.
pub struct QueryPlan {
    /// Scoring context per variable term (normalized spellings, expansion
    /// set, hierarchy neighbourhood) — consumed by the scoring routine, in
    /// both the ranking pass and `score_dataset_prepared`.
    pub prepared: Vec<PreparedTerm>,
    /// Normalized inverted-index probe keys per variable term — consumed by
    /// candidate generation.
    pub term_keys: Vec<BTreeSet<String>>,
}

impl QueryPlan {
    /// Prepares a plan for `query` against `vocab`.
    pub fn prepare(query: &Query, vocab: &Vocabulary) -> QueryPlan {
        QueryPlan {
            prepared: query.variables.iter().map(|t| PreparedTerm::prepare(t, vocab)).collect(),
            term_keys: query.variables.iter().map(|t| vocab.expand_keys(&t.name)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamess_core::text::normalize_term;

    #[test]
    fn plan_prepares_every_term_once() {
        let vocab = Vocabulary::observatory_default();
        let q = Query::parse("with wtemp with salinity between 20 and 30").unwrap();
        let plan = QueryPlan::prepare(&q, &vocab);
        assert_eq!(plan.prepared.len(), 2);
        assert_eq!(plan.term_keys.len(), 2);
        // probe keys reach the canonical spelling behind the alternate
        assert!(plan.term_keys[0].contains(&normalize_term("water_temperature")));
        assert!(plan.term_keys[1].contains(&normalize_term("salinity")));
    }

    #[test]
    fn empty_query_has_empty_plan() {
        let vocab = Vocabulary::observatory_default();
        let plan = QueryPlan::prepare(&Query::new(), &vocab);
        assert!(plan.prepared.is_empty());
        assert!(plan.term_keys.is_empty());
    }
}
