//! # metamess-bench
//!
//! Shared harness code for the experiments that regenerate the poster's
//! table and figures (the `exp*` binaries): ground-truth scoring of
//! wrangling quality, standard IR metrics, and the scripted curator's
//! domain knowledge.

#![forbid(unsafe_code)]

use metamess_archive::{adhoc_synonyms, ArchiveSpec, GroundTruth, MessCategory};
use metamess_core::catalog::Catalog;
use metamess_core::feature::NameResolution;
use metamess_pipeline::{ArchiveInput, CurationLoop, CuratorPolicy, Pipeline, PipelineContext};
use metamess_vocab::Vocabulary;
use std::collections::BTreeMap;

/// Per-category wrangling outcome against the ground truth.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CategoryScore {
    /// Injected occurrences of the category.
    pub injected: usize,
    /// Occurrences correctly handled (see [`score_against_truth`] for the
    /// per-category definition of "correct").
    pub correct: usize,
    /// Occurrences handled *incorrectly* (wrong canonical name assigned).
    pub wrong: usize,
    /// Occurrences left untouched.
    pub unhandled: usize,
}

impl CategoryScore {
    /// correct / injected.
    pub fn recall(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.correct as f64 / self.injected as f64
        }
    }

    /// correct / (correct + wrong) — of the names the system acted on, how
    /// many were right.
    pub fn precision(&self) -> f64 {
        let acted = self.correct + self.wrong;
        if acted == 0 {
            1.0
        } else {
            self.correct as f64 / acted as f64
        }
    }
}

/// Scores a wrangled catalog against the generator's ground truth,
/// per semantic-diversity category.
///
/// "Correct" per category:
/// * Misspelling / Synonym / Abbreviation / SourceContext / Clean — the
///   variable's canonical name equals the truth's canonical name.
/// * Excessive — the variable is QA-flagged.
/// * Ambiguous — clarified to the right canonical name, **or** exposed to
///   the curator (`ambiguous` flag) — the poster treats exposure as the
///   desired result.
/// * MultiLevel — resolved to the right canonical name *and* given a
///   hierarchy path (so it can be collapsed/exposed).
pub fn score_against_truth(
    catalog: &Catalog,
    truth: &GroundTruth,
) -> BTreeMap<MessCategory, CategoryScore> {
    let mut out: BTreeMap<MessCategory, CategoryScore> = BTreeMap::new();
    for td in &truth.datasets {
        let Some(d) = catalog.get_by_path(&td.path) else { continue };
        for tv in &td.variables {
            if ["time", "lat", "lon"].contains(&tv.harvested.as_str()) {
                continue; // coordinates fold into the feature axes
            }
            let Some(v) = d.variable(&tv.harvested) else { continue };
            let s = out.entry(tv.category).or_default();
            s.injected += 1;
            let canonical_ok = v.canonical_name.as_deref() == Some(tv.canonical.as_str());
            match tv.category {
                MessCategory::Excessive => {
                    if v.flags.qa {
                        s.correct += 1;
                    } else if v.resolution.is_resolved() {
                        s.wrong += 1;
                    } else {
                        s.unhandled += 1;
                    }
                }
                MessCategory::Ambiguous => {
                    if canonical_ok || (v.flags.ambiguous && !v.resolution.is_resolved()) {
                        s.correct += 1;
                    } else if v.resolution.is_resolved() {
                        s.wrong += 1;
                    } else {
                        s.unhandled += 1;
                    }
                }
                MessCategory::MultiLevel => {
                    if canonical_ok && !v.hierarchy.is_empty() {
                        s.correct += 1;
                    } else if v.resolution.is_resolved() && !canonical_ok {
                        s.wrong += 1;
                    } else {
                        s.unhandled += 1;
                    }
                }
                _ => {
                    if canonical_ok {
                        s.correct += 1;
                    } else if v.resolution.is_resolved() {
                        s.wrong += 1;
                    } else {
                        s.unhandled += 1;
                    }
                }
            }
        }
    }
    out
}

/// Resolution-method tallies across the catalog (known vs discovered vs
/// curated — the provenance mix of the final catalog).
pub fn resolution_mix(catalog: &Catalog) -> BTreeMap<&'static str, usize> {
    let mut out: BTreeMap<&'static str, usize> = BTreeMap::new();
    for d in catalog.iter() {
        for v in &d.variables {
            let key = match &v.resolution {
                NameResolution::Unresolved if v.flags.qa => "qa-flagged",
                NameResolution::Unresolved if v.flags.ambiguous => "exposed-ambiguous",
                NameResolution::Unresolved => "unresolved",
                NameResolution::AlreadyCanonical => "already-canonical",
                NameResolution::KnownTranslation => "known-translation",
                NameResolution::DiscoveredTranslation { .. } => "discovered-translation",
                NameResolution::Curated => "curated",
            };
            *out.entry(key).or_insert(0) += 1;
        }
    }
    out
}

/// Precision at `k`: fraction of the top `k` results that are relevant.
pub fn precision_at_k(ranked: &[&str], relevant: &[&str], k: usize) -> f64 {
    if k == 0 {
        return 0.0;
    }
    let k = k.min(ranked.len()).max(1);
    ranked[..k.min(ranked.len())].iter().filter(|p| relevant.contains(*p)).count() as f64 / k as f64
}

/// Reciprocal rank of the first relevant result (0 when none).
pub fn reciprocal_rank(ranked: &[&str], relevant: &[&str]) -> f64 {
    for (ix, p) in ranked.iter().enumerate() {
        if relevant.contains(p) {
            return 1.0 / (ix + 1) as f64;
        }
    }
    0.0
}

/// Binary NDCG@k against the relevant set.
pub fn ndcg_at_k(ranked: &[&str], relevant: &[&str], k: usize) -> f64 {
    let k = k.min(ranked.len());
    if k == 0 || relevant.is_empty() {
        return 0.0;
    }
    let dcg: f64 = ranked[..k]
        .iter()
        .enumerate()
        .filter(|(_, p)| relevant.contains(*p))
        .map(|(ix, _)| 1.0 / ((ix + 2) as f64).log2())
        .sum();
    let ideal: f64 = (0..relevant.len().min(k)).map(|ix| 1.0 / ((ix + 2) as f64).log2()).sum();
    dcg / ideal
}

/// The scripted curator's domain knowledge: every ad-hoc spelling, as
/// `(canonical, variant)` pairs (simulates the human-maintained translation
/// table the poster says "often exists").
pub fn domain_knowledge() -> Vec<(String, String)> {
    [
        "air_temperature",
        "water_temperature",
        "sea_surface_temperature",
        "salinity",
        "specific_conductivity",
        "dissolved_oxygen",
        "turbidity",
        "chlorophyll_fluorescence",
        "wind_speed",
        "wind_direction",
        "air_pressure",
        "relative_humidity",
        "precipitation",
        "solar_radiation",
        "depth",
        "nitrate",
        "phosphate",
        "ph",
        "water_pressure",
        "photosynthetically_active_radiation",
    ]
    .iter()
    .flat_map(|c| adhoc_synonyms(c).iter().map(move |v| (c.to_string(), v.to_string())))
    .collect()
}

/// Generates, wrangles (full curation with domain knowledge), and returns
/// the context + truth — the standard setup shared by experiments.
pub fn wrangle_archive(spec: &ArchiveSpec) -> (PipelineContext, GroundTruth) {
    let archive = metamess_archive::generate(spec);
    let truth = archive.truth.clone();
    let mut ctx = PipelineContext::new(
        ArchiveInput::Memory(archive.files),
        Vocabulary::observatory_default(),
    );
    let mut pipeline = Pipeline::standard();
    let policy = CuratorPolicy { manual_synonyms: domain_knowledge(), ..Default::default() };
    let curator = CurationLoop::new(policy);
    curator.run_to_fixpoint(&mut pipeline, &mut ctx).expect("curation converges");
    (ctx, truth)
}

/// Builds a search engine over the context's published catalog.
pub fn engine_from_ctx(ctx: &PipelineContext) -> metamess_search::SearchEngine {
    metamess_search::SearchEngine::build(&ctx.catalog, ctx.vocab.clone())
}

/// Formats a float as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ir_metrics_basics() {
        let ranked = ["a", "b", "c", "d"];
        let relevant = ["b", "d", "z"];
        assert!((precision_at_k(&ranked, &relevant, 2) - 0.5).abs() < 1e-12);
        assert!((reciprocal_rank(&ranked, &relevant) - 0.5).abs() < 1e-12);
        let n = ndcg_at_k(&ranked, &relevant, 4);
        assert!(n > 0.0 && n < 1.0, "{n}");
        // perfect ranking has ndcg 1
        let perfect = ["b", "d", "z"];
        assert!((ndcg_at_k(&perfect, &relevant, 3) - 1.0).abs() < 1e-12);
        // no relevant found
        assert_eq!(reciprocal_rank(&["x"], &relevant), 0.0);
    }

    #[test]
    fn category_score_math() {
        let s = CategoryScore { injected: 10, correct: 8, wrong: 2, unhandled: 0 };
        assert!((s.recall() - 0.8).abs() < 1e-12);
        assert!((s.precision() - 0.8).abs() < 1e-12);
        let empty = CategoryScore::default();
        assert_eq!(empty.recall(), 1.0);
        assert_eq!(empty.precision(), 1.0);
    }

    /// The paper's E1 (EXPERIMENTS.md): the default archive is seed
    /// 20130408, the one `exp1_semantic_diversity` prints.
    #[test]
    fn e1_no_wrong_assignment_in_any_category() {
        let (ctx, truth) = wrangle_archive(&ArchiveSpec::default());
        let scores = score_against_truth(&ctx.catalog, &truth);
        assert_eq!(scores.len(), 8, "seven kinds of mess and the clean names: {scores:?}");
        for (cat, s) in &scores {
            assert!(s.injected > 0, "{cat:?} never injected");
            assert_eq!(s.wrong, 0, "{cat:?} has wrong assignments: {s:?}");
            assert!(s.recall() > 0.6, "category {cat:?} recall {} too low: {s:?}", s.recall());
        }
        let injected: usize = scores.values().map(|s| s.injected).sum();
        let correct: usize = scores.values().map(|s| s.correct).sum();
        assert!(correct * 100 >= injected * 97, "{correct}/{injected} resolved, E1 says ≥ 97 %");
        // clean names must never be broken
        assert_eq!(scores[&MessCategory::Clean].recall(), 1.0);
        let mix = resolution_mix(&ctx.catalog);
        assert!(mix.get("discovered-translation").copied().unwrap_or(0) > 0, "{mix:?}");
    }
}
