//! The scripted curator: an executable policy for the poster's "major
//! curatorial activities".
//!
//! 1. *Creating* the process — [`crate::Pipeline::standard`].
//! 2. *Running & rerunning* — [`CurationLoop::run_to_fixpoint`].
//! 3. *Improving* — accepted discoveries become synonym-table entries;
//!    ambiguous names get clarified by context; the vocabulary version
//!    bumps each cycle.
//! 4. *Validating* — the validation stage's findings feed the loop's
//!    stopping condition.

use crate::context::PipelineContext;
use crate::engine;
use crate::pipeline::{Pipeline, RunReport};
use metamess_core::error::Result;
use metamess_discover::RuleProposal;
use metamess_vocab::AmbiguityDecision;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Curator policy knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CuratorPolicy {
    /// Minimum confidence to auto-accept a discovered rule.
    pub min_confidence: f64,
    /// Only accept rules whose canonical pick is already a vocabulary term
    /// (otherwise the cluster is left for manual review).
    pub require_known_canonical: bool,
    /// Context → canonical map applied to ambiguous *temperature-like*
    /// names ("clarify where possible").
    pub ambiguity_contexts: BTreeMap<String, String>,
    /// Curator domain knowledge: `(canonical, variant)` pairs entered by
    /// hand during process improvement — the poster's literal example of
    /// "adding entries to a synonym table". Applied to names that are still
    /// unresolved after discovery.
    pub manual_synonyms: Vec<(String, String)>,
    /// Maximum curation iterations before giving up.
    pub max_iterations: usize,
}

impl Default for CuratorPolicy {
    fn default() -> Self {
        let mut ambiguity_contexts = BTreeMap::new();
        ambiguity_contexts.insert("met_station".to_string(), "air_temperature".to_string());
        ambiguity_contexts.insert("buoy".to_string(), "water_temperature".to_string());
        ambiguity_contexts.insert("ctd".to_string(), "water_temperature".to_string());
        ambiguity_contexts.insert("glider".to_string(), "water_temperature".to_string());
        CuratorPolicy {
            min_confidence: 0.55,
            require_known_canonical: true,
            ambiguity_contexts,
            manual_synonyms: Vec::new(),
            max_iterations: 6,
        }
    }
}

/// What one curation iteration did.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CurationStep {
    /// Iteration number (1-based).
    pub iteration: usize,
    /// Proposals reviewed.
    pub reviewed: usize,
    /// Proposals accepted into the vocabulary.
    pub accepted: usize,
    /// Ambiguous names clarified.
    pub clarified: usize,
    /// Unresolved variable occurrences after this iteration.
    pub unresolved_after: usize,
    /// Catalog resolution fraction after this iteration.
    pub resolution_after: f64,
    /// Validation warnings outstanding.
    pub warnings: usize,
}

/// The iterated run/improve/rerun loop.
pub struct CurationLoop {
    /// Policy used each iteration.
    pub policy: CuratorPolicy,
}

impl CurationLoop {
    /// Creates a loop with a policy.
    pub fn new(policy: CuratorPolicy) -> CurationLoop {
        CurationLoop { policy }
    }

    /// Reviews the context's proposals: accepted ones move to
    /// `ctx.accepted` *and* their variants are recorded in the synonym
    /// table (process improvement). Returns `(reviewed, accepted)`.
    pub fn review_proposals(&self, ctx: &mut PipelineContext) -> (usize, usize) {
        let proposals: Vec<RuleProposal> = std::mem::take(&mut ctx.proposals);
        let reviewed = proposals.len();
        let mut accepted = Vec::new();
        for p in proposals {
            if p.confidence < self.policy.min_confidence {
                continue;
            }
            let canonical = match ctx.vocab.synonyms.resolve(&p.to) {
                Some((c, _)) => c.to_string(),
                None if self.policy.require_known_canonical => continue,
                None => p.to.clone(),
            };
            let mut usable = false;
            for variant in &p.from {
                if ctx.vocab.synonyms.contains(variant) {
                    continue;
                }
                if ctx.vocab.synonyms.add_alternate(&canonical, variant.clone()).is_ok() {
                    usable = true;
                    ctx.discovered_provenance
                        .insert(metamess_core::text::normalize_term(variant), p.method.clone());
                }
            }
            if usable {
                accepted.push(p);
            }
        }
        let n = accepted.len();
        ctx.accepted = accepted;
        (reviewed, n)
    }

    /// Clarifies every undecided ambiguous name that looks temperature-like
    /// using the policy's context map; leaves others exposed.
    pub fn clarify_ambiguities(&self, ctx: &mut PipelineContext) -> usize {
        let undecided: Vec<String> =
            ctx.vocab.registry.undecided().map(|e| e.name.clone()).collect();
        let mut n = 0;
        for name in undecided {
            let entry_candidates: Vec<String> = ctx
                .vocab
                .registry
                .ambiguous_entries()
                .find(|e| e.name == name)
                .map(|e| e.candidates.clone())
                .unwrap_or_default();
            // clarify when the context map's targets include at least one
            // candidate meaning — the curator knows these contexts
            let applicable = entry_candidates
                .iter()
                .any(|c| self.policy.ambiguity_contexts.values().any(|v| v == c));
            if applicable {
                ctx.vocab.registry.decide_ambiguous(
                    &name,
                    AmbiguityDecision::Clarified(self.policy.ambiguity_contexts.clone()),
                );
                n += 1;
            }
        }
        n
    }

    /// Expands `ATastn`-style abbreviations: an unresolved name consisting
    /// of uppercase initials (optionally suffixed `astn`, "at station") is
    /// matched against the initials of every canonical term's tokens; a
    /// unique hit becomes a synonym-table entry. This is the scripted
    /// version of the curator hand-entering the poster's
    /// `ATastn → sea surface temperature` rule.
    pub fn resolve_abbreviations(&self, ctx: &mut PipelineContext) -> usize {
        use metamess_core::text::split_identifier;
        // initials → canonical term (None marks an ambiguous collision)
        let mut by_initials: BTreeMap<String, Option<String>> = BTreeMap::new();
        for term in ctx.vocab.synonyms.preferred_terms() {
            let initials: String = split_identifier(term)
                .iter()
                .filter_map(|t| t.chars().next())
                .collect::<String>()
                .to_ascii_uppercase();
            if initials.is_empty() {
                continue;
            }
            by_initials
                .entry(initials)
                .and_modify(|e| *e = None)
                .or_insert_with(|| Some(term.to_string()));
        }
        let mut unresolved: Vec<String> = Vec::new();
        for d in ctx.catalog.iter() {
            for v in &d.variables {
                if v.resolution.is_resolved() || v.flags.qa || v.flags.hidden {
                    continue;
                }
                if !unresolved.contains(&v.name) {
                    unresolved.push(v.name.clone());
                }
            }
        }
        let mut n = 0;
        for name in unresolved {
            let stem = name.strip_suffix("astn").unwrap_or(&name);
            if stem.is_empty()
                || !stem.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit())
            {
                continue;
            }
            match by_initials.get(stem) {
                Some(Some(canonical)) => {
                    let canonical = canonical.clone();
                    if ctx.vocab.synonyms.add_alternate(&canonical, name.clone()).is_ok() {
                        n += 1;
                    }
                }
                Some(None) => {
                    // collided initials: several canonical terms share them —
                    // expose as ambiguous for the human curator
                    let candidates: Vec<String> = ctx
                        .vocab
                        .synonyms
                        .preferred_terms()
                        .filter(|t| {
                            let ini: String = split_identifier(t)
                                .iter()
                                .filter_map(|x| x.chars().next())
                                .collect::<String>()
                                .to_ascii_uppercase();
                            ini == *stem
                        })
                        .map(str::to_string)
                        .collect();
                    let refs: Vec<&str> = candidates.iter().map(String::as_str).collect();
                    ctx.vocab.registry.note_ambiguous(&name, &refs);
                }
                None => {}
            }
        }
        n
    }

    /// Applies the policy's hand-entered synonym pairs to names that are
    /// still unresolved (curatorial activity 3). Returns entries applied.
    pub fn apply_manual_synonyms(&self, ctx: &mut PipelineContext) -> usize {
        if self.policy.manual_synonyms.is_empty() {
            return 0;
        }
        let mut unresolved: std::collections::BTreeSet<String> = Default::default();
        for d in ctx.catalog.iter() {
            for v in &d.variables {
                if !(v.resolution.is_resolved() || v.flags.qa || v.flags.hidden) {
                    unresolved.insert(v.name.clone());
                }
            }
        }
        let mut n = 0;
        for (canonical, variant) in &self.policy.manual_synonyms {
            if !unresolved.contains(variant) {
                continue;
            }
            let added = !ctx.vocab.synonyms.contains(variant)
                && ctx.vocab.synonyms.add_alternate(canonical, variant.clone()).is_ok();
            // a manual entry also settles any ambiguity exposure on the name:
            // the curator just told us what it means
            let was_ambiguous = ctx.vocab.registry.ambiguous_entries().any(|e| e.name == *variant);
            if was_ambiguous {
                let mut map = BTreeMap::new();
                map.insert(String::new(), canonical.clone());
                ctx.vocab.registry.decide_ambiguous(variant, AmbiguityDecision::Clarified(map));
            }
            if added || was_ambiguous {
                n += 1;
            }
        }
        n
    }

    fn unresolved_count(ctx: &PipelineContext) -> usize {
        ctx.catalog
            .iter()
            .flat_map(|d| d.variables.iter())
            .filter(|v| !(v.resolution.is_resolved() || v.flags.qa || v.flags.hidden))
            .count()
    }

    /// Entries and candidates of the vocabulary's ambiguity registry: a
    /// name the curator exposes as ambiguous grows it.
    fn exposures(ctx: &PipelineContext) -> usize {
        ctx.vocab.registry.ambiguous_entries().map(|e| 1 + e.candidates.len()).sum()
    }

    /// Rescans the archive once, then runs the pipeline repeatedly over that
    /// listing, curating between runs, until no iteration makes progress
    /// (or the iteration cap is hit). Returns the per-iteration history and
    /// the report of the last run. The ledger then names the catalog the
    /// loop ended with.
    pub fn run_to_fixpoint(
        &self,
        pipeline: &mut Pipeline,
        ctx: &mut PipelineContext,
    ) -> Result<(Vec<CurationStep>, RunReport)> {
        ctx.rescan()?;
        let out = self.fixpoint(pipeline, ctx)?;
        engine::name_catalog(ctx);
        Ok(out)
    }

    /// [`CurationLoop::run_to_fixpoint`] over the listing `ctx` already
    /// holds, reading no archive and naming no catalog.
    ///
    /// A curator step that accepts, clarifies and exposes nothing changes
    /// nothing the chain reads: the vocabulary, the discovery provenance and
    /// the catalog stay as the last run left them, and the accepted rules
    /// are none, so perform-discovered-transformations would find nothing to
    /// apply. Every stage is idempotent on its own output, so running the
    /// chain again could change nothing, and the loop stops before it.
    pub(crate) fn fixpoint(
        &self,
        pipeline: &mut Pipeline,
        ctx: &mut PipelineContext,
    ) -> Result<(Vec<CurationStep>, RunReport)> {
        let mut history = Vec::new();
        let mut last_report = pipeline.run_scanned(ctx)?;
        for iteration in 1..=self.policy.max_iterations {
            let before_unresolved = Self::unresolved_count(ctx);
            let before_exposures = Self::exposures(ctx);
            let (reviewed, accepted) = self.review_proposals(ctx);
            let clarified = self.clarify_ambiguities(ctx);
            let abbreviations = self.resolve_abbreviations(ctx);
            let manual = self.apply_manual_synonyms(ctx);
            // clarified ambiguities must be re-exposed to known transforms
            if clarified > 0 {
                ctx.catalog.map_descriptors(|v, _, _| {
                    (v.flags.ambiguous && !v.resolution.is_resolved()).then(|| {
                        let mut d = v.clone();
                        d.flags.ambiguous = false; // re-evaluate next run
                        d
                    })
                });
            }
            let improved = accepted + clarified + abbreviations + manual > 0;
            if improved {
                ctx.vocab.bump_version();
            }
            if improved || Self::exposures(ctx) != before_exposures {
                last_report = pipeline.run_scanned(ctx)?;
            }
            let unresolved_after = Self::unresolved_count(ctx);
            history.push(CurationStep {
                iteration,
                reviewed,
                accepted: accepted + abbreviations + manual,
                clarified,
                unresolved_after,
                resolution_after: ctx.catalog.resolution_fraction(),
                warnings: ctx.findings.len(),
            });
            if !improved && unresolved_after >= before_unresolved {
                break;
            }
        }
        Ok((history, last_report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArchiveInput;
    use metamess_archive::{generate, ArchiveSpec};
    use metamess_vocab::Vocabulary;

    fn ctx(spec: &ArchiveSpec) -> PipelineContext {
        let archive = generate(spec);
        PipelineContext::new(ArchiveInput::Memory(archive.files), Vocabulary::observatory_default())
    }

    #[test]
    fn curation_loop_converges_and_improves() {
        let mut c = ctx(&ArchiveSpec::default());
        let mut p = Pipeline::standard();
        let curator = CurationLoop::new(CuratorPolicy::default());
        let (history, last) = curator.run_to_fixpoint(&mut p, &mut c).unwrap();
        assert!(!history.is_empty());
        // unresolved count is non-increasing across iterations
        for w in history.windows(2) {
            assert!(w[1].unresolved_after <= w[0].unresolved_after, "{history:?}");
        }
        let final_res = history.last().unwrap().resolution_after;
        assert!(final_res > 0.85, "resolution only reached {final_res}: {history:?}");
        // the loop actually accepted discoveries and clarified ambiguity
        assert!(history.iter().map(|h| h.accepted).sum::<usize>() > 0);
        assert!(history.iter().map(|h| h.clarified).sum::<usize>() > 0);
        assert!(last.stage("publish").is_some());
        // vocabulary grew
        assert!(c.vocab.version > 1);
    }

    #[test]
    fn accepted_variants_become_synonyms() {
        let mut c = ctx(&ArchiveSpec::default());
        let mut p = Pipeline::standard();
        p.run(&mut c).unwrap();
        let curator = CurationLoop::new(CuratorPolicy::default());
        let (reviewed, accepted) = curator.review_proposals(&mut c);
        assert!(reviewed > 0);
        assert!(accepted > 0);
        // every accepted variant now resolves
        for p in &c.accepted {
            for from in &p.from {
                assert!(c.vocab.synonyms.contains(from), "{from} not added");
            }
        }
    }

    #[test]
    fn low_threshold_accepts_more() {
        let mut c1 = ctx(&ArchiveSpec::default());
        Pipeline::standard().run(&mut c1).unwrap();
        let mut c2 = PipelineContext::new(c1.archive.clone(), Vocabulary::observatory_default());
        Pipeline::standard().run(&mut c2).unwrap();

        let strict =
            CurationLoop::new(CuratorPolicy { min_confidence: 0.95, ..CuratorPolicy::default() });
        let lax =
            CurationLoop::new(CuratorPolicy { min_confidence: 0.05, ..CuratorPolicy::default() });
        let (_, a_strict) = strict.review_proposals(&mut c1);
        let (_, a_lax) = lax.review_proposals(&mut c2);
        assert!(a_lax >= a_strict, "{a_lax} < {a_strict}");
    }

    /// The curator's full domain knowledge: every ad-hoc spelling the field
    /// techs use, as `(canonical, variant)` pairs.
    fn domain_knowledge() -> Vec<(String, String)> {
        let canons = [
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
        ];
        let mut out = Vec::new();
        for c in canons {
            for v in metamess_archive::adhoc_synonyms(c) {
                out.push((c.to_string(), v.to_string()));
            }
        }
        out
    }

    #[test]
    fn manual_synonyms_close_the_remaining_gap() {
        let mut c = ctx(&ArchiveSpec::default());
        let mut p = Pipeline::standard();
        let policy = CuratorPolicy { manual_synonyms: domain_knowledge(), ..Default::default() };
        let curator = CurationLoop::new(policy);
        let (history, _) = curator.run_to_fixpoint(&mut p, &mut c).unwrap();
        let final_res = history.last().unwrap().resolution_after;
        // with domain knowledge the mess all but disappears
        assert!(final_res > 0.96, "resolution only reached {final_res}: {history:?}");
        // What remains is dominated by the collided abbreviations (exposed
        // as ambiguous for the human curator); a stray undiscoverable typo
        // may also survive — that tail is the honest residue of curation.
        let mut astn_exposed = 0usize;
        let mut other = 0usize;
        for d in c.catalog.iter() {
            for v in &d.variables {
                if !(v.resolution.is_resolved() || v.flags.qa || v.flags.hidden) {
                    if v.name.ends_with("astn") && v.flags.ambiguous {
                        astn_exposed += 1;
                    } else {
                        other += 1;
                    }
                }
            }
        }
        assert!(astn_exposed > 0, "collided abbreviations should be exposed");
        assert!(other <= 3, "too many non-abbreviation leftovers: {other}");
    }

    #[test]
    fn the_default_curator_reaches_its_fixpoint_in_three_iterations() {
        // E7's default profile: the loop converges within three iterations
        // and never leaves more names unresolved than the run before it
        let mut c = ctx(&ArchiveSpec::default());
        let mut p = Pipeline::standard();
        let curator = CurationLoop::new(CuratorPolicy::default());
        let before = {
            let mut first = ctx(&ArchiveSpec::default());
            Pipeline::standard().run(&mut first).unwrap();
            CurationLoop::unresolved_count(&first)
        };
        let (history, _) = curator.run_to_fixpoint(&mut p, &mut c).unwrap();
        assert!(!history.is_empty() && history.len() <= 3, "{history:?}");
        let mut unresolved = before;
        for step in &history {
            assert!(step.unresolved_after <= unresolved, "{before} before the loop: {history:?}");
            unresolved = step.unresolved_after;
        }
        // the last iteration is the one that changed nothing
        let last = history.last().unwrap();
        assert_eq!((last.accepted, last.clarified), (0, 0), "{history:?}");
    }

    #[test]
    fn a_fixpoint_over_a_held_listing_walks_no_archive() {
        let dir = std::env::temp_dir().join(format!("mm-curator-held-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let archive = generate(&ArchiveSpec::tiny());
        archive.write_to(&dir).unwrap();
        let mut c =
            PipelineContext::new(ArchiveInput::Dir(dir.clone()), Vocabulary::observatory_default());
        let mut p = Pipeline::standard();
        let curator = CurationLoop::new(CuratorPolicy::default());
        curator.run_to_fixpoint(&mut p, &mut c).unwrap();
        let fp = c.catalog.content_fingerprint();
        c.rescan().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        // the chain runs over the held listing: every file that parsed is
        // reused unread, and those that never parsed are reported as the
        // last scan found them, unread too
        let (history, last) = curator.fixpoint(&mut p, &mut c).unwrap();
        assert_eq!(history.len(), 1, "{history:?}");
        let scan = last.stage("scan-archive").unwrap();
        assert_eq!(scan.changed, 0, "{:?}", scan.notes);
        assert_eq!(scan.errors.len(), archive.truth.malformed.len(), "{:?}", scan.errors);
        assert_eq!(c.catalog.content_fingerprint(), fp);
        // the entry point walks the archive, and there is none
        assert!(curator.run_to_fixpoint(&mut p, &mut c).is_err());
    }

    #[test]
    fn a_name_exposed_in_a_step_that_accepts_nothing_is_flagged_before_the_loop_stops() {
        let mut files = generate(&ArchiveSpec::tiny()).files;
        let mut c = PipelineContext::new(
            ArchiveInput::Memory(files.clone()),
            Vocabulary::observatory_default(),
        );
        let mut p = Pipeline::standard();
        let curator = CurationLoop::new(CuratorPolicy::default());
        curator.run_to_fixpoint(&mut p, &mut c).unwrap();
        // an upload whose only new name abbreviates two canonical terms
        // (water_pressure, wave_period): the curator accepts nothing and
        // exposes the name as ambiguous, which the chain must see
        let upload = "extra/upload.csv";
        files.push((upload.into(), "time,WPastn\n2010-01-01T00:00:00Z,3.5\n".into()));
        c.archive = ArchiveInput::Memory(files);
        let (history, _) = curator.run_to_fixpoint(&mut p, &mut c).unwrap();
        assert_eq!(history.iter().map(|h| h.accepted + h.clarified).sum::<usize>(), 0);
        assert!(c.vocab.registry.ambiguous_entries().any(|e| e.name == "WPastn"));
        let v = c.catalog.get_by_path(upload).unwrap().variable("WPastn").unwrap();
        assert!(v.flags.ambiguous, "{v:?}");
    }

    #[test]
    fn fixpoint_reached_quickly_on_clean_archive() {
        // with no mess, the loop stops after one unproductive iteration
        let spec = ArchiveSpec {
            mess: metamess_archive::MessIntensity {
                misspelling: 0.0,
                synonym: 0.0,
                abbreviation: 0.0,
                excessive: 0.0,
                ambiguous: 0.0,
            },
            ..ArchiveSpec::tiny()
        };
        let mut c = ctx(&spec);
        let mut p = Pipeline::standard();
        let curator = CurationLoop::new(CuratorPolicy::default());
        let (history, _) = curator.run_to_fixpoint(&mut p, &mut c).unwrap();
        assert!(history.len() <= 2, "{history:?}");
    }
}
