//! The concrete components of the poster's process figure:
//! scan archive → perform known transformations → add external metadata →
//! discover transformations → perform discovered transformations →
//! generate hierarchies → (validate) → publish.
//!
//! Each component borrows the context fields it reads and writes directly.
//! Every stage is idempotent on its own output: run again over what it left,
//! it changes nothing.

use crate::component::{Component, StageReport};
use crate::context::{PipelineContext, Severity};
use metamess_core::catalog::Catalog;
use metamess_core::error::Result;
use metamess_core::feature::{NameResolution, VariableDescriptor};
use metamess_core::text::normalize_term;
use metamess_core::value::Record;
use metamess_core::DatasetId;
use metamess_discover::{
    clusters_to_rules, key_collision_clusters, knn_clusters, KeyMethod, KnnConfig, ValueCount,
};
use metamess_harvest::harvest;
use metamess_transform::apply_operations;
use metamess_vocab::VariableResolution;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Stage 1: harvest the archive's listing (the context's last rescan) into
/// the working catalog (incremental on rerun — unchanged files keep their
/// features, files gone from the archive are pruned).
#[derive(Debug, Default)]
pub struct ScanArchive;

impl Component for ScanArchive {
    fn name(&self) -> &'static str {
        "scan-archive"
    }

    fn run(&mut self, ctx: &mut PipelineContext) -> Result<StageReport> {
        let mut report = StageReport::new(self.name());
        // the working catalog is only consulted as a reuse cache: a file
        // whose content is unchanged keeps its feature, unparsed, and one
        // whose content failed to parse is reported again, unread
        let hr = harvest(&ctx.archive, &ctx.listing, &ctx.harvest, Some(&ctx.catalog), &ctx.failed);
        report.processed = hr.scanned as u64;
        report.changed = hr.features.len() as u64;
        report.note(format!(
            "{} new/changed, {} reused, {} errors",
            hr.features.len(),
            hr.reused.len(),
            hr.errors.len()
        ));
        for e in &hr.errors {
            report.errors.push(format!("{}: {}", e.rel_path, e.message));
        }
        // Replace working entries for scanned files; keep previously
        // harvested, unchanged ones (they are in `reused`); drop entries for
        // files the scan no longer produced (removed, excluded by config, or
        // no longer parseable) so working mirrors the archive exactly.
        let keep: BTreeSet<DatasetId> =
            hr.features.iter().map(|f| f.id).chain(hr.reused.iter().copied()).collect();
        let working = &mut ctx.catalog;
        let stale: Vec<DatasetId> =
            working.iter().map(|d| d.id).filter(|id| !keep.contains(id)).collect();
        for id in &stale {
            working.delete(*id);
        }
        if !stale.is_empty() {
            report.note(format!("{} removed (no longer in archive)", stale.len()));
        }
        for f in hr.features {
            working.put(f);
        }
        report.resolution_after = working.resolution_fraction();
        ctx.failed = hr.errors;
        Ok(report)
    }
}

/// Detects whether a short name is ambiguous against the vocabulary: it is
/// not directly resolvable, and at least two canonical terms contain a
/// token the name prefixes (e.g. `temp` → `air_temperature`,
/// `water_temperature`).
pub fn detect_ambiguity(name: &str, vocab: &metamess_vocab::Vocabulary) -> Vec<String> {
    let n = normalize_term(name);
    if n.len() < 3 || vocab.synonyms.contains(&n) {
        return Vec::new();
    }
    let candidates = vocab.synonyms.extending_token(&n);
    if candidates.len() >= 2 {
        candidates.into_iter().map(String::from).collect()
    } else {
        Vec::new()
    }
}

/// Stage 2: perform known transformations — the translation table plus the
/// registry's QA / context / ambiguity knowledge, and unit canonicalization.
#[derive(Debug, Default)]
pub struct PerformKnownTransformations;

impl Component for PerformKnownTransformations {
    fn name(&self) -> &'static str {
        "perform-known-transformations"
    }

    fn run(&mut self, ctx: &mut PipelineContext) -> Result<StageReport> {
        let mut report = StageReport::new(self.name());
        // First pass: note newly detected ambiguous names in the registry so
        // verdicts are consistent across datasets, each name once.
        let mut seen: HashSet<&str> = HashSet::new();
        let mut to_note: Vec<(String, Vec<String>)> = Vec::new();
        for d in ctx.catalog.iter() {
            for v in &d.variables {
                if !unresolved(v) || !seen.insert(&v.name) {
                    continue;
                }
                let candidates = detect_ambiguity(&v.name, &ctx.vocab);
                if !candidates.is_empty() {
                    to_note.push((v.name.clone(), candidates));
                }
            }
        }
        for (name, candidates) in to_note {
            let refs: Vec<&str> = candidates.iter().map(String::as_str).collect();
            ctx.vocab.registry.note_ambiguous(&name, &refs);
        }

        let (working, vocab, provenance) =
            (&mut ctx.catalog, &ctx.vocab, &ctx.discovered_provenance);
        working.map_descriptors(|v, context, holders| {
            let n = holders as u64;
            report.processed += n;
            // canonical units are cheap and independent of names
            let unit = match (&v.canonical_unit, &v.unit) {
                (None, Some(u)) => vocab.units.resolve(u),
                _ => None,
            };
            if unit.is_none() && !unresolved(v) {
                return None;
            }
            let mut d = v.clone();
            if let Some(def) = unit {
                d.canonical_unit = Some(def.name.clone());
            }
            if !unresolved(&d) {
                return Some(d);
            }
            match vocab.resolve_variable(&d.name, context) {
                VariableResolution::Canonical(c) => {
                    d.resolve(c, NameResolution::AlreadyCanonical);
                    report.changed += n;
                }
                VariableResolution::Translated(c) => {
                    // entries that reached the table through discovery keep
                    // their discovery provenance
                    let how = match provenance.get(&normalize_term(&d.name)) {
                        Some(method) => {
                            NameResolution::DiscoveredTranslation { method: method.clone() }
                        }
                        None => NameResolution::KnownTranslation,
                    };
                    d.resolve(c, how);
                    report.changed += n;
                }
                VariableResolution::Qa => {
                    d.flags.qa = true;
                    report.changed += n;
                }
                VariableResolution::Ambiguous { .. } => {
                    if !d.flags.ambiguous {
                        d.flags.ambiguous = true;
                        report.changed += n;
                    }
                }
                VariableResolution::Hidden => {
                    d.flags.hidden = true;
                    report.changed += n;
                }
                VariableResolution::LeaveAsIs => {
                    let name = d.name.clone();
                    d.resolve(name, NameResolution::Curated);
                    report.changed += n;
                }
                VariableResolution::Unknown => {}
            }
            // a clarified ambiguity clears the exposure flag
            if d.flags.ambiguous && d.resolution.is_resolved() {
                d.flags.ambiguous = false;
            }
            Some(d)
        });
        report.note(format!(
            "{} ambiguous names awaiting curator",
            vocab.registry.undecided().count()
        ));
        report.resolution_after = working.resolution_fraction();
        Ok(report)
    }
}

/// Unit normalization: converts variable summaries whose declared unit is a
/// non-canonical spelling of a convertible dimension into the dimension's
/// search unit, so a query "temperature between 5 and 10 (°C)" ranks a
/// Fahrenheit-logging station correctly.
///
/// Currently temperature is the only dimension with a forced search unit
/// (celsius); other dimensions only get canonical *labels*.
#[derive(Debug, Default)]
pub struct NormalizeUnits;

impl Component for NormalizeUnits {
    fn name(&self) -> &'static str {
        "normalize-units"
    }

    fn run(&mut self, ctx: &mut PipelineContext) -> Result<StageReport> {
        let mut report = StageReport::new(self.name());
        let (working, vocab) = (&mut ctx.catalog, &ctx.vocab);
        // each converted unit spelling: its affine map, and the conversion
        let mut affine: HashMap<String, ((f64, f64), String)> = HashMap::new();
        let mut failed = Ok(());
        let moved = working.map_descriptors(|v, _, holders| {
            if v.unit_normalized || failed.is_err() {
                return None;
            }
            report.processed += holders as u64;
            let mut d = v.clone();
            d.unit_normalized = true;
            let Some(raw_unit) = &v.unit else { return Some(d) };
            let def = vocab.units.resolve(raw_unit)?;
            let target = match def.dimension {
                metamess_vocab::Dimension::Temperature => "celsius",
                _ => &def.name,
            };
            if def.name != target {
                match vocab.units.affine_to(raw_unit, target) {
                    Ok(ab) => {
                        affine.insert(raw_unit.clone(), (ab, format!("{} -> {target}", def.name)))
                    }
                    Err(e) => {
                        failed = Err(e);
                        return None;
                    }
                };
                report.changed += holders as u64;
            }
            d.canonical_unit = Some(target.to_string());
            Some(d)
        });
        // the numbers of the variables whose unit converted
        for (id, ix) in moved {
            let d = working.get_mut(id).expect("a moved variable's dataset");
            let v = &mut d.variables[ix];
            if let Some(((a, b), conversion)) = v.unit.as_ref().and_then(|u| affine.get(u)) {
                v.summary.affine_transform(*a, *b);
                report.note(format!("{}/{}: {conversion}", d.path, v.name));
            }
        }
        failed?;
        report.resolution_after = working.resolution_fraction();
        Ok(report)
    }
}

/// Stage 3: add external metadata — merge curated source-level key/values
/// (PI, institution, instrument notes) into dataset features.
#[derive(Debug, Default)]
pub struct AddExternalMetadata;

impl Component for AddExternalMetadata {
    fn name(&self) -> &'static str {
        "add-external-metadata"
    }

    fn run(&mut self, ctx: &mut PipelineContext) -> Result<StageReport> {
        let mut report = StageReport::new(self.name());
        let (working, external) = (&mut ctx.catalog, &ctx.external);
        for d in working.iter_mut() {
            report.processed += 1;
            let Some(source) = &d.source else { continue };
            let Some(kv) = external.get(source) else { continue };
            let mut changed = false;
            for (k, v) in kv {
                if d.external.get(k) != Some(v) {
                    d.external.insert(k.clone(), v.clone());
                    changed = true;
                }
            }
            if changed {
                report.changed += 1;
            }
        }
        report.resolution_after = working.resolution_fraction();
        Ok(report)
    }
}

/// Configuration of the discovery stage.
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// Key-collision methods to run.
    pub key_methods: Vec<KeyMethod>,
    /// Nearest-neighbour configuration; `None` disables kNN.
    pub knn: Option<KnnConfig>,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            key_methods: vec![
                KeyMethod::IdentifierFingerprint,
                KeyMethod::NgramFingerprint { n: 2 },
                KeyMethod::Metaphone,
            ],
            knn: Some(KnnConfig::default()),
        }
    }
}

/// Stage 4: discover transformations — cluster the names that known
/// transformations left unresolved ("the mess that's left"), anchored by
/// the already-resolved canonical spellings, and emit rule proposals.
#[derive(Debug, Default)]
pub struct DiscoverTransformations {
    /// Clustering configuration.
    pub config: DiscoveryConfig,
}

impl DiscoverTransformations {
    /// Builds the value pool: unresolved harvested names with counts, plus
    /// resolved canonical names as high-count anchors.
    fn value_pool(working: &Catalog) -> Vec<ValueCount> {
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        for d in working.iter() {
            for v in &d.variables {
                if v.flags.qa || v.flags.hidden || v.flags.ambiguous {
                    continue;
                }
                match (&v.resolution.is_resolved(), &v.canonical_name) {
                    (true, Some(c)) => *counts.entry(c.clone()).or_insert(0) += 1,
                    _ => *counts.entry(v.name.clone()).or_insert(0) += 1,
                }
            }
        }
        counts.into_iter().map(|(value, count)| ValueCount { value, count }).collect()
    }
}

impl Component for DiscoverTransformations {
    fn name(&self) -> &'static str {
        "discover-transformations"
    }

    fn run(&mut self, ctx: &mut PipelineContext) -> Result<StageReport> {
        let mut report = StageReport::new(self.name());
        let pool = Self::value_pool(&ctx.catalog);
        report.processed = pool.len() as u64;

        let mut clusters = Vec::new();
        for m in &self.config.key_methods {
            clusters.extend(key_collision_clusters(&pool, *m));
        }
        if let Some(knn) = &self.config.knn {
            clusters.extend(knn_clusters(&pool, knn));
        }
        let mut proposals = clusters_to_rules(&clusters, "field");
        // Drop proposals whose variants are all already known to the
        // vocabulary, and dedupe by (to, from) signature.
        let vocab = &ctx.vocab;
        let mut seen: BTreeSet<String> = Default::default();
        proposals.retain(|p| {
            let any_new = p.from.iter().any(|f| !vocab.synonyms.contains(f));
            let sig = format!("{}→{}", p.from.join(","), p.to);
            any_new && seen.insert(sig)
        });
        report.changed = proposals.len() as u64;
        report.note(format!("{} clusters, {} proposals", clusters.len(), proposals.len()));
        ctx.proposals = proposals;
        report.resolution_after = ctx.catalog.resolution_fraction();
        Ok(report)
    }
}

/// Stage 5: perform discovered transformations — run the accepted rules
/// against the metadata, Refine-style: the working catalog's variables are
/// exported as records, the `core/mass-edit` operations run over them, and
/// changed names are folded back as discovered translations.
#[derive(Debug, Default)]
pub struct PerformDiscoveredTransformations;

impl Component for PerformDiscoveredTransformations {
    fn name(&self) -> &'static str {
        "perform-discovered-transformations"
    }

    fn run(&mut self, ctx: &mut PipelineContext) -> Result<StageReport> {
        let mut report = StageReport::new(self.name());
        if ctx.accepted.is_empty() {
            report.note("no accepted proposals");
            report.resolution_after = ctx.catalog.resolution_fraction();
            return Ok(report);
        }
        // Export: one record per distinct unresolved name. The accepted
        // rules are facet-free mass-edits of `field`, so a rename depends
        // on the name alone.
        let mut names: BTreeSet<&str> = BTreeSet::new();
        for v in ctx.catalog.iter().flat_map(|d| &d.variables).filter(|v| unresolved(v)) {
            report.processed += 1;
            names.insert(&v.name);
        }
        let mut rows: Vec<Record> = names
            .iter()
            .map(|name| {
                let mut r = Record::new();
                r.set("field", name.to_string());
                r
            })
            .collect();
        let ops: Vec<metamess_transform::Operation> =
            ctx.accepted.iter().map(|p| p.operation.clone()).collect();
        let method_of: BTreeMap<String, String> =
            ctx.accepted.iter().map(|p| (p.to.clone(), p.method.clone())).collect();
        let apply = apply_operations(&mut rows, &ops)?;
        report.note(format!("{} names rewritten by {} rules", apply.total_changed(), ops.len()));
        let renamed: HashMap<String, String> = names
            .into_iter()
            .zip(rows)
            .filter_map(|(name, row)| {
                let new_name = row.get("field")?.as_text()?;
                (!new_name.is_empty() && new_name != name)
                    .then(|| (name.to_string(), new_name.to_string()))
            })
            .collect();

        // Fold back: a changed `field` is a discovered translation.
        let (working, vocab) = (&mut ctx.catalog, &ctx.vocab);
        let moved = working.map_descriptors(|v, _, _| {
            let new_name = renamed.get(&v.name).filter(|_| unresolved(v))?;
            // resolve the cluster pick through the synonym table when it is
            // an alternate spelling of a canonical term
            let canonical = vocab.synonyms.resolve(new_name).map_or(new_name.as_str(), |(c, _)| c);
            let method = method_of.get(new_name).cloned().unwrap_or_else(|| "unknown".into());
            let mut d = v.clone();
            d.resolve(canonical, NameResolution::DiscoveredTranslation { method });
            Some(d)
        });
        report.changed = moved.len() as u64;
        report.resolution_after = working.resolution_fraction();
        Ok(report)
    }
}

/// Whether discovery's rules may rename `v`: its name is neither resolved
/// nor flagged QA or hidden.
fn unresolved(v: &VariableDescriptor) -> bool {
    !(v.resolution.is_resolved() || v.flags.qa || v.flags.hidden)
}

/// Stage 6: generate hierarchies — assign each resolved variable its
/// taxonomy path ("configure: levels, aggregation").
#[derive(Debug, Default)]
pub struct GenerateHierarchies;

impl Component for GenerateHierarchies {
    fn name(&self) -> &'static str {
        "generate-hierarchies"
    }

    fn run(&mut self, ctx: &mut PipelineContext) -> Result<StageReport> {
        let mut report = StageReport::new(self.name());
        let (working, vocab) = (&mut ctx.catalog, &ctx.vocab);
        let moved = working.map_descriptors(|v, _, holders| {
            report.processed += holders as u64;
            let path = vocab.hierarchy_of(v.canonical_name.as_ref()?);
            (!path.is_empty() && v.hierarchy != path)
                .then(|| VariableDescriptor { hierarchy: path, ..v.clone() })
        });
        report.changed = moved.len() as u64;
        report.resolution_after = working.resolution_fraction();
        Ok(report)
    }
}

/// Stage 8: publish — the validation gate before the store write. It
/// copies nothing and writes no slot: the store is the published catalog,
/// and the store's row diff against the working catalog, taken after the
/// run, is the publish ([`crate::Watcher::run_cycle`]). With `strict`,
/// standing validation errors fail the run, so nothing reaches the store.
#[derive(Debug, Default)]
pub struct Publish {
    /// Refuse to publish while validation errors stand.
    pub strict: bool,
}

impl Component for Publish {
    fn name(&self) -> &'static str {
        "publish"
    }

    fn run(&mut self, ctx: &mut PipelineContext) -> Result<StageReport> {
        let mut report = StageReport::new(self.name());
        if self.strict {
            let errors: Vec<String> = ctx
                .findings
                .iter()
                .filter(|f| f.severity == Severity::Error)
                .map(|f| f.message.clone())
                .collect();
            if !errors.is_empty() {
                return Err(metamess_core::error::Error::validation(
                    "publish",
                    format!(
                        "{} validation errors block publish: {}",
                        errors.len(),
                        errors.join("; ")
                    ),
                ));
            }
        }
        report.processed = ctx.catalog.len() as u64;
        report.resolution_after = ctx.catalog.resolution_fraction();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PipelineContext;
    use crate::ArchiveInput;
    use metamess_archive::{generate, ArchiveSpec};
    use metamess_vocab::Vocabulary;

    fn ctx() -> PipelineContext {
        let archive = generate(&ArchiveSpec::tiny());
        PipelineContext::new(ArchiveInput::Memory(archive.files), Vocabulary::observatory_default())
    }

    #[test]
    fn scan_fills_working_catalog() {
        let mut c = ctx();
        let r = ScanArchive.run_standalone(&mut c).unwrap();
        assert!(!c.catalog.is_empty());
        assert_eq!(r.changed as usize, c.catalog.len());
        assert_eq!(r.errors.len(), 3); // the malformed files
        assert!(r.resolution_after < 0.2); // nothing resolved yet
    }

    #[test]
    fn rescan_prunes_removed_files() {
        let archive = generate(&ArchiveSpec::tiny());
        let mut files = archive.files;
        let mut c = PipelineContext::new(
            ArchiveInput::Memory(files.clone()),
            Vocabulary::observatory_default(),
        );
        ScanArchive.run_standalone(&mut c).unwrap();
        let before = c.catalog.len();
        // remove one harvested file from the archive
        let ix = files
            .iter()
            .position(|(p, _)| c.catalog.get_by_path(p).is_some())
            .expect("some file harvested");
        let removed = files.remove(ix).0;
        c.archive = ArchiveInput::Memory(files);
        let r = ScanArchive.run_standalone(&mut c).unwrap();
        assert_eq!(c.catalog.len(), before - 1);
        assert!(c.catalog.get_by_path(&removed).is_none());
        assert!(r.notes.iter().any(|n| n.contains("removed")), "{:?}", r.notes);
    }

    #[test]
    fn known_transformations_resolve_most_names() {
        let mut c = ctx();
        ScanArchive.run_standalone(&mut c).unwrap();
        let before = c.catalog.resolution_fraction();
        let r = PerformKnownTransformations.run_standalone(&mut c).unwrap();
        assert!(r.resolution_after > before);
        assert!(r.resolution_after > 0.5, "{}", r.resolution_after);
        // QA columns got flagged
        let qa_count: usize =
            c.catalog.iter().flat_map(|d| d.variables.iter()).filter(|v| v.flags.qa).count();
        assert!(qa_count > 0);
    }

    #[test]
    fn ambiguity_detected_for_temp() {
        let v = Vocabulary::observatory_default();
        let cands = detect_ambiguity("temp", &v);
        assert!(cands.len() >= 2, "{cands:?}");
        assert!(cands.iter().any(|c| c == "air_temperature"));
        assert!(cands.iter().any(|c| c == "water_temperature"));
        // resolvable names are not ambiguous
        assert!(detect_ambiguity("sal", &v).is_empty());
        // too short / nonsense
        assert!(detect_ambiguity("zz", &v).is_empty());
        assert!(detect_ambiguity("qqqq", &v).is_empty());
    }

    #[test]
    fn context_rule_beats_ambiguity_for_bare_temperature() {
        let mut c = ctx();
        ScanArchive.run_standalone(&mut c).unwrap();
        PerformKnownTransformations.run_standalone(&mut c).unwrap();
        // every bare `temperature` column resolved via its platform context
        for d in c.catalog.iter() {
            if let Some(v) = d.variable("temperature") {
                let ctx_kind = d.external.get("context").unwrap();
                let expect = match ctx_kind.as_str() {
                    "met_station" => "air_temperature",
                    _ => "water_temperature",
                };
                assert_eq!(v.canonical_name.as_deref(), Some(expect), "{}", d.path);
            }
        }
    }

    #[test]
    fn fahrenheit_station_normalized_to_celsius() {
        // stations=2, months=4: saturn02 (met) month index 3 hits the
        // Fahrenheit quirk ((si + m) % 5 == 4)
        let spec = ArchiveSpec { stations: 2, months: 4, ..ArchiveSpec::tiny() };
        let archive = generate(&spec);
        let f_truth = archive
            .truth
            .datasets
            .iter()
            .find(|d| d.path == "stations/saturn02/2010/04.csv")
            .expect("quirk file exists");
        let harvested = f_truth
            .variables
            .iter()
            .find(|v| v.canonical == "air_temperature")
            .map(|v| v.harvested.clone())
            .expect("air temperature present");

        let mut c = PipelineContext::new(
            ArchiveInput::Memory(archive.files),
            Vocabulary::observatory_default(),
        );
        ScanArchive.run_standalone(&mut c).unwrap();
        PerformKnownTransformations.run_standalone(&mut c).unwrap();
        // before normalization: range is in Fahrenheit (wintry PNW air ≈
        // 30–60 °F, far above plausible °C)
        let d = c.catalog.get_by_path("stations/saturn02/2010/04.csv").unwrap();
        let v = d.variable(&harvested).unwrap();
        assert_eq!(v.unit.as_deref(), Some("degF"));
        let (_, hi_f) = v.value_range().unwrap();
        assert!(hi_f > 35.0, "F range expected, got max {hi_f}");

        let report = NormalizeUnits.run_standalone(&mut c).unwrap();
        assert!(report.changed >= 1, "{report:?}");
        let d = c.catalog.get_by_path("stations/saturn02/2010/04.csv").unwrap();
        let v = d.variable(&harvested).unwrap();
        assert_eq!(v.canonical_unit.as_deref(), Some("celsius"));
        assert!(v.unit_normalized);
        let (lo_c, hi_c) = v.value_range().unwrap();
        assert!(lo_c > -20.0 && hi_c < 35.0, "C range expected, got {lo_c}..{hi_c}");
        // harvested unit string is preserved for provenance
        assert_eq!(v.unit.as_deref(), Some("degF"));

        // idempotent on rerun
        let report2 = NormalizeUnits.run_standalone(&mut c).unwrap();
        assert_eq!(report2.changed, 0);
        let d2 = c.catalog.get_by_path("stations/saturn02/2010/04.csv").unwrap();
        assert_eq!(d2.variable(&harvested).unwrap().value_range(), Some((lo_c, hi_c)));
    }

    #[test]
    fn celsius_variables_untouched_by_normalization() {
        let mut c = ctx();
        ScanArchive.run_standalone(&mut c).unwrap();
        PerformKnownTransformations.run_standalone(&mut c).unwrap();
        let before: Vec<Option<(f64, f64)>> = c
            .catalog
            .iter()
            .flat_map(|d| d.variables.iter())
            .filter(|v| v.unit.as_deref() == Some("degC"))
            .map(|v| v.value_range())
            .collect();
        NormalizeUnits.run_standalone(&mut c).unwrap();
        let after: Vec<Option<(f64, f64)>> = c
            .catalog
            .iter()
            .flat_map(|d| d.variables.iter())
            .filter(|v| v.unit.as_deref() == Some("degC"))
            .map(|v| v.value_range())
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn external_metadata_merged() {
        let mut c = ctx();
        ScanArchive.run_standalone(&mut c).unwrap();
        let mut kv = BTreeMap::new();
        kv.insert("principal_investigator".to_string(), "V. M. Megler".to_string());
        c.external.insert("saturn01".to_string(), kv);
        let r = AddExternalMetadata.run_standalone(&mut c).unwrap();
        assert!(r.changed > 0);
        let d = c.catalog.iter().find(|d| d.source.as_deref() == Some("saturn01")).unwrap();
        assert_eq!(
            d.external.get("principal_investigator").map(String::as_str),
            Some("V. M. Megler")
        );
        // idempotent
        let r2 = AddExternalMetadata.run_standalone(&mut c).unwrap();
        assert_eq!(r2.changed, 0);
    }

    #[test]
    fn discovery_proposes_rules_for_the_mess() {
        let mut c = ctx();
        ScanArchive.run_standalone(&mut c).unwrap();
        PerformKnownTransformations.run_standalone(&mut c).unwrap();
        let r = DiscoverTransformations::default().run_standalone(&mut c).unwrap();
        assert!(!c.proposals.is_empty(), "{:?}", r);
        // proposals are confidence-sorted and well-formed
        for w in c.proposals.windows(2) {
            assert!(w[0].confidence >= w[1].confidence);
        }
        for p in &c.proposals {
            assert!(!p.from.is_empty());
            assert!(!p.from.contains(&p.to));
        }
    }

    #[test]
    fn discovered_transformations_apply_and_resolve() {
        let mut c = ctx();
        ScanArchive.run_standalone(&mut c).unwrap();
        PerformKnownTransformations.run_standalone(&mut c).unwrap();
        DiscoverTransformations::default().run_standalone(&mut c).unwrap();
        let before = c.catalog.resolution_fraction();
        // accept everything whose pick is canonical in the vocabulary
        c.accepted =
            c.proposals.iter().filter(|p| c.vocab.synonyms.contains(&p.to)).cloned().collect();
        assert!(!c.accepted.is_empty());
        let r = PerformDiscoveredTransformations.run_standalone(&mut c).unwrap();
        assert!(r.changed > 0);
        assert!(r.resolution_after > before);
        // discovered variables carry method provenance
        let discovered = c
            .catalog
            .iter()
            .flat_map(|d| d.variables.iter())
            .find(|v| matches!(v.resolution, NameResolution::DiscoveredTranslation { .. }));
        assert!(discovered.is_some());
    }

    #[test]
    fn empty_accept_set_is_a_noop() {
        let mut c = ctx();
        ScanArchive.run_standalone(&mut c).unwrap();
        let r = PerformDiscoveredTransformations.run_standalone(&mut c).unwrap();
        assert_eq!(r.changed, 0);
    }

    #[test]
    fn hierarchies_assigned_to_resolved_variables() {
        let mut c = ctx();
        ScanArchive.run_standalone(&mut c).unwrap();
        PerformKnownTransformations.run_standalone(&mut c).unwrap();
        let r = GenerateHierarchies.run_standalone(&mut c).unwrap();
        assert!(r.changed > 0);
        let with_h = c
            .catalog
            .iter()
            .flat_map(|d| d.variables.iter())
            .filter(|v| !v.hierarchy.is_empty())
            .count();
        assert!(with_h > 0);
        // idempotent
        let r2 = GenerateHierarchies.run_standalone(&mut c).unwrap();
        assert_eq!(r2.changed, 0);
    }

    #[test]
    fn publish_promotes_and_strict_blocks_on_errors() {
        let mut c = ctx();
        ScanArchive.run_standalone(&mut c).unwrap();
        let r = Publish::default().run_standalone(&mut c).unwrap();
        assert_eq!(r.processed as usize, c.catalog.len());

        c.findings.push(crate::context::ValidationFinding {
            rule: "x".into(),
            severity: Severity::Error,
            path: None,
            message: "boom".into(),
        });
        let e = Publish { strict: true }.run_standalone(&mut c).unwrap_err();
        assert!(e.to_string().contains("block publish"));
    }

    #[test]
    fn rescan_is_incremental() {
        let mut c = ctx();
        ScanArchive.run_standalone(&mut c).unwrap();
        let r2 = ScanArchive.run_standalone(&mut c).unwrap();
        assert_eq!(r2.changed, 0); // everything reused
    }
}
