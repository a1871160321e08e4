//! The validation stage: curatorial activity 4.
//!
//! The poster's examples, verbatim: "verifying that all files in a
//! directory are of the same type; checking that all harvested variables
//! names occur in the current synonym table as preferred or alternate
//! terms; determining that expected datasets show up" — plus sanity checks
//! on the features themselves.

use crate::component::{Component, StageReport};
use crate::context::{PipelineContext, Severity, ValidationFinding};
use metamess_core::error::Result;
use std::collections::BTreeMap;

/// A single validation rule.
pub trait Validator {
    /// Rule name, shown in findings.
    fn rule(&self) -> &'static str;
    /// Checks the context, emitting findings.
    fn check(&self, ctx: &PipelineContext) -> Vec<ValidationFinding>;
}

/// "Verifying that all files in a directory are of the same type."
pub struct FileTypeUniformity;

impl Validator for FileTypeUniformity {
    fn rule(&self) -> &'static str {
        "file-type-uniformity"
    }

    fn check(&self, ctx: &PipelineContext) -> Vec<ValidationFinding> {
        let mut by_dir: BTreeMap<&str, BTreeMap<&str, usize>> = BTreeMap::new();
        for d in ctx.catalog.iter() {
            let dir = d.path.rsplit_once('/').map(|(dir, _)| dir).unwrap_or("");
            *by_dir.entry(dir).or_default().entry(d.provenance.format.as_str()).or_insert(0) += 1;
        }
        let mut out = Vec::new();
        for (dir, formats) in by_dir {
            if formats.len() > 1 {
                let detail: Vec<String> = formats.iter().map(|(f, n)| format!("{n} {f}")).collect();
                out.push(ValidationFinding {
                    rule: self.rule().into(),
                    severity: Severity::Warning,
                    path: Some(dir.to_string()),
                    message: format!("directory '{dir}' mixes formats: {}", detail.join(", ")),
                });
            }
        }
        out
    }
}

/// "Checking that all harvested variable names occur in the current synonym
/// table as preferred or alternate terms" — resolved, flagged, or known.
pub struct NamesInVocabulary;

impl Validator for NamesInVocabulary {
    fn rule(&self) -> &'static str {
        "names-in-vocabulary"
    }

    fn check(&self, ctx: &PipelineContext) -> Vec<ValidationFinding> {
        let mut out = Vec::new();
        for d in ctx.catalog.iter() {
            for v in &d.variables {
                let handled = v.resolution.is_resolved()
                    || v.flags.qa
                    || v.flags.hidden
                    || v.flags.ambiguous
                    || ctx.vocab.synonyms.contains(&v.name);
                if !handled {
                    out.push(ValidationFinding {
                        rule: self.rule().into(),
                        severity: Severity::Warning,
                        path: Some(d.path.clone()),
                        message: format!(
                            "variable '{}' is not in the synonym table (dataset {})",
                            v.name, d.path
                        ),
                    });
                }
            }
        }
        out
    }
}

/// "Determining that expected datasets show up."
pub struct ExpectedDatasets;

impl Validator for ExpectedDatasets {
    fn rule(&self) -> &'static str {
        "expected-datasets"
    }

    fn check(&self, ctx: &PipelineContext) -> Vec<ValidationFinding> {
        ctx.expected_datasets
            .iter()
            .filter(|p| ctx.catalog.get_by_path(p).is_none())
            .map(|p| ValidationFinding {
                rule: self.rule().into(),
                severity: Severity::Error,
                path: Some(p.clone()),
                message: format!("expected dataset '{p}' did not show up"),
            })
            .collect()
    }
}

/// Feature sanity: records present, plausible extents, unit known when
/// declared.
pub struct FeatureSanity;

impl Validator for FeatureSanity {
    fn rule(&self) -> &'static str {
        "feature-sanity"
    }

    fn check(&self, ctx: &PipelineContext) -> Vec<ValidationFinding> {
        let mut out = Vec::new();
        for d in ctx.catalog.iter() {
            if d.record_count == 0 {
                out.push(ValidationFinding {
                    rule: self.rule().into(),
                    severity: Severity::Warning,
                    path: Some(d.path.clone()),
                    message: format!("dataset {} has no data records", d.path),
                });
            }
            for v in &d.variables {
                if let Some(u) = &v.unit {
                    if v.canonical_unit.is_none() && !ctx.vocab.units.contains(u) {
                        out.push(ValidationFinding {
                            rule: self.rule().into(),
                            severity: Severity::Warning,
                            path: Some(d.path.clone()),
                            message: format!(
                                "unknown unit '{u}' on variable '{}' in {}",
                                v.name, d.path
                            ),
                        });
                    }
                }
            }
        }
        out
    }
}

/// The validation stage: runs a configurable set of validators.
pub struct Validate {
    /// Validators to run, in order.
    pub validators: Vec<Box<dyn Validator>>,
}

impl Default for Validate {
    fn default() -> Self {
        Validate {
            validators: vec![
                Box::new(FileTypeUniformity),
                Box::new(NamesInVocabulary),
                Box::new(ExpectedDatasets),
                Box::new(FeatureSanity),
            ],
        }
    }
}

impl Component for Validate {
    fn name(&self) -> &'static str {
        "validate"
    }

    fn run(&mut self, ctx: &mut PipelineContext) -> Result<StageReport> {
        let mut report = StageReport::new(self.name());
        ctx.findings.clear();
        for v in &self.validators {
            let findings = v.check(ctx);
            report.note(format!("{}: {} findings", v.rule(), findings.len()));
            ctx.findings.extend(findings);
        }
        report.processed = self.validators.len() as u64;
        report.changed = ctx.findings.len() as u64;
        report.resolution_after = ctx.catalog.resolution_fraction();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PipelineContext;
    use crate::stages::{PerformKnownTransformations, ScanArchive};
    use crate::ArchiveInput;
    use metamess_archive::{generate, ArchiveSpec};
    use metamess_vocab::Vocabulary;

    fn scanned_ctx() -> PipelineContext {
        let archive = generate(&ArchiveSpec::tiny());
        let mut c = PipelineContext::new(
            ArchiveInput::Memory(archive.files),
            Vocabulary::observatory_default(),
        );
        ScanArchive.run_standalone(&mut c).unwrap();
        c
    }

    #[test]
    fn names_in_vocabulary_flags_unresolved() {
        let mut c = scanned_ctx();
        let before = NamesInVocabulary.check(&c).len();
        assert!(before > 0);
        PerformKnownTransformations.run_standalone(&mut c).unwrap();
        let after = NamesInVocabulary.check(&c).len();
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn expected_datasets_missing_is_error() {
        let mut c = scanned_ctx();
        c.expected_datasets.push("stations/saturn01/2010/01.csv".into());
        c.expected_datasets.push("stations/ghost/2099/01.csv".into());
        let findings = ExpectedDatasets.check(&c);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].severity, Severity::Error);
        assert!(findings[0].message.contains("ghost"));
    }

    #[test]
    fn file_type_uniformity_detects_mixed_dirs() {
        let c = scanned_ctx();
        // saturn02's files alternate csv/cdl in the tiny archive
        let findings = FileTypeUniformity.check(&c);
        assert!(findings.iter().any(|f| f.message.contains("mixes formats")), "{findings:?}");
        // make all of one dir a single format: no finding for clean dirs
        let clean_dirs: Vec<String> = findings.iter().filter_map(|f| f.path.clone()).collect();
        assert!(!clean_dirs.is_empty());
    }

    #[test]
    fn feature_sanity_unknown_unit() {
        let mut c = scanned_ctx();
        // plant an unknown unit
        let id = c.catalog.iter().next().unwrap().id;
        c.catalog.get_mut(id).unwrap().variables[0].unit = Some("furlongs".into());
        c.catalog.get_mut(id).unwrap().variables[0].canonical_unit = None;
        let findings = FeatureSanity.check(&c);
        assert!(findings.iter().any(|f| f.message.contains("furlongs")));
    }

    #[test]
    fn validate_stage_aggregates() {
        let mut c = scanned_ctx();
        c.expected_datasets.push("nope.csv".into());
        let r = Validate::default().run_standalone(&mut c).unwrap();
        assert_eq!(r.processed, 4);
        assert!(c.findings.len() as u64 == r.changed);
        assert!(c.validation_errors().count() >= 1);
        // re-running replaces, not accumulates
        let before = c.findings.len();
        Validate::default().run_standalone(&mut c).unwrap();
        assert_eq!(c.findings.len(), before);
    }
}
