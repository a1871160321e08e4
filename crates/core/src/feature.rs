//! Catalog features: the per-dataset summaries the paper's architecture
//! stores instead of the data itself.
//!
//! "Individual datasets scanned once, summarized into a 'feature' per data
//! \[set\]; features stored in catalog; similarity search is performed over
//! catalog's contents." — the poster's IR-architecture figure.

use crate::geo::GeoBBox;
use crate::id::DatasetId;
use crate::stats::NumericSummary;
use crate::time::TimeInterval;
use metamess_telemetry::Counter;
use serde::{Deserialize, Deserializer, Serialize};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, OnceLock};

/// Curation flags attached to a variable (the poster's semantic-diversity
/// table: QA variables are excluded from search, ambiguous ones exposed,
/// hidden ones suppressed entirely).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct VariableFlags {
    /// Quality-assurance / bookkeeping variable: excluded from search but
    /// shown in detailed dataset views ("Excessive variables" category).
    pub qa: bool,
    /// Name is ambiguous and the curator has not yet clarified it
    /// ("Ambiguous usages" category, e.g. `temp`).
    pub ambiguous: bool,
    /// Curator chose to hide the variable from all views.
    pub hidden: bool,
}

impl VariableFlags {
    /// True when the variable should participate in ranked search.
    pub fn searchable(&self) -> bool {
        !self.qa && !self.hidden
    }
}

/// How a variable's canonical name was assigned — the wrangling provenance the
/// curator reviews when validating the process (curatorial activity 4).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum NameResolution {
    /// Not yet resolved ("the mess that's left").
    #[default]
    Unresolved,
    /// Name was already the preferred term.
    AlreadyCanonical,
    /// Resolved through the known-translation table (synonym table).
    KnownTranslation,
    /// Resolved through a *discovered* transformation (clustering).
    DiscoveredTranslation {
        /// Clustering method that proposed it (e.g. `"fingerprint"`).
        method: String,
    },
    /// Curator resolved it by hand.
    Curated,
}

impl NameResolution {
    /// True when the variable has a canonical name assigned.
    pub fn is_resolved(&self) -> bool {
        !matches!(self, NameResolution::Unresolved)
    }
}

/// A variable's hierarchy path, root first (e.g. `["physical",
/// "temperature", "water_temperature"]`): immutable and shared. The
/// vocabulary hands out one per concept and a decoded image one per
/// descriptor, so the variables of a concept hold one path between them;
/// a clone is a reference count, and an empty path allocates nothing. It
/// reads as a `[String]` and serializes as the JSON array of its levels.
#[derive(Clone, Default, Serialize)]
pub struct Hierarchy(Arc<[String]>);

impl Hierarchy {
    /// True when `a` and `b` are one shared path, not two equal ones.
    pub fn ptr_eq(a: &Hierarchy, b: &Hierarchy) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl std::ops::Deref for Hierarchy {
    type Target = [String];

    fn deref(&self) -> &[String] {
        &self.0
    }
}

impl From<Vec<String>> for Hierarchy {
    fn from(levels: Vec<String>) -> Hierarchy {
        if levels.is_empty() {
            Hierarchy::default()
        } else {
            Hierarchy(levels.into())
        }
    }
}

impl FromIterator<String> for Hierarchy {
    fn from_iter<I: IntoIterator<Item = String>>(levels: I) -> Hierarchy {
        levels.into_iter().collect::<Vec<_>>().into()
    }
}

impl PartialEq for Hierarchy {
    fn eq(&self, other: &Hierarchy) -> bool {
        Hierarchy::ptr_eq(self, other) || self.0 == other.0
    }
}

impl Eq for Hierarchy {}

/// Prints as the `Vec<String>` it replaced does.
impl std::fmt::Debug for Hierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl<'de> Deserialize<'de> for Hierarchy {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Hierarchy, D::Error> {
        Vec::<String>::deserialize(d).map(Hierarchy::from)
    }
}

/// What describes a variable: its names, curation, units, context and
/// hierarchy — everything but its numbers. A catalog's variables repeat a
/// small vocabulary of these (the poster's semantic-diversity table), so a
/// [`VariableFeature`] holds its descriptor behind a shared `Arc`, and a
/// catalog keeps each distinct one once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VariableDescriptor {
    /// Column name exactly as harvested from the file.
    pub name: String,
    /// Canonical variable name after wrangling, when resolved.
    pub canonical_name: Option<String>,
    /// How the canonical name was assigned.
    pub resolution: NameResolution,
    /// Unit string exactly as harvested (e.g. `degC`), when present.
    pub unit: Option<String>,
    /// Canonical unit after wrangling (e.g. `celsius`).
    pub canonical_unit: Option<String>,
    /// True once the normalize-units stage has converted the summary into
    /// the canonical unit (guards against double conversion on rerun).
    pub unit_normalized: bool,
    /// Source context ("Source-context naming variations" category):
    /// e.g. `air` vs `water` for a bare `temperature` column.
    pub context: Option<String>,
    /// Hierarchy path assigned by the generate-hierarchies stage, root first
    /// (e.g. `["physical", "temperature", "water_temperature"]`).
    pub hierarchy: Hierarchy,
    /// Curation flags.
    pub flags: VariableFlags,
}

impl VariableDescriptor {
    /// An unresolved descriptor of a harvested column name.
    pub(crate) fn new(name: impl Into<String>) -> VariableDescriptor {
        VariableDescriptor {
            name: name.into(),
            canonical_name: None,
            resolution: NameResolution::Unresolved,
            unit: None,
            canonical_unit: None,
            unit_normalized: false,
            context: None,
            hierarchy: Hierarchy::default(),
            flags: VariableFlags::default(),
        }
    }

    /// The name search should match against: canonical when resolved,
    /// harvested otherwise.
    pub fn search_name(&self) -> &str {
        self.canonical_name.as_deref().unwrap_or(&self.name)
    }

    /// Assigns the canonical name with its resolution provenance.
    pub fn resolve(&mut self, canonical: impl Into<String>, how: NameResolution) {
        self.canonical_name = Some(canonical.into());
        self.resolution = how;
    }
}

/// Hashes the names and the context alone: they tell most descriptors
/// apart, and equality compares the rest.
impl Hash for VariableDescriptor {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (&self.name, &self.canonical_name, &self.context).hash(state);
    }
}

/// Summary of a single variable (column) of a dataset: a shared
/// [`VariableDescriptor`] plus the variable's own numbers, 56 bytes.
///
/// The descriptor's fields read and write as the variable's own
/// (`v.name`, `v.hierarchy = …`) through `Deref` / `DerefMut`. A write is
/// copy-on-write: a descriptor the variable shares — with a catalog's
/// other variables, a clone or a decoded image — is copied first
/// (`metamess_core_descriptor_copies_total` counts the copies), so a write
/// through one variable never changes another. A catalog's curation
/// rewrites descriptors instead, each distinct one once
/// ([`crate::catalog::Catalog::map_descriptors`]). Its JSON and `Debug`
/// forms are one flat object, the descriptor's fields among the numbers.
#[derive(Clone, PartialEq)]
pub struct VariableFeature {
    descriptor: Arc<VariableDescriptor>,
    /// One-pass numeric summary of the variable's values.
    pub summary: NumericSummary,
    /// Null cells observed.
    pub null_count: u64,
    /// Total cells observed.
    pub total_count: u64,
}

impl VariableFeature {
    /// Creates an unresolved feature for a harvested column name.
    pub fn new(name: impl Into<String>) -> VariableFeature {
        VariableFeature::with_descriptor(Arc::new(VariableDescriptor::new(name)))
    }

    /// A variable with `descriptor` and no values observed.
    pub(crate) fn with_descriptor(descriptor: Arc<VariableDescriptor>) -> VariableFeature {
        VariableFeature {
            descriptor,
            summary: NumericSummary::new(),
            null_count: 0,
            total_count: 0,
        }
    }

    /// The descriptor, as the variable shares it.
    pub fn descriptor(&self) -> &Arc<VariableDescriptor> {
        &self.descriptor
    }

    /// Points the variable at `descriptor`, which replaces its own.
    pub(crate) fn repoint(&mut self, descriptor: Arc<VariableDescriptor>) {
        self.descriptor = descriptor;
    }

    /// Value range `(min, max)` when the variable is numeric and non-empty.
    pub fn value_range(&self) -> Option<(f64, f64)> {
        self.summary.range()
    }
}

impl Deref for VariableFeature {
    type Target = VariableDescriptor;

    fn deref(&self) -> &VariableDescriptor {
        &self.descriptor
    }
}

/// Copy-on-write: a shared descriptor is copied, and the copy counted,
/// before the first write reaches it.
impl DerefMut for VariableFeature {
    fn deref_mut(&mut self) -> &mut VariableDescriptor {
        if Arc::get_mut(&mut self.descriptor).is_none() {
            count_descriptor_copy();
        }
        Arc::make_mut(&mut self.descriptor)
    }
}

/// Adds one to `metamess_core_descriptor_copies_total` when telemetry is on.
pub(crate) fn count_descriptor_copy() {
    static COPIES: OnceLock<Arc<Counter>> = OnceLock::new();
    if metamess_telemetry::enabled() {
        COPIES
            .get_or_init(|| {
                metamess_telemetry::global().counter("metamess_core_descriptor_copies_total")
            })
            .add(1);
    }
}

/// Prints as the one flat struct a variable was before its descriptor was
/// shared.
impl std::fmt::Debug for VariableFeature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let d = &**self;
        f.debug_struct("VariableFeature")
            .field("name", &d.name)
            .field("canonical_name", &d.canonical_name)
            .field("resolution", &d.resolution)
            .field("unit", &d.unit)
            .field("canonical_unit", &d.canonical_unit)
            .field("unit_normalized", &d.unit_normalized)
            .field("context", &d.context)
            .field("hierarchy", &d.hierarchy)
            .field("summary", &self.summary)
            .field("null_count", &self.null_count)
            .field("total_count", &self.total_count)
            .field("flags", &d.flags)
            .finish()
    }
}

/// One flat JSON object, in the order the fields were declared before the
/// descriptor was shared.
impl Serialize for VariableFeature {
    fn json(&self, out: &mut serde::ser::JsonOut) {
        let d = &**self;
        out.begin_object();
        out.key("name");
        d.name.json(out);
        out.key("canonical_name");
        d.canonical_name.json(out);
        out.key("resolution");
        d.resolution.json(out);
        out.key("unit");
        d.unit.json(out);
        out.key("canonical_unit");
        d.canonical_unit.json(out);
        out.key("unit_normalized");
        d.unit_normalized.json(out);
        out.key("context");
        d.context.json(out);
        out.key("hierarchy");
        d.hierarchy.json(out);
        out.key("summary");
        self.summary.json(out);
        out.key("null_count");
        self.null_count.json(out);
        out.key("total_count");
        self.total_count.json(out);
        out.key("flags");
        d.flags.json(out);
        out.end_object();
    }
}

/// The flat JSON form of a [`VariableFeature`], read.
#[derive(Deserialize)]
struct FlatVariable {
    name: String,
    canonical_name: Option<String>,
    resolution: NameResolution,
    unit: Option<String>,
    canonical_unit: Option<String>,
    #[serde(default)]
    unit_normalized: bool,
    context: Option<String>,
    hierarchy: Hierarchy,
    summary: NumericSummary,
    null_count: u64,
    total_count: u64,
    flags: VariableFlags,
}

impl<'de> Deserialize<'de> for VariableFeature {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<VariableFeature, D::Error> {
        let v = FlatVariable::deserialize(d)?;
        let descriptor = VariableDescriptor {
            name: v.name,
            canonical_name: v.canonical_name,
            resolution: v.resolution,
            unit: v.unit,
            canonical_unit: v.canonical_unit,
            unit_normalized: v.unit_normalized,
            context: v.context,
            hierarchy: v.hierarchy,
            flags: v.flags,
        };
        Ok(VariableFeature {
            descriptor: Arc::new(descriptor),
            summary: v.summary,
            null_count: v.null_count,
            total_count: v.total_count,
        })
    }
}

/// Provenance of a dataset feature: where it came from and which wrangling
/// run produced it. Lets reruns skip unchanged files and lets the curator
/// trace any catalog entry back to its file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Provenance {
    /// Content fingerprint of the source file (FNV-1a over bytes).
    pub content_fingerprint: u64,
    /// File size in bytes at scan time.
    pub file_len: u64,
    /// Identifier of the pipeline run that produced this feature.
    pub pipeline_run: u64,
    /// Name of the format parser that read the file.
    pub format: String,
}

/// A dataset's external metadata: key → value, in key order. A dataset
/// holds a handful of pairs, so they are one sorted vector, where a
/// `BTreeMap` would hold a 544-byte node for the first. Its JSON and
/// `Debug` forms are a `BTreeMap<String, String>`'s.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct ExternalMetadata(Vec<(String, String)>);

impl ExternalMetadata {
    /// No pairs; allocates nothing.
    pub fn new() -> ExternalMetadata {
        ExternalMetadata::default()
    }

    /// Sets `key` to `value`; returns the value it replaced, if any.
    pub fn insert(&mut self, key: String, value: String) -> Option<String> {
        match self.position(&key) {
            Ok(at) => Some(std::mem::replace(&mut self.0[at].1, value)),
            Err(at) => {
                self.0.insert(at, (key, value));
                None
            }
        }
    }

    /// The value of `key`.
    pub fn get(&self, key: &str) -> Option<&String> {
        self.position(key).ok().map(|at| &self.0[at].1)
    }

    /// The pairs, in key order.
    pub fn iter(&self) -> ExternalIter<'_> {
        ExternalIter(self.0.iter())
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there are no pairs.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Room for `additional` more pairs and no more.
    pub(crate) fn reserve_exact(&mut self, additional: usize) {
        self.0.reserve_exact(additional);
    }

    /// Drops the room no pair uses.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.0.shrink_to_fit();
    }

    fn position(&self, key: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| k.as_str().cmp(key))
    }
}

/// The pairs of an [`ExternalMetadata`], in key order.
#[derive(Clone)]
pub struct ExternalIter<'a>(std::slice::Iter<'a, (String, String)>);

impl<'a> Iterator for ExternalIter<'a> {
    type Item = (&'a String, &'a String);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (k, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for ExternalIter<'_> {}

impl<'a> IntoIterator for &'a ExternalMetadata {
    type Item = (&'a String, &'a String);
    type IntoIter = ExternalIter<'a>;

    fn into_iter(self) -> ExternalIter<'a> {
        self.iter()
    }
}

impl std::fmt::Debug for ExternalMetadata {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl Serialize for ExternalMetadata {
    fn json(&self, out: &mut serde::ser::JsonOut) {
        out.begin_object();
        for (k, v) in self {
            out.entry(k, v);
        }
        out.end_object();
    }
}

/// Reads a JSON object as a `BTreeMap` does: a key given twice keeps its
/// last value.
impl<'de> Deserialize<'de> for ExternalMetadata {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<ExternalMetadata, D::Error> {
        let pairs = BTreeMap::<String, String>::deserialize(d)?;
        Ok(ExternalMetadata(pairs.into_iter().collect()))
    }
}

/// The catalog entry for one dataset: everything search and the dataset
/// summary page need, and nothing else.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetFeature {
    /// Stable id (derived from `path`).
    pub id: DatasetId,
    /// Archive-relative path of the source file.
    pub path: String,
    /// Human-readable title (often derived from naming conventions).
    pub title: String,
    /// Observation platform / source (e.g. station `saturn01`, a cruise id).
    pub source: Option<String>,
    /// Spatial extent, when the dataset carries positions.
    pub bbox: Option<GeoBBox>,
    /// Temporal extent, when the dataset carries times.
    pub time: Option<TimeInterval>,
    /// Number of data records summarized.
    pub record_count: u64,
    /// Per-variable summaries, in file column order.
    pub variables: Vec<VariableFeature>,
    /// External metadata merged in by the add-external-metadata stage
    /// (key → value, e.g. `"principal_investigator" → "..."`).
    pub external: ExternalMetadata,
    /// Scan/run provenance.
    pub provenance: Provenance,
}

impl DatasetFeature {
    /// Creates an empty feature for an archive-relative path.
    pub fn new(path: impl Into<String>) -> DatasetFeature {
        let path = path.into();
        DatasetFeature {
            id: DatasetId::from_path(&path),
            title: path.clone(),
            path,
            source: None,
            bbox: None,
            time: None,
            record_count: 0,
            variables: Vec::new(),
            external: ExternalMetadata::new(),
            provenance: Provenance::default(),
        }
    }

    /// Looks up a variable by harvested name.
    pub fn variable(&self, name: &str) -> Option<&VariableFeature> {
        self.variables.iter().find(|v| v.name == name)
    }

    /// The platform context the harvester recorded for the dataset
    /// (`external["context"]`, e.g. `met_station`): what a bare
    /// `temperature` column measures depends on it.
    pub fn context(&self) -> Option<&str> {
        self.external.get("context").map(String::as_str)
    }

    /// Variables that participate in search (not QA, not hidden).
    pub fn searchable_variables(&self) -> impl Iterator<Item = &VariableFeature> {
        self.variables.iter().filter(|v| v.flags.searchable())
    }

    /// Fraction of variables with a resolved canonical name, the per-dataset
    /// measure of "the mess that's left". QA and hidden variables still count:
    /// marking them *is* their resolution, tracked via flags instead.
    pub fn resolution_fraction(&self) -> f64 {
        if self.variables.is_empty() {
            return 1.0;
        }
        let resolved = self
            .variables
            .iter()
            .filter(|v| v.resolution.is_resolved() || v.flags.qa || v.flags.hidden)
            .count();
        resolved as f64 / self.variables.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::GeoPoint;

    #[test]
    fn flags_searchable() {
        let mut f = VariableFlags::default();
        assert!(f.searchable());
        f.qa = true;
        assert!(!f.searchable());
        f.qa = false;
        f.hidden = true;
        assert!(!f.searchable());
    }

    #[test]
    fn variable_search_name_prefers_canonical() {
        let mut v = VariableFeature::new("airtemp");
        assert_eq!(v.search_name(), "airtemp");
        v.resolve("air_temperature", NameResolution::KnownTranslation);
        assert_eq!(v.search_name(), "air_temperature");
        assert!(v.resolution.is_resolved());
    }

    #[test]
    fn dataset_id_derived_from_path() {
        let d = DatasetFeature::new("stations/saturn01/2010.csv");
        assert_eq!(d.id, DatasetId::from_path("stations/saturn01/2010.csv"));
    }

    #[test]
    fn dataset_variable_lookup() {
        let mut d = DatasetFeature::new("x.csv");
        d.variables.push(VariableFeature::new("temp"));
        d.variables.push(VariableFeature::new("sal"));
        assert!(d.variable("temp").is_some());
        assert!(d.variable("none").is_none());
        d.variables[1].flags.qa = true;
        assert_eq!(d.searchable_variables().count(), 1);
    }

    #[test]
    fn resolution_fraction_counts_flags_as_handled() {
        let mut d = DatasetFeature::new("x.csv");
        assert_eq!(d.resolution_fraction(), 1.0);
        d.variables.push(VariableFeature::new("a"));
        d.variables.push(VariableFeature::new("b"));
        d.variables.push(VariableFeature::new("qa_level"));
        assert_eq!(d.resolution_fraction(), 0.0);
        d.variables[0].resolve("alpha", NameResolution::AlreadyCanonical);
        d.variables[2].flags.qa = true;
        assert!((d.resolution_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn a_hierarchy_reads_writes_and_prints_as_its_levels() {
        let levels = vec!["physical".to_string(), "salinity".into()];
        let h = Hierarchy::from(levels.clone());
        assert_eq!(*h, levels[..]);
        assert_eq!(format!("{h:?}"), format!("{levels:?}"));
        let json = serde_json::to_string(&h).unwrap();
        assert_eq!(json, serde_json::to_string(&levels).unwrap());
        assert_eq!(serde_json::from_str::<Hierarchy>(&json).unwrap(), h);
        // a clone is the same path; an equal path built apart is equal
        assert!(Hierarchy::ptr_eq(&h, &h.clone()));
        let apart: Hierarchy = levels.into_iter().collect();
        assert!(apart == h && !Hierarchy::ptr_eq(&apart, &h));
        // every empty path is the one static empty slice, however made
        let empty: Hierarchy = serde_json::from_str("[]").unwrap();
        assert!(Hierarchy::ptr_eq(&empty, &Hierarchy::default()));
        assert!(Hierarchy::ptr_eq(
            &Hierarchy::from(Vec::new()),
            &VariableFeature::new("x").hierarchy
        ));
    }

    /// A catalog holds one of each per dataset and per variable, and a
    /// variable one summary: growing any grows every catalog by as much.
    #[test]
    fn a_feature_and_a_variable_keep_their_size() {
        assert!(std::mem::size_of::<DatasetFeature>() <= 248);
        assert!(std::mem::size_of::<VariableFeature>() <= 64);
        assert_eq!(std::mem::size_of::<NumericSummary>(), 32);
    }

    #[test]
    fn feature_serde_round_trip() {
        let mut d = DatasetFeature::new("cruise/c1/cast3.cdl");
        d.bbox = Some(GeoBBox::point(GeoPoint::new(45.5, -124.4).unwrap()));
        d.external.insert("pi".into(), "Megler".into());
        let mut v = VariableFeature::new("ATastn");
        v.resolve(
            "sea_surface_temperature",
            NameResolution::DiscoveredTranslation { method: "fingerprint".into() },
        );
        v.summary.observe(5.0);
        v.summary.observe(10.0);
        d.variables.push(v);
        let json = serde_json::to_string(&d).unwrap();
        let back: DatasetFeature = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.variables[0].value_range(), Some((5.0, 10.0)));
    }
}
