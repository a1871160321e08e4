//! The bundled vocabulary: synonym table + taxonomies + units + registry,
//! with one resolution entry point the wrangling pipeline calls per
//! harvested variable name.

use crate::registry::{RegistryVerdict, VariableRegistry};
use crate::synonym::{MatchKind, SynonymTable};
use crate::taxonomy::{Taxonomy, TaxonomySet};
use crate::units::UnitRegistry;
use metamess_core::error::{Error, IoContext, Result};
use metamess_core::store::{std_vfs, write_atomic};
use metamess_core::text::{normalize_term, term_eq};
use metamess_core::Hierarchy;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// What the vocabulary concluded about one harvested variable name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VariableResolution {
    /// Name is already the preferred term.
    Canonical(String),
    /// Name translated through the synonym table.
    Translated(String),
    /// QA variable: mark and exclude from search.
    Qa,
    /// Ambiguous and awaiting the curator.
    Ambiguous {
        /// Candidate canonical meanings.
        candidates: Vec<String>,
    },
    /// Curator hid this variable.
    Hidden,
    /// Curator chose to keep the harvested name.
    LeaveAsIs,
    /// Not in the vocabulary at all — part of "the mess that's left".
    Unknown,
}

impl VariableResolution {
    /// The canonical name, when resolution produced one.
    pub fn canonical(&self) -> Option<&str> {
        match self {
            VariableResolution::Canonical(c) | VariableResolution::Translated(c) => Some(c),
            _ => None,
        }
    }
}

/// The complete controlled vocabulary of an archive.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Vocabulary {
    /// Preferred terms and their alternates.
    pub synonyms: SynonymTable,
    /// Named concept hierarchies.
    pub taxonomies: TaxonomySet,
    /// Units and conversions.
    pub units: UnitRegistry,
    /// QA patterns, ambiguity decisions, context rules.
    pub registry: VariableRegistry,
    /// Monotonic version, bumped by the curator on each improvement cycle.
    pub version: u64,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Vocabulary {
        Vocabulary::default()
    }

    /// The CMOP-like starter vocabulary used by the examples and experiments:
    /// canonical environmental variables, a concept taxonomy, builtin units,
    /// and the observatory's QA conventions.
    pub fn observatory_default() -> Vocabulary {
        let mut v = Vocabulary {
            synonyms: SynonymTable::new(),
            taxonomies: TaxonomySet::new(),
            units: UnitRegistry::builtin(),
            registry: VariableRegistry::builtin(),
            version: 1,
        };
        // Canonical terms with their *curated, well-known* alternates.
        // (Misspellings and ad-hoc variants are intentionally absent — those
        // are what transformation discovery finds.)
        let entries: &[(&str, &[&str])] = &[
            ("air_temperature", &["atemp", "t_air"]),
            ("water_temperature", &["wtemp", "t_water"]),
            ("sea_surface_temperature", &["sst"]),
            ("salinity", &["sal"]),
            ("specific_conductivity", &["spcond", "conductivity"]),
            ("dissolved_oxygen", &["do", "oxygen"]),
            ("dissolved_oxygen_saturation", &["do_sat"]),
            ("chlorophyll_fluorescence", &["chl_fluor", "fluorescence"]),
            ("chlorophyll_a", &["chl_a", "chla"]),
            ("turbidity", &["turb"]),
            ("ph", &[]),
            ("wind_speed", &["wspd"]),
            ("wind_direction", &["wdir"]),
            ("wind_gust", &["gust"]),
            ("air_pressure", &["baro", "barometric_pressure"]),
            ("water_pressure", &["pressure"]),
            ("depth", &["z"]),
            ("nitrate", &["no3"]),
            ("phosphate", &["po4"]),
            ("silicate", &["sio4"]),
            ("ammonium", &["nh4"]),
            ("photosynthetically_active_radiation", &["par"]),
            ("solar_radiation", &["swrad"]),
            ("relative_humidity", &["rh", "humidity"]),
            ("precipitation", &["rain", "rainfall"]),
            ("water_velocity_east", &["u_velocity", "u"]),
            ("water_velocity_north", &["v_velocity", "v"]),
            ("water_velocity_up", &["w_velocity", "w"]),
            ("significant_wave_height", &["swh", "hs"]),
            ("wave_period", &["tp"]),
            ("co2_partial_pressure", &["pco2"]),
            ("methane_concentration", &["ch4"]),
            ("colored_dissolved_organic_matter", &["cdom"]),
            ("fluores375", &[]),
            ("fluores400", &[]),
            ("latitude", &["lat"]),
            ("longitude", &["lon", "lng"]),
            ("time", &["datetime", "timestamp"]),
        ];
        for (pref, alts) in entries {
            v.synonyms.add_preferred(*pref).expect("builtin preferred");
            for a in *alts {
                v.synonyms.add_alternate(*pref, *a).expect("builtin alternate");
            }
        }
        // Concept taxonomy ("generate hierarchies" output seed).
        let tax = v.taxonomies.get_or_create("observatory");
        let paths: &[&[&str]] = &[
            &["physical", "temperature", "air_temperature"],
            &["physical", "temperature", "water_temperature"],
            &["physical", "temperature", "sea_surface_temperature"],
            &["physical", "salinity"],
            &["physical", "specific_conductivity"],
            &["physical", "pressure", "air_pressure"],
            &["physical", "pressure", "water_pressure"],
            &["physical", "depth"],
            &["physical", "waves", "significant_wave_height"],
            &["physical", "waves", "wave_period"],
            &["physical", "currents", "water_velocity_east"],
            &["physical", "currents", "water_velocity_north"],
            &["physical", "currents", "water_velocity_up"],
            &["meteorological", "wind", "wind_speed"],
            &["meteorological", "wind", "wind_direction"],
            &["meteorological", "wind", "wind_gust"],
            &["meteorological", "relative_humidity"],
            &["meteorological", "precipitation"],
            &["meteorological", "radiation", "solar_radiation"],
            &["meteorological", "radiation", "photosynthetically_active_radiation"],
            &["biogeochemical", "oxygen", "dissolved_oxygen"],
            &["biogeochemical", "oxygen", "dissolved_oxygen_saturation"],
            &["biogeochemical", "carbon", "co2_partial_pressure"],
            &["biogeochemical", "carbon", "methane_concentration"],
            &["biogeochemical", "carbon", "colored_dissolved_organic_matter"],
            &["biogeochemical", "nutrients", "nitrate"],
            &["biogeochemical", "nutrients", "phosphate"],
            &["biogeochemical", "nutrients", "silicate"],
            &["biogeochemical", "nutrients", "ammonium"],
            &["biogeochemical", "optics", "turbidity"],
            &["biogeochemical", "optics", "fluorescence", "chlorophyll_fluorescence"],
            &["biogeochemical", "optics", "fluorescence", "fluores375"],
            &["biogeochemical", "optics", "fluorescence", "fluores400"],
            &["biogeochemical", "optics", "chlorophyll_a"],
            &["biogeochemical", "ph"],
        ];
        for p in paths {
            tax.insert_path(p).expect("builtin taxonomy path");
        }
        // built now, so that the first lookup does not pay for it
        tax.index();
        // Context rules for the classic bare names.
        v.registry.add_context_rule("met_station", "temperature", "air_temperature");
        v.registry.add_context_rule("ctd", "temperature", "water_temperature");
        v.registry.add_context_rule("buoy", "temperature", "water_temperature");
        v.registry.add_context_rule("glider", "temperature", "water_temperature");
        v
    }

    /// Resolves one harvested variable name in an optional source context.
    ///
    /// Order: registry verdicts (QA / context / ambiguity) first — they are
    /// curated, specific knowledge — then the synonym table, then unknown.
    pub fn resolve_variable(&self, name: &str, context: Option<&str>) -> VariableResolution {
        match self.registry.verdict(name, context) {
            RegistryVerdict::Qa => return VariableResolution::Qa,
            RegistryVerdict::Canonical(c) => return VariableResolution::Translated(c),
            RegistryVerdict::Hidden => return VariableResolution::Hidden,
            RegistryVerdict::LeaveAsIs => return VariableResolution::LeaveAsIs,
            RegistryVerdict::AmbiguousUndecided { candidates } => {
                return VariableResolution::Ambiguous { candidates }
            }
            RegistryVerdict::Unknown => {}
        }
        match self.synonyms.resolve(name) {
            Some((c, MatchKind::Preferred)) => VariableResolution::Canonical(c.to_string()),
            Some((c, MatchKind::Alternate)) => VariableResolution::Translated(c.to_string()),
            None => VariableResolution::Unknown,
        }
    }

    /// The hierarchy path for a canonical term, in the first taxonomy by
    /// name that knows it; empty when none does. Every call for one concept
    /// hands out the same shared path.
    pub fn hierarchy_of(&self, canonical: &str) -> Hierarchy {
        self.taxonomies.path_of(canonical).map(|(_, p)| p.clone()).unwrap_or_default()
    }

    /// Names related to `term` for search expansion: its alternates, plus
    /// taxonomy descendants (so a search for `fluorescence` can match
    /// `fluores375`). Returned names are canonical/alternate spellings.
    pub fn expand_term(&self, term: &str) -> Vec<String> {
        let canonical = self.synonyms.resolve(term).map_or(term, |(c, _)| c);
        let mut out = vec![canonical.to_string()];
        if let Some(e) = self.synonyms.entry(canonical) {
            out.extend(e.alternates.iter().cloned());
        }
        for t in self.taxonomies.iter() {
            for d in t.descendants(canonical) {
                if !out.iter().any(|x| term_eq(x, d)) {
                    out.push(d.clone());
                }
            }
        }
        out
    }

    /// Normalized index keys for the canonical concept behind `term`: the
    /// canonical spelling plus every hierarchy ancestor, as
    /// [`normalize_term`](metamess_core::text::normalize_term) keys. Empty
    /// when the synonym table does not know the term.
    ///
    /// This is the one expansion helper shared by search-index construction
    /// and query planning, so both sides agree on the key space: a dataset
    /// variable is indexed under these keys, and a query term probes them.
    pub fn canonical_keys(&self, term: &str) -> std::collections::BTreeSet<String> {
        let mut out = std::collections::BTreeSet::new();
        if let Some((canon, _)) = self.synonyms.resolve(term) {
            out.insert(normalize_term(canon));
            // every hierarchy ancestor, so a query for a broader concept
            // reaches the leaf variables (and vice versa)
            if let Some((_, path)) = self.taxonomies.path_of(canon) {
                out.extend(path.iter().map(|anc| normalize_term(anc)));
            }
        }
        out
    }

    /// Full normalized probe-key set for a *query* term: the term itself,
    /// everything [`expand_term`](Vocabulary::expand_term) reaches
    /// (canonical + alternates + taxonomy descendants), plus
    /// [`canonical_keys`](Vocabulary::canonical_keys) (canonical + ancestors).
    pub fn expand_keys(&self, term: &str) -> std::collections::BTreeSet<String> {
        let mut keys = self.canonical_keys(term);
        keys.insert(normalize_term(term));
        for e in self.expand_term(term) {
            keys.insert(normalize_term(&e));
        }
        keys
    }

    /// Bumps the version (one curator improvement cycle).
    pub fn bump_version(&mut self) {
        self.version += 1;
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("vocabulary serializes")
    }

    /// Deserializes from JSON.
    pub fn from_json(json: &str) -> Result<Vocabulary> {
        serde_json::from_str(json).map_err(|e| Error::parse("vocabulary json", e.to_string()))
    }

    /// Saves to a file, atomically: a reader finds the previous file or
    /// this one whole.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        write_atomic(std_vfs().as_ref(), path.as_ref(), &[self.to_json().as_bytes()], "vocabulary")
    }

    /// Loads from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Vocabulary> {
        let text = std::fs::read_to_string(path.as_ref())
            .io_ctx(format!("read vocabulary {}", path.as_ref().display()))?;
        Vocabulary::from_json(&text)
    }

    /// Loads the vocabulary a store published at `path`; a store that
    /// published none is read with [`Vocabulary::observatory_default`].
    pub fn load_or_default(path: impl AsRef<Path>) -> Result<Vocabulary> {
        if path.as_ref().exists() {
            Vocabulary::load(path)
        } else {
            Ok(Vocabulary::observatory_default())
        }
    }
}

/// Convenience: builds a taxonomy from `(term, path)` pairs, used by the
/// generate-hierarchies pipeline stage.
pub fn taxonomy_from_paths(name: &str, paths: &[Vec<String>]) -> Result<Taxonomy> {
    let mut t = Taxonomy::new(name);
    for p in paths {
        let refs: Vec<&str> = p.iter().map(String::as_str).collect();
        t.insert_path(&refs)?;
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_vocabulary_is_consistent() {
        let v = Vocabulary::observatory_default();
        assert!(v.synonyms.len() >= 30);
        assert!(v.units.len() >= 20);
        // Every taxonomy leaf that looks like a variable is a known term.
        let tax = v.taxonomies.get("observatory").unwrap();
        for leaf in ["water_temperature", "fluores375", "nitrate"] {
            assert!(tax.contains(leaf), "{leaf}");
            assert!(v.synonyms.contains(leaf), "{leaf}");
        }
    }

    #[test]
    fn resolve_canonical_and_alternate() {
        let v = Vocabulary::observatory_default();
        assert_eq!(
            v.resolve_variable("salinity", None),
            VariableResolution::Canonical("salinity".into())
        );
        assert_eq!(
            v.resolve_variable("sal", None),
            VariableResolution::Translated("salinity".into())
        );
        assert_eq!(v.resolve_variable("zorp", None), VariableResolution::Unknown);
    }

    #[test]
    fn resolve_qa_beats_synonyms() {
        let v = Vocabulary::observatory_default();
        assert_eq!(v.resolve_variable("qa_level", None), VariableResolution::Qa);
        assert_eq!(v.resolve_variable("salinity_qc", None), VariableResolution::Qa);
    }

    #[test]
    fn resolve_context_rule() {
        let v = Vocabulary::observatory_default();
        assert_eq!(
            v.resolve_variable("temperature", Some("met_station")),
            VariableResolution::Translated("air_temperature".into())
        );
        assert_eq!(
            v.resolve_variable("temperature", Some("ctd")),
            VariableResolution::Translated("water_temperature".into())
        );
    }

    #[test]
    fn resolve_ambiguous_exposed() {
        let mut v = Vocabulary::observatory_default();
        v.registry.note_ambiguous("temp", &["water_temperature", "temporary"]);
        match v.resolve_variable("temp", None) {
            VariableResolution::Ambiguous { candidates } => assert_eq!(candidates.len(), 2),
            r => panic!("unexpected {r:?}"),
        }
    }

    #[test]
    fn hierarchy_lookup() {
        let v = Vocabulary::observatory_default();
        let h = v.hierarchy_of("fluores375");
        assert_eq!(h.last().map(String::as_str), Some("fluores375"));
        assert!(h.contains(&"fluorescence".to_string()));
        assert!(v.hierarchy_of("nope").is_empty());
        // one concept, one shared path
        assert!(Hierarchy::ptr_eq(&h, &v.hierarchy_of("FLUORES375")));
    }

    #[test]
    fn expand_term_covers_alternates_and_children() {
        let v = Vocabulary::observatory_default();
        let e = v.expand_term("fluorescence");
        // "fluorescence" is an alternate of chlorophyll_fluorescence
        assert!(e.iter().any(|x| x == "chlorophyll_fluorescence"), "{e:?}");
        assert!(e.iter().any(|x| x == "fluorescence"), "{e:?}");
        // taxonomy node "fluorescence" has leaf children but expansion goes
        // through the canonical term; check expansion of the grouping node
        let e2 = v.expand_term("chlorophyll_fluorescence");
        assert!(e2.iter().any(|x| x == "chl_fluor"), "{e2:?}");
    }

    #[test]
    fn canonical_keys_cover_canon_and_ancestors() {
        let v = Vocabulary::observatory_default();
        // alternate resolves; keys include the canonical term and every
        // taxonomy ancestor
        let keys = v.canonical_keys("wtemp");
        assert!(keys.contains("water_temperature"), "{keys:?}");
        assert!(keys.contains("temperature"), "{keys:?}");
        assert!(keys.contains("physical"), "{keys:?}");
        // unknown terms expand to nothing
        assert!(v.canonical_keys("zorp").is_empty());
    }

    #[test]
    fn expand_keys_superset_of_expand_term_and_self() {
        let v = Vocabulary::observatory_default();
        let keys = v.expand_keys("fluorescence");
        assert!(keys.contains(&normalize_term("fluorescence")));
        for e in v.expand_term("fluorescence") {
            assert!(keys.contains(&normalize_term(&e)), "{e}");
        }
        for k in v.canonical_keys("fluorescence") {
            assert!(keys.contains(&k), "{k}");
        }
        // unknown terms still probe under their own spelling
        assert_eq!(v.expand_keys("mystery").len(), 1);
    }

    #[test]
    fn expand_unknown_term_is_itself() {
        let v = Vocabulary::observatory_default();
        assert_eq!(v.expand_term("mystery"), vec!["mystery".to_string()]);
    }

    #[test]
    fn json_round_trip_preserves_resolution() {
        let v = Vocabulary::observatory_default();
        let json = v.to_json();
        let back = Vocabulary::from_json(&json).unwrap();
        assert_eq!(
            back.resolve_variable("sal", None),
            VariableResolution::Translated("salinity".into())
        );
        assert_eq!(back.version, v.version);
        assert_eq!(back, v);
    }

    #[test]
    fn a_vocabulary_read_as_part_of_another_struct_resolves() {
        // a vocabulary deserialized by a caller's derive, not `from_json`:
        // its alternates and hierarchies resolve all the same
        #[derive(Serialize, Deserialize)]
        struct Saved {
            run: u64,
            vocab: Vocabulary,
        }
        let json =
            serde_json::to_string(&Saved { run: 7, vocab: Vocabulary::observatory_default() })
                .unwrap();
        let back: Saved = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.vocab.resolve_variable("atemp", None),
            VariableResolution::Translated("air_temperature".into())
        );
        assert_eq!(
            back.vocab.hierarchy_of("air_temperature").join("/"),
            "physical/temperature/air_temperature"
        );
        assert_eq!(back.vocab, Vocabulary::observatory_default());
    }

    #[test]
    fn save_load_file() {
        let dir = std::env::temp_dir().join(format!("metamess-vocab-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("vocab.json");
        let mut v = Vocabulary::observatory_default();
        v.bump_version();
        v.save(&path).unwrap();
        let back = Vocabulary::load(&path).unwrap();
        assert_eq!(back.version, 2);
        assert!(back.synonyms.contains("wtemp"));
        // what a store published wins, no file means the default, and a
        // file that does not parse is an error, not a silent default
        assert_eq!(Vocabulary::load_or_default(&path).unwrap().version, 2);
        assert_eq!(Vocabulary::load_or_default(dir.join("none.json")).unwrap().version, 1);
        std::fs::write(&path, b"{broken").unwrap();
        assert!(Vocabulary::load_or_default(&path).is_err());
    }

    #[test]
    fn taxonomy_from_paths_builder() {
        let t =
            taxonomy_from_paths("x", &[vec!["a".into(), "b".into()], vec!["a".into(), "c".into()]])
                .unwrap();
        assert_eq!(t.children_of("a"), vec!["b".to_string(), "c".into()]);
    }
}
