//! The synonym table: preferred terms and their alternates.
//!
//! This is the paper's "often exists as a translation table" component —
//! known transformations map harvested names onto preferred terms. Curators
//! grow it over time ("adding entries to a synonym table" is the canonical
//! process-improvement example in the poster).

use metamess_core::error::{Error, Result};
use metamess_core::text::{normalize_term, split_identifier, term_key};
use serde::{Deserialize, Deserializer, Serialize};
use std::collections::BTreeMap;

/// One preferred term and its known alternates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TermEntry {
    /// The preferred (canonical) spelling, e.g. `air_temperature`.
    pub preferred: String,
    /// Alternate spellings that translate to it, e.g. `airtemp`, `air_temperatrue`.
    pub alternates: Vec<String>,
    /// Optional human description for the dataset summary page.
    pub description: Option<String>,
}

impl TermEntry {
    /// Creates an entry with no alternates.
    pub fn new(preferred: impl Into<String>) -> TermEntry {
        TermEntry { preferred: preferred.into(), alternates: Vec::new(), description: None }
    }
}

/// How a lookup matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatchKind {
    /// The queried name *is* the preferred term.
    Preferred,
    /// The queried name is a registered alternate.
    Alternate,
}

/// A case-insensitive synonym table.
///
/// Invariants: preferred terms are unique; an alternate maps to exactly one
/// preferred term; no alternate equals a preferred term of a *different*
/// entry (that would make translation ambiguous).
///
/// Only the entries are serialized and compared; the indexes derived from
/// them are kept up to date by every change and rebuilt when a table is
/// deserialized.
///
/// ```
/// use metamess_vocab::{MatchKind, SynonymTable};
///
/// let mut table = SynonymTable::new();
/// table.add_alternate("air_temperature", "airtemp").unwrap();
/// assert_eq!(
///     table.resolve("AIRTEMP"),
///     Some(("air_temperature", MatchKind::Alternate))
/// );
/// // an alternate cannot serve two preferred terms
/// assert!(table.add_alternate("water_temperature", "airtemp").is_err());
/// ```
#[derive(Debug, Clone, Default, Serialize)]
pub struct SynonymTable {
    /// Entries keyed by normalized preferred term.
    entries: BTreeMap<String, TermEntry>,
    /// Reverse index: normalized alternate → normalized preferred term.
    #[serde(skip)]
    reverse: BTreeMap<String, String>,
    /// Every `(token, key)` of a preferred term: a word token of its
    /// spelling ([`split_identifier`]) and its normalized key, sorted, so
    /// the tokens a prefix begins are one run.
    #[serde(skip)]
    tokens: Vec<(String, String)>,
}

/// Equal when the entries are; the indexes follow from them.
impl PartialEq for SynonymTable {
    fn eq(&self, other: &SynonymTable) -> bool {
        self.entries == other.entries
    }
}

impl<'de> Deserialize<'de> for SynonymTable {
    fn deserialize<D: Deserializer<'de>>(d: D) -> std::result::Result<SynonymTable, D::Error> {
        #[derive(Deserialize)]
        struct Stored {
            entries: BTreeMap<String, TermEntry>,
        }
        let Stored { entries } = Stored::deserialize(d)?;
        let mut t = SynonymTable::new();
        for (key, e) in &entries {
            for alt in &e.alternates {
                t.reverse.insert(normalize_term(alt), key.clone());
            }
            t.add_tokens(key, &e.preferred);
        }
        t.entries = entries;
        Ok(t)
    }
}

impl SynonymTable {
    /// Creates an empty table.
    pub fn new() -> SynonymTable {
        SynonymTable::default()
    }

    /// Files the tokens of the preferred term `preferred`, keyed `key`.
    fn add_tokens(&mut self, key: &str, preferred: &str) {
        for token in split_identifier(preferred) {
            let pair = (token, key.to_string());
            let at = self.tokens.partition_point(|t| *t < pair);
            if self.tokens.get(at) != Some(&pair) {
                self.tokens.insert(at, pair);
            }
        }
    }

    /// Registers a preferred term (idempotent).
    pub fn add_preferred(&mut self, preferred: impl Into<String>) -> Result<()> {
        let preferred = preferred.into();
        let key = normalize_term(&preferred);
        if key.is_empty() {
            return Err(Error::invalid("empty preferred term"));
        }
        if let Some(owner) = self.reverse.get(&key) {
            return Err(Error::conflict(format!(
                "'{preferred}' is already an alternate of '{owner}'"
            )));
        }
        if !self.entries.contains_key(&key) {
            self.add_tokens(&key, &preferred);
            self.entries.insert(key, TermEntry::new(preferred));
        }
        Ok(())
    }

    /// Registers `alternate` as a synonym of `preferred`, creating the
    /// preferred entry when needed.
    pub fn add_alternate(
        &mut self,
        preferred: impl Into<String>,
        alternate: impl Into<String>,
    ) -> Result<()> {
        let preferred = preferred.into();
        let alternate = alternate.into();
        let pkey = normalize_term(&preferred);
        let akey = normalize_term(&alternate);
        if akey.is_empty() {
            return Err(Error::invalid("empty alternate term"));
        }
        if akey == pkey {
            // An alternate identical to its preferred term is a no-op.
            return self.add_preferred(preferred);
        }
        if self.entries.contains_key(&akey) {
            return Err(Error::conflict(format!(
                "'{alternate}' is already a preferred term; cannot also be an alternate of '{preferred}'"
            )));
        }
        if let Some(owner) = self.reverse.get(&akey) {
            if *owner != pkey {
                return Err(Error::conflict(format!(
                    "'{alternate}' already translates to '{owner}'"
                )));
            }
            return Ok(()); // idempotent re-add
        }
        self.add_preferred(preferred)?;
        let entry = self.entries.get_mut(&pkey).expect("just added");
        entry.alternates.push(alternate);
        self.reverse.insert(akey, pkey);
        Ok(())
    }

    /// Looks a name up: returns the preferred spelling and how it matched.
    /// Allocates nothing when `name` is already normalized.
    pub fn resolve(&self, name: &str) -> Option<(&str, MatchKind)> {
        let key = term_key(name);
        if let Some(e) = self.entries.get(&*key) {
            return Some((e.preferred.as_str(), MatchKind::Preferred));
        }
        if let Some(pkey) = self.reverse.get(&*key) {
            let e = self.entries.get(pkey)?;
            return Some((e.preferred.as_str(), MatchKind::Alternate));
        }
        None
    }

    /// True when `name` occurs as preferred or alternate — the poster's
    /// validation check "all harvested variable names occur in the current
    /// synonym table as preferred or alternate terms".
    pub fn contains(&self, name: &str) -> bool {
        self.resolve(name).is_some()
    }

    /// The entry for a preferred term.
    pub fn entry(&self, preferred: &str) -> Option<&TermEntry> {
        self.entries.get(&*term_key(preferred))
    }

    /// The preferred terms, in [`preferred_terms`] order, with a word token
    /// ([`split_identifier`] of the spelling) that `prefix` begins and is
    /// not: the meanings a short name such as `temp` may abbreviate
    /// (`air_temperature`, `water_temperature`, …).
    ///
    /// [`preferred_terms`]: SynonymTable::preferred_terms
    pub fn extending_token(&self, prefix: &str) -> Vec<&str> {
        let start = self.tokens.partition_point(|(token, _)| token.as_str() < prefix);
        let mut keys: Vec<&str> = self.tokens[start..]
            .iter()
            .take_while(|(token, _)| token.starts_with(prefix))
            .filter(|(token, _)| token != prefix)
            .map(|(_, key)| key.as_str())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter().map(|key| self.entries[key].preferred.as_str()).collect()
    }

    /// Sets the description of a preferred term.
    pub fn describe(&mut self, preferred: &str, description: impl Into<String>) -> Result<()> {
        let e = self
            .entries
            .get_mut(&normalize_term(preferred))
            .ok_or_else(|| Error::not_found("preferred term", preferred))?;
        e.description = Some(description.into());
        Ok(())
    }

    /// All preferred terms, sorted.
    pub fn preferred_terms(&self) -> impl Iterator<Item = &str> {
        self.entries.values().map(|e| e.preferred.as_str())
    }

    /// All entries, sorted by preferred term.
    pub fn entries(&self) -> impl Iterator<Item = &TermEntry> {
        self.entries.values()
    }

    /// Number of preferred terms.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total alternates across all entries.
    pub fn alternate_count(&self) -> usize {
        self.reverse.len()
    }

    /// Merges `other` into `self`; conflicting alternates are reported, not
    /// applied (the curator reviews them).
    pub fn merge(&mut self, other: &SynonymTable) -> Vec<Error> {
        let mut conflicts = Vec::new();
        for e in other.entries() {
            if let Err(err) = self.add_preferred(e.preferred.clone()) {
                conflicts.push(err);
                continue;
            }
            for alt in &e.alternates {
                if let Err(err) = self.add_alternate(e.preferred.clone(), alt.clone()) {
                    conflicts.push(err);
                }
            }
        }
        conflicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SynonymTable {
        let mut t = SynonymTable::new();
        t.add_alternate("air_temperature", "airtemp").unwrap();
        t.add_alternate("air_temperature", "air_temperatrue").unwrap();
        t.add_preferred("salinity").unwrap();
        t
    }

    #[test]
    fn resolve_preferred_and_alternate() {
        let t = table();
        assert_eq!(t.resolve("air_temperature"), Some(("air_temperature", MatchKind::Preferred)));
        assert_eq!(t.resolve("airtemp"), Some(("air_temperature", MatchKind::Alternate)));
        assert_eq!(t.resolve("AIRTEMP"), Some(("air_temperature", MatchKind::Alternate)));
        assert_eq!(t.resolve("unknown"), None);
    }

    #[test]
    fn contains_is_validation_check() {
        let t = table();
        assert!(t.contains("salinity"));
        assert!(t.contains("air_temperatrue"));
        assert!(!t.contains("chlorophyll"));
    }

    #[test]
    fn alternate_cannot_serve_two_masters() {
        let mut t = table();
        let e = t.add_alternate("water_temperature", "airtemp").unwrap_err();
        assert!(matches!(e, Error::Conflict { .. }));
    }

    #[test]
    fn alternate_re_add_is_idempotent() {
        let mut t = table();
        t.add_alternate("air_temperature", "airtemp").unwrap();
        assert_eq!(t.entry("air_temperature").unwrap().alternates.len(), 2);
    }

    #[test]
    fn preferred_cannot_be_existing_alternate() {
        let mut t = table();
        assert!(t.add_preferred("airtemp").is_err());
    }

    #[test]
    fn alternate_cannot_be_existing_preferred() {
        let mut t = table();
        assert!(t.add_alternate("air_temperature", "salinity").is_err());
    }

    #[test]
    fn alternate_equal_to_preferred_is_noop() {
        let mut t = SynonymTable::new();
        t.add_alternate("depth", "DEPTH").unwrap();
        assert_eq!(t.alternate_count(), 0);
        assert!(t.contains("depth"));
    }

    #[test]
    fn empty_terms_rejected() {
        let mut t = SynonymTable::new();
        assert!(t.add_preferred("  ").is_err());
        assert!(t.add_alternate("x", "").is_err());
    }

    #[test]
    fn merge_reports_conflicts() {
        let mut a = table();
        let mut b = SynonymTable::new();
        b.add_alternate("water_temperature", "airtemp").unwrap(); // conflicts with a
        b.add_alternate("turbidity", "turb").unwrap();
        let conflicts = a.merge(&b);
        assert_eq!(conflicts.len(), 1);
        assert_eq!(a.resolve("turb").unwrap().0, "turbidity");
        assert_eq!(a.resolve("airtemp").unwrap().0, "air_temperature");
    }

    #[test]
    fn serde_round_trip_rebuilds_the_indexes() {
        let t = table();
        let json = serde_json::to_string(&t).unwrap();
        assert!(!json.contains("reverse") && !json.contains("tokens"), "{json}");
        let back: SynonymTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back.resolve("air_temperatrue").unwrap().0, "air_temperature");
        assert_eq!(back.alternate_count(), t.alternate_count());
        assert_eq!(back.extending_token("temp"), ["air_temperature"]);
        assert_eq!(back, t);
    }

    #[test]
    fn extending_token_lists_what_a_prefix_may_abbreviate() {
        let mut t = table();
        t.add_preferred("water_temperature").unwrap();
        t.add_preferred("tempo").unwrap();
        t.add_preferred("sea_surface_Temperature").unwrap();
        // in preferred-term order; a token equal to the prefix is no match
        assert_eq!(
            t.extending_token("temp"),
            ["air_temperature", "sea_surface_Temperature", "tempo", "water_temperature"]
        );
        assert_eq!(t.extending_token("tempo"), Vec::<&str>::new());
        assert_eq!(t.extending_token("sal"), ["salinity"]);
        assert!(t.extending_token("zzz").is_empty());
    }

    #[test]
    fn describe_preferred() {
        let mut t = table();
        t.describe("salinity", "practical salinity, PSU").unwrap();
        assert_eq!(
            t.entry("salinity").unwrap().description.as_deref(),
            Some("practical salinity, PSU")
        );
        assert!(t.describe("nope", "x").is_err());
    }
}
