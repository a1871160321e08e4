//! Variable taxonomies: hierarchical groupings of canonical terms.
//!
//! The poster's "Concepts at multiple levels of detail" category
//! (fluorescence vs `fluores375`, `fluores400`) is handled by grouping
//! variables under concept nodes so the UI can "collapse or expose as
//! needed" and "support hierarchical menus". "Link to multiple taxonomies"
//! (source-context naming) is handled by keeping several named taxonomies
//! side by side in a [`TaxonomySet`].

use metamess_core::error::{Error, Result};
use metamess_core::text::{normalize_term, term_eq, term_key};
use metamess_core::Hierarchy;
use serde::{Deserialize, Deserializer, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

/// A node in a taxonomy: a concept that may contain narrower concepts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaxonomyNode {
    /// Concept name (a canonical vocabulary term or a pure grouping label).
    pub name: String,
    /// Narrower concepts, in insertion order.
    pub children: Vec<TaxonomyNode>,
}

impl TaxonomyNode {
    fn new(name: impl Into<String>) -> TaxonomyNode {
        TaxonomyNode { name: name.into(), children: Vec::new() }
    }
}

/// A single named hierarchy of concepts.
///
/// Lookups are by name, case-insensitively ([`term_eq`]), and a name that
/// occurs more than once answers for its first node in depth-first
/// pre-order. They read an index of the tree, so each costs one probe and
/// allocates nothing. A deserialized taxonomy is read with its index built;
/// a change drops it, and the next lookup builds it again. Clones share it,
/// and it is never serialized or compared.
#[derive(Clone, Serialize)]
pub struct Taxonomy {
    /// Taxonomy name, e.g. `"cmop-variables"` or `"cf-standard-names"`.
    pub name: String,
    roots: Vec<TaxonomyNode>,
    #[serde(skip)]
    index: OnceLock<Arc<Index>>,
}

/// What every lookup of a [`Taxonomy`] reads: its nodes in depth-first
/// pre-order, so the descendants of a node are the run that follows it.
pub(crate) struct Index {
    /// Normalized name → its first node.
    first: HashMap<String, usize>,
    /// Every node's name.
    names: Vec<String>,
    nodes: Vec<Indexed>,
}

struct Indexed {
    /// Names from a root down to this node.
    path: Hierarchy,
    children: Box<[String]>,
    /// One past the node's last descendant in `names`.
    end: usize,
}

impl Index {
    fn build(roots: &[TaxonomyNode]) -> Index {
        fn visit(node: &TaxonomyNode, path: &mut Vec<String>, index: &mut Index) {
            let at = index.names.len();
            path.push(node.name.clone());
            index.first.entry(normalize_term(&node.name)).or_insert(at);
            index.names.push(node.name.clone());
            index.nodes.push(Indexed {
                path: path.clone().into(),
                children: node.children.iter().map(|c| c.name.clone()).collect(),
                end: 0,
            });
            for child in &node.children {
                visit(child, path, index);
            }
            index.nodes[at].end = index.names.len();
            path.pop();
        }
        let mut index = Index { first: HashMap::new(), names: Vec::new(), nodes: Vec::new() };
        for root in roots {
            visit(root, &mut Vec::new(), &mut index);
        }
        index
    }
}

impl Taxonomy {
    /// Creates an empty taxonomy.
    pub fn new(name: impl Into<String>) -> Taxonomy {
        Taxonomy { name: name.into(), roots: Vec::new(), index: OnceLock::new() }
    }

    /// Inserts a concept path, creating intermediate nodes as needed.
    /// `["physical", "temperature", "water_temperature"]` creates three
    /// nested nodes. Idempotent.
    pub fn insert_path(&mut self, path: &[&str]) -> Result<()> {
        if path.is_empty() {
            return Err(Error::invalid("empty taxonomy path"));
        }
        if path.iter().any(|p| p.trim().is_empty()) {
            return Err(Error::invalid("blank segment in taxonomy path"));
        }
        self.index.take();
        let mut nodes = &mut self.roots;
        for seg in path {
            let ix = match nodes.iter().position(|n| term_eq(&n.name, seg)) {
                Some(ix) => ix,
                None => {
                    nodes.push(TaxonomyNode::new(*seg));
                    nodes.len() - 1
                }
            };
            nodes = &mut nodes[ix].children;
        }
        Ok(())
    }

    /// The lookup index, built here when a change dropped it. Code that
    /// makes a taxonomy calls it when done, so that the first lookup does
    /// not pay for the build.
    pub(crate) fn index(&self) -> &Index {
        self.index.get_or_init(|| Arc::new(Index::build(&self.roots)))
    }

    /// The first node named `name`, and the index it is in.
    fn node(&self, name: &str) -> Option<(usize, &Index)> {
        let index = self.index();
        index.first.get(&*term_key(name)).map(|&at| (at, index))
    }

    /// The path from a root to the node named `name`, root first.
    pub fn path_of(&self, name: &str) -> Option<&Hierarchy> {
        self.node(name).map(|(at, index)| &index.nodes[at].path)
    }

    /// True when a node named `name` exists anywhere in the hierarchy.
    pub fn contains(&self, name: &str) -> bool {
        self.node(name).is_some()
    }

    /// All concepts strictly below `name` (depth-first order).
    pub fn descendants(&self, name: &str) -> &[String] {
        self.node(name).map_or(&[], |(at, index)| &index.names[at + 1..index.nodes[at].end])
    }

    /// Direct children of `name` ("expose one level", for hierarchical menus).
    pub fn children_of(&self, name: &str) -> &[String] {
        self.node(name).map_or(&[], |(at, index)| &index.nodes[at].children)
    }

    /// Root concepts.
    pub fn roots(&self) -> impl Iterator<Item = &str> {
        self.roots.iter().map(|n| n.name.as_str())
    }

    /// Root nodes with full structure (for tree-walking consumers such as
    /// hierarchical browse menus).
    pub fn root_nodes(&self) -> &[TaxonomyNode] {
        &self.roots
    }
}

impl<'de> Deserialize<'de> for Taxonomy {
    fn deserialize<D: Deserializer<'de>>(d: D) -> std::result::Result<Taxonomy, D::Error> {
        #[derive(Deserialize)]
        struct Stored {
            name: String,
            roots: Vec<TaxonomyNode>,
        }
        let Stored { name, roots } = Stored::deserialize(d)?;
        let t = Taxonomy { name, roots, index: OnceLock::new() };
        t.index();
        Ok(t)
    }
}

/// Equal when the names and trees are; the index is not compared.
impl PartialEq for Taxonomy {
    fn eq(&self, other: &Taxonomy) -> bool {
        self.name == other.name && self.roots == other.roots
    }
}

impl Eq for Taxonomy {}

impl std::fmt::Debug for Taxonomy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Taxonomy").field("name", &self.name).field("roots", &self.roots).finish()
    }
}

/// A set of named taxonomies ("link to multiple taxonomies").
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaxonomySet {
    taxonomies: BTreeMap<String, Taxonomy>,
}

impl TaxonomySet {
    /// Creates an empty set.
    pub fn new() -> TaxonomySet {
        TaxonomySet::default()
    }

    /// Adds or replaces a taxonomy.
    pub fn insert(&mut self, t: Taxonomy) {
        self.taxonomies.insert(t.name.clone(), t);
    }

    /// Gets a taxonomy by name.
    pub fn get(&self, name: &str) -> Option<&Taxonomy> {
        self.taxonomies.get(name)
    }

    /// Mutable access, creating an empty taxonomy when missing.
    pub fn get_or_create(&mut self, name: &str) -> &mut Taxonomy {
        self.taxonomies.entry(name.to_string()).or_insert_with(|| Taxonomy::new(name))
    }

    /// Iterates taxonomies by name.
    pub fn iter(&self) -> impl Iterator<Item = &Taxonomy> {
        self.taxonomies.values()
    }

    /// Number of taxonomies.
    pub fn len(&self) -> usize {
        self.taxonomies.len()
    }

    /// True when no taxonomies exist.
    pub fn is_empty(&self) -> bool {
        self.taxonomies.is_empty()
    }

    /// The hierarchy path of `term` in the first taxonomy, by name, that
    /// knows it, with that taxonomy's name.
    pub fn path_of(&self, term: &str) -> Option<(&str, &Hierarchy)> {
        self.taxonomies.values().find_map(|t| Some((t.name.as_str(), t.path_of(term)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Taxonomy {
        let mut t = Taxonomy::new("vars");
        t.insert_path(&["physical", "temperature", "water_temperature"]).unwrap();
        t.insert_path(&["physical", "temperature", "air_temperature"]).unwrap();
        t.insert_path(&["physical", "salinity"]).unwrap();
        t.insert_path(&["biological", "fluorescence", "fluores375"]).unwrap();
        t.insert_path(&["biological", "fluorescence", "fluores400"]).unwrap();
        t
    }

    #[test]
    fn insert_is_idempotent() {
        let mut t = sample();
        let before = t.clone();
        t.insert_path(&["physical", "temperature", "water_temperature"]).unwrap();
        assert_eq!(t, before);
    }

    #[test]
    fn path_and_ancestors() {
        let t = sample();
        let path = t.path_of("water_temperature").unwrap();
        assert_eq!(**path, ["physical", "temperature", "water_temperature"]);
        // the ancestors are the path above the node, and the nodes on one
        // path share their prefix of it
        assert_eq!(**t.path_of("temperature").unwrap(), path[..2]);
        assert!(t.path_of("missing").is_none());
    }

    #[test]
    fn descendants_collapse_level() {
        let t = sample();
        let d = t.descendants("fluorescence");
        assert_eq!(d, vec!["fluores375".to_string(), "fluores400".into()]);
        let all = t.descendants("physical");
        assert!(all.contains(&"water_temperature".to_string()));
        assert!(all.contains(&"salinity".to_string()));
    }

    #[test]
    fn children_one_level() {
        let t = sample();
        assert_eq!(
            t.children_of("temperature"),
            vec!["water_temperature".to_string(), "air_temperature".into()]
        );
        assert!(t.children_of("fluores375").is_empty());
    }

    #[test]
    fn contains_case_insensitive() {
        let t = sample();
        assert!(t.contains("Fluorescence"));
        assert!(!t.contains("nitrogen"));
    }

    #[test]
    fn walkers_match_padded_mixed_case_spellings() {
        // nodes stored with padding and capitals, asked for in other spellings
        let mut t = Taxonomy::new("vars");
        t.insert_path(&[" Physical", "TEMPERATURE ", "water_temperature"]).unwrap();
        t.insert_path(&["physical ", " temperature", "Air_Temperature"]).unwrap();
        t.insert_path(&["PHYSICAL", "salinity"]).unwrap();
        // one root, and four nodes below it
        let nodes = (t.roots().count(), t.descendants("physical").len());
        assert_eq!(nodes, (1, 4), "a re-spelled segment reuses its node");
        assert_eq!(t.roots().collect::<Vec<_>>(), [" Physical"]);
        let path =
            |leaf: &str| Some(vec![" Physical".to_string(), "TEMPERATURE ".into(), leaf.into()]);
        assert_eq!(
            t.path_of("  WATER_temperature ").map(|p| p.to_vec()),
            path("water_temperature")
        );
        assert_eq!(t.path_of("air_temperature").map(|p| p.to_vec()), path("Air_Temperature"));
        assert_eq!(t.path_of("temp"), None, "a prefix is not a match");
        assert_eq!(t.children_of("temperature"), ["water_temperature", "Air_Temperature"]);
        assert_eq!(
            t.descendants(" physical "),
            ["TEMPERATURE ", "water_temperature", "Air_Temperature", "salinity"]
        );
        assert_eq!(**t.path_of("Salinity\t").unwrap(), [" Physical", "salinity"]);
        assert!(t.contains(" air_temperature ") && !t.contains("air temperature"));
        assert!(t.children_of("Nitrate").is_empty() && t.descendants("").is_empty());
    }

    #[test]
    fn invalid_paths_rejected() {
        let mut t = Taxonomy::new("x");
        assert!(t.insert_path(&[]).is_err());
        assert!(t.insert_path(&["a", " "]).is_err());
    }

    #[test]
    fn set_multiple_taxonomies() {
        let mut s = TaxonomySet::new();
        s.insert(sample());
        let alt = s.get_or_create("instruments");
        alt.insert_path(&["ctd", "salinity"]).unwrap();
        assert_eq!(s.len(), 2);
        // path_of finds the first taxonomy (BTreeMap order: "instruments" < "vars")
        let (tax, path) = s.path_of("salinity").unwrap();
        assert_eq!(tax, "instruments");
        assert_eq!(**path, ["ctd", "salinity"]);
        assert!(s.get("vars").unwrap().contains("fluores400"));
    }

    #[test]
    fn serde_round_trip() {
        let t = sample();
        let json = serde_json::to_string(&t).unwrap();
        let back: Taxonomy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        // the index is neither written nor compared: a taxonomy that has
        // answered lookups writes and equals one that has not
        assert!(t.contains("salinity"));
        assert_eq!(serde_json::to_string(&t).unwrap(), json);
        assert_eq!(back.descendants("fluorescence"), t.descendants("fluorescence"));
    }

    #[test]
    fn an_insert_after_a_lookup_is_seen_by_the_next_lookup() {
        let mut t = sample();
        assert!(t.children_of("salinity").is_empty());
        t.insert_path(&["physical", "salinity", "practical_salinity"]).unwrap();
        assert_eq!(t.children_of("SALINITY"), ["practical_salinity"]);
        assert_eq!(
            **t.path_of("practical_salinity").unwrap(),
            ["physical", "salinity", "practical_salinity"]
        );
        assert_eq!(
            t.descendants("physical"),
            [
                "temperature",
                "water_temperature",
                "air_temperature",
                "salinity",
                "practical_salinity"
            ]
        );
    }

    #[test]
    fn a_name_at_two_depths_answers_for_its_first_node() {
        let mut t = Taxonomy::new("x");
        t.insert_path(&["a", "b", "c"]).unwrap();
        t.insert_path(&["c", "d"]).unwrap();
        // pre-order meets a/b/c before the root c
        assert_eq!(**t.path_of("c").unwrap(), ["a", "b", "c"]);
        assert!(t.children_of("c").is_empty() && t.descendants("c").is_empty());
        assert_eq!(t.descendants("a"), ["b", "c"]);
    }
}
