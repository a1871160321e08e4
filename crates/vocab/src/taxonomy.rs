//! Variable taxonomies: hierarchical groupings of canonical terms.
//!
//! The poster's "Concepts at multiple levels of detail" category
//! (fluorescence vs `fluores375`, `fluores400`) is handled by grouping
//! variables under concept nodes so the UI can "collapse or expose as
//! needed" and "support hierarchical menus". "Link to multiple taxonomies"
//! (source-context naming) is handled by keeping several named taxonomies
//! side by side in a [`TaxonomySet`].

use metamess_core::error::{Error, Result};
use metamess_core::text::term_eq;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Taxonomy {
    /// Taxonomy name, e.g. `"cmop-variables"` or `"cf-standard-names"`.
    pub name: String,
    roots: Vec<TaxonomyNode>,
}

impl Taxonomy {
    /// Creates an empty taxonomy.
    pub fn new(name: impl Into<String>) -> Taxonomy {
        Taxonomy { name: name.into(), roots: Vec::new() }
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

    /// Finds the path from a root to the (first) node named `name`,
    /// root first. Case-insensitive.
    pub fn path_of(&self, name: &str) -> Option<Vec<String>> {
        fn walk<'a>(nodes: &'a [TaxonomyNode], name: &str, prefix: &mut Vec<&'a str>) -> bool {
            for n in nodes {
                prefix.push(&n.name);
                if term_eq(&n.name, name) || walk(&n.children, name, prefix) {
                    return true;
                }
                prefix.pop();
            }
            false
        }
        let mut prefix = Vec::new();
        walk(&self.roots, name, &mut prefix).then(|| prefix.into_iter().map(String::from).collect())
    }

    /// True when a node named `name` exists anywhere in the hierarchy.
    pub fn contains(&self, name: &str) -> bool {
        find(&self.roots, name).is_some()
    }

    /// Broader concepts of `name` (its ancestors, nearest first).
    pub fn ancestors(&self, name: &str) -> Vec<String> {
        match self.path_of(name) {
            Some(mut path) => {
                path.pop();
                path.reverse();
                path
            }
            None => Vec::new(),
        }
    }

    /// All concepts strictly below `name` (depth-first order).
    pub fn descendants(&self, name: &str) -> Vec<String> {
        fn collect(node: &TaxonomyNode, out: &mut Vec<String>) {
            for c in &node.children {
                out.push(c.name.clone());
                collect(c, out);
            }
        }
        let mut out = Vec::new();
        if let Some(n) = find(&self.roots, name) {
            collect(n, &mut out);
        }
        out
    }

    /// Direct children of `name` ("expose one level", for hierarchical menus).
    pub fn children_of(&self, name: &str) -> Vec<String> {
        find(&self.roots, name)
            .map(|n| n.children.iter().map(|c| c.name.clone()).collect())
            .unwrap_or_default()
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

    /// Total node count.
    pub fn node_count(&self) -> usize {
        fn count(nodes: &[TaxonomyNode]) -> usize {
            nodes.iter().map(|n| 1 + count(&n.children)).sum()
        }
        count(&self.roots)
    }

    /// Renders an indented outline (for curator review and the examples).
    pub fn render_outline(&self) -> String {
        fn rec(nodes: &[TaxonomyNode], depth: usize, out: &mut String) {
            for n in nodes {
                for _ in 0..depth {
                    out.push_str("  ");
                }
                out.push_str(&n.name);
                out.push('\n');
                rec(&n.children, depth + 1, out);
            }
        }
        let mut out = String::new();
        rec(&self.roots, 0, &mut out);
        out
    }

    /// Lowest common ancestor distance between two concepts: number of edges
    /// from each to their deepest shared ancestor, or `None` when either is
    /// absent or they share no root. Used by search to score hierarchy
    /// closeness.
    pub fn relatedness(&self, a: &str, b: &str) -> Option<usize> {
        let pa = self.path_of(a)?;
        let pb = self.path_of(b)?;
        let shared = pa.iter().zip(pb.iter()).take_while(|(x, y)| x == y).count();
        if shared == 0 {
            return None;
        }
        Some((pa.len() - shared) + (pb.len() - shared))
    }
}

/// The first node named `name` (case-insensitive), depth first.
fn find<'a>(nodes: &'a [TaxonomyNode], name: &str) -> Option<&'a TaxonomyNode> {
    nodes
        .iter()
        .find_map(|n| if term_eq(&n.name, name) { Some(n) } else { find(&n.children, name) })
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

    /// The hierarchy path of `term` in the first taxonomy that knows it.
    pub fn path_of(&self, term: &str) -> Option<(String, Vec<String>)> {
        for t in self.taxonomies.values() {
            if let Some(p) = t.path_of(term) {
                return Some((t.name.clone(), p));
            }
        }
        None
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
        let before = t.node_count();
        t.insert_path(&["physical", "temperature", "water_temperature"]).unwrap();
        assert_eq!(t.node_count(), before);
    }

    #[test]
    fn path_and_ancestors() {
        let t = sample();
        assert_eq!(
            t.path_of("water_temperature").unwrap(),
            vec!["physical".to_string(), "temperature".into(), "water_temperature".into()]
        );
        assert_eq!(
            t.ancestors("water_temperature"),
            vec!["temperature".to_string(), "physical".into()]
        );
        assert!(t.ancestors("missing").is_empty());
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
        assert_eq!(t.node_count(), 5, "a re-spelled segment reuses its node");
        assert_eq!(t.roots().collect::<Vec<_>>(), [" Physical"]);
        let path = |leaf: &str| vec![" Physical".to_string(), "TEMPERATURE ".into(), leaf.into()];
        assert_eq!(t.path_of("  WATER_temperature "), Some(path("water_temperature")));
        assert_eq!(t.path_of("air_temperature"), Some(path("Air_Temperature")));
        assert_eq!(t.path_of("temp"), None, "a prefix is not a match");
        assert_eq!(t.children_of("temperature"), ["water_temperature", "Air_Temperature"]);
        assert_eq!(
            t.descendants(" physical "),
            ["TEMPERATURE ", "water_temperature", "Air_Temperature", "salinity"]
        );
        assert_eq!(t.ancestors("Salinity\t"), [" Physical"]);
        assert!(t.contains(" air_temperature ") && !t.contains("air temperature"));
        assert_eq!(t.relatedness("WATER_TEMPERATURE", " air_temperature"), Some(2));
        assert!(t.children_of("Nitrate").is_empty() && t.descendants("").is_empty());
    }

    #[test]
    fn relatedness_distances() {
        let t = sample();
        // siblings under temperature: distance 2
        assert_eq!(t.relatedness("water_temperature", "air_temperature"), Some(2));
        // same node: 0
        assert_eq!(t.relatedness("salinity", "salinity"), Some(0));
        // parent-child: 1
        assert_eq!(t.relatedness("temperature", "air_temperature"), Some(1));
        // different roots: None
        assert_eq!(t.relatedness("salinity", "fluores375"), None);
        // unknown: None
        assert_eq!(t.relatedness("salinity", "unknown"), None);
    }

    #[test]
    fn invalid_paths_rejected() {
        let mut t = Taxonomy::new("x");
        assert!(t.insert_path(&[]).is_err());
        assert!(t.insert_path(&["a", " "]).is_err());
    }

    #[test]
    fn outline_renders_indented() {
        let t = sample();
        let o = t.render_outline();
        assert!(o.contains("physical\n  temperature\n    water_temperature"));
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
        assert_eq!(path, vec!["ctd".to_string(), "salinity".into()]);
        assert!(s.get("vars").unwrap().contains("fluores400"));
    }

    #[test]
    fn serde_round_trip() {
        let t = sample();
        let json = serde_json::to_string(&t).unwrap();
        let back: Taxonomy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
