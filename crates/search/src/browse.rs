//! Hierarchical browsing: the poster's "support hierarchical menus" and
//! "collapse or expose as needed" approach for concepts at multiple levels
//! of detail.
//!
//! A [`BrowseTree`] mirrors a taxonomy, annotating every concept with the
//! number of datasets carrying a searchable variable at-or-below it — the
//! data behind a drill-down menu: collapse `fluorescence` to see one entry,
//! expose it to see `fluores375` and `fluores400` separately.

use metamess_core::catalog::Catalog;
use metamess_core::text::normalize_term;
use metamess_vocab::{Taxonomy, TaxonomyNode, Vocabulary};
use std::collections::HashMap;

/// One node of the browse menu.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct BrowseNode {
    /// Concept name (canonical term or grouping label).
    pub name: String,
    /// Datasets with a searchable variable exactly at this concept.
    pub direct: usize,
    /// Datasets at this concept or anywhere below it (what a collapsed menu
    /// entry shows).
    pub cumulative: usize,
    /// Narrower concepts.
    pub children: Vec<BrowseNode>,
}

impl BrowseNode {
    /// Depth-first iterator over the subtree (self first).
    pub fn iter(&self) -> Box<dyn Iterator<Item = &BrowseNode> + '_> {
        Box::new(std::iter::once(self).chain(self.children.iter().flat_map(|c| c.iter())))
    }
}

/// A taxonomy annotated with dataset counts.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct BrowseTree {
    /// Taxonomy name.
    pub taxonomy: String,
    /// Root concepts.
    pub roots: Vec<BrowseNode>,
}

impl BrowseTree {
    /// Total datasets reachable from any root.
    pub fn total(&self) -> usize {
        self.roots.iter().map(|r| r.cumulative).sum()
    }

    /// Finds a node by concept name (case-insensitive), depth first.
    pub fn node(&self, name: &str) -> Option<&BrowseNode> {
        let key = normalize_term(name);
        self.roots.iter().flat_map(|r| r.iter()).find(|n| normalize_term(&n.name) == key)
    }

    /// Renders the drill-down outline: `concept (direct/cumulative)`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        fn rec(node: &BrowseNode, depth: usize, out: &mut String) {
            for _ in 0..depth {
                out.push_str("  ");
            }
            let _ = writeln!(out, "{} ({}/{})", node.name, node.direct, node.cumulative);
            for c in &node.children {
                rec(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "[{}]", self.taxonomy);
        for r in &self.roots {
            rec(r, 0, &mut out);
        }
        out
    }
}

/// Builds the browse tree for one taxonomy over a published catalog.
///
/// A dataset counts at concept `c` when one of its searchable variables
/// resolves to canonical name `c` (through the synonym table when needed).
pub fn browse_taxonomy(catalog: &Catalog, vocab: &Vocabulary, taxonomy: &Taxonomy) -> BrowseTree {
    let mut trees = browse_catalog(&[taxonomy], catalog, vocab);
    trees.pop().expect("one tree per taxonomy")
}

/// Builds browse trees for every taxonomy in the vocabulary.
pub fn browse_all(catalog: &Catalog, vocab: &Vocabulary) -> Vec<BrowseTree> {
    browse_catalog(&vocab.taxonomies.iter().collect::<Vec<_>>(), catalog, vocab)
}

/// Counts a catalog's datasets into `taxonomies`: each distinct
/// `search_name` is resolved to its concept once, and [`count`] does the
/// rest — the counting an engine's menus get from its name keys.
fn browse_catalog(
    taxonomies: &[&Taxonomy],
    catalog: &Catalog,
    vocab: &Vocabulary,
) -> Vec<BrowseTree> {
    let mut concepts: HashMap<&str, String> = HashMap::new();
    for v in catalog.iter().flat_map(|d| d.searchable_variables()) {
        concepts.entry(v.search_name()).or_insert_with(|| {
            match vocab.synonyms.resolve(v.search_name()) {
                Some((c, _)) => normalize_term(c),
                None => normalize_term(v.search_name()),
            }
        });
    }
    let datasets = catalog
        .iter()
        .map(|d| d.searchable_variables().map(|v| concepts[v.search_name()].as_str()));
    count(taxonomies, datasets)
}

/// Counts datasets — each given as the concepts of its searchable
/// variables, normalized — into every node of `taxonomies`, in one pass.
/// The one counting routine: an engine's menus and [`browse_all`] both come
/// from here.
///
/// The nodes are numbered depth first, self before children, across the
/// taxonomies in order. A dataset adds one to `direct` at each node named by
/// one of its concepts, and one to `cumulative` at it and every ancestor,
/// and a stamp per node (the last dataset counted there) keeps it from
/// counting twice. Walking up stops at the first stamped node: its ancestors
/// are stamped too.
pub(crate) fn count<'c, C: Iterator<Item = &'c str>>(
    taxonomies: &[&Taxonomy],
    datasets: impl Iterator<Item = C>,
) -> Vec<BrowseTree> {
    fn number(
        nodes: &[TaxonomyNode],
        parent: Option<usize>,
        parents: &mut Vec<Option<usize>>,
        named: &mut HashMap<String, Vec<usize>>,
    ) {
        for n in nodes {
            let ix = parents.len();
            parents.push(parent);
            named.entry(normalize_term(&n.name)).or_default().push(ix);
            number(&n.children, Some(ix), parents, named);
        }
    }
    let mut parents = Vec::new();
    let mut named = HashMap::new();
    for t in taxonomies {
        number(t.root_nodes(), None, &mut parents, &mut named);
    }

    let mut direct = vec![0usize; parents.len()];
    let mut cumulative = vec![0usize; parents.len()];
    let (mut direct_stamp, mut cumulative_stamp) =
        (vec![usize::MAX; parents.len()], vec![usize::MAX; parents.len()]);
    for (dix, concepts) in datasets.enumerate() {
        for concept in concepts {
            let Some(nodes) = named.get(concept) else { continue };
            for &n in nodes {
                if direct_stamp[n] != dix {
                    direct_stamp[n] = dix;
                    direct[n] += 1;
                }
                let mut at = Some(n);
                while let Some(a) = at.filter(|&a| cumulative_stamp[a] != dix) {
                    cumulative_stamp[a] = dix;
                    cumulative[a] += 1;
                    at = parents[a];
                }
            }
        }
    }

    fn tree(node: &TaxonomyNode, counts: &mut impl Iterator<Item = (usize, usize)>) -> BrowseNode {
        let (direct, cumulative) = counts.next().expect("one count per node");
        let children = node.children.iter().map(|c| tree(c, counts)).collect();
        BrowseNode { name: node.name.clone(), direct, cumulative, children }
    }
    let mut counts = direct.into_iter().zip(cumulative);
    taxonomies
        .iter()
        .map(|t| BrowseTree {
            taxonomy: t.name.clone(),
            roots: t.root_nodes().iter().map(|r| tree(r, &mut counts)).collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamess_core::feature::{DatasetFeature, NameResolution, VariableFeature};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut mk = |path: &str, vars: &[(&str, &str)]| {
            let mut d = DatasetFeature::new(path);
            for (name, canon) in vars {
                let mut v = VariableFeature::new(*name);
                v.resolve(*canon, NameResolution::KnownTranslation);
                d.variables.push(v);
            }
            c.put(d);
        };
        mk("a.csv", &[("f375", "fluores375"), ("wt", "water_temperature")]);
        mk("b.csv", &[("f400", "fluores400")]);
        mk("c.csv", &[("chl", "chlorophyll_fluorescence")]);
        mk("d.csv", &[("sal", "salinity")]);
        c
    }

    #[test]
    fn counts_roll_up() {
        let vocab = Vocabulary::observatory_default();
        let tax = vocab.taxonomies.get("observatory").unwrap();
        let tree = browse_taxonomy(&catalog(), &vocab, tax);
        let fl = tree.node("fluorescence").unwrap();
        assert_eq!(fl.direct, 0); // grouping node: nothing directly there
        assert_eq!(fl.cumulative, 3); // a, b, c through its children
        assert_eq!(tree.node("fluores375").unwrap().cumulative, 1);
        assert_eq!(tree.node("water_temperature").unwrap().direct, 1);
        assert_eq!(tree.node("salinity").unwrap().cumulative, 1);
        // a dataset is counted once per concept even with two fluor channels
        let bio = tree.node("biogeochemical").unwrap();
        assert!(bio.cumulative >= 4 - 1); // a,b,c (+d is physical)
    }

    #[test]
    fn qa_and_hidden_excluded() {
        let vocab = Vocabulary::observatory_default();
        let tax = vocab.taxonomies.get("observatory").unwrap();
        let mut c = catalog();
        let mut d = DatasetFeature::new("qa.csv");
        let mut v = VariableFeature::new("wt2");
        v.resolve("water_temperature", NameResolution::KnownTranslation);
        v.flags.qa = true;
        d.variables.push(v);
        c.put(d);
        let tree = browse_taxonomy(&c, &vocab, tax);
        assert_eq!(tree.node("water_temperature").unwrap().cumulative, 1); // unchanged
    }

    #[test]
    fn render_outline_shape() {
        let vocab = Vocabulary::observatory_default();
        let tax = vocab.taxonomies.get("observatory").unwrap();
        let tree = browse_taxonomy(&catalog(), &vocab, tax);
        let text = tree.render();
        assert!(text.contains("[observatory]"));
        assert!(text.contains("fluorescence (0/3)"));
        assert!(text.lines().any(|l| l.trim_start().starts_with("fluores375 (1/1)")));
    }

    #[test]
    fn browse_all_covers_taxonomies() {
        let vocab = Vocabulary::observatory_default();
        let trees = browse_all(&catalog(), &vocab);
        assert_eq!(trees.len(), vocab.taxonomies.len());
        assert!(trees.iter().any(|t| t.taxonomy == "observatory"));
    }

    #[test]
    fn empty_catalog_all_zero() {
        let vocab = Vocabulary::observatory_default();
        let tax = vocab.taxonomies.get("observatory").unwrap();
        let tree = browse_taxonomy(&Catalog::new(), &vocab, tax);
        assert_eq!(tree.total(), 0);
        assert!(tree.roots.iter().all(|r| r.cumulative == 0));
    }
}
