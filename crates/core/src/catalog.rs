//! The metadata catalog: an ordered map of dataset features.
//!
//! The poster's process diagram wrangles a *working* catalog and promotes it
//! to a *published* one that search uses. The pipeline holds the working
//! catalog as one `Catalog`; the published one is the durable store
//! (`store::DurableCatalog`), and a publish is the store's row diff against
//! the working catalog.

use crate::feature::{count_descriptor_copy, DatasetFeature, VariableDescriptor};
use crate::id::DatasetId;
use crate::store::{Image, RowView};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A single mutation applied to a catalog. This is also the WAL record type:
/// replaying mutations in order reconstructs the catalog.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Insert or replace a dataset feature.
    Put(Box<DatasetFeature>),
    /// Remove a dataset.
    Delete(DatasetId),
    /// Set a catalog-level property (e.g. archive name, vocabulary version).
    SetProperty {
        /// Property key.
        key: String,
        /// Property value.
        value: String,
    },
}

/// An in-memory metadata catalog.
///
/// Iteration order is deterministic (by [`DatasetId`]) so that snapshots,
/// diffs and experiment output are reproducible.
///
/// The catalog keeps each distinct [`VariableDescriptor`] once: a feature
/// it takes, by a put or from a store's rows, has each variable's
/// descriptor swapped for the catalog's equal one, and a clone shares them
/// all. Curation rewrites the descriptors, not the variables
/// ([`Catalog::map_descriptors`]), so they stay shared.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct Catalog {
    entries: BTreeMap<DatasetId, DatasetFeature>,
    properties: BTreeMap<String, String>,
    /// Monotonic count of mutations applied; used as an optimistic version.
    generation: u64,
    #[serde(skip)]
    descriptors: Descriptors,
}

/// The descriptors a catalog shares, one `Arc` per distinct value: looked
/// up by value, never iterated in an order anything sees.
#[derive(Clone, Default)]
struct Descriptors(HashSet<Arc<VariableDescriptor>>);

impl Descriptors {
    /// The shared descriptor equal to `d`, which `d` becomes if there is
    /// none yet.
    fn intern(&mut self, d: &Arc<VariableDescriptor>) -> Arc<VariableDescriptor> {
        match self.0.get(&**d) {
            Some(shared) => Arc::clone(shared),
            None => {
                self.0.insert(Arc::clone(d));
                Arc::clone(d)
            }
        }
    }
}

/// Compares content and generation; which descriptors are shared is not
/// content.
impl PartialEq for Catalog {
    fn eq(&self, other: &Catalog) -> bool {
        self.entries == other.entries
            && self.properties == other.properties
            && self.generation == other.generation
    }
}

/// Prints content and generation, as [`PartialEq`] compares them.
impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog")
            .field("entries", &self.entries)
            .field("properties", &self.properties)
            .field("generation", &self.generation)
            .finish()
    }
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// The catalog a store's `rows` encode, each decoded, with its
    /// `properties` at its `generation`: the one way a store, or an image
    /// of one, becomes a `Catalog`.
    pub(crate) fn from_rows<'a>(
        rows: impl Iterator<Item = RowView<'a>>,
        properties: BTreeMap<String, String>,
        generation: u64,
    ) -> Catalog {
        // each image's descriptors are swapped for the catalog's once, and
        // a decoded feature's lists are already at exact capacity
        let mut descriptors = Descriptors::default();
        let mut shared: HashMap<*const Image, Box<[Arc<VariableDescriptor>]>> = HashMap::new();
        let entries = rows
            .map(|view| {
                let image = view.image();
                let table = shared.entry(image).or_insert_with(|| {
                    image.decoded_descriptors().iter().map(|d| descriptors.intern(d)).collect()
                });
                (view.id(), view.decode_with(table))
            })
            .collect();
        Catalog { entries, properties, generation, descriptors }
    }

    /// Applies one mutation, bumping the generation. The mutation is
    /// consumed: a `Put` moves its feature into the catalog, its lists cut
    /// to what they hold.
    pub fn apply(&mut self, m: Mutation) {
        match m {
            Mutation::Put(f) => {
                let mut f = exact(*f);
                for v in &mut f.variables {
                    v.repoint(self.descriptors.intern(v.descriptor()));
                }
                self.entries.insert(f.id, f);
            }
            Mutation::Delete(id) => {
                self.entries.remove(&id);
            }
            Mutation::SetProperty { key, value } => {
                self.properties.insert(key, value);
            }
        }
        self.generation += 1;
    }

    /// Inserts or replaces a dataset feature.
    pub fn put(&mut self, f: DatasetFeature) {
        self.apply(Mutation::Put(Box::new(f)));
    }

    /// Removes a dataset; returns whether it was present.
    pub fn delete(&mut self, id: DatasetId) -> bool {
        let present = self.entries.contains_key(&id);
        self.apply(Mutation::Delete(id));
        present
    }

    /// Sets a catalog-level property.
    pub fn set_property(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.apply(Mutation::SetProperty { key: key.into(), value: value.into() });
    }

    /// Reads a catalog-level property.
    pub fn property(&self, key: &str) -> Option<&str> {
        self.properties.get(key).map(String::as_str)
    }

    /// All properties, sorted by key.
    pub fn properties(&self) -> &BTreeMap<String, String> {
        &self.properties
    }

    /// Looks up a dataset feature by id.
    pub fn get(&self, id: DatasetId) -> Option<&DatasetFeature> {
        self.entries.get(&id)
    }

    /// Mutable lookup by id (bumps the generation since callers will mutate).
    pub fn get_mut(&mut self, id: DatasetId) -> Option<&mut DatasetFeature> {
        let e = self.entries.get_mut(&id);
        if e.is_some() {
            self.generation += 1;
        }
        e
    }

    /// Looks up a dataset by its archive-relative path.
    pub fn get_by_path(&self, path: &str) -> Option<&DatasetFeature> {
        self.get(DatasetId::from_path(path))
    }

    /// Number of datasets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the catalog holds no datasets.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates dataset features in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &DatasetFeature> {
        self.entries.values()
    }

    /// Consumes the catalog, yielding its dataset features in id order —
    /// how a search engine takes ownership of a recovered catalog without
    /// copying it.
    pub fn into_features(self) -> impl Iterator<Item = DatasetFeature> {
        self.entries.into_values()
    }

    /// Iterates mutably in id order (bumps the generation).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut DatasetFeature> {
        self.generation += 1;
        self.entries.values_mut()
    }

    /// Rewrites descriptors, not variables. `decide` is asked once for
    /// each distinct key the variables hold — a descriptor, by its `Arc`,
    /// and the [`DatasetFeature::context`] of the variable's dataset — with
    /// the number of variables holding it, keys in catalog order of first
    /// use. A decision other than `None` or the descriptor itself is
    /// interned among the catalog's shared descriptors, counted in
    /// `metamess_core_descriptor_copies_total`, and every variable holding
    /// the key is pointed at it; no variable's descriptor is copied. Shared
    /// descriptors no variable holds any more are dropped, and the
    /// generation moves by one only if a variable moved.
    ///
    /// Returns the moved variables, (dataset, index) in catalog order, for
    /// a caller that rewrites their numbers too.
    pub fn map_descriptors(
        &mut self,
        mut decide: impl FnMut(&VariableDescriptor, Option<&str>, usize) -> Option<VariableDescriptor>,
    ) -> Vec<(DatasetId, usize)> {
        // every variable's key number, and each key with its holders; a
        // context is hashed once per dataset, by its number
        let mut contexts = HashMap::new();
        let mut numbers: HashMap<_, _, BuildHasherDefault<WordHasher>> = HashMap::default();
        let mut keys: Vec<(&VariableDescriptor, Option<&str>, usize)> = Vec::new();
        let mut key_of = Vec::new();
        for f in self.entries.values() {
            let context = f.context();
            let next = contexts.len();
            let c = *contexts.entry(context).or_insert(next);
            for v in &f.variables {
                let k = *numbers.entry((Arc::as_ptr(v.descriptor()), c)).or_insert_with(|| {
                    keys.push((v.descriptor(), context, 0));
                    keys.len() - 1
                });
                keys[k].2 += 1;
                key_of.push(k);
            }
        }
        let descriptors = &mut self.descriptors;
        let to: Vec<_> = keys
            .into_iter()
            .map(|(d, context, holders)| {
                let new = decide(d, context, holders).filter(|new| new != d)?;
                count_descriptor_copy();
                Some(descriptors.intern(&Arc::new(new)))
            })
            .collect();
        let mut moved = Vec::new();
        let mut key_of = key_of.into_iter();
        for f in self.entries.values_mut() {
            for (ix, v) in f.variables.iter_mut().enumerate() {
                if let Some(to) = key_of.next().and_then(|k| to[k].as_ref()) {
                    v.repoint(Arc::clone(to));
                    moved.push((f.id, ix));
                }
            }
        }
        self.generation += u64::from(!moved.is_empty());
        drop(to);
        self.descriptors.0.retain(|d| Arc::strong_count(d) > 1);
        moved
    }

    /// Current generation (mutation count).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total variables across all datasets.
    pub fn variable_count(&self) -> usize {
        self.iter().map(|d| d.variables.len()).sum()
    }

    /// Fraction of variables resolved (canonical name or flagged), the
    /// catalog-wide "mess that's left" metric. 1.0 for an empty catalog.
    pub fn resolution_fraction(&self) -> f64 {
        let total = self.variable_count();
        if total == 0 {
            return 1.0;
        }
        let resolved: usize = self
            .iter()
            .flat_map(|d| d.variables.iter())
            .filter(|v| v.resolution.is_resolved() || v.flags.qa || v.flags.hidden)
            .count();
        resolved as f64 / total as f64
    }

    /// Stable 64-bit fingerprint of the catalog *content* (entries and
    /// properties). The generation counter is deliberately excluded: it
    /// advances on every mutable access, so including it would make two
    /// content-identical catalogs fingerprint differently and defeat the
    /// pipeline engine's skip-unchanged-stage logic.
    pub fn content_fingerprint(&self) -> u64 {
        crate::store::codec::content_fingerprint(self)
    }

    /// Differences between this catalog and `other`, as the mutations that
    /// would turn `self` into `other`.
    pub fn diff(&self, other: &Catalog) -> Vec<Mutation> {
        diff_entries(&self.entries, &self.properties, other, |existing, f| existing == f)
    }
}

/// A hasher for keys of addresses and integers, such as
/// [`Catalog::map_descriptors`]' (descriptor address, context number): each
/// word is folded in by a rotate, an xor and a multiply (the Fx hash), and
/// the result is rotated so that the multiply's well-mixed high bits pick
/// the bucket. Addresses are not input anyone chooses, so the map needs
/// none of SipHash's resistance to chosen collisions, and it hashes the
/// key of every variable of a catalog.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// `f` with no room in its lists beyond what it holds. A catalog keeps
/// every feature it takes this way: a harvester pushes variables one by
/// one, which leaves up to half the vector empty, and the catalog holds
/// each feature for as long as it is not replaced.
fn exact(mut f: DatasetFeature) -> DatasetFeature {
    f.variables.shrink_to_fit();
    f.external.shrink_to_fit();
    f
}

/// The mutations that turn a catalog of `entries` and `properties` into
/// `other`: a put of each of `other`'s datasets that is absent or not
/// `same`, a delete of each entry `other` lacks, a set of each property that
/// differs. [`Catalog::diff`] holds features; a store's writer holds rows
/// and compares each with its feature in place.
pub(crate) fn diff_entries<T>(
    entries: &BTreeMap<DatasetId, T>,
    properties: &BTreeMap<String, String>,
    other: &Catalog,
    same: impl Fn(&T, &DatasetFeature) -> bool,
) -> Vec<Mutation> {
    let mut out = Vec::new();
    for (id, f) in &other.entries {
        match entries.get(id) {
            Some(existing) if same(existing, f) => {}
            _ => out.push(Mutation::Put(Box::new(f.clone()))),
        }
    }
    for id in entries.keys() {
        if !other.entries.contains_key(id) {
            out.push(Mutation::Delete(*id));
        }
    }
    for (k, v) in &other.properties {
        if properties.get(k) != Some(v) {
            out.push(Mutation::SetProperty { key: k.clone(), value: v.clone() });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{NameResolution, VariableFeature};

    fn ds(path: &str, vars: &[&str]) -> DatasetFeature {
        let mut d = DatasetFeature::new(path);
        for v in vars {
            d.variables.push(VariableFeature::new(*v));
        }
        d
    }

    #[test]
    fn put_get_delete() {
        let mut c = Catalog::new();
        let d = ds("a.csv", &["t"]);
        let id = d.id;
        c.put(d);
        assert_eq!(c.len(), 1);
        assert!(c.get(id).is_some());
        assert!(c.get_by_path("a.csv").is_some());
        assert!(c.delete(id));
        assert!(!c.delete(id));
        assert!(c.is_empty());
    }

    #[test]
    fn generation_increments() {
        let mut c = Catalog::new();
        assert_eq!(c.generation(), 0);
        c.put(ds("a.csv", &[]));
        c.set_property("archive", "cmop-sim");
        assert_eq!(c.generation(), 2);
        assert_eq!(c.property("archive"), Some("cmop-sim"));
    }

    #[test]
    fn replay_reconstructs() {
        let mut c = Catalog::new();
        let muts = vec![
            Mutation::Put(Box::new(ds("a.csv", &["t"]))),
            Mutation::Put(Box::new(ds("b.csv", &["s"]))),
            Mutation::SetProperty { key: "k".into(), value: "v".into() },
            Mutation::Delete(DatasetId::from_path("a.csv")),
        ];
        for m in &muts {
            c.apply(m.clone());
        }
        let mut replayed = Catalog::new();
        for m in muts {
            replayed.apply(m);
        }
        assert_eq!(c, replayed);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn resolution_fraction_catalog_wide() {
        let mut c = Catalog::new();
        assert_eq!(c.resolution_fraction(), 1.0);
        let mut d = ds("a.csv", &["x", "y"]);
        d.variables[0].resolve("xx", NameResolution::KnownTranslation);
        c.put(d);
        c.put(ds("b.csv", &["z"]));
        assert!((c.resolution_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.variable_count(), 3);
    }

    #[test]
    fn diff_produces_minimal_mutations() {
        let mut a = Catalog::new();
        a.put(ds("same.csv", &["t"]));
        a.put(ds("gone.csv", &[]));
        a.set_property("k", "old");

        let mut b = Catalog::new();
        b.put(ds("same.csv", &["t"]));
        b.put(ds("new.csv", &[]));
        b.set_property("k", "new");

        let delta = a.diff(&b);
        // one Put (new.csv), one Delete (gone.csv), one SetProperty
        assert_eq!(delta.len(), 3);
        let mut a2 = a.clone();
        for m in delta {
            a2.apply(m);
        }
        assert_eq!(a2.entries, b.entries);
        assert_eq!(a2.properties, b.properties);
    }

    #[test]
    fn diff_detects_changed_entry() {
        let mut a = Catalog::new();
        a.put(ds("x.csv", &["t"]));
        let mut b = a.clone();
        b.get_mut(DatasetId::from_path("x.csv")).unwrap().record_count = 10;
        let delta = a.diff(&b);
        assert_eq!(delta.len(), 1);
        assert!(matches!(&delta[0], Mutation::Put(f) if f.record_count == 10));
    }

    #[test]
    fn content_fingerprint_ignores_generation() {
        let mut a = Catalog::new();
        a.put(ds("a.csv", &["t"]));
        let mut b = a.clone();
        // bump b's generation without changing content
        let _ = b.iter_mut();
        assert!(b.generation() > a.generation());
        assert_eq!(a.content_fingerprint(), b.content_fingerprint());
        // content changes move the fingerprint
        b.put(ds("b.csv", &[]));
        assert_ne!(a.content_fingerprint(), b.content_fingerprint());
        let fp = b.content_fingerprint();
        b.set_property("k", "v");
        assert_ne!(fp, b.content_fingerprint());
    }

    #[test]
    fn iteration_is_id_ordered() {
        let mut c = Catalog::new();
        c.put(ds("zzz.csv", &[]));
        c.put(ds("aaa.csv", &[]));
        let ids: Vec<DatasetId> = c.iter().map(|d| d.id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }
}
