//! A catalog keeps each distinct variable descriptor once, and a write is
//! copy-on-write.
//!
//! Equal descriptors are one allocation in a catalog built by puts, in one
//! decoded from a store's rows — one image, or a snapshot and WAL puts, each
//! an image of its own — and in a clone. A write through one variable
//! changes no other variable: not in its catalog, not in a clone, not in a
//! twin decoded from the catalog's image. A catalog that shares its
//! descriptors encodes to the bytes of one whose every variable holds a
//! private descriptor. [`Catalog::map_descriptors`] rewrites what a write
//! through each variable rewrites, holding one allocation per result and
//! dropping what no variable holds.
//!
//! Seeded sweeps over `tests/catalogs`; `METAMESS_TORTURE_CASES` scales them
//! (default 40 seeds).

mod catalogs;
mod common;

use catalogs::{seeded_catalog, seeded_dataset};
use common::{sweep, Rng};
use metamess_core::catalog::Catalog;
use metamess_core::feature::{DatasetFeature, VariableDescriptor, VariableFeature};
use metamess_core::store::codec::{decode_catalog, encode_catalog};
use metamess_core::store::{DurableCatalog, Image, StoreOptions};
use std::collections::HashMap;
use std::sync::Arc;

fn cases() -> u64 {
    std::env::var("METAMESS_TORTURE_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(40)
}

/// Panics unless every two variables of `catalogs` with equal descriptors
/// hold one allocation; returns how many distinct descriptors there are.
fn assert_one_allocation_each(what: &str, catalogs: &[&Catalog]) -> usize {
    let mut first: HashMap<&VariableDescriptor, &Arc<VariableDescriptor>> = HashMap::new();
    for v in catalogs.iter().flat_map(|c| c.iter()).flat_map(|d| &d.variables) {
        let shared = *first.entry(&**v.descriptor()).or_insert(v.descriptor());
        assert!(Arc::ptr_eq(shared, v.descriptor()), "{what}: {:?} is held twice", v.name);
    }
    first.len()
}

/// Every variable of `catalog`, in catalog order, with where it sits.
fn variables(catalog: &Catalog) -> Vec<(usize, usize, &VariableFeature)> {
    let rows = catalog.iter().enumerate();
    rows.flat_map(|(d, f)| f.variables.iter().enumerate().map(move |(v, var)| (d, v, var)))
        .collect()
}

#[test]
fn equal_descriptors_are_one_allocation_in_a_put_a_decoded_and_a_cloned_catalog() {
    let dir = std::env::temp_dir().join(format!("mm-descriptors-{}", std::process::id()));
    sweep(cases(), |rng| {
        let put = seeded_catalog(rng);
        let distinct = assert_one_allocation_each("put", &[&put]);
        assert!(distinct < put.variable_count(), "the seeded catalog repeats descriptors");

        let bytes = encode_catalog(&put);
        let (decoded, _) = decode_catalog(&bytes).unwrap();
        assert_eq!(assert_one_allocation_each("decoded", &[&decoded]), distinct);
        assert_eq!(encode_catalog(&decoded), bytes);

        // a clone shares the descriptors of the catalog it was cloned from
        let clone = put.clone();
        assert_eq!(assert_one_allocation_each("clone", &[&put, &clone]), distinct);

        // two decodes of one image's row hand out the same descriptors
        let image = Arc::new(Image::parse(bytes).unwrap());
        let row = image.rows().next().unwrap();
        let (a, b) = (row.decode(), row.decode());
        for (x, y) in a.variables.iter().zip(&b.variables) {
            assert!(Arc::ptr_eq(x.descriptor(), y.descriptor()));
        }

        // a snapshot and WAL puts: one image each, one catalog
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = DurableCatalog::open(&dir, StoreOptions::default()).unwrap();
        store.replace_with(&put).unwrap();
        for i in 0..rng.size(1, 4) {
            store.put(seeded_dataset(100 + i, rng)).unwrap();
        }
        let recovered = store.catalog();
        assert!(recovered.len() > put.len());
        assert_one_allocation_each("snapshot and puts", &[&recovered]);
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_write_through_one_variable_changes_no_other_variable() {
    sweep(cases(), |rng| {
        let mut catalog = seeded_catalog(rng);
        let bytes = encode_catalog(&catalog);
        let clone = catalog.clone();
        let (twin, _) = decode_catalog(&bytes).unwrap();

        let all = variables(&catalog);
        let (d, v, chosen) = all[rng.below(all.len() as u64) as usize];
        let was = chosen.clone();
        let id = catalog.iter().nth(d).unwrap().id;
        match rng.below(3) {
            0 => catalog.get_mut(id).unwrap().variables[v].context = Some("elsewhere".into()),
            1 => catalog.get_mut(id).unwrap().variables[v].flags.hidden ^= true,
            _ => catalog.get_mut(id).unwrap().variables[v].hierarchy = vec!["x".into()].into(),
        }

        // only the one variable moved, and only in its descriptor
        let written = &catalog.get(id).unwrap().variables[v];
        assert_ne!(**written, *was);
        assert_eq!(written.summary.count, was.summary.count);
        assert_eq!(written.summary.max.to_bits(), was.summary.max.to_bits());
        for ((d2, v2, now), (_, _, then)) in variables(&catalog).into_iter().zip(variables(&clone))
        {
            // compared as printed: a seeded summary may hold a NaN
            if (d2, v2) != (d, v) {
                assert_eq!(format!("{now:?}"), format!("{then:?}"), "dataset {d2} variable {v2}");
            }
        }
        // the clone and the decoded twin hold what they held
        assert_eq!(encode_catalog(&clone), bytes);
        assert_eq!(encode_catalog(&twin), bytes);
        assert_eq!(*clone.get(id).unwrap().variables[v].descriptor(), *was.descriptor());
    });
}

#[test]
fn a_shared_catalog_encodes_to_the_bytes_of_a_private_one() {
    sweep(cases(), |rng| {
        let shared = seeded_catalog(rng);
        let mut private = shared.clone();
        // a write through each variable leaves it a descriptor of its own
        for f in private.iter_mut() {
            for v in &mut f.variables {
                let _: &mut VariableDescriptor = v;
            }
        }
        assert!(private
            .iter()
            .flat_map(|f| &f.variables)
            .all(|v| { Arc::strong_count(v.descriptor()) == 1 }));
        // the writes moved the generation, which the fingerprint leaves out
        assert_eq!(private.content_fingerprint(), shared.content_fingerprint());
        let features: Vec<_> = private.iter().collect();
        let shared_features: Vec<_> = shared.iter().collect();
        assert_eq!(Image::encode(&features).payload(), Image::encode(&shared_features).payload());
    });
}

/// A seeded rewrite decided by a descriptor and its dataset's context:
/// left alone, a flag flipped, a hierarchy naming the context, or one
/// descriptor for every name.
fn seeded_rewrite(
    rng: &mut Rng,
) -> impl Fn(&VariableDescriptor, Option<&str>) -> Option<VariableDescriptor> {
    let salt = rng.below(4) as usize;
    let merged = (**VariableFeature::new("merged").descriptor()).clone();
    move |d, context| {
        let mut d = d.clone();
        match (d.name.len() + salt) % 4 {
            0 => return None,
            1 => d.flags.hidden ^= true,
            2 => d.hierarchy = vec!["mapped".to_string(), context.unwrap_or("-").into()].into(),
            _ => d = merged.clone(),
        }
        Some(d)
    }
}

#[test]
fn a_map_over_descriptors_rewrites_what_a_write_through_each_variable_rewrites() {
    sweep(cases(), |rng| {
        let mut mapped = Catalog::new();
        for i in 0..rng.size(8, 25) {
            let mut f = seeded_dataset(i, rng);
            if rng.coin() {
                let platform = f.external.get("platform").cloned().unwrap();
                f.external.insert("context".into(), platform);
            }
            mapped.put(f);
        }
        let mut lonely = DatasetFeature::new("stations/lonely.csv");
        lonely.variables.push(VariableFeature::new("lonely"));
        let lonely_id = lonely.id;
        mapped.put(lonely);
        let rewrite = seeded_rewrite(rng);

        // the same rewrite through each variable of a clone
        let expected = {
            let mut written = mapped.clone();
            let mut moved = Vec::new();
            for f in written.iter_mut() {
                let context = f.context().map(str::to_owned);
                for (ix, v) in f.variables.iter_mut().enumerate() {
                    match rewrite(v, context.as_deref()) {
                        Some(new) if new != **v => {
                            let d: &mut VariableDescriptor = v;
                            *d = new;
                            moved.push((f.id, ix));
                        }
                        _ => {}
                    }
                }
            }
            let features: Vec<_> = written.iter().collect();
            let payload = Image::encode(&features).payload().to_vec();
            (written.content_fingerprint(), payload, moved)
        };

        // one decision per (descriptor, context) key, told its holders
        let mut keys = HashMap::new();
        for f in mapped.iter() {
            for v in &f.variables {
                *keys
                    .entry((Arc::as_ptr(v.descriptor()), f.context().map(str::to_owned)))
                    .or_insert(0) += 1;
            }
        }
        let unheld = Arc::downgrade(mapped.get(lonely_id).unwrap().variables[0].descriptor());
        let generation = mapped.generation();
        let mut asked = HashMap::new();
        let moved = mapped.map_descriptors(|d, context, holders| {
            let key = (d as *const VariableDescriptor, context.map(str::to_owned));
            assert!(asked.insert(key, holders).is_none(), "{:?} asked twice", d.name);
            rewrite(d, context)
        });
        assert_eq!(asked, keys);

        assert_eq!(mapped.content_fingerprint(), expected.0);
        let features: Vec<_> = mapped.iter().collect();
        assert_eq!(Image::encode(&features).payload(), &expected.1[..]);
        assert_one_allocation_each("mapped", &[&mapped]);
        assert_eq!(moved, expected.2);
        // the lonely descriptor is dropped once its one variable moves
        assert_eq!(unheld.upgrade().is_none(), moved.contains(&(lonely_id, 0)));
        assert_eq!(mapped.generation(), generation + u64::from(!moved.is_empty()));

        // a map that decides nothing, or the descriptor itself, moves nothing
        let (generation, content) = (mapped.generation(), encode_catalog(&mapped));
        assert!(mapped.map_descriptors(|_, _, _| None).is_empty());
        assert!(mapped.map_descriptors(|d, _, _| Some(d.clone())).is_empty());
        assert_eq!(mapped.generation(), generation);
        assert_eq!(encode_catalog(&mapped), content);
    });
}
