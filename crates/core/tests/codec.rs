//! The store codec under hostile bytes, and its size.
//!
//! The payload decoders sit below a CRC, which stops accidents, not a
//! decoder bug: whatever bytes they are handed they must return a catalog,
//! a mutation, an [`Image`] or [`Error::Corrupt`](metamess_core::Error) —
//! never panic, and never reserve memory on the word of a count they have
//! not checked against the bytes that remain. An image that parses is read
//! back through every [`RowView`](metamess_core::store::RowView) and
//! decoded row, which must not panic either, and must decode to what
//! `decode_catalog` decodes, bit for bit. Each seed of
//! `mutated_payloads_decode_or_are_corrupt` damages a valid snapshot
//! payload and a valid WAL record twelve ways each;
//! `METAMESS_TORTURE_CASES` scales it (default 300 seeds;
//! `scripts/verify.sh` runs 1000, which is 24 000 mutants).
//!
//! An image the encoder builds for itself — [`Image::encode`],
//! [`put_image`], [`encode_rows_of`] — is never parsed, so
//! `encoder_built_images_are_what_their_payloads_parse_to` holds each to
//! what parsing its payload finds. `encode_rows_of` renumbers the variable
//! descriptors of each image it reads from;
//! `rows_of_a_snapshot_and_two_puts_sharing_descriptors_transcode_to_the_catalogs_bytes`
//! holds a snapshot's rows and two puts' that share its descriptors to the
//! bytes `encode_catalog` writes.
//!
//! A number is written as its short decimal when it has one and as its
//! eight bits otherwise; `every_float_round_trips_and_has_one_encoding`
//! holds the edges of both forms and `METAMESS_TORTURE_CASES` seeds of
//! random ones to a bit-exact round trip through a put and a snapshot, to
//! bytes that re-encode to themselves, and to no more than eight bytes.
//!
//! A decoded variable's hierarchy is its image's: variables decoded from one
//! image with one path hold one shared [`Hierarchy`], and encode to the
//! bytes they were decoded from
//! (`decoded_variables_of_one_image_share_each_hierarchy`).

mod catalogs;
mod common;

use catalogs::{archive_like, seeded_catalog};
use common::{sweep, Rng};
use metamess_core::catalog::{Catalog, Mutation};
use metamess_core::feature::{DatasetFeature, Hierarchy, VariableFeature};
use metamess_core::geo::GeoBBox;
use metamess_core::id::DatasetId;
use metamess_core::store::codec::{
    decode_catalog, encode_catalog, encode_mutation, encode_rows_of, parse_record, put_image,
};
use metamess_core::store::{
    crc32, std_vfs, DurableCatalog, Image, Row, StoreOptions, Wal, WalRecord, WAL_MAGIC,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Remembers the largest single request each thread has made of the
/// allocator, and otherwise is the system allocator.
struct LargestRequest;

thread_local! {
    // const-initialised and without a destructor: reading it allocates
    // nothing and is sound at any point of a thread's life
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller was held to; `note` touches only a
// `Cell<usize>` and cannot allocate, unwind or re-enter.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

/// The mutation one WAL record's payload logs, its put's row decoded.
fn parse_mutation(payload: &[u8]) -> metamess_core::Result<Mutation> {
    Ok(match parse_record(payload)? {
        WalRecord::Put(row) => Mutation::Put(Box::new(row.decode())),
        WalRecord::Delete(id) => Mutation::Delete(id),
        WalRecord::SetProperty { key, value } => Mutation::SetProperty { key, value },
    })
}

/// Runs `decode` on `bytes` and holds it to the contract: no panic (the
/// sweep names the seed), nothing but `Corrupt` for an error, and no single
/// allocation out of proportion to the input — a decoded `Vec` of the
/// widest item (a 16-byte table entry per input byte) is the most any
/// honest count can ask for.
fn decodes_or_is_corrupt<T>(
    bytes: &[u8],
    decode: impl FnOnce(&[u8]) -> metamess_core::Result<T>,
) -> bool {
    LARGEST.set(0);
    let decoded = decode(bytes);
    let largest = LARGEST.get();
    assert!(
        largest <= 16 * bytes.len() + 4096,
        "a {}-byte payload made the decoder ask for {largest} bytes at once",
        bytes.len()
    );
    match decoded {
        Ok(_) => true,
        Err(e) => {
            assert!(e.is_corrupt(), "not reported as corruption: {e}");
            false
        }
    }
}

/// A put record's bytes for `f`, which compare NaN and −0.0 by their bits.
fn put_record(f: &DatasetFeature) -> Vec<u8> {
    let mut record = Vec::new();
    encode_mutation(&Mutation::Put(Box::new(f.clone())), &mut record);
    record
}

/// Each row of the image `bytes` parse to, by id (the last of an id wins,
/// as in a catalog), read in place and then decoded: the decoded row as a
/// put record's bytes, which compare NaN and −0.0 by their bits.
fn image_rows(bytes: &[u8]) -> metamess_core::Result<BTreeMap<DatasetId, Vec<u8>>> {
    let image = Arc::new(Image::parse(bytes.to_vec())?);
    let mut rows = BTreeMap::new();
    for row in image.rows() {
        let view = row.view();
        let mut searchable = 0;
        view.numbered_variables(|number, _| {
            searchable += usize::from(image.searchable_spelling(number).is_some());
        });
        let decoded = row.decode();
        assert_eq!((view.id(), row.id()), (decoded.id, decoded.id));
        let (dir, name) = view.path();
        assert_eq!(
            ([dir, name].concat(), view.title()),
            (decoded.path.clone(), &decoded.title[..])
        );
        assert_eq!(searchable, decoded.searchable_variables().count());
        assert_eq!(view.variable_count(), decoded.variables.len());
        rows.insert(row.id(), put_record(&decoded));
    }
    Ok(rows)
}

/// Holds a snapshot mutant's image to its decode: the rows of the one are
/// the entries of the other, bit for bit, and the two refuse alike.
fn image_agrees_with_the_decoder(bytes: &[u8]) -> bool {
    let decoded = decodes_or_is_corrupt(bytes, decode_catalog);
    let parsed = decodes_or_is_corrupt(bytes, image_rows);
    if let (Ok((catalog, _)), Ok(rows)) = (decode_catalog(bytes), image_rows(bytes)) {
        let entries: BTreeMap<DatasetId, Vec<u8>> =
            catalog.iter().map(|f| (f.id, put_record(f))).collect();
        assert_eq!(rows, entries, "an image row decodes unlike the decoder");
    }
    // a put's payload parses as an image and not as a catalog; nothing else
    // may tell the two apart
    assert!(parsed || !decoded, "decode_catalog took what Image::parse refused");
    decoded
}

/// A small valid snapshot payload and a small valid WAL record payload.
fn images() -> (Vec<u8>, Vec<u8>) {
    let mut rng = Rng(19);
    let catalog = images_catalog(&mut rng);
    let mut record = Vec::new();
    encode_mutation(&Mutation::Put(Box::new(archive_like(3, &mut rng))), &mut record);
    (encode_catalog(&catalog), record)
}

/// The catalog of [`images`]' snapshot, drawn from `rng` (seeded 19): three
/// datasets of the archive's shape, and one whose variable never saw a
/// number (+inf and −inf in the image).
fn images_catalog(rng: &mut Rng) -> Catalog {
    let mut catalog = Catalog::new();
    for i in 0..3 {
        catalog.put(archive_like(i, rng));
    }
    let mut text_only = DatasetFeature::new("notes.csv");
    text_only.variables.push(VariableFeature::new("station"));
    catalog.put(text_only);
    catalog.set_property("archive", "sim");
    catalog
}

/// 2^62 as a varint: a count no payload has room for.
const HUGE: [u8; 9] = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40];

/// Damages `image` one way: a flipped bit, a lost tail, a count of 2^62 or
/// a byte no table has an entry for written over a random place, a range
/// cut out, noise let in, or a range repeated.
fn mutate(image: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut bytes = image.to_vec();
    let at = rng.size(0, bytes.len());
    let span = at..(at + rng.size(1, 17)).min(bytes.len());
    match rng.below(7) {
        0 => bytes[at] ^= 1 << rng.below(8),
        1 => bytes.truncate(at),
        2 => drop(bytes.splice(at..at + 1, HUGE)),
        3 => bytes[at] = *rng.pick(&[0x7f, 0x80, 0xff]),
        4 => drop(bytes.drain(span)),
        5 => drop(bytes.splice(at..at, rng.bytes(1, 17))),
        _ => {
            let repeated = bytes[span].to_vec();
            let to = rng.size(0, bytes.len());
            drop(bytes.splice(to..to, repeated));
        }
    }
    bytes
}

/// The snapshot payloads of `catalog` and of the catalog whose variable `v`
/// of dataset `ix` has a total that is not its row's record count, both at
/// one generation, and where that variable's decimals byte is: the first
/// byte in which the two differ.
fn decimals_byte(catalog: &Catalog, ix: usize, v: usize) -> (Vec<u8>, Vec<u8>, usize) {
    let (mut implied, mut written) = (catalog.clone(), catalog.clone());
    let _ = implied.iter_mut();
    let f = written.iter_mut().nth(ix).unwrap();
    f.variables[v].total_count = f.record_count + 1;
    let (implied, written) = (encode_catalog(&implied), encode_catalog(&written));
    let at = implied.iter().zip(&written).position(|(a, b)| a != b).unwrap();
    (implied, written, at)
}

/// Where, in `payload`, the `dir` word of the row whose path ends in the
/// name `name` is: the varint just before the name's length and bytes.
fn dir_word(payload: &[u8], name: &str) -> std::ops::Range<usize> {
    let spelled = [&[name.len() as u8][..], name.as_bytes()].concat();
    let end = payload.windows(spelled.len()).position(|w| w == spelled).unwrap();
    let start = (0..end - 1).rev().find(|&at| payload[at] & 0x80 == 0).map_or(0, |at| at + 1);
    start..end
}

/// `v` as a varint.
fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

/// The snapshot of `images`' catalog damaged where format 6 reads what a
/// row implies: a variable's "total is the record count" bit cleared (its
/// total is then read from the bytes that follow) or set over a written
/// total, and a row's `dir` word replaced by another reference, one past
/// the table, or one that marks an own id.
fn implied_field_mutants(rng: &mut Rng) -> Vec<Vec<u8>> {
    let catalog = images_catalog(&mut Rng(19));
    let bytes = encode_catalog(&catalog);
    let ix = rng.size(0, catalog.len());
    let f = catalog.iter().nth(ix).unwrap();
    let (mut cleared, mut set, at) = decimals_byte(&catalog, ix, rng.size(0, f.variables.len()));
    assert_eq!((cleared[at] & 1, set[at] & 1), (1, 0), "the decimals byte");
    cleared[at] &= !1;
    set[at] |= 1;
    let (_, table) = decode_catalog(&bytes).unwrap();
    let word = dir_word(&bytes, f.path.rsplit('/').next().unwrap());
    let reference = rng.below(table as u64 + 2);
    let mut moved = bytes.clone();
    moved.splice(word, varint(reference << 1 | rng.below(2)));
    vec![cleared, set, moved]
}

fn cases() -> u64 {
    std::env::var("METAMESS_TORTURE_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(300)
}

#[test]
fn mutated_payloads_decode_or_are_corrupt() {
    let (snapshot, record) = images();
    assert!(image_agrees_with_the_decoder(&snapshot));
    assert!(decodes_or_is_corrupt(&record, parse_mutation));
    assert!(decodes_or_is_corrupt(&record, image_rows));
    let dir = std::env::temp_dir().join(format!("metamess-codec-hostile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("wal.log");
    let framed = |payload: &[u8]| {
        let mut r = (payload.len() as u32).to_le_bytes().to_vec();
        r.extend_from_slice(&crc32(payload).to_le_bytes());
        r.extend_from_slice(payload);
        r
    };
    let mut undecodable = 0u64;
    sweep(cases(), |rng| {
        for _ in 0..12 {
            undecodable += !image_agrees_with_the_decoder(&mutate(&snapshot, rng)) as u64;
        }
        for mutant in implied_field_mutants(rng) {
            image_agrees_with_the_decoder(&mutant);
        }
        let mut first_bad = None;
        for _ in 0..12 {
            let mutant = mutate(&record, rng);
            let parsed = decodes_or_is_corrupt(&mutant, image_rows);
            if !decodes_or_is_corrupt(&mutant, parse_mutation) {
                undecodable += 1;
                first_bad.get_or_insert(mutant);
            } else if let (Ok(Mutation::Put(f)), Ok(rows)) =
                (parse_mutation(&mutant), image_rows(&mutant))
            {
                // a put record decodes alike as a mutation and as an image
                let mut record = Vec::new();
                encode_mutation(&Mutation::Put(f), &mut record);
                assert_eq!(rows.into_values().collect::<Vec<_>>(), [record]);
                assert!(parsed);
            }
        }
        // Under a CRC that verifies, an undecodable record is where a log
        // stops: the record before it is served, the one after is not.
        let Some(bad) = first_bad else { return };
        let log = [&WAL_MAGIC[..], &framed(&record), &framed(&bad), &framed(&record)].concat();
        std::fs::write(&wal, log).unwrap();
        let tail = Wal::read_from(std_vfs().as_ref(), &wal, 0).unwrap();
        assert_eq!(tail.records.len(), 1);
        assert_eq!(tail.new_offset, (WAL_MAGIC.len() + 8 + record.len()) as u64);
        assert!(tail.stopped_early.unwrap().starts_with("undecodable mutation"));
    });
    // the format is dense: most damage must be caught by the decoder itself
    assert!(undecodable > cases() * 12, "only {undecodable} mutants were refused");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_strict_prefix_is_corrupt() {
    let (snapshot, record) = images();
    for n in 0..snapshot.len() {
        assert!(!decodes_or_is_corrupt(&snapshot[..n], decode_catalog), "snapshot cut at {n}");
        assert!(!decodes_or_is_corrupt(&snapshot[..n], image_rows), "snapshot cut at {n}");
    }
    for n in 0..record.len() {
        assert!(!decodes_or_is_corrupt(&record[..n], parse_mutation), "record cut at {n}");
        assert!(!decodes_or_is_corrupt(&record[..n], image_rows), "record cut at {n}");
    }
}

/// `image` is what [`Image::parse`] makes of its payload: the same bytes,
/// table and row starts, and each row decodes alike, bit for bit.
fn parses_to_itself(image: &Arc<Image>) {
    let parsed = Arc::new(Image::parse(image.payload().to_vec()).unwrap());
    assert_eq!(parsed, *image);
    assert_eq!(parsed.table_entries(), image.table_entries());
    for (ours, theirs) in image.rows().zip(parsed.rows()) {
        assert_eq!(put_record(&ours.decode()), put_record(&theirs.decode()));
    }
}

#[test]
fn encoder_built_images_are_what_their_payloads_parse_to() {
    sweep(60, |rng| {
        let catalog = seeded_catalog(rng);
        let features: Vec<&DatasetFeature> = catalog.iter().collect();
        let encoded = Arc::new(Image::encode(&features));
        parses_to_itself(&encoded);
        for (row, f) in encoded.rows().zip(&features) {
            assert_eq!(put_record(&row.decode()), put_record(f));
        }
        // a put's image is its WAL record
        let puts: Vec<Arc<Image>> =
            features.iter().map(|f| Arc::new(put_image(f, &mut Vec::new()))).collect();
        for (put, f) in puts.iter().zip(&features) {
            assert_eq!(put.payload(), &put_record(f)[..]);
            parses_to_itself(put);
        }
        // rows of either, mixed as a writer holds them, transcode to the
        // snapshot of the catalog they decode to
        let rows: Vec<Row> = encoded
            .rows()
            .zip(&puts)
            .map(|(row, put)| if rng.coin() { row } else { put.rows().next().unwrap() })
            .collect();
        let snapshot =
            Arc::new(encode_rows_of(catalog.generation(), catalog.properties(), rows.iter()));
        assert_eq!(snapshot.payload(), &encode_catalog(&catalog)[..]);
        parses_to_itself(&snapshot);
    });
    let empty = Arc::new(Image::encode(&[]));
    parses_to_itself(&empty);
    let none = encode_rows_of(0, &BTreeMap::new(), std::iter::empty::<&Row>());
    assert_eq!(none.payload(), empty.payload());
}

/// A catalog of the archive's shape whose paths are at the top level, deep
/// or the archive's own, in which some variables' totals are not their
/// rows' record counts and some datasets' ids are not their paths' hashes.
fn paths_totals_and_ids(rng: &mut Rng) -> Catalog {
    let mut catalog = Catalog::new();
    for i in 0..rng.size(1, 12) {
        let mut f = archive_like(i, rng);
        match rng.below(3) {
            0 => f.path = format!("top-{i}.csv"),
            1 => f.path = format!("a/b/c/d/e/f/{i}/deep.csv"),
            _ => {}
        }
        f.id = DatasetId::from_path(&f.path);
        if rng.coin() {
            let v = rng.size(0, f.variables.len());
            f.variables[v].total_count = rng.below(f.record_count + 2);
        }
        if rng.below(4) == 0 {
            f.id = DatasetId(rng.next());
        }
        catalog.put(f);
    }
    catalog
}

#[test]
fn what_a_row_implies_and_what_it_writes_round_trip() {
    sweep(cases(), |rng| {
        let catalog = paths_totals_and_ids(rng);
        let bytes = encode_catalog(&catalog);
        assert_eq!(decode_catalog(&bytes).unwrap().0, catalog);
        let image = Arc::new(Image::parse(bytes).unwrap());
        for (row, f) in image.rows().zip(catalog.iter()) {
            let (dir, name) = row.view().path();
            assert_eq!((row.id(), [dir, name].concat()), (f.id, f.path.clone()));
            assert!(name.len() < f.path.len() || !f.path.contains('/'), "{dir} + {name}");
            assert_eq!(row.decode(), *f);
            let m = Mutation::Put(Box::new(f.clone()));
            assert_eq!(parse_mutation(&put_record(f)).unwrap(), m);
        }
    });
}

/// A dataset whose id is not the hash of its path keeps its id: the row
/// writes it, behind the `dir` word's marker, through the log, a
/// checkpoint and a replacement.
#[test]
fn a_store_keeps_an_id_that_is_not_its_paths_hash() {
    let dir = std::env::temp_dir().join(format!("metamess-codec-own-id-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut own = archive_like(0, &mut Rng(5));
    own.id = DatasetId(7);
    let hashed = archive_like(1, &mut Rng(6));
    let mut store = DurableCatalog::open(&dir, StoreOptions::default()).unwrap();
    store.put(own.clone()).unwrap();
    store.put(hashed.clone()).unwrap();
    let want = store.catalog();
    assert_eq!(want.get(DatasetId(7)), Some(&own));
    drop(store);
    for step in ["the log", "a checkpoint", "a replacement"] {
        let mut store = DurableCatalog::open(&dir, StoreOptions::default()).unwrap();
        assert!(store.catalog().iter().eq(want.iter()), "after {step}");
        assert_eq!(store.catalog().get(DatasetId::from_path(&own.path)), None);
        match step {
            "the log" => store.checkpoint().unwrap(),
            _ => store.replace_with(&want).unwrap(),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rows_of_a_snapshot_and_two_puts_sharing_descriptors_transcode_to_the_catalogs_bytes() {
    let mut rng = Rng(23);
    let mut catalog = Catalog::new();
    for i in 0..10 {
        catalog.put(archive_like(i, &mut rng));
    }
    catalog.set_property("archive", "sim");
    let snapshot = Arc::new(Image::parse(encode_catalog(&catalog)).unwrap());
    let variables: usize = catalog.iter().map(|f| f.variables.len()).sum();
    assert!(snapshot.descriptors() < variables, "the archive's variables share descriptors");
    // two puts whose variables are one snapshot dataset's, in reverse, so
    // each put numbers their descriptors unlike the snapshot: one replaces
    // a dataset the snapshot holds, one is new
    let template: Vec<VariableFeature> =
        catalog.iter().nth(7).unwrap().variables.iter().rev().cloned().collect();
    let mut replaced = catalog.iter().nth(4).unwrap().clone();
    replaced.variables = template.clone();
    let mut added = archive_like(10, &mut rng);
    added.variables = template;
    let puts: Vec<Arc<Image>> =
        [&replaced, &added].map(|f| Arc::new(put_image(f, &mut Vec::new()))).into();
    assert_eq!(puts[0].descriptors(), puts[1].descriptors());
    let mut rows: BTreeMap<DatasetId, Row> = snapshot.rows().map(|row| (row.id(), row)).collect();
    for put in &puts {
        let row = put.rows().next().unwrap();
        rows.insert(row.id(), row);
    }
    catalog.put(replaced);
    catalog.put(added);
    let image = encode_rows_of(catalog.generation(), catalog.properties(), rows.values());
    assert_eq!(image.payload(), &encode_catalog(&catalog)[..]);
    parses_to_itself(&Arc::new(image));
}

/// Every form and edge the number encoding meets: both zeros, NaN payloads,
/// ±inf, subnormals, `0.1 + 0.2`, a decimal at every scale with the largest
/// mantissa that scale takes, and the bound of the decimal form with the
/// `f64`s one ulp either side of it.
fn edge_numbers() -> Vec<f64> {
    let step = |v: f64, ulps: i64| f64::from_bits(v.to_bits().wrapping_add_signed(ulps));
    let mut edges = vec![
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001), // signalling
        f64::from_bits(0xfff8_dead_beef_0001), // negative, with a payload
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::from_bits(1),
        -f64::from_bits(1),
        f64::MIN_POSITIVE / 3.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        0.1 + 0.2,
        0.3,
        1e-8,
        100_000_001.0,
        1e15,
        9_007_199_254_740_993.0,
    ];
    for (s, power) in POWERS.into_iter().enumerate() {
        let largest = (10i64.pow(8 + s as u32) - 1) as f64;
        edges.extend([3.0 / power, -1_234_567.0 / power, largest / power, -largest / power]);
    }
    for bound in [1e8, -1e8, 99_999_999.999_999_9] {
        edges.extend([bound, step(bound, 1), step(bound, -1)]);
    }
    edges
}

/// `10^s` for each scale a decimal is written at.
const POWERS: [f64; 8] = [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7];

/// Random bit patterns, decimals at random scales, the `f64`s one ulp from
/// them, and uniform draws like the archive's bbox corners.
fn random_numbers(rng: &mut Rng) -> Vec<f64> {
    rng.vec(8, 40, |rng| {
        let s = rng.size(0, 8);
        let bound = 10i64.pow(8 + s as u32);
        let decimal = rng.range(-bound, bound + 1) as f64 / POWERS[s];
        match rng.below(4) {
            0 => f64::from_bits(rng.next()),
            1 => decimal,
            2 => f64::from_bits(decimal.to_bits().wrapping_add_signed(rng.range(-2, 3))),
            _ => rng.float(-200.0, 200.0),
        }
    })
}

/// Two datasets holding four of the numbers each — as a box and a summary,
/// and as a point — and the bits of every number each holds.
fn holding(at: usize, [a, b, c, d]: [f64; 4]) -> [DatasetFeature; 2] {
    let dataset = |path: String, bbox: GeoBBox| {
        let mut f = DatasetFeature::new(path);
        f.bbox = Some(bbox);
        let mut v = VariableFeature::new("x");
        (v.summary.min, v.summary.max, v.summary.mean) = (d, c, b);
        f.variables.push(v);
        f
    };
    [
        dataset(format!("box{at}.csv"), GeoBBox { min_lat: a, max_lat: b, min_lon: c, max_lon: d }),
        dataset(
            format!("point{at}.csv"),
            GeoBBox { min_lat: c, max_lat: c, min_lon: a, max_lon: a },
        ),
    ]
}

fn bits(f: &DatasetFeature) -> [u64; 7] {
    let (b, s) = (f.bbox.unwrap(), &f.variables[0].summary);
    [b.min_lat, b.max_lat, b.min_lon, b.max_lon, s.min, s.max, s.mean].map(f64::to_bits)
}

/// Holds every number of `numbers` to the encoding's contract: through a put
/// and through a snapshot it comes back bit for bit, the bytes it comes back
/// as encode to the bytes it was read from, and it takes no more bytes than
/// the eight it took in format 2. Returns how many take fewer.
fn round_trips(numbers: &[f64]) -> usize {
    let mut catalog = Catalog::new();
    for (at, window) in numbers.windows(4).enumerate() {
        for f in holding(at, window.try_into().unwrap()) {
            let record = put_record(&f);
            let Mutation::Put(back) = parse_mutation(&record).unwrap() else { panic!("a put") };
            assert_eq!(bits(&back), bits(&f), "{}: {window:?}", f.path);
            assert_eq!(put_record(&back), record, "{}: {window:?}", f.path);
            catalog.put(f);
        }
    }
    let snapshot = encode_catalog(&catalog);
    let (back, _) = decode_catalog(&snapshot).unwrap();
    for (got, want) in back.iter().zip(catalog.iter()) {
        assert_eq!(bits(got), bits(want), "{}", want.path);
    }
    assert_eq!(encode_catalog(&back), snapshot);
    // read in place, trusting the parse
    let image = Arc::new(Image::parse(snapshot).unwrap());
    for (row, want) in image.rows().zip(catalog.iter()) {
        assert_eq!(row.view().bbox().map(|b| b.min_lat.to_bits()), Some(bits(want)[0]));
    }
    let mut shorter = 0;
    for &v in numbers {
        let [mut written, _] = holding(0, [1.5, 2.5, 3.5, 4.5]);
        let mut raw = written.clone();
        written.variables[0].summary.min = v;
        raw.variables[0].summary.min = f64::NAN;
        let (written, raw) = (put_record(&written).len(), put_record(&raw).len());
        assert!(written <= raw, "{v:e} takes {} bytes more than eight", written - raw);
        shorter += usize::from(written < raw);
    }
    shorter
}

#[test]
fn every_float_round_trips_and_has_one_encoding() {
    let edges = edge_numbers();
    // 0.0, 0.3, ±1e8, and 28 of the 32 at each scale: the largest
    // mantissas of scales 6 and 7 take eight bytes as decimals too
    assert_eq!(round_trips(&edges), 32);
    let (mut shorter, mut all) = (0, 0);
    sweep(cases(), |rng| {
        let numbers = random_numbers(rng);
        shorter += round_trips(&numbers);
        all += numbers.len();
    });
    assert!(shorter > all / 5 && shorter < all / 2, "{shorter} of {all} took fewer bytes");
}

/// The size gate, without the benchmark: ROADMAP's ≤ 1000 B/dataset.
#[test]
fn a_thousand_archive_like_datasets_fit_in_a_thousand_bytes_each() {
    let mut rng = Rng(1);
    let mut catalog = Catalog::new();
    for i in 0..1000 {
        catalog.put(archive_like(i, &mut rng));
    }
    let binary = encode_catalog(&catalog);
    assert_eq!(binary, encode_catalog(&catalog), "two encodes of one catalog differ");
    assert_eq!(decode_catalog(&binary).unwrap().0, catalog);
    let json = serde_json::to_vec(&catalog).unwrap();
    let per_dataset = binary.len() / catalog.len();
    assert!(per_dataset <= 1000, "{per_dataset} B/dataset");
    assert!(
        json.len() as f64 >= 2.5 * binary.len() as f64,
        "{} B as JSON is not 2.5x {} B",
        json.len(),
        binary.len()
    );
}

/// How many distinct paths `variables` hold, checking that each path is
/// held as one shared [`Hierarchy`].
fn shared_paths<'a>(variables: impl Iterator<Item = &'a VariableFeature>) -> usize {
    let mut first: HashMap<&[String], &Hierarchy> = HashMap::new();
    for v in variables {
        let held = first.entry(&v.hierarchy[..]).or_insert(&v.hierarchy);
        assert!(Hierarchy::ptr_eq(held, &v.hierarchy), "{:?} is held twice", v.hierarchy);
    }
    first.len()
}

#[test]
fn decoded_variables_of_one_image_share_each_hierarchy() {
    let mut rng = Rng(7);
    let mut catalog = Catalog::new();
    for i in 0..60 {
        catalog.put(archive_like(i, &mut rng));
    }
    catalog.put(odd_dataset());
    let bytes = encode_catalog(&catalog);
    let image = Arc::new(Image::parse(bytes.clone()).unwrap());
    let (decoded, _) = decode_catalog(&bytes).unwrap();
    let whole = image.catalog();
    let rows: Vec<DatasetFeature> = image.rows().map(|row| row.decode()).collect();
    // six concepts and the path of none, across many more descriptors
    assert!(image.descriptors() > 7, "{} descriptors", image.descriptors());
    assert_eq!(shared_paths(decoded.iter().flat_map(|d| &d.variables)), 7);
    // every decode of one image hands out the same paths
    let variables = whole.iter().flat_map(|d| &d.variables);
    assert_eq!(shared_paths(variables.chain(rows.iter().flat_map(|d| &d.variables))), 7);
    // and they encode to the bytes they came from
    assert_eq!(encode_catalog(&decoded), bytes);
    assert_eq!(encode_catalog(&whole), bytes);
    for (row, f) in image.rows().zip(&rows) {
        assert_eq!(put_record(f), put_record(&row.decode()));
        assert_eq!(f, catalog.get(f.id).unwrap());
    }
}

/// A dataset whose one variable has no hierarchy.
fn odd_dataset() -> DatasetFeature {
    let mut f = DatasetFeature::new("odd.csv");
    f.variables.push(VariableFeature::new("station"));
    f
}

/// The bytes a dataset with 0, 1 and 3 external pairs encodes to as a put
/// record, and the content fingerprint of a catalog holding it: the format
/// and the pipeline's digests, which the pairs' in-memory form must not
/// move. The pairs are inserted out of key order; a row holds them in key
/// order.
#[test]
fn external_pairs_encode_to_their_golden_bytes_and_fingerprints() {
    /// The pairs, the put record's hex, the catalog's fingerprint, and the
    /// record's length in format 5.
    type Case = (&'static [(&'static str, &'static str)], &'static str, u64, usize);
    let cases: [Case; 3] = [
        (
            &[],
            concat!(
                "0601021273746174696f6e732f73617475726e30312f00000008323031302e6373761a73746174696f6e",
                "732f73617475726e30312f323031302e637376000000000000000000000000010000",
            ),
            3_101_079_681_275_697_325,
            82,
        ),
        (
            &[("context", "buoy")],
            concat!(
                "0601041273746174696f6e732f73617475726e30312f0007636f6e746578740462756f79000008323031",
                "302e6373761a73746174696f6e732f73617475726e30312f323031302e63737600000000000000000000",
                "00000101020300",
            ),
            13_982_510_857_997_978_718,
            97,
        ),
        (
            &[("station", "saturn01"), ("context", "buoy"), ("principal_investigator", "Megler")],
            concat!(
                "0601081273746174696f6e732f73617475726e30312f0007636f6e746578740462756f79167072696e63",
                "6970616c5f696e76657374696761746f72064d65676c65720773746174696f6e0873617475726e303100",
                "0008323031302e6373761a73746174696f6e732f73617475726e30312f323031302e6373760000000000",
                "00000000000000010302030405060700",
            ),
            11_551_223_942_594_595_087,
            148,
        ),
    ];
    for (pairs, golden, fingerprint, format_5) in cases {
        let mut f = DatasetFeature::new("stations/saturn01/2010.csv");
        for (k, v) in pairs {
            f.external.insert(k.to_string(), v.to_string());
        }
        let hex: String = put_record(&f).iter().map(|b| format!("{b:02x}")).collect();
        let mut catalog = Catalog::new();
        catalog.put(f);
        assert_eq!(hex, golden, "{} pairs", pairs.len());
        assert_eq!(catalog.content_fingerprint(), fingerprint, "{} pairs", pairs.len());
        // format 5 wrote the id and the path whole: 8 + 27 bytes, where
        // the directory's table entry, its reference and the name take 29
        assert_eq!(format_5 - golden.len() / 2, 8 + 27 - 29, "{} pairs", pairs.len());
    }
}
