//! The store's one row codec: the binary payload of a snapshot and of every
//! WAL record (`DESIGN.md § Durability` has the grammar).
//!
//! ```text
//! payload     := version:u8 kind:u8 table descriptors body
//! table       := count:varint (len:varint utf8)*     strings, first-use order
//! descriptors := count:varint descriptor*            first-use order, no two alike
//! descriptor  := name:ref present:u8 curation:u8 method:ref? canonical:ref? unit:ref?
//!                canonical_unit:ref? context:ref? count:varint level:ref*
//! catalog     := generation:varint  count:varint (key:str value:str)*  count:varint row*
//! put         := row        delete := id:u64le        set-property := key:str value:str
//! row         := dir:varint name:str id:u64le? title:str tag:u8 source:ref? corners
//!                time? records:varint fingerprint:u64le file_len:varint run:varint
//!                format:ref externals:varint (key:ref value:ref)* count:varint variable*
//! variable    := descriptor:varint decimals:u8 n:varint min max mean nulls:varint total:varint?
//! ```
//!
//! Counts, lengths and table references are LEB128 varints. A number — a
//! bbox corner, a summary's min, max or mean — is written as a decimal
//! when it has one: `m / 10^s` bit for bit, `s ≤ 7`, as the varint
//! `zigzag(m) << 3 | s` with the smallest such `s`. Anything else — ±inf,
//! NaN payloads, −0.0, subnormals, more digits — is its eight little-endian
//! bits, so every `f64` comes back as it went in (a variable that never saw
//! a number has `min = +inf`), and none takes more than eight bytes. Which
//! form each number has is marked in the tag byte of its row or variable,
//! and a box whose corners meet is written as a point, two numbers. Strings
//! that repeat across a curated catalog — variable names, canonical names,
//! units, contexts, hierarchy levels, source, format, external keys and
//! values — are written once, in the table, and referenced by index; so is
//! the directory of a path, everything up to and including its last `/`
//! (the empty string at the top level), which the datasets of one directory
//! share. The name after it and the `title` belong to one dataset and are
//! written in place. What
//! describes a variable — its name, curation, units, context and hierarchy
//! — repeats too: each distinct descriptor is written once, in the
//! descriptor table, and a variable refers to it by number, so variables of
//! one payload with one descriptor number are alike in all of it. Both
//! tables are ordered by first use, never by hash order, so one catalog
//! always encodes to the same bytes. A WAL record carries its own small
//! tables and is decodable on its own, from any
//! [`Wal::read_tail`](super::Wal::read_tail) offset.
//!
//! A row stores only what it alone knows. Its id is the hash of its path
//! ([`DatasetId::from_parts`] over the directory, then the name), so it is
//! not written: the `dir` word is the directory's table reference shifted
//! left by one, and its low bit is set only for a row whose id is not that
//! hash, which then writes its id after the name. A variable's total count
//! is most often the row's record count; bit 0 of its decimals byte says
//! so, and the total is then not written.
//!
//! A payload that holds rows — a snapshot, or a WAL put — is kept as an
//! [`Image`]: its bytes, its string table, where each descriptor and each
//! row starts, and each row's id, found once. A
//! [`Row`] is a shared image and a row number; its [`RowView`] reads the
//! fields a search engine needs in place, without allocating, and
//! [`Row::decode`] builds the owned [`DatasetFeature`] for the callers that
//! want one. A WAL record is parsed into a [`WalRecord`], a put's row
//! still encoded: recovery (every load) and `fsck` both lay those
//! records over rows ([`apply_records`](super::apply_records)), and none
//! decodes them. Every reader of a row — [`decode_catalog`], the view —
//! goes through the same `Decoder` routines, and every writer of one — a
//! feature's row, or a row transcoded from another image by
//! [`encode_rows_of`] — through the same `Encoder` routines.
//!
//! An image is checked in full when it is parsed, and the checks trust
//! nothing: every count is bounded by the bytes that remain before anything
//! is allocated for it, every reference by its table, every tag by its known
//! bits, every number by the form its writer would have chosen, every
//! descriptor by the earlier ones (none repeats, and each is first used in
//! table order), every path by where its writer would have split it, every
//! id and total by whether its writer would have written it, the rows of a
//! catalog by their ids, which ascend, and a payload must be consumed
//! exactly, so one catalog has one encoding. All
//! failures are [`Error::Corrupt`]. Reading a parsed image again checks
//! nothing and cannot fail. Bytes this
//! module has just encoded are not parsed: [`Image::encode`], [`put_image`],
//! [`encode_rows_of`] and the publish's `catalog_image` build the image from
//! the encoder's own tables, row starts and ids.

use crate::catalog::{Catalog, Mutation};
use crate::error::{Error, Result};
use crate::feature::{
    DatasetFeature, ExternalIter, ExternalMetadata, Hierarchy, NameResolution, Provenance,
    VariableDescriptor, VariableFeature, VariableFlags,
};
use crate::geo::GeoBBox;
use crate::id::DatasetId;
use crate::stats::NumericSummary;
use crate::time::{TimeInterval, Timestamp};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

/// The format generation this module writes and reads: the digit the
/// snapshot and WAL magics end in, and the first byte of every payload.
pub const FORMAT_VERSION: u8 = 6;

const KIND_CATALOG: u8 = 0;
const KIND_PUT: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_SET_PROPERTY: u8 = 3;

// Dataset tag: which optional fields follow.
const HAS_SOURCE: u8 = 1;
const HAS_BBOX: u8 = 1 << 1;
const HAS_TIME: u8 = 1 << 2;
/// The bbox's corners meet: only its latitude and longitude are written.
const POINT: u8 = 1 << 3;

// In the dataset tag and the variable's decimals byte, bit 4 + i is set
// when the i-th number the row or variable writes is a decimal: a row
// writes up to four bbox corners, a variable its min, max and mean.
const FIRST_DECIMAL: u8 = 1 << 4;
const DECIMALS: u8 = 0xf0;
const VARIABLE_DECIMALS: u8 = 0x70;
/// In the variable's decimals byte: its total count is its row's record
/// count, and is not written.
const TOTAL_IS_RECORDS: u8 = 1;

/// The low bit of a row's `dir` word: the row's id is not the hash of its
/// path, and follows the name.
const OWN_ID: u64 = 1;

/// `10^s` for each decimal scale `s`, each exact as an `f64`.
const POWERS: [f64; 8] = [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7];
/// The largest mantissa at each scale: `|m| · 10^(7 − s) ≤ 10^15`. Every
/// mantissa is then exact as an `f64`, so a decimal decodes by one correctly
/// rounded division, and decimals that differ decode to `f64`s that differ.
const MANTISSA_BOUND: [u64; 8] = [
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    100_000_000_000,
    1_000_000_000_000,
    10_000_000_000_000,
    100_000_000_000_000,
    1_000_000_000_000_000,
];

// Descriptor presence tag: which optional strings follow.
const HAS_CANONICAL: u8 = 1;
const HAS_UNIT: u8 = 1 << 1;
const HAS_CANONICAL_UNIT: u8 = 1 << 2;
const HAS_CONTEXT: u8 = 1 << 3;

// Descriptor curation tag: the resolution in the low three bits, then the
// flags and `unit_normalized`.
const RESOLUTION_MASK: u8 = 0b111;
const RESOLUTION_DISCOVERED: u8 = 3;
const FLAG_QA: u8 = 1 << 3;
const FLAG_AMBIGUOUS: u8 = 1 << 4;
const FLAG_HIDDEN: u8 = 1 << 5;
const UNIT_NORMALIZED: u8 = 1 << 6;

/// The fewest bytes a row, a variable, a string pair, a table entry and a
/// descriptor can take: what bounds a count read from the payload.
const MIN_ROW: usize = 18;
const MIN_VARIABLE: usize = 7;
const MIN_PAIR: usize = 2;
const MIN_ENTRY: usize = 1;
const MIN_DESCRIPTOR: usize = 4;

/// Table entries an encoder finds by scanning before it builds an index.
const SCANNED_TABLE: usize = 32;

/// Why reading a parsed image again cannot fail.
const CHECKED: &str = "an image is checked in full when it is parsed";

/// Encodes `catalog` — generation, properties, entries — as a snapshot
/// payload.
pub fn encode_catalog(catalog: &Catalog) -> Vec<u8> {
    encode_catalog_at(catalog, catalog.generation())
}

/// Hashes the content of `catalog`: its encoding with the generation left
/// out, so content-identical catalogs fingerprint alike.
pub(crate) fn content_fingerprint(catalog: &Catalog) -> u64 {
    crate::id::fnv1a(&encode_catalog_at(catalog, 0))
}

fn encode_catalog_at(catalog: &Catalog, generation: u64) -> Vec<u8> {
    catalog_encoder(generation, catalog.properties(), catalog.iter()).finish(KIND_CATALOG)
}

/// Encodes `catalog` as a snapshot payload at `generation` — the bytes
/// [`encode_catalog`] writes for it at that generation — and keeps it as the
/// image of its rows.
pub(crate) fn catalog_image(catalog: &Catalog, generation: u64) -> Image {
    catalog_encoder(generation, catalog.properties(), catalog.iter()).finish_image(
        KIND_CATALOG,
        generation,
        catalog.properties().clone(),
    )
}

/// An encoder holding the body of a catalog payload at `generation` with
/// `properties` and `features`.
fn catalog_encoder<'a>(
    generation: u64,
    properties: &BTreeMap<String, String>,
    features: impl ExactSizeIterator<Item = &'a DatasetFeature>,
) -> Encoder<'a> {
    let mut e = Encoder::new(Vec::new(), 1024);
    e.catalog_head(generation, properties, features.len());
    for f in features {
        e.row(f);
    }
    e
}

/// Encodes `rows` as a snapshot payload at `generation` with `properties`,
/// in the order given, and keeps it as the image of those rows. Each row is
/// transcoded from the image it is read from: its strings are entered into
/// the new table as they are met, and no feature is decoded. Rows in catalog
/// order encode to exactly the bytes [`encode_catalog`] writes for the
/// catalog they decode to.
pub fn encode_rows_of<'a>(
    generation: u64,
    properties: &BTreeMap<String, String>,
    rows: impl ExactSizeIterator<Item = &'a Row>,
) -> Image {
    /// Hands a row's lists on to the encoder. A descriptor of a source
    /// image is entered once and renumbered by its number after that: the
    /// new number of each one met so far is kept, by the address of its
    /// image, which every row borrowed here keeps alive.
    struct Transcode<'a> {
        e: Encoder<'a>,
        image: *const Image,
        renumbered: HashMap<(*const Image, u32), u64>,
    }
    impl<'a> RowSink<'a> for Transcode<'a> {
        fn externals(&mut self, count: usize) {
            self.e.varint(count as u64);
        }
        fn external(&mut self, key: &'a str, value: &'a str) {
            self.e.text(key);
            self.e.text(value);
        }
        fn variables(&mut self, count: usize) {
            self.e.varint(count as u64);
        }
        fn variable(&mut self, descriptor: u32, v: Var<'a>) {
            let e = &mut self.e;
            let renumbered = self.renumbered.entry((self.image, descriptor));
            let number = *renumbered.or_insert_with(|| e.descriptor(&v.descriptor));
            e.numbered_variable(number, &v.summary, v.null_count, v.total_count);
        }
    }
    let mut t = Transcode {
        e: Encoder::new(Vec::new(), 1024),
        image: std::ptr::null(),
        renumbered: HashMap::new(),
    };
    t.e.catalog_head(generation, properties, rows.len());
    for row in rows {
        let view = row.view();
        t.e.head(&view.head, view.id);
        t.image = Arc::as_ptr(row.image());
        let mut rest = view.rest;
        rest.lists(&mut t).expect(CHECKED);
    }
    t.e.finish_image(KIND_CATALOG, generation, properties.clone())
}

/// Encodes `f` as an image of one row whose payload is the WAL put record
/// [`encode_mutation`] writes for it: a put logged and kept as one encoding.
/// The record is written in `scratch`, which a writer keeps so that a run
/// of puts grows one buffer, and the image keeps an exact copy of it.
pub fn put_image(f: &DatasetFeature, scratch: &mut Vec<u8>) -> Image {
    let mut e = Encoder::new(std::mem::take(scratch), 32);
    e.row(f);
    let mut image = e.finish_image(KIND_PUT, 0, BTreeMap::new());
    let exact = image.payload().to_vec();
    *scratch = std::mem::replace(&mut image.bytes, exact);
    image
}

/// Decodes a snapshot payload, returning the catalog and the number of
/// entries in its string table.
pub fn decode_catalog(payload: &[u8]) -> Result<(Catalog, usize)> {
    let image = Image::catalog_at(payload.to_vec(), 0)?;
    Ok((image.catalog(), image.table_entries()))
}

/// Encodes one WAL record's payload into `out`, replacing what it held.
pub fn encode_mutation(m: &Mutation, out: &mut Vec<u8>) {
    let mut e = Encoder::new(std::mem::take(out), 32);
    let kind = match m {
        Mutation::Put(f) => {
            e.row(f);
            KIND_PUT
        }
        Mutation::Delete(id) => {
            e.bytes(&id.0.to_le_bytes());
            KIND_DELETE
        }
        Mutation::SetProperty { key, value } => {
            e.str(key);
            e.str(value);
            KIND_SET_PROPERTY
        }
    };
    *out = e.finish(kind);
}

/// One WAL record as every reader of the log applies it: the mutation it
/// logged, with a put still encoded, as the one row of an image of its own.
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// A dataset put: its row replaces the row of its id.
    Put(Row),
    /// A dataset delete.
    Delete(DatasetId),
    /// A catalog property set.
    SetProperty {
        /// Property key.
        key: String,
        /// Property value.
        value: String,
    },
}

/// Parses one WAL record's payload, checking all of it.
pub fn parse_record(payload: &[u8]) -> Result<WalRecord> {
    let Header { kind, table, descriptors, body } = header(payload)?;
    if kind == KIND_PUT {
        let image = Image::with_body(payload.to_vec(), 0, kind, table, descriptors, body)?;
        return Ok(WalRecord::Put(image.into_row()));
    }
    let mut d = Decoder::parsing(payload, body, &table, &descriptors);
    let record = match kind {
        KIND_DELETE => WalRecord::Delete(DatasetId(d.u64_le()?)),
        KIND_SET_PROPERTY => {
            let key = d.str()?.to_owned();
            WalRecord::SetProperty { key, value: d.str()?.to_owned() }
        }
        other => return Err(Error::corrupt(format!("payload kind {other} is not a mutation"))),
    };
    d.finish()?;
    Ok(record)
}

/// One checked payload that holds rows: a snapshot, or a WAL put. Rows are
/// read from it in place, for as long as a [`Row`] shares it. Two images are
/// equal when they hold the same bytes, table and row starts.
pub struct Image {
    /// The payload is `bytes[start..]`: a snapshot keeps the file as it was
    /// read, frame and all, rather than copy 10 MB to drop 16 bytes.
    bytes: Vec<u8>,
    start: usize,
    table: Table,
    /// Where each variable descriptor starts in the payload.
    descriptors: Vec<usize>,
    /// Where each row starts in the payload, then where the last one ends.
    rows: Vec<usize>,
    /// Each row's id, found once: a row writes it only when it is not the
    /// hash of the row's path.
    ids: Vec<DatasetId>,
    generation: u64,
    properties: BTreeMap<String, String>,
    /// Each descriptor, decoded when a row is first decoded: every variable
    /// decoded from the image after that shares its descriptor, and
    /// descriptors with equal paths share one hierarchy.
    decoded: OnceLock<Box<[Arc<VariableDescriptor>]>>,
}

impl PartialEq for Image {
    fn eq(&self, other: &Image) -> bool {
        self.bytes == other.bytes
            && self.start == other.start
            && self.table == other.table
            && self.descriptors == other.descriptors
            && self.rows == other.rows
            && self.ids == other.ids
            && self.generation == other.generation
            && self.properties == other.properties
    }
}

impl Image {
    /// Parses a snapshot payload or a WAL put record, checking all of it.
    pub fn parse(payload: Vec<u8>) -> Result<Image> {
        let Header { kind, table, descriptors, body } = header(&payload)?;
        if kind != KIND_CATALOG && kind != KIND_PUT {
            return Err(Error::corrupt(format!("payload kind {kind} holds no rows")));
        }
        Image::with_body(payload, 0, kind, table, descriptors, body)
    }

    /// Encodes `features` as the rows of one image, in the order given: how
    /// a search engine built from features rather than from a store holds
    /// them. The image is never parsed; its payload would parse only with
    /// its rows in ascending id order, as a catalog's are.
    pub fn encode(features: &[&DatasetFeature]) -> Image {
        catalog_encoder(0, &BTreeMap::new(), features.iter().copied()).finish_image(
            KIND_CATALOG,
            0,
            BTreeMap::new(),
        )
    }

    /// Parses the snapshot payload `bytes[start..]`.
    pub(crate) fn catalog_at(bytes: Vec<u8>, start: usize) -> Result<Image> {
        let Header { kind, table, descriptors, body } = header(&bytes[start..])?;
        if kind != KIND_CATALOG {
            return Err(Error::corrupt(format!("payload kind {kind} is not a catalog")));
        }
        Image::with_body(bytes, start, kind, table, descriptors, body)
    }

    /// Reads the body of a catalog or put payload whose header has been
    /// read, checking every row, and keeps where each one starts and its
    /// id. The rows of a catalog are in ascending id order, as every
    /// catalog is written.
    fn with_body(
        bytes: Vec<u8>,
        start: usize,
        kind: u8,
        table: Table,
        descriptors: Vec<usize>,
        body: usize,
    ) -> Result<Image> {
        let (rows, ids, generation, properties) = {
            let mut d = Decoder::parsing(&bytes[start..], body, &table, &descriptors);
            let (generation, properties, count) = if kind == KIND_CATALOG {
                let generation = d.varint()?;
                let mut properties = BTreeMap::new();
                for _ in 0..d.count(MIN_PAIR)? {
                    let key = d.str()?.to_owned();
                    properties.insert(key, d.str()?.to_owned());
                }
                (generation, properties, d.count(MIN_ROW)?)
            } else {
                (0, BTreeMap::new(), 1)
            };
            if u32::try_from(count).is_err() {
                return Err(Error::corrupt(format!("{count} rows: at most 2^32 are numbered")));
            }
            let mut rows = Vec::with_capacity(count + 1);
            let mut ids: Vec<DatasetId> = Vec::with_capacity(count);
            for _ in 0..count {
                let at = d.pos;
                rows.push(at);
                let id = d.row()?;
                if ids.last().is_some_and(|&before| before >= id) {
                    return Err(Error::corrupt(format!(
                        "the row at byte {at} is {id}, not after the row before it"
                    )));
                }
                ids.push(id);
            }
            rows.push(d.pos);
            d.finish()?;
            (rows, ids, generation, properties)
        };
        Ok(Image {
            bytes,
            start,
            table,
            descriptors,
            rows,
            ids,
            generation,
            properties,
            decoded: OnceLock::new(),
        })
    }

    /// Rows in the image.
    pub fn len(&self) -> usize {
        self.rows.len() - 1
    }

    /// True when the image holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every row, in image order, each sharing the image.
    pub fn rows(self: &Arc<Image>) -> impl ExactSizeIterator<Item = Row> + '_ {
        (0..self.len() as u32).map(|index| Row { image: Arc::clone(self), index })
    }

    /// The generation a snapshot was written at (0 for a put).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// A snapshot's catalog properties (none for a put).
    pub fn properties(&self) -> &BTreeMap<String, String> {
        &self.properties
    }

    /// Entries in the payload's string table.
    pub fn table_entries(&self) -> usize {
        self.table.ends.len()
    }

    /// Entries in the payload's descriptor table: one past the largest
    /// [`SearchableVariable::descriptor`] a row of the image hands out.
    pub fn descriptors(&self) -> usize {
        self.descriptors.len()
    }

    /// The payload, as encoded.
    pub fn payload(&self) -> &[u8] {
        &self.bytes[self.start..]
    }

    /// The catalog the image holds, every row decoded.
    pub fn catalog(&self) -> Catalog {
        let views = (0..self.len()).map(|ix| self.view(ix));
        Catalog::from_rows(views, self.properties.clone(), self.generation)
    }

    /// The one row of a put's image, which it keeps.
    pub(crate) fn into_row(self) -> Row {
        assert_eq!(self.len(), 1, "a put's image holds one row");
        Row { image: Arc::new(self), index: 0 }
    }

    /// Row `ix`, read in place, trusting the parse.
    fn view(&self, ix: usize) -> RowView<'_> {
        let mut d = self.reader(self.rows[ix]);
        RowView { id: self.ids[ix], head: d.head().expect(CHECKED), rest: d, image: self }
    }

    /// A reader of the parsed payload from `pos` on.
    fn reader(&self, pos: usize) -> Decoder<'_> {
        Decoder {
            bytes: self.payload(),
            pos,
            table: &self.table,
            descriptors: &self.descriptors,
            parsing: false,
            used: 0,
            records: 0,
        }
    }

    /// Each descriptor, in table order, decoded once.
    pub(crate) fn decoded_descriptors(&self) -> &[Arc<VariableDescriptor>] {
        self.decoded.get_or_init(|| {
            let mut paths: HashMap<Vec<&str>, Hierarchy> = HashMap::new();
            let mut of = |start: usize| {
                let d = self.reader(start).descriptor().expect(CHECKED);
                let path = paths.entry(d.levels.collect()).or_insert_with_key(|levels| {
                    levels.iter().map(|level| level.to_string()).collect()
                });
                Arc::new(d.owned(path.clone()))
            };
            self.descriptors.iter().map(|&start| of(start)).collect()
        })
    }
}

impl std::fmt::Debug for Image {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Image")
            .field("rows", &self.len())
            .field("payload_bytes", &self.payload().len())
            .field("table_entries", &self.table_entries())
            .field("descriptors", &self.descriptors())
            .finish()
    }
}

/// One dataset, encoded: a shared [`Image`] and the number of a row in it.
#[derive(Clone)]
pub struct Row {
    image: Arc<Image>,
    index: u32,
}

impl Row {
    /// The dataset's id, as its image found it once.
    pub fn id(&self) -> DatasetId {
        self.image.ids[self.index as usize]
    }

    /// The row read in place.
    pub fn view(&self) -> RowView<'_> {
        self.image.view(self.index as usize)
    }

    /// The owned feature the row encodes.
    pub fn decode(&self) -> DatasetFeature {
        self.view().decode()
    }

    /// The image the row is read from, as the row shares it.
    pub fn image(&self) -> &Arc<Image> {
        &self.image
    }
}

impl std::fmt::Debug for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (dir, name) = self.view().path();
        f.debug_struct("Row")
            .field("id", &self.id())
            .field("path", &format_args!("{dir}{name}"))
            .finish()
    }
}

/// A row of an image read in place: what a search engine needs of a
/// dataset, borrowed from the image, and nothing allocated to read it.
#[derive(Clone, Copy)]
pub struct RowView<'a> {
    id: DatasetId,
    head: Head<'a>,
    /// Positioned after the head, at the row's external metadata.
    rest: Decoder<'a>,
    /// The image the row is read from, for what its rows share once decoded.
    image: &'a Image,
}

/// A searchable variable (not QA, not hidden) as a row holds it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchableVariable<'a> {
    /// The name as harvested.
    pub name: &'a str,
    /// The name search matches: the canonical name when resolved.
    pub search_name: &'a str,
    /// `(min, max)` of the values seen, when any were numbers.
    pub value_range: Option<(f64, f64)>,
    /// The number of the variable's descriptor in its row's image, below
    /// [`Image::descriptors`]: variables of one image with one number have
    /// one name and one search name.
    pub descriptor: u32,
}

impl<'a> RowView<'a> {
    /// Stable id.
    pub fn id(&self) -> DatasetId {
        self.id
    }

    /// Archive-relative path, as the row holds it: its directory, up to and
    /// including the last `/` (empty at the top level), and the name after
    /// it. The path is the two joined.
    pub fn path(&self) -> (&'a str, &'a str) {
        (self.head.dir, self.head.name)
    }

    /// Human-readable title.
    pub fn title(&self) -> &'a str {
        self.head.title
    }

    /// Spatial extent.
    pub fn bbox(&self) -> Option<GeoBBox> {
        self.head.bbox
    }

    /// Temporal extent.
    pub fn time(&self) -> Option<TimeInterval> {
        self.head.time
    }

    /// How many variables the row has, searchable or not, read without
    /// reading them.
    pub fn variable_count(&self) -> usize {
        let mut rest = self.rest;
        rest.externals(&mut ()).expect(CHECKED)
    }

    /// Hands `each` the row's searchable variables, in column order.
    pub fn searchable_variables(&self, each: impl FnMut(SearchableVariable<'a>)) {
        struct Searchable<F>(F);
        impl<'a, F: FnMut(SearchableVariable<'a>)> RowSink<'a> for Searchable<F> {
            fn variable(&mut self, descriptor: u32, v: Var<'a>) {
                let d = &v.descriptor;
                if d.curation & (FLAG_QA | FLAG_HIDDEN) == 0 {
                    (self.0)(SearchableVariable {
                        name: d.name,
                        search_name: d.canonical.unwrap_or(d.name),
                        value_range: v.summary.range(),
                        descriptor,
                    });
                }
            }
        }
        let mut rest = self.rest;
        rest.lists(&mut Searchable(each)).expect(CHECKED);
    }

    /// Whether the row decodes to a feature `== f`, found without decoding
    /// it: each field is compared in place, with `f64`'s `==` as the
    /// feature's is (so `−0.0` matches `0.0`, and a NaN matches nothing).
    /// External pairs are compared in the order the row holds them, which is
    /// key order in every row this module writes.
    pub(crate) fn matches(&self, f: &DatasetFeature) -> bool {
        struct Compare<'f> {
            external: ExternalIter<'f>,
            variables: std::slice::Iter<'f, VariableFeature>,
            same: bool,
        }
        impl<'a> RowSink<'a> for Compare<'_> {
            fn external(&mut self, key: &'a str, value: &'a str) {
                self.same &= self.external.next().is_some_and(|(k, v)| k == key && v == value);
            }
            fn variables(&mut self, count: usize) {
                self.same &= self.external.next().is_none() && count == self.variables.len();
            }
            fn variable(&mut self, _descriptor: u32, v: Var<'a>) {
                self.same &= self.variables.next().is_some_and(|want| v == Var::of(want));
            }
        }
        // equal heads have equal ids: each is the hash of the one path, or
        // written by both
        if self.head != Head::of(f) {
            return false;
        }
        let mut compare =
            Compare { external: f.external.iter(), variables: f.variables.iter(), same: true };
        let mut rest = self.rest;
        rest.lists(&mut compare).expect(CHECKED);
        compare.same
    }

    /// The owned feature. Its variables share their descriptors with every
    /// variable decoded from the image.
    pub(crate) fn decode(&self) -> DatasetFeature {
        self.decode_with(self.image.decoded_descriptors())
    }

    /// The image this row is read from.
    pub(crate) fn image(&self) -> &'a Image {
        self.image
    }

    /// The owned feature, each variable holding the entry of `descriptors`
    /// its descriptor number names: the image's own, or a catalog's equal
    /// ones in their place.
    pub(crate) fn decode_with(&self, descriptors: &[Arc<VariableDescriptor>]) -> DatasetFeature {
        struct Owned<'h> {
            external: ExternalMetadata,
            variables: Vec<VariableFeature>,
            descriptors: &'h [Arc<VariableDescriptor>],
        }
        impl<'a> RowSink<'a> for Owned<'_> {
            fn externals(&mut self, count: usize) {
                self.external.reserve_exact(count);
            }
            fn external(&mut self, key: &'a str, value: &'a str) {
                self.external.insert(key.to_owned(), value.to_owned());
            }
            fn variables(&mut self, count: usize) {
                self.variables.reserve_exact(count);
            }
            fn variable(&mut self, descriptor: u32, v: Var<'a>) {
                let mut feature =
                    VariableFeature::with_descriptor(self.descriptors[descriptor as usize].clone());
                feature.summary = v.summary;
                feature.null_count = v.null_count;
                feature.total_count = v.total_count;
                self.variables.push(feature);
            }
        }
        let mut owned =
            Owned { external: ExternalMetadata::new(), variables: Vec::new(), descriptors };
        let mut rest = self.rest;
        rest.lists(&mut owned).expect(CHECKED);
        let h = &self.head;
        DatasetFeature {
            id: self.id,
            path: [h.dir, h.name].concat(),
            title: h.title.to_owned(),
            source: h.source.map(str::to_owned),
            bbox: h.bbox,
            time: h.time,
            record_count: h.record_count,
            variables: owned.variables,
            external: owned.external,
            provenance: Provenance {
                content_fingerprint: h.content_fingerprint,
                file_len: h.file_len,
                pipeline_run: h.pipeline_run,
                format: h.format.to_owned(),
            },
        }
    }
}

/// Writes a body while collecting the strings and the descriptors it
/// references and noting where each row starts; `finish` puts header and
/// tables in front.
struct Encoder<'a> {
    out: Vec<u8>,
    table: Vec<&'a str>,
    /// Looked up, never iterated: the table's order is `table`'s. Empty
    /// until the table is too long to scan.
    index: HashMap<&'a str, u64>,
    /// Each distinct descriptor written so far, encoded, back to back.
    descriptors: Vec<u8>,
    /// Where each of them starts in `descriptors`.
    descriptor_starts: Vec<usize>,
    /// Each of them by what it holds, borrowed: looked up, never iterated.
    descriptor_numbers: HashMap<Descriptor<'a>, u64>,
    /// The number of each shared descriptor met so far, by its address,
    /// which the features borrowed for `'a` keep alive.
    descriptor_addresses: HashMap<*const VariableDescriptor, u64>,
    /// Where each row written so far starts in the body.
    rows: Vec<usize>,
    /// The id of each row written so far.
    ids: Vec<DatasetId>,
    /// The record count of the row being written: each of its variables
    /// whose total count is this one writes no total.
    records: u64,
}

impl<'a> Encoder<'a> {
    fn new(mut out: Vec<u8>, strings: usize) -> Encoder<'a> {
        out.clear();
        Encoder {
            out,
            table: Vec::with_capacity(strings),
            index: HashMap::new(),
            descriptors: Vec::new(),
            descriptor_starts: Vec::new(),
            descriptor_numbers: HashMap::new(),
            descriptor_addresses: HashMap::new(),
            rows: Vec::new(),
            ids: Vec::new(),
            records: 0,
        }
    }

    /// The payload: header and table, then the body.
    fn finish(mut self, kind: u8) -> Vec<u8> {
        self.seal(kind);
        self.out
    }

    /// The payload kept as the image of the rows written, with the tables
    /// and the row starts the encoder collected: what [`Image::parse`] would
    /// find in it, found without reading it again.
    fn finish_image(
        mut self,
        kind: u8,
        generation: u64,
        properties: BTreeMap<String, String>,
    ) -> Image {
        let mut table = Table {
            text: String::with_capacity(self.table.iter().map(|s| s.len()).sum()),
            ends: Vec::with_capacity(self.table.len()),
        };
        for s in &self.table {
            table.text.push_str(s);
            table.ends.push(table.text.len());
        }
        let head = self.seal(kind);
        let mut descriptors = std::mem::take(&mut self.descriptor_starts);
        let descriptors_at = head - self.descriptors.len();
        for start in &mut descriptors {
            *start += descriptors_at;
        }
        let mut rows = std::mem::take(&mut self.rows);
        for start in &mut rows {
            *start += head;
        }
        rows.push(self.out.len());
        Image {
            bytes: self.out,
            start: 0,
            table,
            descriptors,
            rows,
            ids: self.ids,
            generation,
            properties,
            decoded: OnceLock::new(),
        }
    }

    /// Puts header and tables in front of the body and returns how many
    /// bytes they take; the descriptor table is the last of them. The
    /// tables are complete only once the body is written, and have to come
    /// first for decoding to be one forward pass: they are appended, then
    /// the buffer is rotated, which needs no second buffer and no offsets.
    fn seal(&mut self, kind: u8) -> usize {
        let body = self.out.len();
        self.out.extend_from_slice(&[FORMAT_VERSION, kind]);
        self.varint(self.table.len() as u64);
        for s in std::mem::take(&mut self.table) {
            self.str(s);
        }
        self.varint(self.descriptor_starts.len() as u64);
        self.out.extend_from_slice(&self.descriptors);
        self.out.rotate_left(body);
        self.out.len() - body
    }

    /// What a catalog payload's body holds before its rows.
    fn catalog_head(
        &mut self,
        generation: u64,
        properties: &BTreeMap<String, String>,
        rows: usize,
    ) {
        self.varint(generation);
        self.varint(properties.len() as u64);
        for (key, value) in properties {
            self.str(key);
            self.str(value);
        }
        self.varint(rows as u64);
        self.rows.reserve_exact(rows + 1);
        self.ids.reserve_exact(rows);
    }

    fn bytes(&mut self, b: &[u8]) {
        self.out.extend_from_slice(b);
    }

    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.out.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.out.push(v as u8);
    }

    fn signed(&mut self, v: i64) {
        self.varint(zigzag(v));
    }

    /// A string in place.
    fn str(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// A string by table reference, entered into the table on first use.
    fn text(&mut self, s: &'a str) {
        let ix = self.entry(s);
        self.varint(ix);
    }

    /// The table index of `s`, which is entered on first use. A table of a
    /// few dozen strings — a put's — is scanned; a longer one is indexed,
    /// from the entry that makes it longer on.
    fn entry(&mut self, s: &'a str) -> u64 {
        let next = self.table.len() as u64;
        let ix = if self.table.len() < SCANNED_TABLE {
            self.table.iter().position(|t| *t == s).map_or(next, |ix| ix as u64)
        } else {
            if self.index.is_empty() {
                self.index.reserve(self.table.capacity());
                self.index.extend(self.table.iter().copied().zip(0..));
            }
            *self.index.entry(s).or_insert(next)
        };
        if ix == next {
            self.table.push(s);
        }
        ix
    }

    fn row(&mut self, f: &'a DatasetFeature) {
        self.head(&Head::of(f), f.id);
        self.externals(f.external.iter().map(|(key, value)| (&key[..], &value[..])));
        self.varint(f.variables.len() as u64);
        for v in &f.variables {
            let descriptor = self.shared_descriptor(v);
            self.numbered_variable(descriptor, &v.summary, v.null_count, v.total_count);
        }
    }

    /// The fixed part of a row, which starts it, of the dataset `id`.
    fn head(&mut self, h: &Head<'a>, id: DatasetId) {
        self.rows.push(self.out.len());
        self.ids.push(id);
        self.records = h.record_count;
        let dir = self.entry(h.dir) << 1;
        self.varint(dir | h.own_id.map_or(0, |_| OWN_ID));
        self.str(h.name);
        if let Some(id) = h.own_id {
            self.bytes(&id.0.to_le_bytes());
        }
        self.str(h.title);
        let (shape, corners) = match &h.bbox {
            None => (0, Numbers::of(&[])),
            Some(b) if is_point(b) => (HAS_BBOX | POINT, Numbers::of(&[b.min_lat, b.min_lon])),
            Some(b) => (HAS_BBOX, Numbers::of(&[b.min_lat, b.max_lat, b.min_lon, b.max_lon])),
        };
        self.out.push(
            tag(h.source.is_some(), HAS_SOURCE)
                | shape
                | corners.decimals
                | tag(h.time.is_some(), HAS_TIME),
        );
        if let Some(source) = h.source {
            self.text(source);
        }
        corners.write(self);
        if let Some(t) = &h.time {
            self.signed(t.start.0);
            self.signed(t.end.0.wrapping_sub(t.start.0));
        }
        self.varint(h.record_count);
        self.bytes(&h.content_fingerprint.to_le_bytes());
        self.varint(h.file_len);
        self.varint(h.pipeline_run);
        self.text(h.format);
    }

    /// A row's external pairs, counted.
    fn externals(&mut self, pairs: impl ExactSizeIterator<Item = (&'a str, &'a str)>) {
        self.varint(pairs.len() as u64);
        for (key, value) in pairs {
            self.text(key);
            self.text(value);
        }
    }

    /// The number of `v`'s descriptor, looked up by the address of the
    /// descriptor it shares first: the variables of a catalog that shares
    /// each distinct descriptor once read a descriptor's strings once per
    /// payload. An address missed is looked up by what it holds, so the
    /// number, and the bytes, are the same whether or not descriptors are
    /// shared.
    fn shared_descriptor(&mut self, v: &'a VariableFeature) -> u64 {
        let at = Arc::as_ptr(v.descriptor());
        if let Some(&number) = self.descriptor_addresses.get(&at) {
            return number;
        }
        let number = self.descriptor(&Var::of(v).descriptor);
        self.descriptor_addresses.insert(at, number);
        number
    }

    /// A variable of the row being written whose descriptor has the number
    /// `descriptor`.
    fn numbered_variable(
        &mut self,
        descriptor: u64,
        s: &NumericSummary,
        null_count: u64,
        total_count: u64,
    ) {
        self.varint(descriptor);
        let summary = Numbers::of(&[s.min, s.max, s.mean]);
        let implied = total_count == self.records;
        self.out.push(summary.decimals | tag(implied, TOTAL_IS_RECORDS));
        self.varint(s.count);
        summary.write(self);
        self.varint(null_count);
        if !implied {
            self.varint(total_count);
        }
    }

    /// The number of descriptor `d`, entered into the descriptor table on
    /// first use. It is looked up by its borrowed strings, so a variable
    /// whose descriptor is not new allocates nothing and enters none of its
    /// strings into the table again: they are there since its first use.
    fn descriptor(&mut self, d: &Descriptor<'a>) -> u64 {
        let next = self.descriptor_starts.len() as u64;
        let number = *self.descriptor_numbers.entry(*d).or_insert(next);
        if number < next {
            return number;
        }
        // written with the body's routines, into the table's buffer
        std::mem::swap(&mut self.out, &mut self.descriptors);
        self.descriptor_starts.push(self.out.len());
        self.text(d.name);
        let optional = [
            (d.canonical, HAS_CANONICAL),
            (d.unit, HAS_UNIT),
            (d.canonical_unit, HAS_CANONICAL_UNIT),
            (d.context, HAS_CONTEXT),
        ];
        self.out.push(optional.iter().fold(0, |tags, (s, bit)| tags | tag(s.is_some(), *bit)));
        self.out.push(d.curation);
        if let Some(method) = d.method {
            self.text(method);
        }
        for s in optional.into_iter().filter_map(|(s, _)| s) {
            self.text(s);
        }
        self.varint(d.levels.len() as u64);
        for level in d.levels {
            self.text(level);
        }
        std::mem::swap(&mut self.out, &mut self.descriptors);
        number
    }
}

fn tag(set: bool, bit: u8) -> u8 {
    if set {
        bit
    } else {
        0
    }
}

/// Zigzag, so small negative numbers stay small.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

/// Whether a bbox's corners meet, bit for bit: a point, written as two
/// numbers.
fn is_point(b: &GeoBBox) -> bool {
    b.min_lat.to_bits() == b.max_lat.to_bits() && b.min_lon.to_bits() == b.max_lon.to_bits()
}

/// `v`'s decimal form, `zigzag(m) << 3 | s` for the smallest scale `s` at
/// which `m / 10^s` is `v` bit for bit within [`MANTISSA_BOUND`], or `None`
/// when `v` is written as its eight bytes.
///
/// A value with a decimal form has one at scale 7, the same real number
/// with trailing zeros, so one scale is tried: `v · 10^7` is within 0.23 of
/// that mantissa, the cast rounds it (`f64::round` is a library call on
/// baseline x86-64), and the decoder's own division proves it. Stripping
/// the trailing zeros then gives the smallest scale.
fn decimal(v: f64) -> Option<u64> {
    let scaled = v * POWERS[7];
    // the cast saturates ±inf and takes NaN to 0, which the bound and the
    // proof refuse
    let mut m = (scaled + 0.5f64.copysign(scaled)) as i64;
    if m.unsigned_abs() > MANTISSA_BOUND[7] || (m as f64 / POWERS[7]).to_bits() != v.to_bits() {
        return None;
    }
    let mut s = 7;
    while s > 0 && m % 10 == 0 {
        (m, s) = (m / 10, s - 1);
    }
    Some(zigzag(m) << 3 | s)
}

/// The numbers of a row's bbox or of a variable's summary as they are
/// written: a decimal's varint or a raw number's bits each, and the tag bits
/// that mark the decimals among them.
struct Numbers {
    words: [u64; 4],
    len: usize,
    decimals: u8,
}

impl Numbers {
    fn of(values: &[f64]) -> Numbers {
        let mut numbers = Numbers { words: [0; 4], len: values.len(), decimals: 0 };
        for (i, &v) in values.iter().enumerate() {
            let form = decimal(v);
            numbers.words[i] = form.unwrap_or(v.to_bits());
            numbers.decimals |= tag(form.is_some(), FIRST_DECIMAL << i);
        }
        numbers
    }

    fn write(&self, e: &mut Encoder<'_>) {
        for (i, &word) in self.words[..self.len].iter().enumerate() {
            if self.decimals & (FIRST_DECIMAL << i) == 0 {
                e.bytes(&word.to_le_bytes());
            } else {
                e.varint(word);
            }
        }
    }
}

/// A payload's string table: its strings back to back, each checked once,
/// so a reference resolves to a `&str` with no further check.
#[derive(Debug, Default, PartialEq)]
struct Table {
    text: String,
    /// Entry `i` is `text[ends[i - 1]..ends[i]]`.
    ends: Vec<usize>,
}

impl Table {
    fn get(&self, ix: u64) -> Option<&str> {
        let ix = usize::try_from(ix).ok()?;
        let end = *self.ends.get(ix)?;
        let start = ix.checked_sub(1).map_or(0, |before| self.ends[before]);
        Some(&self.text[start..end])
    }
}

/// What a payload holds before its body.
struct Header {
    kind: u8,
    table: Table,
    /// Where each descriptor starts in the payload.
    descriptors: Vec<usize>,
    /// Where the body starts.
    body: usize,
}

/// Reads a payload's version, kind, string table and descriptor table,
/// checking every descriptor: its references and tags, and that no two are
/// alike. That each is used, first in table order, is the body's to show.
fn header(payload: &[u8]) -> Result<Header> {
    let no_strings = Table::default();
    let mut d = Decoder::parsing(payload, 0, &no_strings, &[]);
    let version = d.u8()?;
    if version != FORMAT_VERSION {
        return Err(Error::corrupt(format!("payload format {version}, expected {FORMAT_VERSION}")));
    }
    let kind = d.u8()?;
    let entries = d.count(MIN_ENTRY)?;
    let mut table = Table { text: String::new(), ends: Vec::with_capacity(entries) };
    for _ in 0..entries {
        table.text.push_str(d.str()?);
        table.ends.push(table.text.len());
    }
    let mut d = Decoder::parsing(payload, d.pos, &table, &[]);
    let count = d.count(MIN_DESCRIPTOR)?;
    let mut descriptors = Vec::with_capacity(count);
    for _ in 0..count {
        descriptors.push(d.pos);
        d.descriptor()?;
    }
    let body = d.pos;
    let entry = |ix: usize| &payload[descriptors[ix]..descriptors.get(ix + 1).map_or(body, |&e| e)];
    if count > 1 {
        let mut order: Vec<usize> = (0..count).collect();
        order.sort_unstable_by_key(|&ix| (entry(ix), ix));
        if let Some(pair) = order.windows(2).find(|pair| entry(pair[0]) == entry(pair[1])) {
            return Err(Error::corrupt(format!(
                "descriptor {} at byte {} repeats descriptor {}",
                pair[1], descriptors[pair[1]], pair[0]
            )));
        }
    }
    Ok(Header { kind, table, descriptors, body })
}

/// The fixed part of a row, borrowed from the payload and its table, or
/// from the feature about to be encoded. Equal heads are the same fields of
/// equal features, ids included.
#[derive(Clone, Copy, PartialEq)]
struct Head<'a> {
    /// The path up to and including its last `/`, or empty.
    dir: &'a str,
    /// The path after `dir`.
    name: &'a str,
    /// The id, when it is not the hash of the path.
    own_id: Option<DatasetId>,
    title: &'a str,
    source: Option<&'a str>,
    bbox: Option<GeoBBox>,
    time: Option<TimeInterval>,
    record_count: u64,
    content_fingerprint: u64,
    file_len: u64,
    pipeline_run: u64,
    format: &'a str,
}

impl<'a> Head<'a> {
    fn of(f: &'a DatasetFeature) -> Head<'a> {
        let (dir, name) = f.path.split_at(f.path.rfind('/').map_or(0, |last| last + 1));
        Head {
            dir,
            name,
            own_id: (f.id != DatasetId::from_parts(dir, name)).then_some(f.id),
            title: &f.title,
            source: f.source.as_deref(),
            bbox: f.bbox,
            time: f.time,
            record_count: f.record_count,
            content_fingerprint: f.provenance.content_fingerprint,
            file_len: f.provenance.file_len,
            pipeline_run: f.provenance.pipeline_run,
            format: &f.provenance.format,
        }
    }
}

/// One variable as a row holds it, or as a feature about to be encoded
/// holds it. Equal variables are equal features.
#[derive(PartialEq)]
struct Var<'a> {
    descriptor: Descriptor<'a>,
    summary: NumericSummary,
    null_count: u64,
    total_count: u64,
}

/// What describes a variable, as its payload's descriptor table holds it:
/// everything but the counts and the summary.
#[derive(Clone, Copy)]
struct Descriptor<'a> {
    name: &'a str,
    /// The resolution, flags and `unit_normalized`, as the table's tag.
    curation: u8,
    method: Option<&'a str>,
    canonical: Option<&'a str>,
    unit: Option<&'a str>,
    canonical_unit: Option<&'a str>,
    context: Option<&'a str>,
    levels: Levels<'a>,
}

/// A variable's hierarchy, one level at a time. In a descriptor it is
/// checked when the table is parsed and read again only to decode or
/// compare it.
#[derive(Clone, Copy)]
enum Levels<'a> {
    /// Positioned at the first level, and how many there are.
    Encoded(Decoder<'a>, usize),
    /// A feature's own.
    Owned(&'a [String]),
}

impl<'a> Iterator for Levels<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        match self {
            Levels::Encoded(_, 0) => None,
            Levels::Encoded(d, left) => {
                *left -= 1;
                Some(d.text().expect(CHECKED))
            }
            Levels::Owned(levels) => {
                let (first, rest) = levels.split_first()?;
                *levels = rest;
                Some(first)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = match self {
            Levels::Encoded(_, left) => *left,
            Levels::Owned(levels) => levels.len(),
        };
        (left, Some(left))
    }
}

impl ExactSizeIterator for Levels<'_> {}

impl<'a> Descriptor<'a> {
    /// Everything but the hierarchy levels.
    fn fields(&self) -> (&'a str, u8, [Option<&'a str>; 5]) {
        let optional = [self.method, self.canonical, self.unit, self.canonical_unit, self.context];
        (self.name, self.curation, optional)
    }
}

impl PartialEq for Descriptor<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.fields() == other.fields() && self.levels.eq(other.levels)
    }
}

impl Eq for Descriptor<'_> {}

/// Hashes the name and the canonical name alone: they tell most
/// descriptors apart, and equality compares the rest. Hashing every field
/// would cost as much as entering each string into the table.
impl std::hash::Hash for Descriptor<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (self.name, self.canonical).hash(state);
    }
}

impl<'a> Var<'a> {
    fn of(v: &'a VariableFeature) -> Var<'a> {
        let (resolution, method) = match &v.resolution {
            NameResolution::Unresolved => (0, None),
            NameResolution::AlreadyCanonical => (1, None),
            NameResolution::KnownTranslation => (2, None),
            NameResolution::DiscoveredTranslation { method } => {
                (RESOLUTION_DISCOVERED, Some(&method[..]))
            }
            NameResolution::Curated => (4, None),
        };
        Var {
            descriptor: Descriptor {
                name: &v.name,
                curation: resolution
                    | tag(v.flags.qa, FLAG_QA)
                    | tag(v.flags.ambiguous, FLAG_AMBIGUOUS)
                    | tag(v.flags.hidden, FLAG_HIDDEN)
                    | tag(v.unit_normalized, UNIT_NORMALIZED),
                method,
                canonical: v.canonical_name.as_deref(),
                unit: v.unit.as_deref(),
                canonical_unit: v.canonical_unit.as_deref(),
                context: v.context.as_deref(),
                levels: Levels::Owned(&v.hierarchy),
            },
            summary: v.summary.clone(),
            null_count: v.null_count,
            total_count: v.total_count,
        }
    }
}

impl Descriptor<'_> {
    /// The owned descriptor, with `hierarchy` for its levels.
    fn owned(self, hierarchy: Hierarchy) -> VariableDescriptor {
        let resolution = match self.curation & RESOLUTION_MASK {
            0 => NameResolution::Unresolved,
            1 => NameResolution::AlreadyCanonical,
            2 => NameResolution::KnownTranslation,
            RESOLUTION_DISCOVERED => NameResolution::DiscoveredTranslation {
                method: self.method.expect(CHECKED).to_owned(),
            },
            _ => NameResolution::Curated,
        };
        VariableDescriptor {
            name: self.name.to_owned(),
            canonical_name: self.canonical.map(str::to_owned),
            resolution,
            unit: self.unit.map(str::to_owned),
            canonical_unit: self.canonical_unit.map(str::to_owned),
            unit_normalized: self.curation & UNIT_NORMALIZED != 0,
            context: self.context.map(str::to_owned),
            hierarchy,
            flags: VariableFlags {
                qa: self.curation & FLAG_QA != 0,
                ambiguous: self.curation & FLAG_AMBIGUOUS != 0,
                hidden: self.curation & FLAG_HIDDEN != 0,
            },
        }
    }
}

/// What [`Decoder::lists`] hands on of the part of a row after its head.
/// Every method defaults to doing nothing, so `()` — the check at parse —
/// only reads.
trait RowSink<'a> {
    /// How many external metadata pairs follow.
    fn externals(&mut self, _count: usize) {}
    /// One external metadata pair.
    fn external(&mut self, _key: &'a str, _value: &'a str) {}
    /// How many variables follow.
    fn variables(&mut self, _count: usize) {}
    /// One variable, and the number of its descriptor.
    fn variable(&mut self, _descriptor: u32, _var: Var<'a>) {}
}

impl RowSink<'_> for () {}

/// A forward-only reader over a payload whose header has been read.
#[derive(Clone, Copy)]
struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    table: &'a Table,
    /// Where each descriptor starts in `bytes`.
    descriptors: &'a [usize],
    /// Whether this is the parse, which also refuses a number in a form its
    /// writer would not have chosen and a descriptor out of first-use
    /// order; a parsed image is read again trusting it.
    parsing: bool,
    /// While parsing: how many descriptors the rows read so far use.
    used: u32,
    /// The record count of the row being read: the total count of each of
    /// its variables that writes none.
    records: u64,
}

impl<'a> Decoder<'a> {
    /// The parse of `bytes` from `pos` on.
    fn parsing(
        bytes: &'a [u8],
        pos: usize,
        table: &'a Table,
        descriptors: &'a [usize],
    ) -> Decoder<'a> {
        Decoder { bytes, pos, table, descriptors, parsing: true, used: 0, records: 0 }
    }

    /// The payload must have been consumed exactly, and every descriptor
    /// used.
    fn finish(&self) -> Result<()> {
        if let Some(&at) = self.descriptors.get(self.used as usize) {
            return Err(Error::corrupt(format!(
                "descriptor {} at byte {at} is never used",
                self.used
            )));
        }
        match self.bytes.len() - self.pos {
            0 => Ok(()),
            n => Err(Error::corrupt(format!("{n} bytes past the end of the payload"))),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let rest = &self.bytes[self.pos..];
        if n > rest.len() {
            return Err(Error::corrupt(format!(
                "payload ends at byte {}: {n} more expected, {} left",
                self.bytes.len(),
                rest.len()
            )));
        }
        self.pos += n;
        Ok(&rest[..n])
    }

    fn u8(&mut self) -> Result<u8> {
        match self.bytes.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Ok(self.take(1)?[0]),
        }
    }

    fn u64_le(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("took eight bytes")))
    }

    /// The `i`-th number of a row or variable whose tag is `tags`: a
    /// decimal when its bit says so, eight raw bytes otherwise.
    fn number(&mut self, tags: u8, i: usize) -> Result<f64> {
        let at = self.pos;
        if tags & (FIRST_DECIMAL << i) == 0 {
            let v = f64::from_bits(self.u64_le()?);
            if self.parsing && decimal(v).is_some() {
                return Err(Error::corrupt(format!(
                    "number {v} at byte {at} is written raw but has a decimal form"
                )));
            }
            return Ok(v);
        }
        let word = self.varint()?;
        let (m, s) = (unzigzag(word >> 3), (word & 7) as usize);
        if self.parsing && (m.unsigned_abs() > MANTISSA_BOUND[s] || s > 0 && m % 10 == 0) {
            return Err(Error::corrupt(format!(
                "decimal {m}e-{s} at byte {at} is not in its one written form"
            )));
        }
        Ok(m as f64 / POWERS[s])
    }

    fn varint(&mut self) -> Result<u64> {
        let (mut v, mut shift) = (0u64, 0);
        while shift < 64 {
            let b = self.u8()?;
            let bits = u64::from(b & 0x7f);
            if shift == 63 && bits > 1 {
                break;
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
        Err(Error::corrupt(format!("varint ending at byte {} overflows 64 bits", self.pos)))
    }

    fn signed(&mut self) -> Result<i64> {
        self.varint().map(unzigzag)
    }

    /// A count of items that take at least `min_bytes` each: one the rest
    /// of the payload cannot hold is damage, found before anything is
    /// allocated for it.
    fn count(&mut self, min_bytes: usize) -> Result<usize> {
        let n = self.varint()?;
        let fits = (self.bytes.len() - self.pos) / min_bytes;
        if n > fits as u64 {
            return Err(Error::corrupt(format!(
                "count {n} at byte {}: the payload has room for {fits}",
                self.pos
            )));
        }
        Ok(n as usize)
    }

    /// A string in place.
    fn str(&mut self) -> Result<&'a str> {
        let len = self.count(1)?;
        let at = self.pos;
        std::str::from_utf8(self.take(len)?)
            .map_err(|e| Error::corrupt(format!("string at byte {at} is not utf-8: {e}")))
    }

    /// A string by table reference.
    fn text(&mut self) -> Result<&'a str> {
        let ix = self.varint()?;
        self.entry(ix)
    }

    /// Entry `ix` of the table, whose reference was just read.
    fn entry(&self, ix: u64) -> Result<&'a str> {
        self.table.get(ix).ok_or_else(|| {
            Error::corrupt(format!(
                "string reference {ix} at byte {}: the table has {} entries",
                self.pos,
                self.table.ends.len()
            ))
        })
    }

    fn optional_text(&mut self, tags: u8, bit: u8) -> Result<Option<&'a str>> {
        if tags & bit == 0 {
            Ok(None)
        } else {
            self.text().map(Some)
        }
    }

    /// A tag byte with no bit outside `known`.
    fn tags(&mut self, known: u8, what: &str) -> Result<u8> {
        let tags = self.u8()?;
        if tags & !known != 0 {
            return Err(Error::corrupt(format!(
                "{what} tag {tags:#010b} at byte {} has unknown bits",
                self.pos - 1
            )));
        }
        Ok(tags)
    }

    /// Reads one row, checking every byte of it, and returns its id. The
    /// descriptors were checked with their table, so of a variable's only
    /// the number is.
    fn row(&mut self) -> Result<DatasetId> {
        let at = self.pos;
        let head = self.head()?;
        let hash = DatasetId::from_parts(head.dir, head.name);
        if head.own_id == Some(hash) {
            return Err(Error::corrupt(format!(
                "the row at byte {at} writes the id its path hashes to"
            )));
        }
        for _ in 0..self.externals(&mut ())? {
            self.descriptor_number()?;
            self.counts()?;
        }
        Ok(head.own_id.unwrap_or(hash))
    }

    fn head(&mut self) -> Result<Head<'a>> {
        let at = self.pos;
        let word = self.varint()?;
        let dir = self.entry(word >> 1)?;
        let name = self.str()?;
        if self.parsing && (!(dir.is_empty() || dir.ends_with('/')) || name.contains('/')) {
            return Err(Error::corrupt(format!(
                "the path {dir:?} + {name:?} at byte {at} is not split at its last '/'"
            )));
        }
        let own_id = if word & OWN_ID == 0 { None } else { Some(DatasetId(self.u64_le()?)) };
        let title = self.str()?;
        let at = self.pos;
        let tags = self.tags(HAS_SOURCE | HAS_BBOX | HAS_TIME | POINT | DECIMALS, "dataset")?;
        let corners = match (tags & HAS_BBOX != 0, tags & POINT != 0) {
            (false, false) => Some(0),
            (true, false) => Some(4),
            (true, true) => Some(2),
            (false, true) => None,
        };
        // a point with no bbox, or a decimal past the last number written
        let Some(corners) = corners.filter(|&n| tags & (DECIMALS << n) == 0) else {
            return Err(Error::corrupt(format!(
                "dataset tag {tags:#010b} at byte {at} marks what the row does not write"
            )));
        };
        let source = self.optional_text(tags, HAS_SOURCE)?;
        let bbox = match corners {
            0 => None,
            2 => {
                let (lat, lon) = (self.number(tags, 0)?, self.number(tags, 1)?);
                Some(GeoBBox { min_lat: lat, max_lat: lat, min_lon: lon, max_lon: lon })
            }
            _ => {
                let b = GeoBBox {
                    min_lat: self.number(tags, 0)?,
                    max_lat: self.number(tags, 1)?,
                    min_lon: self.number(tags, 2)?,
                    max_lon: self.number(tags, 3)?,
                };
                if self.parsing && is_point(&b) {
                    return Err(Error::corrupt(format!(
                        "the bbox of the row at byte {at} is a point written as a box"
                    )));
                }
                Some(b)
            }
        };
        let time = if tags & HAS_TIME == 0 {
            None
        } else {
            let start = self.signed()?;
            let end = start.wrapping_add(self.signed()?);
            Some(TimeInterval { start: Timestamp(start), end: Timestamp(end) })
        };
        self.records = self.varint()?;
        Ok(Head {
            dir,
            name,
            own_id,
            title,
            source,
            bbox,
            time,
            record_count: self.records,
            content_fingerprint: self.u64_le()?,
            file_len: self.varint()?,
            pipeline_run: self.varint()?,
            format: self.text()?,
        })
    }

    /// The part of a row after its head: external pairs, then variables.
    fn lists(&mut self, sink: &mut impl RowSink<'a>) -> Result<()> {
        let count = self.externals(sink)?;
        sink.variables(count);
        for _ in 0..count {
            let (descriptor, var) = self.variable()?;
            sink.variable(descriptor, var);
        }
        Ok(())
    }

    /// A row's external pairs, handed to `sink`; returns how many
    /// variables follow them.
    fn externals(&mut self, sink: &mut impl RowSink<'a>) -> Result<usize> {
        let count = self.count(MIN_PAIR)?;
        sink.externals(count);
        for _ in 0..count {
            let key = self.text()?;
            sink.external(key, self.text()?);
        }
        self.count(MIN_VARIABLE)
    }

    /// One variable of a row, with the number of its descriptor.
    fn variable(&mut self) -> Result<(u32, Var<'a>)> {
        let (number, start) = self.descriptor_number()?;
        let descriptor =
            Decoder { pos: start, parsing: false, ..*self }.descriptor().expect(CHECKED);
        let (summary, null_count, total_count) = self.counts()?;
        Ok((number, Var { descriptor, summary, null_count, total_count }))
    }

    /// A variable's descriptor number, and where that descriptor starts:
    /// the parse takes a number that is in the table and no later than the
    /// first one not yet used.
    fn descriptor_number(&mut self) -> Result<(u32, usize)> {
        let at = self.pos;
        let number = self.varint()?;
        let Some(&start) = usize::try_from(number).ok().and_then(|ix| self.descriptors.get(ix))
        else {
            return Err(Error::corrupt(format!(
                "descriptor reference {number} at byte {at}: the table has {} descriptors",
                self.descriptors.len()
            )));
        };
        let number = number as u32;
        if self.parsing && number >= self.used {
            if number > self.used {
                return Err(Error::corrupt(format!(
                    "descriptor {number} at byte {at} is used before descriptor {}",
                    self.used
                )));
            }
            self.used += 1;
        }
        Ok((number, start))
    }

    /// What a variable holds after its descriptor number: its summary, and
    /// its null and total counts.
    fn counts(&mut self) -> Result<(NumericSummary, u64, u64)> {
        let decimals = self.tags(VARIABLE_DECIMALS | TOTAL_IS_RECORDS, "variable decimals")?;
        let summary = NumericSummary {
            count: self.varint()?,
            min: self.number(decimals, 0)?,
            max: self.number(decimals, 1)?,
            mean: self.number(decimals, 2)?,
        };
        let null_count = self.varint()?;
        if decimals & TOTAL_IS_RECORDS != 0 {
            return Ok((summary, null_count, self.records));
        }
        let at = self.pos;
        let total_count = self.varint()?;
        if self.parsing && total_count == self.records {
            return Err(Error::corrupt(format!(
                "total {total_count} at byte {at} is written but is the row's record count"
            )));
        }
        Ok((summary, null_count, total_count))
    }

    /// One entry of the descriptor table.
    fn descriptor(&mut self) -> Result<Descriptor<'a>> {
        let name = self.text()?;
        let present = self.tags(
            HAS_CANONICAL | HAS_UNIT | HAS_CANONICAL_UNIT | HAS_CONTEXT,
            "descriptor presence",
        )?;
        let curation = self.tags(
            RESOLUTION_MASK | FLAG_QA | FLAG_AMBIGUOUS | FLAG_HIDDEN | UNIT_NORMALIZED,
            "descriptor curation",
        )?;
        let method = match curation & RESOLUTION_MASK {
            0..=2 | 4 => None,
            RESOLUTION_DISCOVERED => Some(self.text()?),
            other => {
                return Err(Error::corrupt(format!(
                    "name resolution {other} at byte {}",
                    self.pos - 1
                )))
            }
        };
        let canonical = self.optional_text(present, HAS_CANONICAL)?;
        let unit = self.optional_text(present, HAS_UNIT)?;
        let canonical_unit = self.optional_text(present, HAS_CANONICAL_UNIT)?;
        let context = self.optional_text(present, HAS_CONTEXT)?;
        let levels = self.count(1)?;
        let first_level = *self;
        if self.parsing {
            for _ in 0..levels {
                self.text()?;
            }
        }
        Ok(Descriptor {
            name,
            curation,
            method,
            canonical,
            unit,
            canonical_unit,
            context,
            levels: Levels::Encoded(first_level, levels),
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::geo::GeoPoint;

    /// The mutation `record` logs, its put's row decoded.
    pub(crate) fn mutation(record: WalRecord) -> Mutation {
        match record {
            WalRecord::Put(row) => Mutation::Put(Box::new(row.decode())),
            WalRecord::Delete(id) => Mutation::Delete(id),
            WalRecord::SetProperty { key, value } => Mutation::SetProperty { key, value },
        }
    }

    /// Parses one WAL record's payload into the mutation it logs.
    fn parse_mutation(payload: &[u8]) -> Result<Mutation> {
        parse_record(payload).map(mutation)
    }

    /// A dataset whose floats JSON could not carry: a variable that never
    /// saw a number (`min = +inf`, `max = −inf`) and one that saw only
    /// `−0.0`.
    pub(crate) fn odd_floats() -> DatasetFeature {
        let mut f = DatasetFeature::new("odd.csv");
        f.variables.push(VariableFeature::new("station"));
        let mut zero = VariableFeature::new("offset");
        zero.summary.observe(-0.0);
        assert!(zero.summary.min.is_sign_negative());
        f.variables.push(zero);
        f
    }

    /// A whole snapshot file of an older format: its `magic` framing
    /// `payload`.
    fn older_snapshot(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
        let mut file = magic.to_vec();
        file.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        file.extend_from_slice(&crate::store::crc32(payload).to_le_bytes());
        file.extend_from_slice(payload);
        file
    }

    /// A whole format 1 snapshot file: the old magic framing a JSON `{}`.
    pub(crate) fn format_1_snapshot() -> Vec<u8> {
        older_snapshot(b"MMSNAP01", b"{}")
    }

    /// A whole format 2 snapshot file: the old magic framing an empty
    /// catalog (version 2, no table, generation 0, no properties, no rows).
    pub(crate) fn format_2_snapshot() -> Vec<u8> {
        older_snapshot(b"MMSNAP02", &[2, KIND_CATALOG, 0, 0, 0, 0])
    }

    /// A whole format 3 snapshot file: the old magic framing an empty
    /// catalog (version 3, no table, generation 0, no properties, no rows),
    /// which had no descriptor table.
    pub(crate) fn format_3_snapshot() -> Vec<u8> {
        older_snapshot(b"MMSNAP03", &[3, KIND_CATALOG, 0, 0, 0, 0])
    }

    /// A whole format 4 snapshot file: the old magic framing
    /// [`two_datasets`] as format 4 encoded it, each variable with a fourth
    /// number, the sum of squared deviations a variance was taken from.
    pub(crate) fn format_4_snapshot() -> Vec<u8> {
        older_snapshot(b"MMSNAP04", &unhex(FORMAT_4_TWO_DATASETS))
    }

    /// [`two_datasets`]' payload in format 4, as its golden test pinned it.
    const FORMAT_4_TWO_DATASETS: &str = concat!(
        "0400100873617475726e303103637376167072696e636970616c5f696e76657374696761746f72064d65676c",
        "65720641546173746e0b66696e6765727072696e741177617465725f74656d70657261747572650464656743",
        "0763656c7369757305776174657208706879736963616c0b74656d70657261747572650871615f6c6576656c",
        "000773746174696f6e066f666673657404040f530506070809030a0b060c002c000e0000000f000000030107",
        "617263686976650373696d02776e3803bbd25d20136372756973652f63312f63617374332e63646c1b636173",
        "74206174206372756973652f63312f63617374332e63646cf700f13892c204c99b01a80fffc50a80b2f4b309",
        "ac02efcdab89674523018096010301010203020030039235f115abaaaaaaaa2a2540abaaaaaaaa12564002ae",
        "0201c000000000000000f07f000000000000f0ff00000000680277578a05ca43076f64642e637376076f6464",
        "2e6373761ae1390b6a20df63fa5ec000000000000000000000000d000302c000000000000000f07f00000000",
        "0000f0ff0000000003c001000000000000008000000000000000800000000001c000000000000000f07f0000",
        "00000000f0ff00000007",
    );

    /// A whole format 5 snapshot file: the old magic framing
    /// [`two_datasets`] as format 5 encoded it, each row with its id and its
    /// whole path, and each variable with its total count.
    pub(crate) fn format_5_snapshot() -> Vec<u8> {
        older_snapshot(b"MMSNAP05", &unhex(FORMAT_5_TWO_DATASETS))
    }

    /// [`two_datasets`]' payload in format 5, as its golden test pinned it.
    const FORMAT_5_TWO_DATASETS: &str = concat!(
        "0500100873617475726e303103637376167072696e636970616c5f696e76657374696761746f72064d65676c",
        "65720641546173746e0b66696e6765727072696e741177617465725f74656d70657261747572650464656743",
        "0763656c7369757305776174657208706879736963616c0b74656d70657261747572650871615f6c6576656c",
        "000773746174696f6e066f666673657404040f530506070809030a0b060c002c000e0000000f000000030107",
        "617263686976650373696d02776e3803bbd25d20136372756973652f63312f63617374332e63646c1b636173",
        "74206174206372756973652f63312f63617374332e63646cf700f13892c204c99b01a80fffc50a80b2f4b309",
        "ac02efcdab89674523018096010301010203020030039235f115abaaaaaaaa2a254002ae0201400000000000",
        "0000f07f000000000000f0ff000000680277578a05ca43076f64642e637376076f64642e6373761ae1390b6a",
        "20df63fa5ec000000000000000000000000d0003024000000000000000f07f000000000000f0ff0000000340",
        "0100000000000000800000000000000080000000014000000000000000f07f000000000000f0ff000007",
    );

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
    }

    /// Every field set, every tag bit used, both signs of a timestamp.
    fn rich(path: &str, canonical: &str) -> DatasetFeature {
        let mut f = DatasetFeature::new(path);
        f.title = format!("cast at {path}");
        f.source = Some("saturn01".into());
        f.bbox = Some(GeoBBox { min_lat: 45.5, max_lat: 46.25, min_lon: -124.5, max_lon: -123.0 });
        f.time = Some(TimeInterval { start: Timestamp(-86_400), end: Timestamp(1_262_304_000) });
        f.record_count = 300;
        f.external.insert("principal_investigator".into(), "Megler".into());
        f.provenance = Provenance {
            content_fingerprint: 0x0123_4567_89ab_cdef,
            file_len: 19_200,
            pipeline_run: 3,
            format: "csv".into(),
        };
        let mut v = VariableFeature::new("ATastn");
        v.resolve(
            canonical,
            NameResolution::DiscoveredTranslation { method: "fingerprint".into() },
        );
        v.unit = Some("degC".into());
        v.canonical_unit = Some("celsius".into());
        v.unit_normalized = true;
        v.context = Some("water".into());
        v.hierarchy = vec!["physical".into(), "temperature".into(), canonical.into()].into();
        // decimals, whose mean is not
        v.summary.observe(4.25);
        v.summary.observe(17.5);
        v.summary.observe(10.0);
        v.null_count = 2;
        v.total_count = 302;
        v.flags = VariableFlags { qa: false, ambiguous: true, hidden: false };
        f.variables.push(v);
        let mut qa = VariableFeature::new("qa_level");
        qa.resolution = NameResolution::Curated;
        qa.flags = VariableFlags { qa: true, ambiguous: false, hidden: true };
        f.variables.push(qa);
        f
    }

    /// A box of decimal corners, and a point of one decimal and one raw
    /// coordinate at the odd floats; the QA variable of the one is in the
    /// other too, with other counts, so the two share its descriptor.
    fn two_datasets() -> Catalog {
        let mut c = Catalog::new();
        let rich = rich("cruise/c1/cast3.cdl", "water_temperature");
        let mut odd = odd_floats();
        odd.bbox = Some(GeoBBox::point(GeoPoint { lat: 46.2, lon: -123.912_345_678 }));
        let mut qa = rich.variables[1].clone();
        qa.total_count = 7;
        odd.variables.push(qa);
        c.put(rich);
        c.put(odd);
        c.set_property("archive", "sim");
        c
    }

    #[test]
    fn catalog_round_trips_and_encodes_to_the_same_bytes_every_time() {
        let c = two_datasets();
        let bytes = encode_catalog(&c);
        assert_eq!(bytes, encode_catalog(&c.clone()));
        let (back, table_entries) = decode_catalog(&bytes).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.generation(), 3);
        // a repeated string is spelled once, however often it is used
        let spelled = |s: &str| bytes.windows(s.len()).filter(|w| *w == s.as_bytes()).count();
        assert_eq!(spelled("water_temperature"), 1);
        assert_eq!(spelled("cruise/c1/"), 2, "the title's, and the directory's table entry");
        assert_eq!(table_entries, 17);
        // five variables, four descriptors: the QA variable's is shared
        assert_eq!(Image::parse(bytes).unwrap().descriptors(), 4);
    }

    #[test]
    fn every_mutation_round_trips_through_one_reused_buffer() {
        let mut buf = Vec::new();
        for m in [
            Mutation::Put(Box::new(rich("a.csv", "salinity"))),
            Mutation::Put(Box::new(odd_floats())),
            Mutation::Delete(DatasetId(u64::MAX)),
            Mutation::SetProperty { key: "vocabulary".into(), value: "v7 — ünïcode".into() },
        ] {
            encode_mutation(&m, &mut buf);
            assert_eq!(parse_mutation(&buf).unwrap(), m);
        }
    }

    #[test]
    fn the_fingerprint_sees_content_and_not_the_generation() {
        let a = two_datasets();
        let mut b = a.clone();
        let _ = b.iter_mut();
        assert_ne!(encode_catalog(&a), encode_catalog(&b));
        assert_eq!(content_fingerprint(&a), content_fingerprint(&b));
        // 0.0 and −0.0 are equal to `diff` and different to the fingerprint
        // (as they were as JSON text); NaN fingerprints like itself
        b.get_mut(DatasetId::from_path("odd.csv")).unwrap().variables[1].summary.min = 0.0;
        assert_ne!(content_fingerprint(&a), content_fingerprint(&b));
    }

    /// The format, byte for byte. A change that moves this must also move
    /// [`FORMAT_VERSION`] and the two magics: stores written before it
    /// would otherwise be misread, not refused.
    #[test]
    fn golden_two_dataset_snapshot() {
        const GOLDEN: &str = concat!(
            "0600110a6372756973652f63312f0873617475726e303103637376167072696e636970616c5f696e76657374",
            "696761746f72064d65676c65720641546173746e0b66696e6765727072696e741177617465725f74656d7065",
            "72617475726504646567430763656c7369757305776174657208706879736963616c0b74656d706572617475",
            "72650871615f6c6576656c000773746174696f6e066f666673657404050f53060708090a030b0c070d002c00",
            "0f00000010000000030107617263686976650373696d02000963617374332e63646c1b636173742061742063",
            "72756973652f63312f63617374332e63646cf701f13892c204c99b01a80fffc50a80b2f4b309ac02efcdab89",
            "674523018096010302010304020030039235f115abaaaaaaaa2a254002ae02014000000000000000f07f0000",
            "00000000f0ff0000001c076f64642e637376076f64642e6373761ae1390b6a20df63fa5ec000000000000000",
            "000000000e0003024100000000000000f07f000000000000f0ff000003410100000000000000800000000000",
            "0000800000014000000000000000f07f000000000000f0ff000007",
        );
        let hex: String =
            encode_catalog(&two_datasets()).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN);
        assert_eq!(decode_catalog(&unhex(GOLDEN)).unwrap().0, two_datasets());
        // format 5 wrote each row's id, 16 bytes here, and each variable's
        // total, 1 byte for each of odd.csv's two whose total is its record
        // count; its paths were whole, and "cruise/c1/" entering the table
        // costs 2 bytes more here, odd.csv's reference to "" 1
        let format_5 = unhex(FORMAT_5_TWO_DATASETS);
        assert_eq!(format_5.len() - GOLDEN.len() / 2, 16 + 2 - 2 - 1);
        let e = decode_catalog(&format_5).unwrap_err();
        assert!(e.is_corrupt() && e.to_string().contains("payload format 5, expected 6"), "{e}");
        // format 4 wrote a fourth number to each variable: 12 bytes more
        // than format 5, 8 for ATastn's and 1 for each of the four others' 0
        assert_eq!(unhex(FORMAT_4_TWO_DATASETS).len() - format_5.len(), 12);
    }

    /// The magics end in the digit of the format the payloads carry, so a
    /// format bump that moves one and not the others fails here.
    #[test]
    fn each_magic_names_the_format_its_payloads_carry() {
        use crate::store::{SNAPSHOT_MAGIC, WAL_MAGIC};
        assert_eq!(SNAPSHOT_MAGIC[7], b'0' + FORMAT_VERSION);
        assert_eq!(WAL_MAGIC[7], b'0' + FORMAT_VERSION);
        assert_eq!(encode_catalog(&Catalog::new())[0], FORMAT_VERSION);
    }

    #[test]
    fn an_image_reads_what_the_decoder_decodes_bit_for_bit() {
        let mut c = two_datasets();
        // a NaN too, which equals nothing, so compare through the encoding
        let odd = c.get_mut(DatasetId::from_path("odd.csv")).unwrap();
        odd.variables[0].summary.mean = f64::NAN;
        let payload = encode_catalog(&c);
        let (decoded, _) = decode_catalog(&payload).unwrap();
        let image = Arc::new(Image::parse(payload.clone()).unwrap());
        assert_eq!((image.len(), image.generation()), (2, c.generation()));
        assert_eq!(image.properties(), c.properties());
        assert_eq!(image.payload(), &payload[..]);
        // the searchable variables' descriptors: ATastn's, then station's
        // and offset's (qa_level, between them, is not searchable)
        let numbers: [&[u32]; 2] = [&[0], &[2, 3]];
        for ((row, want), numbers) in image.rows().zip(decoded.iter()).zip(numbers) {
            let (mut got_bytes, mut want_bytes) = (Vec::new(), Vec::new());
            encode_mutation(&Mutation::Put(Box::new(row.decode())), &mut got_bytes);
            encode_mutation(&Mutation::Put(Box::new(want.clone())), &mut want_bytes);
            assert_eq!(got_bytes, want_bytes, "{}", want.path);
            // the view reads the same fields in place
            let view = row.view();
            assert_eq!((row.id(), view.id()), (want.id, want.id));
            let (dir, name) = view.path();
            assert_eq!(([dir, name].concat(), view.title()), (want.path.clone(), &want.title[..]));
            assert_eq!((view.bbox(), view.time()), (want.bbox, want.time));
            assert_eq!(view.variable_count(), want.variables.len());
            let mut searchable = Vec::new();
            view.searchable_variables(|v| searchable.push(v));
            let expected: Vec<SearchableVariable> = want
                .searchable_variables()
                .zip(numbers)
                .map(|(v, &descriptor)| SearchableVariable {
                    name: &v.name,
                    search_name: v.search_name(),
                    value_range: v.value_range(),
                    descriptor,
                })
                .collect();
            // ±inf ranges compare equal; −0.0 is checked by its bits below
            assert_eq!(searchable, expected, "{}", want.path);
        }
        let offset = image.rows().nth(1).unwrap();
        let mut ranges = Vec::new();
        offset.view().searchable_variables(|v| ranges.push(v.value_range));
        assert_eq!(ranges[0], None, "a variable that never saw a number");
        let (lo, hi) = ranges[1].unwrap();
        assert!(lo.is_sign_negative() && hi.is_sign_negative(), "−0.0 stays −0.0");
        assert_eq!(image.catalog().content_fingerprint(), c.content_fingerprint());
    }

    #[test]
    fn a_put_record_is_an_image_of_one_row_and_encoding_features_makes_one() {
        let features = [rich("a.csv", "salinity"), odd_floats(), rich("b.csv", "salinity")];
        let mut record = Vec::new();
        encode_mutation(&Mutation::Put(Box::new(features[0].clone())), &mut record);
        let put = Image::parse(record).unwrap();
        assert_eq!((put.len(), put.generation()), (1, 0));
        assert!(put.properties().is_empty());
        let encoded = Arc::new(Image::encode(&features.iter().collect::<Vec<_>>()));
        assert_eq!(encoded.len(), 3);
        // one table for all of them: b.csv spells nothing a.csv did not, and
        // odd.csv adds its two names; its empty format is the directory of
        // every one of them, "", which a.csv entered
        assert_eq!(encoded.table_entries(), put.table_entries() + 2);
        for (row, f) in encoded.rows().zip(&features) {
            assert_eq!(row.id(), f.id);
            assert!(Arc::ptr_eq(row.image(), &encoded));
            if f.path != "odd.csv" {
                assert_eq!(row.decode(), *f);
            }
        }
        assert!(Image::encode(&[]).is_empty());
        // only a catalog or a put holds rows
        let mut delete = Vec::new();
        encode_mutation(&Mutation::Delete(DatasetId(7)), &mut delete);
        let e = Image::parse(delete).unwrap_err();
        assert!(e.is_corrupt() && e.to_string().contains("kind 2 holds no rows"), "{e}");
    }

    #[test]
    fn a_payload_of_the_wrong_shape_is_corrupt() {
        let mut put = Vec::new();
        encode_mutation(&Mutation::Put(Box::new(odd_floats())), &mut put);
        let snapshot = encode_catalog(&two_datasets());
        let corrupt = |r: Result<()>, why: &str| {
            let e = r.unwrap_err();
            assert!(e.is_corrupt() && e.to_string().contains(why), "{why}: {e}");
        };
        // one kind read as the other
        corrupt(decode_catalog(&put).map(drop), "kind 1 is not a catalog");
        corrupt(parse_mutation(&snapshot).map(drop), "kind 0 is not a mutation");
        // another format generation
        let mut next = put.clone();
        next[0] = FORMAT_VERSION + 1;
        corrupt(parse_mutation(&next).map(drop), "payload format 7");
        // the kind format 2 gave a `Clear`
        corrupt(parse_mutation(&[FORMAT_VERSION, 4, 0, 0]).map(drop), "kind 4 is not a mutation");
        // bytes left over, bytes missing
        let mut long = put.clone();
        long.push(0);
        corrupt(parse_mutation(&long).map(drop), "1 bytes past the end");
        corrupt(parse_mutation(&put[..put.len() - 1]).map(drop), "1 more expected, 0 left");
        corrupt(parse_mutation(&[]).map(drop), "payload ends");
        // a reference past the table: a put with a one-entry table, "", no
        // descriptors, and a reference to entry 1 for its source or for its
        // directory
        let bad = [FORMAT_VERSION, KIND_PUT, 1, 0, 0, 0, 0, 0, HAS_SOURCE, 1];
        corrupt(parse_mutation(&bad).map(drop), "string reference 1");
        let bad = [FORMAT_VERSION, KIND_PUT, 1, 0, 0, 1 << 1, 0, 0, 0];
        corrupt(parse_mutation(&bad).map(drop), "string reference 1");
        // a count the payload has no room for, before anything is reserved
        let mut huge = vec![FORMAT_VERSION, KIND_CATALOG];
        huge.extend_from_slice(&HUGE_COUNT);
        corrupt(decode_catalog(&huge).map(drop), "count 4611686018427387904");
        // a varint that does not end
        corrupt(
            decode_catalog(&[
                FORMAT_VERSION,
                KIND_CATALOG,
                0xff,
                0xff,
                0xff,
                0xff,
                0xff,
                0xff,
                0xff,
                0xff,
                0xff,
                0xff,
                0xff,
            ])
            .map(drop),
            "overflows 64 bits",
        );
        // tag bits nobody wrote in the variable's decimals byte, six bytes
        // from the end: a low bit, and the bit format 4 gave a fourth number
        for bit in [1 << 1, 1 << 7] {
            let mut tagged = one_number_put(&[0], VARIABLE_DECIMALS, &[0]);
            let decimals = tagged.len() - 6;
            tagged[decimals] |= bit;
            corrupt(parse_mutation(&tagged).map(drop), "variable decimals tag");
        }
    }

    #[test]
    fn what_a_row_implies_it_does_not_write() {
        let corrupt = |put: Vec<u8>, why: &str| {
            let e = parse_mutation(&put).unwrap_err();
            assert!(e.is_corrupt() && e.to_string().contains(why), "{why}: {e}");
        };
        let row = |put: Vec<u8>| match parse_mutation(&put).unwrap() {
            Mutation::Put(f) => *f,
            other => panic!("{other:?}"),
        };
        // the put of `path` ("" and "v" in the table), whose dir word and
        // name are `path`, and which writes `variable`
        let put = |path: &[u8], variable: &[u8]| {
            let mut put = vec![FORMAT_VERSION, KIND_PUT, 2, 1, b'v', 0, 1];
            put.extend_from_slice(V);
            put.extend_from_slice(path);
            put.extend_from_slice(&[0, 0, 0]); // title "", no tag, 0 records
            put.extend_from_slice(&[0; 8]); // fingerprint
            put.extend_from_slice(&[0, 0, 0, 0, 1]); // file len, run, format, no pairs
            put.extend_from_slice(variable);
            put
        };
        let top = [1 << 1, 1, b'a'];
        assert_eq!(row(put(&top, &zeros(0))).id, DatasetId::from_path("a"));
        // a total that is the record count is implied, never written
        let mut written = zeros(0).to_vec();
        written[1] &= !TOTAL_IS_RECORDS;
        written.push(0);
        corrupt(put(&top, &written), "total 0 at byte 37 is written but is the row's record count");
        *written.last_mut().unwrap() = 9;
        assert_eq!(row(put(&top, &written)).variables[0].total_count, 9);
        // an id that is its path's hash is implied, never written
        let own =
            [&[1 << 1 | OWN_ID as u8, 1, b'a'][..], &DatasetId::from_path("a").0.to_le_bytes()];
        corrupt(put(&own.concat(), &zeros(0)), "the row at byte 11 writes the id its path hashes");
        let own = [&[1 << 1 | OWN_ID as u8, 1, b'a'][..], &7u64.to_le_bytes()];
        assert_eq!(row(put(&own.concat(), &zeros(0))).id, DatasetId(7));
        // a path is split at its last '/': a directory without one, or a
        // name with one, is another encoding of a path a writer splits
        let not_split = "is not split at its last '/'";
        corrupt(put(&[0, 1, b'a'], &zeros(0)), not_split); // "v" + "a"
        corrupt(put(&[1 << 1, 2, b'a', b'/'], &zeros(0)), not_split);
    }

    #[test]
    fn the_rows_of_a_catalog_ascend_by_id() {
        let (a, b) = (DatasetFeature::new("a.csv"), DatasetFeature::new("b.csv"));
        let ascending = if a.id < b.id { [&a, &b] } else { [&b, &a] };
        let image = Image::encode(&ascending);
        assert_eq!(Image::parse(image.payload().to_vec()).unwrap(), image);
        for rows in [[ascending[1], ascending[0]], [&a, &a]] {
            let e = Image::parse(Image::encode(&rows).payload().to_vec()).unwrap_err();
            assert!(e.is_corrupt() && e.to_string().contains("not after the row before"), "{e}");
        }
    }

    /// The descriptor "v": name "v", nothing optional, unresolved, no
    /// hierarchy levels.
    const V: &[u8] = &[0, 0, 0, 0];
    /// The descriptor "v" with the unit "v".
    const V_UNIT: &[u8] = &[0, HAS_UNIT, 0, 0, 0];

    /// A put of one dataset whose string table is "v" and "" and whose
    /// descriptor table is `descriptors`: `dataset` is the dataset tag and
    /// the corners it writes, and `variables` the bytes of each variable.
    fn put_of(descriptors: &[&[u8]], dataset: &[u8], variables: &[&[u8]]) -> Vec<u8> {
        let mut put = vec![FORMAT_VERSION, KIND_PUT, 2, 1, b'v', 0, descriptors.len() as u8];
        put.extend(descriptors.concat());
        put.extend_from_slice(&[1 << 1, 0, 0]); // path "" + "", title ""
        put.extend_from_slice(dataset);
        put.push(0); // record count
        put.extend_from_slice(&[0; 8]); // fingerprint
        put.extend_from_slice(&[0, 0, 0, 0, variables.len() as u8]); // file len, run, format, no pairs
        put.extend(variables.concat());
        put
    }

    /// A variable of descriptor `number` that saw nothing but zeros, each
    /// number a decimal, and whose total is its row's record count.
    fn zeros(number: u8) -> [u8; 7] {
        [number, VARIABLE_DECIMALS | TOTAL_IS_RECORDS, 0, 0, 0, 0, 0]
    }

    /// A put of one dataset with one variable, "v", that saw one number:
    /// `dataset` is the dataset tag and the corners it writes, `decimals`
    /// the variable's decimals byte and `min` the bytes of its minimum; its
    /// max and mean are the decimal 0 and must be marked so.
    fn one_number_put(dataset: &[u8], decimals: u8, min: &[u8]) -> Vec<u8> {
        // descriptor 0, the decimals, the count, then the numbers and the
        // null count
        let variable = [&[0, decimals | TOTAL_IS_RECORDS, 1], min, &[0, 0, 0]].concat();
        put_of(&[V], dataset, &[&variable])
    }

    #[test]
    fn a_descriptor_table_in_any_form_but_its_one_is_corrupt() {
        let variables = |put: Vec<u8>| match parse_mutation(&put) {
            Ok(Mutation::Put(f)) => Ok(f.variables),
            Ok(other) => panic!("{other:?}"),
            Err(e) => Err(e),
        };
        let corrupt = |put: Vec<u8>, why: &str| {
            let e = variables(put).unwrap_err();
            assert!(e.is_corrupt() && e.to_string().contains(why), "{why}: {e}");
        };
        // what a writer writes: each descriptor once, first used in order,
        // and used again by number
        let three = variables(put_of(&[V, V_UNIT], &[0], &[&zeros(0), &zeros(1), &zeros(0)]));
        let three = three.unwrap();
        assert_eq!((three[0].unit.as_deref(), three[1].unit.as_deref()), (None, Some("v")));
        assert_eq!(three[0], three[2]);
        // a reference past the table
        corrupt(put_of(&[V], &[0], &[&zeros(1)]), "descriptor reference 1 at byte");
        let mut far = put_of(&[V], &[0], &[&zeros(0)]);
        far.splice(far.len() - 7..far.len() - 6, HUGE_COUNT);
        corrupt(far, "descriptor reference 4611686018427387904");
        // an entry equal to an earlier one, an entry never used, and two
        // used out of first-use order
        corrupt(put_of(&[V, V], &[0], &[&zeros(0), &zeros(1)]), "descriptor 1 at byte 11 repeats");
        corrupt(put_of(&[V, V_UNIT], &[0], &[&zeros(0)]), "descriptor 1 at byte 11 is never used");
        let swapped = put_of(&[V, V_UNIT], &[0], &[&zeros(1), &zeros(0)]);
        corrupt(swapped, "descriptor 1 at byte 34 is used before descriptor 0");
        // tag bits nobody wrote, in the entry and in the variable
        corrupt(put_of(&[&[0, FIRST_DECIMAL, 0, 0]], &[0], &[&zeros(0)]), "presence tag");
        corrupt(put_of(&[&[0, 0, 0x80, 0]], &[0], &[&zeros(0)]), "curation tag");
        corrupt(put_of(&[&[0, 0, 5, 0]], &[0], &[&zeros(0)]), "name resolution 5");
        let mut unknown = zeros(0);
        unknown[1] |= HAS_UNIT;
        corrupt(put_of(&[V], &[0], &[&unknown]), "variable decimals tag");
        // a count the payload cannot hold, refused before anything is
        // reserved for it: 2^62, and one entry more than there are bytes for
        let mut huge = vec![FORMAT_VERSION, KIND_PUT, 2, 1, b'v', 0];
        huge.extend_from_slice(&HUGE_COUNT);
        corrupt(huge, "count 4611686018427387904");
        let mut room = put_of(&[V], &[0], &[&zeros(0)]);
        let fits = (room.len() - 7) / MIN_DESCRIPTOR;
        room[6] = fits as u8 + 1;
        corrupt(room, &format!("count {} at byte 7: the payload has room for {fits}", fits + 1));
        // a payload that holds no rows uses no descriptor
        let mut delete = vec![FORMAT_VERSION, KIND_DELETE, 1, 1, b'v', 1];
        delete.extend_from_slice(V);
        delete.extend_from_slice(&7u64.to_le_bytes());
        let e = parse_mutation(&delete).unwrap_err();
        assert!(e.is_corrupt() && e.to_string().contains("descriptor 0 at byte 6 is never used"));
    }

    /// 2^62 as a varint: a count or a reference no payload has room for.
    const HUGE_COUNT: [u8; 9] = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40];

    fn varint(v: u64) -> Vec<u8> {
        let mut e = Encoder::new(Vec::new(), 0);
        e.varint(v);
        e.out
    }

    /// `m / 10^s` as a decimal's bytes, whether or not a writer would.
    fn decimal_bytes(m: i64, s: u64) -> Vec<u8> {
        varint(zigzag(m) << 3 | s)
    }

    #[test]
    fn a_number_in_a_form_its_writer_would_not_choose_is_corrupt() {
        const SUMMARY: u8 = 0b0110_0000; // max and mean are decimals
        const MIN: u8 = FIRST_DECIMAL;
        let min = |put: Vec<u8>| match parse_mutation(&put) {
            Ok(Mutation::Put(f)) => Ok(f.variables[0].summary.min),
            Ok(other) => panic!("{other:?}"),
            Err(e) => Err(e),
        };
        let corrupt = |put: Vec<u8>, why: &str| {
            let e = min(put).unwrap_err();
            assert!(e.is_corrupt() && e.to_string().contains(why), "{why}: {e}");
        };
        // what a writer writes
        assert_eq!(min(one_number_put(&[0], SUMMARY | MIN, &decimal_bytes(15, 1))).unwrap(), 1.5);
        assert_eq!(min(one_number_put(&[0], SUMMARY | MIN, &[0])).unwrap(), 0.0);
        let bound = MANTISSA_BOUND[7] as i64 - 1;
        let at_bound = min(one_number_put(&[0], SUMMARY | MIN, &decimal_bytes(-bound, 7)));
        assert_eq!(at_bound.unwrap(), -99_999_999.999_999_9);
        let negative_zero = min(one_number_put(&[0], SUMMARY, &(-0.0f64).to_le_bytes())).unwrap();
        assert!(negative_zero == 0.0 && negative_zero.is_sign_negative());
        // a decimal with a trailing zero, zero at a scale, a mantissa past
        // the bound of its scale
        let not_written = "is not in its one written form";
        corrupt(one_number_put(&[0], SUMMARY | MIN, &decimal_bytes(150, 2)), not_written);
        corrupt(one_number_put(&[0], SUMMARY | MIN, &decimal_bytes(0, 1)), not_written);
        corrupt(one_number_put(&[0], SUMMARY | MIN, &decimal_bytes(100_000_001, 0)), not_written);
        corrupt(one_number_put(&[0], SUMMARY | MIN, &decimal_bytes(-(bound + 2), 7)), not_written);
        // a raw number that has a decimal form
        let has_decimal = "is written raw but has a decimal form";
        corrupt(one_number_put(&[0], SUMMARY, &1.5f64.to_le_bytes()), has_decimal);
        corrupt(one_number_put(&[0], SUMMARY, &0.0f64.to_le_bytes()), has_decimal);
        // a point, and a point written as a box; a point with no bbox, and a
        // decimal bit for a corner a point does not write
        let point = [HAS_BBOX | POINT | 0b0011_0000, 0, 0];
        assert!(min(one_number_put(&point, SUMMARY | MIN, &[0])).is_ok());
        let as_box = [HAS_BBOX | DECIMALS, 0, 0, 0, 0];
        corrupt(one_number_put(&as_box, SUMMARY | MIN, &[0]), "a point written as a box");
        let not_written = "marks what the row does not write";
        corrupt(one_number_put(&[POINT], SUMMARY | MIN, &[0]), not_written);
        corrupt(one_number_put(&[FIRST_DECIMAL], SUMMARY | MIN, &[0]), not_written);
        corrupt(one_number_put(&[point[0] | 1 << 6, 0, 0], SUMMARY | MIN, &[0]), not_written);
    }

    #[test]
    fn a_row_of_the_smallest_variables_parses() {
        // a variable that saw only 0.0 writes each number in one byte
        let mut zero = VariableFeature::new("v");
        zero.summary.observe(0.0);
        let mut f = DatasetFeature::new("many.csv");
        f.variables = vec![zero; 40];
        let mut one = f.clone();
        one.variables.truncate(1);
        let (mut record, mut single) = (Vec::new(), Vec::new());
        encode_mutation(&Mutation::Put(Box::new(f.clone())), &mut record);
        encode_mutation(&Mutation::Put(Box::new(one)), &mut single);
        assert_eq!(record.len() - single.len(), 39 * MIN_VARIABLE);
        // format 2 counted 39 bytes to a variable, and would have found no
        // room for 40 in this row
        assert!(record.len() < 40 * 39);
        assert_eq!(parse_mutation(&record).unwrap(), Mutation::Put(Box::new(f)));
    }
}
