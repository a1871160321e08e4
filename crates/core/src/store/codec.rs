//! The store's one row codec: the binary payload of a snapshot and of every
//! WAL record (`DESIGN.md § Durability` has the grammar).
//!
//! ```text
//! payload  := version:u8 kind:u8 table body
//! table    := count:varint (len:varint utf8)*        strings, first-seen order
//! catalog  := generation:varint  count:varint (key:str value:str)*  count:varint row*
//! put      := row        delete := id:u64le        set-property := key:str value:str
//! ```
//!
//! Counts, lengths and table references are LEB128 varints; every `f64` is
//! its eight little-endian bits, so ±inf, NaN and −0.0 come back as they
//! went in (a variable that never saw a number has `min = +inf`). Strings
//! that repeat across a curated catalog — variable names, canonical names,
//! units, contexts, hierarchy levels, source, format, external keys and
//! values — are written once, in the table, and referenced by index; `path`
//! and `title` belong to one dataset and are written in place. The table is
//! ordered by first use, never by hash order, so one catalog always encodes
//! to the same bytes. A WAL record carries its own small table and is
//! decodable on its own, from any [`Wal::read_tail`](super::Wal::read_tail)
//! offset.
//!
//! The decoders are handed bytes that passed a CRC, and trust nothing: every
//! count is bounded by the bytes that remain before anything is allocated
//! for it, every reference by the table, every tag by its known bits, and a
//! payload must be consumed exactly. All failures are [`Error::Corrupt`].

use crate::catalog::{Catalog, Mutation};
use crate::error::{Error, Result};
use crate::feature::{DatasetFeature, NameResolution, Provenance, VariableFeature, VariableFlags};
use crate::geo::GeoBBox;
use crate::id::DatasetId;
use crate::stats::NumericSummary;
use crate::time::{TimeInterval, Timestamp};
use std::collections::{BTreeMap, HashMap};

/// The format generation this module writes and reads: the digit the
/// snapshot and WAL magics end in, and the first byte of every payload.
pub const FORMAT_VERSION: u8 = 2;

const KIND_CATALOG: u8 = 0;
const KIND_PUT: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_SET_PROPERTY: u8 = 3;
const KIND_CLEAR: u8 = 4;

// Dataset tag: which optional fields follow.
const HAS_SOURCE: u8 = 1;
const HAS_BBOX: u8 = 1 << 1;
const HAS_TIME: u8 = 1 << 2;

// Variable presence tag: which optional strings follow.
const HAS_CANONICAL: u8 = 1;
const HAS_UNIT: u8 = 1 << 1;
const HAS_CANONICAL_UNIT: u8 = 1 << 2;
const HAS_CONTEXT: u8 = 1 << 3;

// Variable curation tag: the resolution in the low three bits, then the
// flags and `unit_normalized`.
const RESOLUTION_MASK: u8 = 0b111;
const RESOLUTION_DISCOVERED: u8 = 3;
const FLAG_QA: u8 = 1 << 3;
const FLAG_AMBIGUOUS: u8 = 1 << 4;
const FLAG_HIDDEN: u8 = 1 << 5;
const UNIT_NORMALIZED: u8 = 1 << 6;

/// The fewest bytes a row, a variable, a string pair and a table entry can
/// take: what bounds a count read from the payload.
const MIN_ROW: usize = 25;
const MIN_VARIABLE: usize = 39;
const MIN_PAIR: usize = 2;
const MIN_ENTRY: usize = 1;

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
    let mut e = Encoder::new(Vec::new(), 1024);
    e.varint(generation);
    e.varint(catalog.properties().len() as u64);
    for (key, value) in catalog.properties() {
        e.str(key);
        e.str(value);
    }
    e.varint(catalog.len() as u64);
    for f in catalog.iter() {
        e.row(f);
    }
    e.finish(KIND_CATALOG)
}

/// Decodes a snapshot payload, returning the catalog and the number of
/// entries in its string table.
pub fn decode_catalog(payload: &[u8]) -> Result<(Catalog, usize)> {
    let mut d = Decoder::new(payload)?;
    if d.kind != KIND_CATALOG {
        return Err(Error::corrupt(format!("payload kind {} is not a catalog", d.kind)));
    }
    let generation = d.varint()?;
    let mut properties = BTreeMap::new();
    for _ in 0..d.count(MIN_PAIR)? {
        let key = d.str()?.to_owned();
        properties.insert(key, d.str()?.to_owned());
    }
    let rows = d.count(MIN_ROW)?;
    let entries =
        (0..rows).map(|_| d.row().map(|f| (f.id, f))).collect::<Result<BTreeMap<_, _>>>()?;
    d.finish()?;
    Ok((Catalog::from_parts(entries, properties, generation), d.table.len()))
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
        Mutation::Clear => KIND_CLEAR,
    };
    *out = e.finish(kind);
}

/// Decodes one WAL record's payload.
pub fn decode_mutation(payload: &[u8]) -> Result<Mutation> {
    let mut d = Decoder::new(payload)?;
    let m = match d.kind {
        KIND_PUT => Mutation::Put(Box::new(d.row()?)),
        KIND_DELETE => Mutation::Delete(DatasetId(d.u64_le()?)),
        KIND_SET_PROPERTY => {
            let key = d.str()?.to_owned();
            Mutation::SetProperty { key, value: d.str()?.to_owned() }
        }
        KIND_CLEAR => Mutation::Clear,
        other => return Err(Error::corrupt(format!("payload kind {other} is not a mutation"))),
    };
    d.finish()?;
    Ok(m)
}

/// Writes a body while collecting the strings it references; `finish` puts
/// header and table in front.
struct Encoder<'a> {
    out: Vec<u8>,
    table: Vec<&'a str>,
    /// Looked up, never iterated: the table's order is `table`'s.
    index: HashMap<&'a str, u64>,
}

impl<'a> Encoder<'a> {
    fn new(mut out: Vec<u8>, strings: usize) -> Encoder<'a> {
        out.clear();
        Encoder { out, table: Vec::with_capacity(strings), index: HashMap::with_capacity(strings) }
    }

    /// The table is complete only once the body is written, and has to come
    /// first for decoding to be one forward pass: it is appended, then the
    /// buffer is rotated, which needs no second buffer and no offsets.
    fn finish(mut self, kind: u8) -> Vec<u8> {
        let body = self.out.len();
        self.out.extend_from_slice(&[FORMAT_VERSION, kind]);
        self.varint(self.table.len() as u64);
        for s in std::mem::take(&mut self.table) {
            self.str(s);
        }
        self.out.rotate_left(body);
        self.out
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

    /// Zigzag, so small negative numbers stay small.
    fn signed(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    /// A string in place.
    fn str(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// A string by table reference, entered into the table on first use.
    fn text(&mut self, s: &'a str) {
        let next = self.table.len() as u64;
        let ix = *self.index.entry(s).or_insert(next);
        if ix == next {
            self.table.push(s);
        }
        self.varint(ix);
    }

    fn row(&mut self, f: &'a DatasetFeature) {
        self.bytes(&f.id.0.to_le_bytes());
        self.str(&f.path);
        self.str(&f.title);
        self.out.push(
            tag(f.source.is_some(), HAS_SOURCE)
                | tag(f.bbox.is_some(), HAS_BBOX)
                | tag(f.time.is_some(), HAS_TIME),
        );
        if let Some(source) = &f.source {
            self.text(source);
        }
        if let Some(b) = &f.bbox {
            for v in [b.min_lat, b.max_lat, b.min_lon, b.max_lon] {
                self.f64(v);
            }
        }
        if let Some(t) = &f.time {
            self.signed(t.start.0);
            self.signed(t.end.0.wrapping_sub(t.start.0));
        }
        self.varint(f.record_count);
        self.bytes(&f.provenance.content_fingerprint.to_le_bytes());
        self.varint(f.provenance.file_len);
        self.varint(f.provenance.pipeline_run);
        self.text(&f.provenance.format);
        self.varint(f.external.len() as u64);
        for (key, value) in &f.external {
            self.text(key);
            self.text(value);
        }
        self.varint(f.variables.len() as u64);
        for v in &f.variables {
            self.variable(v);
        }
    }

    fn variable(&mut self, v: &'a VariableFeature) {
        self.text(&v.name);
        let optional = [
            (&v.canonical_name, HAS_CANONICAL),
            (&v.unit, HAS_UNIT),
            (&v.canonical_unit, HAS_CANONICAL_UNIT),
            (&v.context, HAS_CONTEXT),
        ];
        self.out.push(optional.iter().fold(0, |tags, (s, bit)| tags | tag(s.is_some(), *bit)));
        let (resolution, method) = match &v.resolution {
            NameResolution::Unresolved => (0, None),
            NameResolution::AlreadyCanonical => (1, None),
            NameResolution::KnownTranslation => (2, None),
            NameResolution::DiscoveredTranslation { method } => {
                (RESOLUTION_DISCOVERED, Some(method))
            }
            NameResolution::Curated => (4, None),
        };
        self.out.push(
            resolution
                | tag(v.flags.qa, FLAG_QA)
                | tag(v.flags.ambiguous, FLAG_AMBIGUOUS)
                | tag(v.flags.hidden, FLAG_HIDDEN)
                | tag(v.unit_normalized, UNIT_NORMALIZED),
        );
        if let Some(method) = method {
            self.text(method);
        }
        for (s, _) in optional {
            if let Some(s) = s {
                self.text(s);
            }
        }
        self.varint(v.hierarchy.len() as u64);
        for level in &v.hierarchy {
            self.text(level);
        }
        self.varint(v.summary.count);
        for x in [v.summary.min, v.summary.max, v.summary.mean, v.summary.m2] {
            self.f64(x);
        }
        self.varint(v.null_count);
        self.varint(v.total_count);
    }
}

fn tag(set: bool, bit: u8) -> u8 {
    if set {
        bit
    } else {
        0
    }
}

/// A forward-only reader over a payload whose header and table have been
/// read.
struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    kind: u8,
    table: Vec<&'a str>,
}

impl<'a> Decoder<'a> {
    fn new(payload: &'a [u8]) -> Result<Decoder<'a>> {
        let mut d = Decoder { bytes: payload, pos: 0, kind: 0, table: Vec::new() };
        let version = d.u8()?;
        if version != FORMAT_VERSION {
            return Err(Error::corrupt(format!(
                "payload format {version}, expected {FORMAT_VERSION}"
            )));
        }
        d.kind = d.u8()?;
        let entries = d.count(MIN_ENTRY)?;
        d.table.reserve_exact(entries);
        for _ in 0..entries {
            let s = d.str()?;
            d.table.push(s);
        }
        Ok(d)
    }

    /// The payload must have been consumed exactly.
    fn finish(&self) -> Result<()> {
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
        Ok(self.take(1)?[0])
    }

    fn u64_le(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("took eight bytes")))
    }

    fn f64(&mut self) -> Result<f64> {
        self.u64_le().map(f64::from_bits)
    }

    fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            let bits = u64::from(b & 0x7f);
            if shift == 63 && bits > 1 {
                break;
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(Error::corrupt(format!("varint ending at byte {} overflows 64 bits", self.pos)))
    }

    fn signed(&mut self) -> Result<i64> {
        let v = self.varint()?;
        Ok((v >> 1) as i64 ^ -((v & 1) as i64))
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
    fn text(&mut self) -> Result<String> {
        let ix = self.varint()?;
        match usize::try_from(ix).ok().and_then(|ix| self.table.get(ix)) {
            Some(s) => Ok((*s).to_owned()),
            None => Err(Error::corrupt(format!(
                "string reference {ix} at byte {}: the table has {} entries",
                self.pos,
                self.table.len()
            ))),
        }
    }

    fn optional_text(&mut self, tags: u8, bit: u8) -> Result<Option<String>> {
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

    fn row(&mut self) -> Result<DatasetFeature> {
        let id = DatasetId(self.u64_le()?);
        let path = self.str()?.to_owned();
        let title = self.str()?.to_owned();
        let tags = self.tags(HAS_SOURCE | HAS_BBOX | HAS_TIME, "dataset")?;
        let source = self.optional_text(tags, HAS_SOURCE)?;
        let bbox = if tags & HAS_BBOX == 0 {
            None
        } else {
            Some(GeoBBox {
                min_lat: self.f64()?,
                max_lat: self.f64()?,
                min_lon: self.f64()?,
                max_lon: self.f64()?,
            })
        };
        let time = if tags & HAS_TIME == 0 {
            None
        } else {
            let start = self.signed()?;
            let end = start.wrapping_add(self.signed()?);
            Some(TimeInterval { start: Timestamp(start), end: Timestamp(end) })
        };
        let record_count = self.varint()?;
        let provenance = Provenance {
            content_fingerprint: self.u64_le()?,
            file_len: self.varint()?,
            pipeline_run: self.varint()?,
            format: self.text()?,
        };
        let mut external = BTreeMap::new();
        for _ in 0..self.count(MIN_PAIR)? {
            let key = self.text()?;
            external.insert(key, self.text()?);
        }
        let count = self.count(MIN_VARIABLE)?;
        let mut variables = Vec::with_capacity(count);
        for _ in 0..count {
            variables.push(self.variable()?);
        }
        Ok(DatasetFeature {
            id,
            path,
            title,
            source,
            bbox,
            time,
            record_count,
            variables,
            external,
            provenance,
        })
    }

    fn variable(&mut self) -> Result<VariableFeature> {
        let name = self.text()?;
        let present = self.tags(
            HAS_CANONICAL | HAS_UNIT | HAS_CANONICAL_UNIT | HAS_CONTEXT,
            "variable presence",
        )?;
        let curation = self.tags(
            RESOLUTION_MASK | FLAG_QA | FLAG_AMBIGUOUS | FLAG_HIDDEN | UNIT_NORMALIZED,
            "variable curation",
        )?;
        let resolution = match curation & RESOLUTION_MASK {
            0 => NameResolution::Unresolved,
            1 => NameResolution::AlreadyCanonical,
            2 => NameResolution::KnownTranslation,
            RESOLUTION_DISCOVERED => NameResolution::DiscoveredTranslation { method: self.text()? },
            4 => NameResolution::Curated,
            other => {
                return Err(Error::corrupt(format!(
                    "name resolution {other} at byte {}",
                    self.pos - 1
                )))
            }
        };
        let canonical_name = self.optional_text(present, HAS_CANONICAL)?;
        let unit = self.optional_text(present, HAS_UNIT)?;
        let canonical_unit = self.optional_text(present, HAS_CANONICAL_UNIT)?;
        let context = self.optional_text(present, HAS_CONTEXT)?;
        let levels = self.count(1)?;
        let mut hierarchy = Vec::with_capacity(levels);
        for _ in 0..levels {
            hierarchy.push(self.text()?);
        }
        let summary = NumericSummary {
            count: self.varint()?,
            min: self.f64()?,
            max: self.f64()?,
            mean: self.f64()?,
            m2: self.f64()?,
        };
        Ok(VariableFeature {
            name,
            canonical_name,
            resolution,
            unit,
            canonical_unit,
            unit_normalized: curation & UNIT_NORMALIZED != 0,
            context,
            hierarchy,
            summary,
            null_count: self.varint()?,
            total_count: self.varint()?,
            flags: VariableFlags {
                qa: curation & FLAG_QA != 0,
                ambiguous: curation & FLAG_AMBIGUOUS != 0,
                hidden: curation & FLAG_HIDDEN != 0,
            },
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

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

    /// A whole format 1 snapshot file: the old magic framing a JSON `{}`.
    pub(crate) fn format_1_snapshot() -> Vec<u8> {
        let mut file = b"MMSNAP01".to_vec();
        file.extend_from_slice(&2u32.to_le_bytes());
        file.extend_from_slice(&crate::store::crc32(b"{}").to_le_bytes());
        file.extend_from_slice(b"{}");
        file
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
        v.hierarchy = vec!["physical".into(), "temperature".into(), canonical.into()];
        v.summary.observe(4.25);
        v.summary.observe(17.5);
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

    fn two_datasets() -> Catalog {
        let mut c = Catalog::new();
        c.put(rich("cruise/c1/cast3.cdl", "water_temperature"));
        c.put(odd_floats());
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
        assert_eq!(table_entries, 16);
    }

    #[test]
    fn every_mutation_round_trips_through_one_reused_buffer() {
        let mut buf = Vec::new();
        for m in [
            Mutation::Put(Box::new(rich("a.csv", "salinity"))),
            Mutation::Put(Box::new(odd_floats())),
            Mutation::Delete(DatasetId(u64::MAX)),
            Mutation::SetProperty { key: "vocabulary".into(), value: "v7 — ünïcode".into() },
            Mutation::Clear,
        ] {
            encode_mutation(&m, &mut buf);
            assert_eq!(decode_mutation(&buf).unwrap(), m);
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
            "0200100873617475726e303103637376167072696e636970616c5f696e76657374696761746f72064d65676c",
            "65720641546173746e0b66696e6765727072696e741177617465725f74656d70657261747572650464656743",
            "0763656c7369757305776174657208706879736963616c0b74656d70657261747572650871615f6c6576656c",
            "000773746174696f6e066f6666736574030107617263686976650373696d02776e3803bbd25d201363727569",
            "73652f63312f63617374332e63646c1b63617374206174206372756973652f63312f63617374332e63646c07",
            "000000000000c0464000000000002047400000000000205fc00000000000c05ec0ffc50a80b2f4b309ac02ef",
            "cdab8967452301809601030101020302040f530506070809030a0b0602000000000000114000000000008031",
            "400000000000c025400000000000f2554002ae020c002c0000000000000000f07f000000000000f0ff000000",
            "000000000000000000000000000000680277578a05ca43076f64642e637376076f64642e6373760000000000",
            "000000000000000d00020e00000000000000000000f07f000000000000f0ff00000000000000000000000000",
            "00000000000f0000000100000000000000800000000000000080000000000000000000000000000000000000",
        );
        let hex: String =
            encode_catalog(&two_datasets()).iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN);
        let bytes: Vec<u8> = (0..GOLDEN.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(decode_catalog(&bytes).unwrap().0, two_datasets());
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
        corrupt(decode_mutation(&snapshot).map(drop), "kind 0 is not a mutation");
        // another format generation
        let mut v3 = put.clone();
        v3[0] = 3;
        corrupt(decode_mutation(&v3).map(drop), "payload format 3");
        // bytes left over, bytes missing
        let mut long = put.clone();
        long.push(0);
        corrupt(decode_mutation(&long).map(drop), "1 bytes past the end");
        corrupt(decode_mutation(&put[..put.len() - 1]).map(drop), "the payload has room for");
        corrupt(decode_mutation(&[]).map(drop), "payload ends");
        // a reference past the table: `Clear` with a one-entry table, then
        // a put whose first reference (its source) is entry 1
        let mut bad = vec![FORMAT_VERSION, KIND_PUT, 1, 0];
        bad.extend_from_slice(&[0; 8]); // id
        bad.extend_from_slice(&[0, 0, HAS_SOURCE, 1]); // path "", title "", source → 1
        corrupt(decode_mutation(&bad).map(drop), "string reference 1");
        // a count the payload has no room for, before anything is reserved
        let mut huge = vec![FORMAT_VERSION, KIND_CATALOG];
        huge.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40]); // 2^62
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
        // a tag bit nobody wrote
        let mut tagged = vec![FORMAT_VERSION, KIND_PUT, 0];
        tagged.extend_from_slice(&[0; 8]);
        tagged.extend_from_slice(&[0, 0, 0x80]);
        corrupt(decode_mutation(&tagged).map(drop), "unknown bits");
    }
}
