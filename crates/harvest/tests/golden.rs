//! Golden harvest digest: the features `harvest` extracts from the default
//! archive are pinned, every `f64` by its bits. A change in the order cells
//! reach a column summary, or in how one is rounded, fails here.

use metamess_archive::{generate, ArchiveSpec};
use metamess_core::feature::DatasetFeature;
use metamess_core::stats::NumericSummary;
use metamess_harvest::{harvest, observatory_rules, ArchiveInput, HarvestConfig, ScanConfig};

/// Incremental FNV-1a; strings are length-prefixed.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
    fn opt(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.u64(1);
                self.str(s);
            }
            None => self.u64(0),
        }
    }
    fn summary(&mut self, s: &NumericSummary) {
        self.u64(s.count);
        self.f64(s.min);
        self.f64(s.max);
        self.f64(s.mean);
    }
    fn feature(&mut self, f: &DatasetFeature) {
        self.str(&f.path);
        self.str(&f.title);
        self.opt(f.source.as_deref());
        let bbox = f.bbox.map(|b| [b.min_lat, b.max_lat, b.min_lon, b.max_lon]);
        for x in bbox.unwrap_or([f64::NAN; 4]) {
            self.f64(x);
        }
        let time = f.time.map(|t| [t.start.0, t.end.0]);
        for x in time.unwrap_or([i64::MIN; 2]) {
            self.u64(x as u64);
        }
        self.u64(f.record_count);
        self.u64(f.variables.len() as u64);
        for v in &f.variables {
            self.str(&v.name);
            self.opt(v.unit.as_deref());
            self.opt(v.context.as_deref());
            self.summary(&v.summary);
            self.u64(v.null_count);
            self.u64(v.total_count);
            self.str(&format!("{:?}{:?}{:?}", v.resolution, v.flags, v.hierarchy));
            self.opt(v.canonical_name.as_deref());
            self.opt(v.canonical_unit.as_deref());
        }
        for (k, v) in &f.external {
            self.str(k);
            self.str(v);
        }
        let p = &f.provenance;
        for x in [p.content_fingerprint, p.file_len, p.pipeline_run] {
            self.u64(x);
        }
        self.str(&p.format);
    }
}

#[test]
fn features_harvested_from_the_default_archive_are_pinned() {
    let archive = ArchiveInput::Memory(generate(&ArchiveSpec::default()).files);
    let config =
        HarvestConfig { naming: observatory_rules(), pipeline_run: 1, ..Default::default() };
    let entries = archive.scan(&ScanConfig::default()).unwrap();
    let report = harvest(&archive, &entries, &config, None, &[]);
    assert_eq!(report.errors.len(), 3, "the three malformed files");
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for f in &report.features {
        h.feature(f);
    }
    assert_eq!((report.features.len(), h.0), (53, 6_878_073_772_959_881_272), "harvest digest");
}
