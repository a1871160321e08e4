//! Criterion bench: archive harvesting — full scan vs incremental rescan
//! (curatorial activity 2's cost profile) and per-format parse throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use metamess_archive::{generate, ArchiveSpec};
use metamess_core::catalog::Catalog;
use metamess_formats::{parse_cdl, parse_csv, parse_obslog, CsvOptions};
use metamess_harvest::{harvest, observatory_rules, HarvestConfig, MemorySource, ScanConfig};
use std::hint::black_box;

fn config() -> HarvestConfig {
    HarvestConfig { scan: ScanConfig::default(), naming: observatory_rules(), pipeline_run: 1 }
}

fn bench_harvest(c: &mut Criterion) {
    let archive = generate(&ArchiveSpec::default());
    let source = MemorySource { files: &archive.files };

    c.bench_function("harvest/full-scan", |b| {
        b.iter(|| black_box(harvest(black_box(&source), &config(), None).unwrap()))
    });

    // Previous catalog in place: everything unchanged → fingerprint-only.
    let first = harvest(&source, &config(), None).unwrap();
    let mut prev = Catalog::new();
    for f in first.features {
        prev.put(f);
    }
    c.bench_function("harvest/incremental-unchanged", |b| {
        b.iter(|| black_box(harvest(black_box(&source), &config(), Some(&prev)).unwrap()))
    });
}

fn bench_parsers(c: &mut Criterion) {
    let archive = generate(&ArchiveSpec::default());
    let pick = |suffix: &str| {
        archive
            .files
            .iter()
            .find(|(p, _)| p.ends_with(suffix))
            .map(|(_, c)| c.clone())
            .expect("format present")
    };
    let csv = pick(".csv");
    let cdl = pick(".cdl");
    let obslog = pick(".obslog");

    c.bench_function("formats/parse-csv", |b| {
        b.iter(|| black_box(parse_csv(black_box(&csv), &CsvOptions::default()).unwrap()))
    });
    c.bench_function("formats/parse-cdl", |b| {
        b.iter(|| black_box(parse_cdl(black_box(&cdl)).unwrap()))
    });
    c.bench_function("formats/parse-obslog", |b| {
        b.iter(|| black_box(parse_obslog(black_box(&obslog)).unwrap()))
    });
}

criterion_group!(benches, bench_harvest, bench_parsers);
criterion_main!(benches);
