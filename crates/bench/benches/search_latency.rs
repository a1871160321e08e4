//! Criterion bench: ranked-search latency vs catalog size, indexed vs
//! linear scan (supports E3's latency series and the R-tree ablation),
//! plus the parallel-scoring and result-cache variants.
//!
//! The `*-indexed` / `*-linear` series call `search_uncached` so they keep
//! measuring the scoring path itself; `cached-*` vs `cold-*` isolates the
//! generation-stamped result cache.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use metamess_archive::ArchiveSpec;
use metamess_bench::wrangle_archive;
use metamess_search::{Query, SearchEngine};
use std::hint::black_box;

fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("search");
    for months in [6usize, 24] {
        let spec = ArchiveSpec { months, stations: 10, ..ArchiveSpec::default() };
        let (ctx, _) = wrangle_archive(&spec);
        let mut engine = SearchEngine::build(&ctx.catalogs.published, ctx.vocab.clone());
        let n = ctx.catalogs.published.len();

        let selective =
            Query::parse("near 46.1,-123.9 within 10km during 2010-02 with nitrate limit 5")
                .unwrap();
        let broad = Query::parse(
            "near 45.5,-124.4 within 50km from 2010-04-01 to 2010-09-30 \
             with temperature between 5 and 10 limit 5",
        )
        .unwrap();

        engine.use_indexes = true;
        group.bench_with_input(BenchmarkId::new("selective-indexed", n), &n, |b, _| {
            b.iter(|| black_box(engine.search_uncached(black_box(&selective))))
        });
        group.bench_with_input(BenchmarkId::new("broad-indexed", n), &n, |b, _| {
            b.iter(|| black_box(engine.search_uncached(black_box(&broad))))
        });
        engine.use_indexes = false;
        group.bench_with_input(BenchmarkId::new("selective-linear", n), &n, |b, _| {
            b.iter(|| black_box(engine.search_uncached(black_box(&selective))))
        });
        group.bench_with_input(BenchmarkId::new("broad-linear", n), &n, |b, _| {
            b.iter(|| black_box(engine.search_uncached(black_box(&broad))))
        });

        // Result cache: cold rescoring vs repeated-query hits against an
        // unchanged catalog generation.
        group.bench_with_input(BenchmarkId::new("broad-cold", n), &n, |b, _| {
            b.iter(|| black_box(engine.search_uncached(black_box(&broad))))
        });
        let _ = engine.search(&broad); // warm the cache once
        group.bench_with_input(BenchmarkId::new("broad-cached", n), &n, |b, _| {
            b.iter(|| black_box(engine.search(black_box(&broad))))
        });
    }
    group.finish();
}

fn bench_index_build(c: &mut Criterion) {
    let spec = ArchiveSpec { months: 24, stations: 10, ..ArchiveSpec::default() };
    let (ctx, _) = wrangle_archive(&spec);
    c.bench_function("search/index-build-257", |b| {
        b.iter(|| {
            black_box(SearchEngine::build(black_box(&ctx.catalogs.published), ctx.vocab.clone()))
        })
    });
}

criterion_group!(benches, bench_search, bench_index_build);
criterion_main!(benches);
