//! **E3 — Figure: "Data Near Here" search interface.**
//!
//! Executes the poster's example information need — observations near
//! (45.5, −124.4) in mid-2010 with temperature between 5–10 °C — renders the
//! ranked result list the interface shows, and measures search latency vs
//! catalog size with the R-tree/interval indexes on and off (the ablation
//! the DESIGN calls out).
//!
//! ```text
//! cargo run --release -p metamess-bench --bin exp3_data_near_here [-- --json [path]]
//! ```
//!
//! `--json` additionally writes a schema-stable `BENCH_search.json` with
//! per-configuration latency percentiles (p50/p95/p99), cache hit rates,
//! and the telemetry per-phase breakdown.

use metamess_archive::ArchiveSpec;
use metamess_bench::{engine_from_ctx, json_flag, wrangle_archive, BenchReport};
use metamess_search::{render_results, Query, SearchEngine};
use std::time::{Duration, Instant};

const POSTER_QUERY: &str = "near 45.5,-124.4 within 50km from 2010-04-01 to 2010-09-30 \
                            with temperature between 5 and 10 limit 5";

/// Times `runs` uncached searches individually, returning per-run µs.
fn sample_uncached(engine: &SearchEngine, q: &Query, runs: usize) -> Vec<u64> {
    (0..runs)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(engine.search_uncached(std::hint::black_box(q)));
            t.elapsed().as_micros() as u64
        })
        .collect()
}

/// Times `runs` cache-eligible searches individually, returning per-run µs.
fn sample_cached(engine: &SearchEngine, q: &Query, runs: usize) -> Vec<u64> {
    (0..runs)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(engine.search(std::hint::black_box(q)));
            t.elapsed().as_micros() as u64
        })
        .collect()
}

fn mean(samples: &[u64]) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    Duration::from_nanos(1000 * samples.iter().sum::<u64>() / samples.len() as u64)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = json_flag(&args, "BENCH_search.json");
    let mut report = BenchReport::new("search");

    println!("E3: \"Data Near Here\" ranked search\n");

    // The poster's query over the standard archive.
    let (ctx, _) = wrangle_archive(&ArchiveSpec::default());
    let engine = SearchEngine::build(&ctx.catalogs.published, ctx.vocab.clone());
    let q = Query::parse(POSTER_QUERY).unwrap();
    println!("query> {POSTER_QUERY}\n");
    let poster_hits = engine.search(&q);
    print!("{}", render_results(&poster_hits));
    report.set("poster.hits", poster_hits.len() as u64);
    report.set_f64("poster.top_score", poster_hits.first().map(|h| h.score).unwrap_or(0.0));

    // Latency vs catalog size, indexed vs linear scan. A *selective* query
    // (tight radius, one month, cruise-only variable) is where candidate
    // pruning pays; broad queries degenerate to a full scan by design.
    const SELECTIVE: &str = "near 46.1,-123.9 within 10km during 2010-02 with nitrate limit 5";
    println!("\nsearch latency vs catalog size (selective query, mean of 200 runs):");
    println!(
        "{:>9} {:>10} {:>14} {:>14} {:>9}",
        "datasets", "variables", "indexed", "linear scan", "speedup"
    );
    for months in [6usize, 12, 24, 48, 96] {
        let spec = ArchiveSpec { months, stations: 10, ..ArchiveSpec::default() };
        let (ctx, _) = wrangle_archive(&spec);
        let mut engine = SearchEngine::build(&ctx.catalogs.published, ctx.vocab.clone());
        let q = Query::parse(SELECTIVE).unwrap();
        engine.use_indexes = true;
        let indexed = sample_uncached(&engine, &q, 200);
        engine.use_indexes = false;
        let linear = sample_uncached(&engine, &q, 200);
        let speedup = mean(&linear).as_secs_f64() / mean(&indexed).as_secs_f64();
        println!(
            "{:>9} {:>10} {:>14.2?} {:>14.2?} {:>8.2}x",
            ctx.catalogs.published.len(),
            ctx.catalogs.published.variable_count(),
            mean(&indexed),
            mean(&linear),
            speedup
        );
        let prefix = format!("latency.m{months:03}");
        report.set(&format!("{prefix}.datasets"), ctx.catalogs.published.len() as u64);
        report.set(&format!("{prefix}.variables"), ctx.catalogs.published.variable_count() as u64);
        report.record_samples(&format!("{prefix}.indexed"), &indexed);
        report.record_samples(&format!("{prefix}.linear"), &linear);
        report.set_f64(&format!("{prefix}.speedup"), speedup);
    }

    // Result cache: repeated queries against an unchanged published catalog
    // are served without rescoring (largest catalog of the series).
    println!("\nresult cache (poster query, mean of 200 runs):");
    let spec = ArchiveSpec { months: 96, stations: 10, ..ArchiveSpec::default() };
    let (ctx, _) = wrangle_archive(&spec);
    let engine = engine_from_ctx(&ctx);
    let cold = sample_uncached(&engine, &q, 200);
    let cached = sample_cached(&engine, &q, 200);
    let stats = engine.cache_stats();
    println!("  cold:   {:>10.2?}", mean(&cold));
    println!(
        "  cached: {:>10.2?}  ({:.0}x; {} hits / {} misses)",
        mean(&cached),
        mean(&cold).as_secs_f64() / mean(&cached).as_secs_f64(),
        stats.hits,
        stats.misses
    );
    report.record_samples("cache.cold", &cold);
    report.record_samples("cache.cached", &cached);
    report.set("cache.hits", stats.hits);
    report.set("cache.misses", stats.misses);
    report.set_f64("cache.hit_rate", stats.hit_rate());
    report.set_f64("cache.speedup", mean(&cold).as_secs_f64() / mean(&cached).as_secs_f64());

    // Ablation: synonym expansion on/off for a synonym-heavy query.
    println!("\nablation: vocabulary expansion (query 'with wtemp' — a curated alternate):");
    let (ctx, truth) = wrangle_archive(&ArchiveSpec::default());
    let engine = SearchEngine::build(&ctx.catalogs.published, ctx.vocab.clone());
    let engine_bare = SearchEngine::build(
        &ctx.catalogs.published,
        metamess_vocab::Vocabulary::new(), // empty vocabulary: no expansion
    );
    let q = Query::parse("with wtemp limit 10").unwrap();
    let with_vocab = engine.search(&q);
    let without = engine_bare.search(&q);
    let relevant: Vec<&str> =
        truth.relevant(None, None, Some("water_temperature")).map(|d| d.path.as_str()).collect();
    let hit_rate = |hits: &[metamess_search::SearchHit]| {
        hits.iter()
            .take(10)
            .filter(|h| relevant.contains(&h.path.as_str()) && h.score > 0.5)
            .count()
    };
    println!(
        "  with vocabulary:    {}/10 strong relevant hits (top score {:.2})",
        hit_rate(&with_vocab),
        with_vocab.first().map(|h| h.score).unwrap_or(0.0)
    );
    println!(
        "  without vocabulary: {}/10 strong relevant hits (top score {:.2})",
        hit_rate(&without),
        without.first().map(|h| h.score).unwrap_or(0.0)
    );
    report.set("ablation.with_vocab.strong_hits", hit_rate(&with_vocab) as u64);
    report.set("ablation.no_vocab.strong_hits", hit_rate(&without) as u64);

    // Per-phase breakdown from the telemetry histograms accumulated over
    // every search above (log-bucketed, ≤12.5% relative error).
    let snap = metamess_telemetry::global().snapshot();
    for (key, metric) in [
        ("phase.plan", "metamess_search_plan_micros"),
        ("phase.probe", "metamess_search_probe_micros"),
        ("phase.score", "metamess_search_score_micros"),
        ("phase.merge", "metamess_search_merge_micros"),
        ("query", "metamess_search_query_micros"),
    ] {
        if let Some(h) = snap.histograms.get(metric) {
            report.record_histogram(key, h);
        }
    }

    if let Some(path) = json_path {
        report.write(&path).expect("write bench report");
        println!("\nwrote {} metrics to {}", report.len(), path.display());
    }
}
