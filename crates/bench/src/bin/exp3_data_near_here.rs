//! **E3 — Figure: "Data Near Here" search interface.**
//!
//! Executes the poster's example information need — observations near
//! (45.5, −124.4) in mid-2010 with temperature between 5–10 °C — renders the
//! ranked result list the interface shows, and measures search latency vs
//! catalog size with the R-tree/interval indexes on and off (the ablation
//! the DESIGN calls out).
//!
//! ```text
//! cargo run --release -p metamess-bench --bin exp3_data_near_here
//! ```

use metamess_archive::ArchiveSpec;
use metamess_bench::{engine_from_ctx, wrangle_archive};
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
    println!("E3: \"Data Near Here\" ranked search\n");

    // The poster's query over the standard archive.
    let (ctx, _) = wrangle_archive(&ArchiveSpec::default());
    let engine = SearchEngine::build(&ctx.catalog, ctx.vocab.clone());
    let q = Query::parse(POSTER_QUERY).unwrap();
    println!("query> {POSTER_QUERY}\n");
    let poster_hits = engine.search(&q);
    print!("{}", render_results(&poster_hits));

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
        let mut engine = SearchEngine::build(&ctx.catalog, ctx.vocab.clone());
        let q = Query::parse(SELECTIVE).unwrap();
        engine.use_indexes = true;
        let indexed = sample_uncached(&engine, &q, 200);
        engine.use_indexes = false;
        let linear = sample_uncached(&engine, &q, 200);
        let speedup = mean(&linear).as_secs_f64() / mean(&indexed).as_secs_f64();
        println!(
            "{:>9} {:>10} {:>14.2?} {:>14.2?} {:>8.2}x",
            ctx.catalog.len(),
            ctx.catalog.variable_count(),
            mean(&indexed),
            mean(&linear),
            speedup
        );
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

    // Ablation: synonym expansion on/off for a synonym-heavy query.
    println!("\nablation: vocabulary expansion (query 'with wtemp' — a curated alternate):");
    let (ctx, truth) = wrangle_archive(&ArchiveSpec::default());
    let engine = SearchEngine::build(&ctx.catalog, ctx.vocab.clone());
    let engine_bare = SearchEngine::build(
        &ctx.catalog,
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
}
