//! **E2 — Figure: IR Architecture Adapted to Scientific Data Search.**
//!
//! Runs the whole architecture end to end — scan once, summarize into
//! features, store in the catalog, rank searches over the catalog — and
//! reports build cost plus retrieval quality (precision@k, NDCG@10, MRR)
//! against the ground-truth relevance oracle, across a query workload and
//! growing archive sizes.
//!
//! ```text
//! cargo run --release -p metamess-bench --bin exp2_ir_architecture
//! ```

use metamess_archive::ArchiveSpec;
use metamess_bench::{ndcg_at_k, pct, precision_at_k, reciprocal_rank, wrangle_archive};
use metamess_core::geo::GeoBBox;
use metamess_core::time::{TimeInterval, Timestamp};
use metamess_search::{Query, SearchEngine};
use std::time::Instant;

struct Workload {
    name: &'static str,
    query: &'static str,
    region: Option<GeoBBox>,
    month: Option<(u32, u32)>,
    variable: Option<&'static str>,
}

fn workload() -> Vec<Workload> {
    let estuary = GeoBBox::new(45.9, 46.5, -124.3, -123.0).unwrap();
    let coast = GeoBBox::new(45.2, 45.8, -124.6, -123.8).unwrap();
    vec![
        Workload {
            name: "estuary salinity, June",
            query: "in 45.9,-124.3..46.5,-123.0 during 2010-06 with salinity limit 10",
            region: Some(estuary),
            month: Some((6, 6)),
            variable: Some("salinity"),
        },
        Workload {
            name: "coastal water temperature, spring",
            query: "in 45.2,-124.6..45.8,-123.8 from 2010-03-01 to 2010-05-31 \
                    with water_temperature limit 10",
            region: Some(coast),
            month: Some((3, 5)),
            variable: Some("water_temperature"),
        },
        Workload {
            name: "wind speed anywhere, January",
            query: "during 2010-01 with wind_speed limit 10",
            region: None,
            month: Some((1, 1)),
            variable: Some("wind_speed"),
        },
        Workload {
            name: "dissolved oxygen, estuary, any time",
            query: "in 45.9,-124.3..46.5,-123.0 with dissolved_oxygen limit 10",
            region: Some(estuary),
            month: None,
            variable: Some("dissolved_oxygen"),
        },
        Workload {
            name: "nitrate (cruise-only variable)",
            query: "with nitrate limit 10",
            region: None,
            month: None,
            variable: Some("nitrate"),
        },
    ]
}

fn main() {
    println!("E2: IR architecture end-to-end (scan → features → catalog → ranked search)\n");
    for months in [3usize, 6, 12] {
        let spec = ArchiveSpec { months, ..ArchiveSpec::default() };
        let t0 = Instant::now();
        let (ctx, truth) = wrangle_archive(&spec);
        let build = t0.elapsed();
        let t1 = Instant::now();
        let engine = SearchEngine::build(&ctx.catalog, ctx.vocab.clone());
        let index_time = t1.elapsed();

        println!(
            "archive: {} months -> {} datasets, {} variables; wrangle {:.2?}, index {:.2?}",
            months,
            ctx.catalog.len(),
            ctx.catalog.variable_count(),
            build,
            index_time
        );

        let mut sum_p5 = 0.0;
        let mut sum_ndcg = 0.0;
        let mut sum_mrr = 0.0;
        let queries = workload();
        for w in &queries {
            let window = w.month.map(|(m0, m1)| {
                TimeInterval::new(
                    Timestamp::from_ymd(2010, m0, 1).unwrap(),
                    Timestamp::from_ymd(2010, m1, 28).unwrap(),
                )
            });
            let relevant: Vec<&str> = truth
                .relevant(w.region.as_ref(), window.as_ref(), w.variable)
                .map(|d| d.path.as_str())
                .collect();
            let q = Query::parse(w.query).expect("query parses");
            let hits = engine.search(&q);
            let ranked: Vec<&str> = hits.iter().map(|h| h.path.as_str()).collect();
            let p5 = precision_at_k(&ranked, &relevant, 5.min(relevant.len().max(1)));
            let ndcg = ndcg_at_k(&ranked, &relevant, 10);
            let mrr = reciprocal_rank(&ranked, &relevant);
            sum_p5 += p5;
            sum_ndcg += ndcg;
            sum_mrr += mrr;
            println!(
                "  {:<40} relevant={:<3} P@5={:<6} NDCG@10={:<6} RR={:.2}",
                w.name,
                relevant.len(),
                pct(p5),
                format!("{ndcg:.2}"),
                mrr
            );
        }
        let n = queries.len() as f64;
        println!(
            "  mean: P@5={} NDCG@10={:.2} MRR={:.2}\n",
            pct(sum_p5 / n),
            sum_ndcg / n,
            sum_mrr / n
        );
    }
}
