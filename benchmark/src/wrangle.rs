//! `wrangle-live`: the paper's wrangling pipeline over an archive on disk,
//! then continuous ingestion beside search. Each cycle edits files, runs one
//! `Watcher::run_cycle`, lets the server take the WAL tail, and asks
//! `/search` for the file it just added.

use crate::client::{self, Conn, Stream, KEEP_NONE};
use crate::reference::reference_search;
use crate::report::{Report, STAGES};
use crate::search::{self, Served};
use crate::trace::Tracer;
use crate::util::{self, RegistryDelta};
use crate::{layers, Args};
use metamess_archive::{
    generate, ArchiveSpec, GeneratedArchive, GroundTruth, MessCategory, TrueVariable,
};
use metamess_core::{Catalog, DurableCatalog, StoreOptions};
use metamess_pipeline::{WatchOptions, Watcher};
use metamess_search::Query;
use metamess_server::{ServeState, ServeSummary};
use metamess_vocab::Vocabulary;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The archive: 10 stations x 60 months, 60 cruises of 4 to 6 casts, 100
/// glider missions, about a thousand files. README § Sizes says why it is
/// not the five thousand the issue asked for.
fn archive_spec(seed: u64) -> ArchiveSpec {
    ArchiveSpec {
        seed,
        stations: 10,
        months: 60,
        cruises: 60,
        glider_missions: 100,
        rows_per_file: 96,
        ..ArchiveSpec::default()
    }
}

/// Existing files that get a row appended in every cycle.
const EDITS_PER_CYCLE: usize = 8;
/// How long a cycle may take to show up in `/search` before it is a failure.
const VISIBLE_WITHIN: Duration = Duration::from_secs(5);
/// How long search runs alone before the live phase, and how long the oracle
/// may then take over its answers.
const CHECK_FOR: Duration = Duration::from_millis(500);
/// `pipeline.resolved_share` below this fails the run.
const RESOLVED_FLOOR: f64 = 0.85;

/// Spellings a live file may use for a column, with the canonical name the
/// pipeline must arrive at: the vocabulary's curated alternates and case
/// variants (the poster's synonym and abbreviation categories).
const MESSY: &[(&str, &str)] = &[
    ("wtemp", "water_temperature"),
    ("T_Water", "water_temperature"),
    ("WATER_TEMPERATURE", "water_temperature"),
    ("sal", "salinity"),
    ("Salinity", "salinity"),
    ("spcond", "specific_conductivity"),
    ("oxygen", "dissolved_oxygen"),
    ("turb", "turbidity"),
];

/// One complete set-up: the archive on disk, wrangled cold into a store, a
/// server over the store that has answered the warm-up traffic.
struct LiveSetup {
    archive: GeneratedArchive,
    archive_dir: PathBuf,
    store_dir: PathBuf,
    watcher: Watcher,
    served: Served,
    queries: Vec<Query>,
    wire: Vec<Vec<u8>>,
    /// Seconds the cold wrangle took, and milliseconds per stage in `STAGES` order.
    cold_s: f64,
    stage_ms: Vec<f64>,
    /// `ServeState::open_sharded` over the wrangled store.
    server_open_ms: f64,
    /// What the program's registry counted during the set-up.
    registry: RegistryDelta,
    /// Wall time of all of the above.
    setup_s: f64,
}

/// Set-up number `nth` of the run, timed from `since`: process start for the
/// first, so that everything before the first measured request counts.
fn set_up(args: &Args, nth: usize, since: Instant) -> LiveSetup {
    let before = metamess_telemetry::global().snapshot();
    let archive = generate(&archive_spec(args.seed));
    let archive_dir = args.work_dir.join(format!("archive-{nth}"));
    let store_dir = args.work_dir.join(format!("store-{nth}"));
    archive.write_to(&archive_dir).expect("write the archive");
    let t = Instant::now();
    let mut watcher =
        Watcher::new(&archive_dir, &store_dir, WatchOptions::default()).expect("open the watcher");
    let cycle = watcher.run_cycle().expect("cold wrangle");
    let cold_s = t.elapsed().as_secs_f64();
    assert!(cycle.changed && cycle.datasets > 0, "cold wrangle published nothing");
    let registry = RegistryDelta::since(before);
    let stage_ms = STAGES
        .iter()
        .map(|(stage, _)| {
            let name = format!("metamess_pipeline_stage_micros{{stage=\"{stage}\"}}");
            registry.histogram(&name).1 / 1e3
        })
        .collect();

    let t = Instant::now();
    let state = ServeState::open_sharded(&store_dir, search::shard_spec()).expect("open the store");
    let server_open_ms = t.elapsed().as_secs_f64() * 1e3;
    let served = Served::start(Arc::new(state));

    let queries = queries(args.seed, &archive.truth, 60_000);
    let wire: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| client::post("/search", &serde_json::to_vec(q).expect("a query serializes")))
        .collect();
    let order: Vec<u32> = (0..wire.len() as u32).collect();
    let stream = Stream { requests: &wire, order: &order };
    let from = wire.len() - 400;
    let warm =
        client::closed_loop(served.addr, &stream, from, Duration::from_millis(300), KEEP_NONE);
    assert_eq!(warm.failed, 0, "warm-up failed: {:?}", warm.errors);
    LiveSetup {
        archive,
        archive_dir,
        store_dir,
        watcher,
        served,
        queries,
        wire,
        cold_s,
        stage_ms,
        server_open_ms,
        registry,
        setup_s: since.elapsed().as_secs_f64(),
    }
}

impl LiveSetup {
    /// Stops the watcher and the server and removes the archive and the store.
    fn stop(self) -> ServeSummary {
        drop(self.watcher);
        let summary = self.served.stop();
        let _ = std::fs::remove_dir_all(&self.archive_dir);
        let _ = std::fs::remove_dir_all(&self.store_dir);
        summary
    }
}

/// What the store publishes, read back the way a server would.
fn published(store_dir: &Path) -> (Catalog, Vocabulary) {
    let store = DurableCatalog::open(store_dir.join("catalog"), StoreOptions::default())
        .expect("open the wrangled store");
    let vocab = Vocabulary::load(store_dir.join("vocabulary.json")).expect("load the vocabulary");
    (store.catalog().clone(), vocab)
}

/// Search queries over the wrangled archive, from its ground truth: near a
/// dataset, around its time, asking for one of its variables by canonical
/// name. Jitter makes each distinct.
fn queries(seed: u64, truth: &GroundTruth, count: usize) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7772_616e_676c);
    (0..count)
        .map(|_| {
            let d = &truth.datasets[rng.random_range(0..truth.datasets.len())];
            let centre = d.bbox.center();
            let lat = (centre.lat + rng.random_range(-0.1..0.1)).clamp(-89.0, 89.0);
            let lon = centre.lon + rng.random_range(-0.1..0.1);
            let names = d.canonical_variables();
            let mut q = Query::new()
                .near(lat, lon, rng.random_range(5.0..60.0f64))
                .expect("coordinates in range")
                .between(d.time.start.plus_days(-rng.random_range(0..20i64)), d.time.end);
            if !names.is_empty() {
                q = q.with_variable(names[rng.random_range(0..names.len())], None);
            }
            q
        })
        .collect()
}

/// `(wrong, injected)` variable assignments of `catalog` against the ground
/// truth, by the rules of the paper's semantic-diversity experiment (E1). A
/// dataset or variable of the truth that the catalog lacks is a wrong
/// assignment too: a pipeline that drops what it cannot place must not pass.
fn wrong_assignments(catalog: &Catalog, truth: &GroundTruth) -> (u64, u64) {
    let (mut wrong, mut injected) = (0, 0);
    for td in &truth.datasets {
        let d = catalog.get_by_path(&td.path);
        for tv in &td.variables {
            if ["time", "lat", "lon"].contains(&tv.harvested.as_str()) {
                continue;
            }
            injected += 1;
            let Some(v) = d.and_then(|d| d.variable(&tv.harvested)) else {
                wrong += 1;
                continue;
            };
            let canonical_ok = v.canonical_name.as_deref() == Some(tv.canonical.as_str());
            let resolved = v.resolution.is_resolved();
            // Excess columns are right when flagged; everything else is wrong
            // when it was resolved to another name than the true one (an
            // ambiguous name left exposed to the curator is not resolved).
            let is_wrong = match tv.category {
                MessCategory::Excessive => !v.flags.qa && resolved,
                _ => !canonical_ok && resolved,
            };
            wrong += u64::from(is_wrong);
        }
    }
    (wrong, injected)
}

/// The seeded edit script of one cycle.
struct Edits<'a> {
    rng: StdRng,
    archive_dir: &'a Path,
    /// CSV station files of the archive, the ones that get rows appended.
    appendable: Vec<&'a str>,
    truth: &'a mut GroundTruth,
}

struct Added {
    path: String,
    sentinel: String,
}

impl Edits<'_> {
    /// Appends a row to `EDITS_PER_CYCLE` files and adds one file that
    /// carries a messy spelling and this cycle's sentinel column.
    fn apply(&mut self, cycle: u64) -> Added {
        for _ in 0..EDITS_PER_CYCLE {
            let rel = self.appendable[self.rng.random_range(0..self.appendable.len())];
            let path = self.archive_dir.join(rel);
            let mut text = std::fs::read_to_string(&path).expect("read an archive file");
            let last = text.lines().last().expect("a data row").to_string();
            text.push_str(&last);
            text.push('\n');
            std::fs::write(&path, text).expect("append to an archive file");
        }
        let (harvested, canonical) = MESSY[self.rng.random_range(0..MESSY.len())];
        // One word per cycle, nothing a clustering step could take for a
        // misspelling of another cycle's word.
        let sentinel = format!("marker{}", spell(cycle));
        let year = 2031 + cycle / 12;
        let month = cycle % 12 + 1;
        let rel = format!("stations/saturn01/{year}/{month:02}.csv");
        let mut text = format!(
            "# lat: 46.235\n# lon: -123.871\n# platform: buoy\n# station: saturn01\n\
             time (UTC),{harvested} (degC),{sentinel} (count)\n"
        );
        for hour in 0..24 {
            let value = 8.0 + self.rng.random_range(0.0..4.0f64);
            text.push_str(&format!("{year}-{month:02}-01T{hour:02}:00:00Z,{value:.3},{hour}\n"));
        }
        let path = self.archive_dir.join(&rel);
        std::fs::create_dir_all(path.parent().expect("file in a directory"))
            .expect("create the year");
        std::fs::write(&path, text).expect("write the new file");
        let mut sample = self.truth.datasets[0].clone();
        sample.path = rel.clone();
        sample.variables = vec![TrueVariable {
            harvested: harvested.to_string(),
            canonical: canonical.to_string(),
            category: MessCategory::Synonym,
            qa: false,
        }];
        self.truth.datasets.push(sample);
        Added { path: rel, sentinel }
    }
}

/// `cycle` in letters, so that sentinels are words and not numbered twins.
fn spell(mut cycle: u64) -> String {
    const WORDS: [&str; 10] = ["ka", "lo", "mi", "nu", "pe", "ra", "so", "ti", "vu", "ze"];
    let mut out = String::new();
    loop {
        out.push_str(WORDS[(cycle % 10) as usize]);
        cycle /= 10;
        if cycle == 0 {
            return out;
        }
    }
}

/// The `path` of each hit in a `/search` response body; none if it does not parse.
fn hit_paths(body: &[u8]) -> Vec<String> {
    let parsed: Option<serde_json::Value> = serde_json::from_slice(body).ok();
    let hits = parsed.as_ref().and_then(|v| v.get("hits")).and_then(|h| h.as_array());
    hits.into_iter()
        .flatten()
        .filter_map(|h| h.get("path").and_then(|p| p.as_str()).map(str::to_string))
        .collect()
}

/// Asks `/search` for the sentinel until the new file is among the hits.
fn wait_visible(conn: &mut Conn, state: &ServeState, added: &Added, deadline: Instant) -> bool {
    let query = Query::new().with_variable(added.sentinel.clone(), None).limit(5);
    let request = client::post("/search", &serde_json::to_vec(&query).expect("a query serializes"));
    let mut body = Vec::new();
    loop {
        // What the server's own poll timer does, without the timer.
        let _ = state.poll_reload();
        if conn.round_trip(&request, &mut body).is_ok_and(|status| status == 200)
            && hit_paths(&body).contains(&added.path)
        {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new(&args.workload);
    let mut setup = set_up(args, 0, args.started);
    let mut truth = setup.archive.truth.clone();
    let store_bytes = util::dir_bytes(&setup.store_dir.join("catalog"));
    let (catalog, vocab) = published(&setup.store_dir);
    let datasets = catalog.len();
    let addr = setup.served.addr;
    let order: Vec<u32> = (0..setup.wire.len() as u32).collect();
    let stream = Stream { requests: &setup.wire, order: &order };

    // Before the catalog starts to move: search alone, every answer kept,
    // as many checked against the oracle as fit in `CHECK_FOR`.
    let open_from = order.len() / 2;
    let at_rest = Stream { requests: &setup.wire, order: &order[..open_from] };
    let at_rest = client::closed_loop(addr, &at_rest, 0, CHECK_FOR, &|_| true);
    search::note_failures(&mut report, "at rest", &at_rest);
    let mut checked = 0;
    let check_started = Instant::now();
    for kept in &at_rest.kept {
        if check_started.elapsed() > CHECK_FOR {
            break;
        }
        let expected = reference_search(&catalog, &vocab, &setup.queries[kept.at]);
        checked += 1;
        match search::parse_hits(&kept.body) {
            Ok((hits, _)) if search::same_answer(&expected, &hits) => {}
            other => {
                report.failed += 1;
                report.note(format!("request {}: expected {expected:?}, got {other:?}", kept.at));
            }
        }
    }

    // Live segment: the ingest loop on this thread, open-loop search beside it.
    let live_for = Duration::from_secs_f64(args.seconds);
    let rate = search::open_rate(&args.workload);
    let due = client::arrivals(args.seed, rate, live_for);
    let live_registry = metamess_telemetry::global().snapshot();
    let mut tracer = Tracer::new();
    let mut freshness_ms = Vec::new();
    let mut cycle_ms = Vec::new();
    let mut edits = Edits {
        rng: StdRng::seed_from_u64(args.seed ^ 0x6564_6974),
        archive_dir: &setup.archive_dir,
        appendable: setup
            .archive
            .files
            .iter()
            .map(|(rel, _)| rel.as_str())
            .filter(|rel| rel.starts_with("stations/") && rel.ends_with(".csv"))
            .collect(),
        truth: &mut truth,
    };
    let live_started = Instant::now();
    let mut conn = Conn::connect(addr).expect("connect for the sentinel");
    let open = std::thread::scope(|scope| {
        let searcher =
            scope.spawn(|| client::open_loop(addr, &stream, open_from, &due, live_for, KEEP_NONE));
        let mut cycle = 0u64;
        while live_started.elapsed() < live_for {
            report.attempted += 1;
            let visible = tracer.span("ingest.cycle", |t| {
                let added = t.span("ingest.edit", |_| edits.apply(cycle));
                let edited = Instant::now();
                let ran = t.span("pipeline.cycle", |_| {
                    let started = Instant::now();
                    let ran = setup.watcher.run_cycle();
                    cycle_ms.push(started.elapsed().as_secs_f64() * 1e3);
                    ran
                });
                if let Err(e) = ran {
                    report.note(format!("cycle {cycle}: {e}"));
                    return false;
                }
                let seen = t.span("ingest.visible", |_| {
                    wait_visible(&mut conn, &setup.served.state, &added, edited + VISIBLE_WITHIN)
                });
                if seen {
                    freshness_ms.push(edited.elapsed().as_secs_f64() * 1e3);
                }
                seen
            });
            tracer.end_request();
            if !visible {
                report.failed += 1;
                report.note(format!("cycle {cycle} was not searchable within {VISIBLE_WITHIN:?}"));
            }
            cycle += 1;
        }
        searcher.join().expect("search load thread")
    });
    let live_s = live_started.elapsed().as_secs_f64();
    let live = RegistryDelta::since(live_registry);
    search::note_failures(&mut report, "open", &open);
    search::report_latency(&mut report, &open);
    report.set("store_bytes_per_dataset", store_bytes as f64 / datasets as f64);
    if !freshness_ms.is_empty() {
        report.set("freshness_p50_ms", util::median(freshness_ms.clone()));
    }
    report.set("ingest_cycles_per_s", freshness_ms.len() as f64 / live_s);

    // The paper's result, on what is now published.
    let (after, _) = published(&setup.store_dir);
    let resolved = after.resolution_fraction();
    let (wrong, injected) = wrong_assignments(&after, &truth);
    report.attempted += 1;
    if wrong > 0 || injected == 0 || resolved < RESOLVED_FLOOR {
        report.failed += 1;
    }
    report.note(format!(
        "{datasets} datasets wrangled cold, {} after {} cycles (cycle mean {:.1} ms); \
         {wrong} wrong of {injected} assignments, resolved {resolved:.4}",
        after.len(),
        freshness_ms.len(),
        util::mean(&cycle_ms),
    ));
    report.note(format!(
        "at rest: {checked} of {} answers checked; open: {} requests at {rate}/s, backlog_max {}",
        at_rest.kept.len(),
        open.latencies_ms.len(),
        open.backlog_max
    ));

    if args.trace {
        layers::client_metrics(&mut report, &at_rest, &open);
        report.set(
            "server.shed_share",
            util::share(live.counter("metamess_server_shed_total"), open.attempted as f64),
        );
        for ((_, metric), ms) in STAGES.iter().zip(&setup.stage_ms) {
            report.set(metric, *ms);
        }
        report.set("pipeline.cycle_ms", util::mean(&cycle_ms));
        let ran = live.counter("metamess_pipeline_stages_ran_total");
        let skipped = live.counter("metamess_pipeline_stages_skipped_total");
        report.set("pipeline.stages_skipped_share", util::share(skipped, ran + skipped));
        report.set("pipeline.resolved_share", resolved);
        report.set("pipeline.wrong_assignments", wrong as f64);
        let files = setup.archive.files.len() as f64;
        report.set("harvest.files_per_s", util::share(files, setup.stage_ms[0] / 1e3));
        let parsed = live.counter("metamess_harvest_files_parsed_total");
        let reused = live.counter("metamess_harvest_files_reused_total");
        report.set("harvest.reused_share", util::share(reused, parsed + reused));
        report.set("harvest.fingerprint_ms", live.mean_ms("metamess_pipeline_fingerprint_micros"));
        report.set("core.store.commit_ms", live.mean_ms("metamess_ingest_publish_wait_micros"));
        report.set(
            "core.store.fsyncs_per_publish",
            util::share(live.counter("metamess_core_wal_fsyncs_total"), freshness_ms.len() as f64),
        );
        report.set(
            "core.store.wal_bytes_per_mutation",
            util::share(
                live.counter("metamess_core_wal_bytes_total"),
                live.counter("metamess_core_wal_appends_total"),
            ),
        );
        report.set("core.store.compaction_ms", live.mean_ms("metamess_core_compaction_micros"));
        report.set(
            "core.store.compactions",
            setup.registry.counter("metamess_core_compactions_total")
                + live.counter("metamess_core_compactions_total"),
        );
        report.set(
            "core.store.snapshot_write_ms",
            setup.registry.mean_ms("metamess_core_checkpoint_micros"),
        );
        report.set(
            "core.store.snapshot_bytes_per_dataset",
            std::fs::metadata(setup.store_dir.join("catalog").join("snapshot.bin"))
                .map_or(0.0, |m| m.len() as f64)
                / after.len().max(1) as f64,
        );
        report.set("server.open_ms", setup.server_open_ms);
        report.set("server.delta_apply_ms", live.mean_ms("metamess_server_delta_apply_micros"));
        let survived = live.counter("metamess_server_delta_cache_survived_total");
        let dropped = live.counter("metamess_server_delta_cache_dropped_total");
        report.set("server.cache_survived_share", util::share(survived, survived + dropped));
        let t = Instant::now();
        const RELOADS: u32 = 3;
        for _ in 0..RELOADS {
            setup.served.state.reload().expect("full reload");
        }
        report.set("server.reload_full_ms", t.elapsed().as_secs_f64() * 1e3 / f64::from(RELOADS));
        layers::pipeline_layers(&setup.archive, &after, &setup.store_dir, &mut report);
        layers::store_layers(&after, &vocab, &args.work_dir.join("slice-store"), &mut report);
        layers::telemetry_costs(&mut report);
        layers::write_trace(&tracer, args, &mut report);
    } else {
        report.set("peak_rss_mb", util::peak_rss_mib());
    }

    let mut cold_s = vec![setup.cold_s];
    let mut setup_s = vec![setup.setup_s];
    let summary = setup.stop();
    if summary.dropped > 0 {
        report.failed += summary.dropped;
        report.note(format!("server dropped {} connections at shutdown", summary.dropped));
    }
    if !args.trace {
        for nth in 1..search::SET_UPS {
            let again = set_up(args, nth, Instant::now());
            cold_s.push(again.cold_s);
            setup_s.push(again.setup_s);
            again.stop();
        }
        report.note(format!("set-ups took {setup_s:.3?} s"));
        report.set("setup_s", util::median(setup_s));
    }
    report.set("wrangle_cold_s", util::median(cold_s));
    report
}
