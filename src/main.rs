//! `metamess` — command-line interface to the metadata-wrangling system.
//!
//! ```text
//! metamess generate <dir> [--seed N] [--months N] [--stations N]
//! metamess wrangle  <dir> [--store <store-dir>] [--expert] [--explain]
//! metamess watch    <dir> [--store <store-dir>] [--interval-ms N]
//!                   [--commit-interval-ms N] [--max-cycles N]
//!                   [--compact-ratio F] [--retain N]
//! metamess search   <store-dir> <query...> [--explain] [--shards N] [--partition P]
//!                   [--remote H:P,H:P,...] [--partial-policy fail|degrade]
//! metamess summary  <store-dir> <dataset-path>
//! metamess stats    <store-dir> [--prometheus|--json] [--reset]
//! metamess validate <dir>
//! metamess fsck     <store-dir> [--json] [--repair]
//! metamess shardd   <store-dir> --shard-id K/N [--partition P] [--listen H:P]
//! metamess serve    <store-dir> [--addr H:P] [--workers N] [--queue-depth N]
//!                   [--drain-grace-ms N] [--shards N] [--partition P]
//!                   [--slow-ms N] [--trace-sample-rate F]
//!                   [--remote H:P,H:P,...] [--partial-policy fail|degrade]
//! metamess trace    <store-dir> [--slow] [--json] [--id HEX]
//! ```
//!
//! `wrangle` runs the full curation loop over an archive directory and
//! persists the published catalog (snapshot + WAL) plus the vocabulary into
//! the store directory; `search` and `summary` work from that store. Both
//! wrangle and search fold their telemetry into
//! `<store>/state/telemetry.json`, which `stats` renders as a table,
//! Prometheus text, or JSON — and their request traces into
//! `<store>/state/traces.json`, which `trace` renders as span trees.

use metamess::core::store::read_published;
use metamess::core::{DurableCatalog, StoreOptions};
use metamess::pipeline::Severity;
use metamess::prelude::*;
use metamess::search::{render_results, render_summary, Partitioner, ShardSpec, MAX_SHARDS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("wrangle") => cmd_wrangle(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("search") => cmd_search(&args[1..]),
        Some("summary") => cmd_summary(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("browse") => cmd_browse(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("fsck") => cmd_fsck(&args[1..]),
        Some("shardd") => cmd_shardd(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
metamess — taming the metadata mess

usage:
  metamess generate <dir> [--seed N] [--months N] [--stations N]
      write a synthetic observatory archive (plus ground_truth.json)
  metamess wrangle <dir> [--store <store-dir>] [--expert] [--explain]
      run the wrangling pipeline + curation loop over an archive directory;
      persist the published catalog and vocabulary into the store directory
      (default: <dir>/.metamess); --expert adds the hand-curated synonym set;
      --explain prints the telemetry recorded during the run
  metamess watch <dir> [--store <store-dir>] [--interval-ms N]
                 [--commit-interval-ms N] [--max-cycles N]
                 [--compact-ratio F] [--retain N]
      continuous ingestion: poll the archive every --interval-ms (default
      1000), re-wrangle only what changed (the fingerprint ledger skips
      unchanged stages), and publish catalog deltas to the store through a
      group-commit WAL — many cycles coalesce into one fsync within the
      --commit-interval-ms window (default 25; 0 = fsync per publish). A
      live `metamess serve` on the same store applies the deltas in place
      without reopening. The WAL is folded into a fresh snapshot when it
      outgrows --compact-ratio × snapshot bytes (default 0.5), keeping
      --retain previous snapshots (default 2); --max-cycles stops after N
      cycles (useful for scripting); ctrl-c stops after the current cycle
  metamess search <store-dir> <query...> [--explain] [--shards N] [--partition P]
                  [--remote H:P,H:P,...] [--partial-policy fail|degrade]
      ranked search, e.g.:
      metamess search ./arc/.metamess near 45.5,-124.4 within 50km with salinity
      --explain appends a per-phase breakdown (plan/probe/score/merge);
      --shards splits the catalog into N shards (clamped to 1..=256) searched
      scatter-gather; --partition picks the layout (hash|spatial|temporal —
      spatial/temporal give shards prunable bounds); results are identical
      to unsharded at any shard count; --remote scatter-gathers across a
      comma-separated shardd fleet instead (bit-identical to local sharding
      at the same layout) — --partial-policy degrade returns the healthy
      shards' merge marked partial when a shard is down (default: fail)
  metamess summary <store-dir> <dataset-path>
      render the dataset summary page for a catalog entry
  metamess stats <store-dir> [--prometheus|--json] [--reset]
      render telemetry accumulated across wrangle/search runs (default:
      text table; --prometheus and --json switch the exposition format;
      --reset clears the persisted snapshot)
  metamess browse <store-dir>
      hierarchical drill-down menus with dataset counts per concept
  metamess validate <dir>
      run the pipeline's validation stage and print findings
  metamess fsck <store-dir> [--json] [--repair]
      verify store integrity (CRCs, magic headers, snapshot/WAL agreement);
      --repair truncates damaged WAL tails and quarantines corrupt files
      into <store>/state/quarantine; --json emits the machine-readable
      report; exits nonzero when damage was found and not repaired
  metamess shardd <store-dir> --shard-id K/N [--partition P] [--listen H:P]
      host shard K of an N-shard layout over the store as a lean daemon
      speaking the length-prefixed binary shard protocol; a serve or
      search coordinator dials a fleet of these with --remote; the bound
      address is printed at startup (port 0 picks a free port);
      ctrl-c stops accepting and drains in-flight frames
  metamess serve <store-dir> [--addr H:P] [--workers N] [--queue-depth N]
                 [--drain-grace-ms N] [--shards N] [--partition P]
                 [--slow-ms N] [--trace-sample-rate F]
                 [--remote H:P,H:P,...] [--partial-policy fail|degrade]
      serve the store over HTTP (POST /search, GET /datasets/<path>,
      GET /browse, GET /healthz, GET /metrics, GET /debug/traces,
      POST /admin/reload): one nonblocking event thread multiplexes every
      connection and hands complete requests to a bounded worker pool
      (--workers is clamped to 1..=256, --queue-depth to 0..=4096); excess
      load is shed with 503 Retry-After, and republished stores are
      hot-reloaded without dropping requests (reloads rebuild the full
      shard set and swap it atomically); SIGTERM / ctrl-c drain in-flight
      work before exiting, waiting up to --drain-grace-ms (default 500)
      for worker threads to finish; every response carries an
      X-Metamess-Trace-Id header — requests slower than --slow-ms
      (default 100) always land in the slow-query log, and
      --trace-sample-rate (0.0..=1.0, default 1.0) head-samples the
      flight recorder; --remote makes POST /search scatter-gather across
      a shardd fleet (degraded responses under --partial-policy degrade
      carry X-Metamess-Partial: true and a JSON partial flag; per-shard
      circuit state appears in GET /healthz)
  metamess trace <store-dir> [--slow] [--json] [--id HEX]
      render request traces persisted by serve/search/wrangle as span
      trees with per-span micros and shard attribution (default: recent
      traces, newest first; --slow shows the slow-query log; --id picks
      one trace by its 32-hex id; --json emits the /debug/traces shape)";

fn parse_flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|ix| args.get(ix + 1).cloned())
}

/// Reads `--shards N` / `--partition hash|spatial|temporal` into a
/// [`ShardSpec`]. The count is clamped to `1..=MAX_SHARDS` by the spec
/// constructor (so `--shards 0` means "unsharded" and absurd counts are
/// capped rather than rejected); an unknown partitioner name is an error.
fn parse_shard_flags(args: &[String]) -> Result<ShardSpec, metamess::core::Error> {
    let count = match parse_flag(args, "--shards") {
        Some(n) => n.parse::<usize>().map_err(|_| {
            metamess::core::Error::invalid(format!("bad --shards (expected 0..={MAX_SHARDS})"))
        })?,
        None => 1,
    };
    let partitioner = match parse_flag(args, "--partition") {
        Some(p) => Partitioner::parse(&p).ok_or_else(|| {
            metamess::core::Error::invalid(format!(
                "bad --partition {p:?} (expected hash, spatial or temporal)"
            ))
        })?,
        None => Partitioner::Hash,
    };
    Ok(ShardSpec::new(count, partitioner))
}

fn cmd_generate(args: &[String]) -> Result<(), metamess::core::Error> {
    let dir = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| metamess::core::Error::invalid("generate needs a target directory"))?;
    let mut spec = ArchiveSpec::default();
    if let Some(seed) = parse_flag(args, "--seed") {
        spec.seed = seed.parse().map_err(|_| metamess::core::Error::invalid("bad --seed"))?;
    }
    if let Some(m) = parse_flag(args, "--months") {
        spec.months = m.parse().map_err(|_| metamess::core::Error::invalid("bad --months"))?;
    }
    if let Some(s) = parse_flag(args, "--stations") {
        spec.stations = s.parse().map_err(|_| metamess::core::Error::invalid("bad --stations"))?;
    }
    let archive = metamess::archive::generate(&spec);
    archive.write_to(dir)?;
    println!(
        "wrote {} files ({} datasets, {} malformed) to {dir}",
        archive.files.len(),
        archive.truth.datasets.len(),
        archive.truth.malformed.len()
    );
    Ok(())
}

fn store_paths(store_dir: &Path) -> (PathBuf, PathBuf) {
    (store_dir.join("catalog"), store_dir.join("vocabulary.json"))
}

fn cmd_wrangle(args: &[String]) -> Result<(), metamess::core::Error> {
    let dir = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| metamess::core::Error::invalid("wrangle needs an archive directory"))?;
    let store_dir = parse_flag(args, "--store")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(dir).join(".metamess"));
    let expert = args.iter().any(|a| a == "--expert");
    let explain = args.iter().any(|a| a == "--explain");

    let mut ctx = PipelineContext::new(
        ArchiveInput::Dir(PathBuf::from(dir)),
        Vocabulary::observatory_default(),
    );
    // keep the store out of the scan
    ctx.harvest.scan.exclude.push(".metamess".into());
    // resume incrementality: restore catalogs, vocabulary and the run
    // ledger from the previous wrangle so unchanged stages are skipped
    let state_dir = store_dir.join("state");
    if metamess::pipeline::load_state(&mut ctx, &state_dir)? {
        println!(
            "resuming from {} (run #{}, {} datasets published)",
            state_dir.display(),
            ctx.run_id,
            ctx.catalogs.published.len()
        );
    }
    let mut pipeline = Pipeline::standard();
    let mut policy = CuratorPolicy::default();
    if expert {
        policy.manual_synonyms = expert_synonyms();
    }
    let curator = CurationLoop::new(policy);
    let (history, last) = curator.run_to_fixpoint(&mut pipeline, &mut ctx)?;
    print!("{}", last.render());
    for s in &history {
        println!(
            "iteration {}: accepted {}, clarified {}, unresolved {}, resolved {:.1}%",
            s.iteration,
            s.accepted,
            s.clarified,
            s.unresolved_after,
            100.0 * s.resolution_after
        );
    }

    let (catalog_dir, vocab_path) = store_paths(&store_dir);
    let mut store = DurableCatalog::open(&catalog_dir, StoreOptions::default())?;
    store.replace_with(&ctx.catalogs.published)?;
    store.checkpoint()?;
    ctx.vocab.save(&vocab_path)?;
    metamess::pipeline::save_state(&ctx, &state_dir)?;
    println!(
        "published {} datasets to {} (vocabulary v{})",
        ctx.catalogs.published.len(),
        store_dir.display(),
        ctx.vocab.version
    );
    if explain {
        print!("{}", metamess::telemetry::global().snapshot().render_table());
    }
    persist_telemetry(&store_dir)?;
    Ok(())
}

/// Continuous ingestion: `metamess watch <dir>` — the wrangle loop run
/// forever, publishing catalog deltas through the store's group-commit
/// queue so a live `metamess serve` picks them up without reopening.
fn cmd_watch(args: &[String]) -> Result<(), metamess::core::Error> {
    use std::time::Duration;
    let dir = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| metamess::core::Error::invalid("watch needs an archive directory"))?;
    let store_dir = parse_flag(args, "--store")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(dir).join(".metamess"));
    let mut options = metamess::pipeline::WatchOptions::default();
    if let Some(ms) = parse_flag(args, "--interval-ms") {
        options.interval = ms
            .parse::<u64>()
            .map(Duration::from_millis)
            .map_err(|_| metamess::core::Error::invalid("bad --interval-ms"))?;
    }
    if let Some(ms) = parse_flag(args, "--commit-interval-ms") {
        options.commit_interval = ms
            .parse::<u64>()
            .map(Duration::from_millis)
            .map_err(|_| metamess::core::Error::invalid("bad --commit-interval-ms"))?;
    }
    if let Some(n) = parse_flag(args, "--max-cycles") {
        options.max_cycles =
            Some(n.parse::<u64>().map_err(|_| metamess::core::Error::invalid("bad --max-cycles"))?);
    }
    if let Some(r) = parse_flag(args, "--compact-ratio") {
        options.compaction.wal_ratio = r
            .parse::<f64>()
            .ok()
            .filter(|r| r.is_finite() && *r > 0.0)
            .ok_or_else(|| metamess::core::Error::invalid("bad --compact-ratio"))?;
    }
    if let Some(n) = parse_flag(args, "--retain") {
        options.compaction.retain =
            n.parse::<usize>().map_err(|_| metamess::core::Error::invalid("bad --retain"))?;
    }

    let watcher = metamess::pipeline::Watcher::new(dir, &store_dir, options.clone())?;
    if watcher.resumed() {
        println!(
            "resuming from {} ({} datasets published)",
            store_dir.join("state").display(),
            watcher.published_len()
        );
    }
    // Bridge SIGTERM / ctrl-c to the watcher's stop flag: the current
    // cycle finishes (its publish is acked and state saved) before exit.
    let stop = watcher.stop_handle();
    let shutdown = metamess::server::ShutdownHandle::new();
    shutdown.install_signal_handlers();
    {
        let stop = stop.clone();
        let shutdown = shutdown.clone();
        std::thread::spawn(move || {
            while !shutdown.is_shutdown() {
                std::thread::sleep(Duration::from_millis(50));
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
    }
    println!(
        "watching {dir} -> {} (poll {}ms, commit window {}ms; ctrl-c to stop)",
        store_dir.display(),
        options.interval.as_millis(),
        options.commit_interval.as_millis()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let telemetry_store = store_dir.clone();
    let report = watcher.run(move |cycle| {
        if cycle.changed {
            println!(
                "cycle {}: published {} mutation(s), {} datasets, {:.1}ms",
                cycle.cycle,
                cycle.mutations,
                cycle.datasets,
                cycle.micros as f64 / 1000.0
            );
            let _ = std::io::stdout().flush();
            // Fold this cycle's telemetry in while we are still running so
            // `metamess stats` sees live ingest.* numbers.
            if let Err(e) = persist_telemetry(&telemetry_store) {
                eprintln!("warning: telemetry persist failed: {e}");
            }
        }
    })?;
    println!(
        "watched {} cycle(s) ({} unchanged), published {} mutation(s), {} datasets in {}",
        report.cycles,
        report.skipped,
        report.mutations,
        report.datasets,
        store_dir.display()
    );
    persist_telemetry(&store_dir)?;
    Ok(())
}

/// Folds this process's telemetry into `<store>/state/telemetry.json` and
/// its request traces into `<store>/state/traces.json` (the file `metamess
/// trace` reads). Best-effort: a no-op when telemetry is disabled or
/// nothing was recorded.
fn persist_telemetry(store_dir: &Path) -> Result<(), metamess::core::Error> {
    let path = metamess::telemetry_io::telemetry_path(store_dir);
    metamess::telemetry_io::persist_merged(&path)
        .map_err(|e| metamess::core::Error::io(format!("persist {}", path.display()), e))?;
    let traces = metamess::telemetry::trace::traces_path(store_dir);
    metamess::telemetry::trace::persist_traces(&traces)
        .map_err(|e| metamess::core::Error::io(format!("persist {}", traces.display()), e))?;
    Ok(())
}

fn expert_synonyms() -> Vec<(String, String)> {
    [
        "air_temperature",
        "water_temperature",
        "sea_surface_temperature",
        "salinity",
        "specific_conductivity",
        "dissolved_oxygen",
        "turbidity",
        "chlorophyll_fluorescence",
        "wind_speed",
        "wind_direction",
        "air_pressure",
        "relative_humidity",
        "precipitation",
        "solar_radiation",
        "depth",
        "nitrate",
        "phosphate",
        "ph",
    ]
    .iter()
    .flat_map(|c| {
        metamess::archive::adhoc_synonyms(c).iter().map(move |v| (c.to_string(), v.to_string()))
    })
    .collect()
}

/// What the store published, read without modifying it: `search`,
/// `summary`, `browse` and `shardd` may all run beside a live `watch`.
fn read_store(store_dir: &Path) -> Result<(Catalog, Vocabulary), metamess::core::Error> {
    let (catalog_dir, vocab_path) = store_paths(store_dir);
    Ok((read_published(catalog_dir)?.catalog, Vocabulary::load_or_default(vocab_path)?))
}

fn open_engine(store_dir: &Path, spec: ShardSpec) -> Result<SearchEngine, metamess::core::Error> {
    let (catalog, vocab) = read_store(store_dir)?;
    Ok(SearchEngine::from_catalog(catalog, vocab, spec))
}

/// Strips `--explain` plus the value-taking shard and remote flags out
/// of the positional arguments, leaving only the query words.
fn query_words(args: &[String]) -> Vec<String> {
    let mut words = Vec::new();
    let mut skip_value = false;
    for a in args {
        if skip_value {
            skip_value = false;
            continue;
        }
        match a.as_str() {
            "--explain" => {}
            "--shards" | "--partition" | "--remote" | "--partial-policy" => skip_value = true,
            _ => words.push(a.clone()),
        }
    }
    words
}

/// Splits a `--remote` value into its comma-separated shardd addresses.
fn parse_remote_addrs(value: &str) -> Result<Vec<String>, metamess::core::Error> {
    let addrs: Vec<String> =
        value.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect();
    if addrs.is_empty() {
        return Err(metamess::core::Error::invalid(
            "--remote needs at least one host:port address",
        ));
    }
    Ok(addrs)
}

/// Reads `--partial-policy fail|degrade` into coordinator options
/// (default: fail — a down shard is an error unless degrade is asked for).
fn parse_remote_options(
    args: &[String],
) -> Result<metamess::remote::RemoteOptions, metamess::core::Error> {
    let mut opts = metamess::remote::RemoteOptions::default();
    if let Some(p) = parse_flag(args, "--partial-policy") {
        opts.partial_policy = metamess::remote::PartialPolicy::parse(&p).ok_or_else(|| {
            metamess::core::Error::invalid(format!(
                "bad --partial-policy {p:?} (expected fail or degrade)"
            ))
        })?;
    }
    Ok(opts)
}

fn cmd_search(args: &[String]) -> Result<(), metamess::core::Error> {
    let store_dir = args
        .first()
        .ok_or_else(|| metamess::core::Error::invalid("search needs a store directory"))?;
    let explain = args.iter().any(|a| a == "--explain");
    let remote = parse_flag(args, "--remote");
    let spec = parse_shard_flags(args)?;
    let query_text = query_words(&args[1..]).join(" ");
    if query_text.trim().is_empty() {
        return Err(metamess::core::Error::invalid("search needs a query"));
    }
    let query = Query::parse(&query_text)?;
    if explain && remote.is_some() {
        return Err(metamess::core::Error::invalid("--explain is not available over --remote"));
    }
    // Trace the query like a served request would be (never sampled away:
    // this run exists because someone wants to look at it). The trace is
    // persisted below, so `metamess trace <store> --id <hex>` replays it.
    let trace_ctx = metamess::telemetry::TraceContext::start(1.0);
    let tracing = metamess::telemetry::trace::begin(&trace_ctx, "search");
    if let Some(remote) = remote {
        // Scatter-gather over a shardd fleet: same probe/score/merge as
        // local sharding, so the rendered results are bit-identical.
        let set = metamess::remote::RemoteShardSet::connect(
            &parse_remote_addrs(&remote)?,
            parse_remote_options(args)?,
        )?;
        let out = set.search(&query)?;
        print!("{}", render_results(&out.hits));
        if out.partial {
            println!(
                "partial: shard(s) {:?} unavailable — degraded to the healthy shards' merge",
                out.failed
            );
        }
    } else if explain {
        let engine = open_engine(Path::new(store_dir), spec)?;
        let (hits, breakdown) = engine.search_explain(&query);
        print!("{}", render_results(&hits));
        print!("{}", breakdown.render());
    } else {
        let engine = open_engine(Path::new(store_dir), spec)?;
        let hits = engine.search(&query);
        print!("{}", render_results(&hits));
    }
    if tracing {
        if let Some(fin) = metamess::telemetry::trace::end(u64::MAX) {
            println!("trace: {} ({}µs)", fin.trace_id_hex(), fin.micros);
        }
    }
    persist_telemetry(Path::new(store_dir))?;
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), metamess::core::Error> {
    let store_dir = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .map(Path::new)
        .ok_or_else(|| metamess::core::Error::invalid("stats needs a store directory"))?;
    let path = metamess::telemetry_io::telemetry_path(store_dir);
    if args.iter().any(|a| a == "--reset") {
        metamess::telemetry_io::reset(&path)
            .map_err(|e| metamess::core::Error::io(format!("reset {}", path.display()), e))?;
        println!("telemetry reset ({} removed)", path.display());
        return Ok(());
    }
    // Persisted history + live registry + ledger-derived gauges, assembled
    // by the same code path `metamess serve` uses for `GET /metrics` — the
    // two expositions are identical by construction.
    let snap = metamess::server::store_snapshot(store_dir);
    if snap.is_empty() {
        println!(
            "no telemetry recorded for {} yet (run wrangle or search first)",
            store_dir.display()
        );
        return Ok(());
    }
    if args.iter().any(|a| a == "--prometheus") {
        print!("{}", snap.render_prometheus());
    } else if args.iter().any(|a| a == "--json") {
        println!("{}", snap.render_json());
    } else {
        print!("{}", snap.render_table());
    }
    Ok(())
}

fn cmd_summary(args: &[String]) -> Result<(), metamess::core::Error> {
    let store_dir = args
        .first()
        .ok_or_else(|| metamess::core::Error::invalid("summary needs a store directory"))?;
    let path = args
        .get(1)
        .ok_or_else(|| metamess::core::Error::invalid("summary needs a dataset path"))?;
    let engine = open_engine(Path::new(store_dir), ShardSpec::default())?;
    let id = metamess::core::DatasetId::from_path(path);
    let d = engine
        .dataset(id)
        .ok_or_else(|| metamess::core::Error::not_found("dataset", path.clone()))?;
    print!("{}", render_summary(d));
    Ok(())
}

fn cmd_browse(args: &[String]) -> Result<(), metamess::core::Error> {
    let store_dir = args
        .first()
        .ok_or_else(|| metamess::core::Error::invalid("browse needs a store directory"))?;
    let (catalog, vocab) = read_store(Path::new(store_dir))?;
    for tree in metamess::search::browse_all(&catalog, &vocab) {
        print!("{}", tree.render());
        println!();
    }
    Ok(())
}

fn cmd_fsck(args: &[String]) -> Result<(), metamess::core::Error> {
    let store_dir = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .map(Path::new)
        .ok_or_else(|| metamess::core::Error::invalid("fsck needs a store directory"))?;
    let repair = args.iter().any(|a| a == "--repair");
    let json = args.iter().any(|a| a == "--json");
    let report = metamess::fsck::run_fsck(store_dir, repair)?;
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report)
                .map_err(|e| metamess::core::Error::invalid(format!("unencodable report: {e}")))?
        );
    } else {
        print!("{}", metamess::fsck::render_report(&report));
    }
    if report.error_count() > 0 && !report.fully_repaired() {
        return Err(metamess::core::Error::corrupt(format!(
            "fsck found {} unrepaired error(s) in {}",
            report.error_count(),
            store_dir.display()
        )));
    }
    Ok(())
}

/// `metamess shardd <store> --shard-id K/N` — host one shard of an
/// N-shard layout as a lean daemon speaking the binary shard protocol.
fn cmd_shardd(args: &[String]) -> Result<(), metamess::core::Error> {
    use std::io::Write as _;
    let store_dir = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .map(Path::new)
        .ok_or_else(|| metamess::core::Error::invalid("shardd needs a store directory"))?;
    let spec_arg = parse_flag(args, "--shard-id")
        .ok_or_else(|| metamess::core::Error::invalid("shardd needs --shard-id K/N"))?;
    let (shard_id, shard_count) = spec_arg
        .split_once('/')
        .and_then(|(k, n)| Some((k.parse::<usize>().ok()?, n.parse::<usize>().ok()?)))
        .filter(|(k, n)| *n >= 1 && *n <= MAX_SHARDS && k < n)
        .ok_or_else(|| {
            metamess::core::Error::invalid(format!(
                "bad --shard-id {spec_arg:?} (expected K/N with K < N <= {MAX_SHARDS})"
            ))
        })?;
    let partitioner = match parse_flag(args, "--partition") {
        Some(p) => Partitioner::parse(&p).ok_or_else(|| {
            metamess::core::Error::invalid(format!(
                "bad --partition {p:?} (expected hash, spatial or temporal)"
            ))
        })?,
        None => Partitioner::Hash,
    };
    let listen = parse_flag(args, "--listen").unwrap_or_else(|| "127.0.0.1:0".to_string());

    let (catalog, vocab) = read_store(store_dir)?;
    let host = metamess::remote::ShardHost::from_catalog(
        catalog,
        vocab,
        ShardSpec::new(shard_count, partitioner),
        shard_id,
    )?;
    let generation = host.generation();
    let hosted = host.len();

    let daemon = metamess::remote::Shardd::spawn(std::sync::Arc::new(host), &listen)?;
    let shutdown = metamess::server::ShutdownHandle::new();
    shutdown.install_signal_handlers();
    // Flushed before blocking so wrappers can scrape the resolved port.
    println!(
        "shardd listening on {} (shard {shard_id}/{shard_count}, {hosted} dataset(s), \
         generation {generation}; ctrl-c to stop)",
        daemon.local_addr()
    );
    let _ = std::io::stdout().flush();
    while !shutdown.is_shutdown() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    daemon.shutdown();
    println!("shardd stopped");
    persist_telemetry(store_dir)?;
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), metamess::core::Error> {
    let store_dir = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .map(PathBuf::from)
        .ok_or_else(|| metamess::core::Error::invalid("serve needs a store directory"))?;
    let mut config = metamess::server::ServerConfig::default();
    if let Some(addr) = parse_flag(args, "--addr") {
        config.addr = addr;
    }
    if let Some(w) = parse_flag(args, "--workers") {
        config.workers = w
            .parse::<usize>()
            .ok()
            .filter(|w| *w > 0)
            .map(metamess::server::clamp_workers)
            .ok_or_else(|| metamess::core::Error::invalid("bad --workers"))?;
    }
    if let Some(q) = parse_flag(args, "--queue-depth") {
        config.queue_depth = q
            .parse()
            .map(metamess::server::clamp_queue_depth)
            .map_err(|_| metamess::core::Error::invalid("bad --queue-depth"))?;
    }
    if let Some(g) = parse_flag(args, "--drain-grace-ms") {
        config.drain_grace = g
            .parse::<u64>()
            .map(std::time::Duration::from_millis)
            .map_err(|_| metamess::core::Error::invalid("bad --drain-grace-ms"))?;
    }
    if let Some(s) = parse_flag(args, "--slow-ms") {
        config.slow_ms =
            s.parse::<u64>().map_err(|_| metamess::core::Error::invalid("bad --slow-ms"))?;
    }
    if let Some(r) = parse_flag(args, "--trace-sample-rate") {
        // clamped to 0.0..=1.0 by Server::bind
        config.trace_sample_rate = r
            .parse::<f64>()
            .map_err(|_| metamess::core::Error::invalid("bad --trace-sample-rate"))?;
    }
    let spec = parse_shard_flags(args)?;

    let mut state = metamess::server::ServeState::open_sharded(&store_dir, spec)?;
    if let Some(remote) = parse_flag(args, "--remote") {
        let addrs = parse_remote_addrs(&remote)?;
        let set = metamess::remote::RemoteShardSet::connect(&addrs, parse_remote_options(args)?)?;
        println!(
            "remote fleet connected: {} shard(s), partition {}, generation {}",
            addrs.len(),
            set.partitioner(),
            set.generation()
        );
        state.set_remote(std::sync::Arc::new(set));
    }
    let state = std::sync::Arc::new(state);
    let epoch = state.epoch();
    let server = metamess::server::Server::bind(state, config)?;
    server.shutdown_handle().install_signal_handlers();
    // Flushed before blocking so wrappers (tests, scripts) can scrape the
    // resolved port from the line.
    println!(
        "listening on http://{} ({} datasets, generation {})",
        server.local_addr()?,
        epoch.datasets,
        epoch.generation
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let summary = server.run()?;
    println!(
        "served {} request(s), shed {}, dropped {}, hot-reloaded {} time(s)",
        summary.served, summary.shed, summary.dropped, summary.reloads
    );
    persist_telemetry(&store_dir)?;
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), metamess::core::Error> {
    use metamess::telemetry::trace;
    let store_dir = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .map(Path::new)
        .ok_or_else(|| metamess::core::Error::invalid("trace needs a store directory"))?;
    let json = args.iter().any(|a| a == "--json");
    let slow = args.iter().any(|a| a == "--slow");
    let path = trace::traces_path(store_dir);
    let Some((recent, slow_log)) = trace::load_persisted_traces(&path) else {
        println!("no traces recorded for {} yet (run search or serve first)", store_dir.display());
        return Ok(());
    };
    let picked: Vec<trace::OwnedTrace> = if let Some(id) = parse_flag(args, "--id") {
        let want = trace::parse_trace_id(&id)
            .map(trace::trace_id_hex)
            .ok_or_else(|| metamess::core::Error::invalid(format!("bad --id {id:?}")))?;
        let found = recent
            .into_iter()
            .chain(slow_log)
            .find(|t| t.trace_id == want)
            .ok_or_else(|| metamess::core::Error::not_found("trace", want))?;
        vec![found]
    } else if slow {
        slow_log
    } else {
        recent
    };
    if json {
        println!("{}", trace::render_traces_json(&picked));
        return Ok(());
    }
    if picked.is_empty() {
        println!("no {} traces in {}", if slow { "slow" } else { "recent" }, path.display());
        return Ok(());
    }
    for t in &picked {
        print!("{}", t.render_tree());
    }
    Ok(())
}

fn cmd_validate(args: &[String]) -> Result<(), metamess::core::Error> {
    let dir = args
        .first()
        .ok_or_else(|| metamess::core::Error::invalid("validate needs an archive directory"))?;
    let mut ctx = PipelineContext::new(
        ArchiveInput::Dir(PathBuf::from(dir)),
        Vocabulary::observatory_default(),
    );
    ctx.harvest.scan.exclude.push(".metamess".into());
    Pipeline::standard().run(&mut ctx)?;
    if ctx.findings.is_empty() {
        println!("no findings");
        return Ok(());
    }
    for f in &ctx.findings {
        let sev = match f.severity {
            Severity::Error => "ERROR",
            Severity::Warning => "warn ",
        };
        println!("[{sev}] {}: {}", f.rule, f.message);
    }
    let errors = ctx.findings.iter().filter(|f| f.severity == Severity::Error).count();
    println!("{} findings ({} errors)", ctx.findings.len(), errors);
    Ok(())
}
