//! `metamess` — command-line interface to the metadata-wrangling system.
//!
//! `metamess --help` lists the commands and `metamess <command> --help` a
//! command's operands and flags. Both are generated from [`COMMANDS`] and
//! [`FLAGS`], the tables the parser reads every command line against.
//!
//! `wrangle` is one cycle of `watch`: it runs the full curation loop over an
//! archive directory and publishes what changed in the catalog (snapshot +
//! WAL) and the vocabulary into the store directory; `search` and `summary`
//! work from that store. Both wrangle and search fold their telemetry into
//! `<store>/state/telemetry.json`, which `stats` renders as a table,
//! Prometheus text, or JSON — and their request traces into
//! `<store>/state/traces.json`, which `trace` renders as span trees.

use metamess::core::store::{read_published, CompactionPolicy, Published, Row};
use metamess::core::{Error, Result};
use metamess::pipeline::{Severity, WatchOptions, Watcher};
use metamess::prelude::*;
use metamess::remote::{PartialPolicy, RemoteOptions, RemoteShardSet};
use metamess::search::{render_results, render_summary, Partitioner, ShardSpec, MAX_SHARDS};
use metamess::server::{clamp_queue_depth, clamp_workers, ServerConfig};
use metamess::telemetry::io::{persist_merged, reset, telemetry_path};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = argv.first().and_then(|name| COMMANDS.iter().find(|c| c.name == name));
    if argv.iter().any(|a| a == "--help") {
        print!("{}", cmd.map_or_else(usage, help));
        return ExitCode::SUCCESS;
    }
    let Some(cmd) = cmd else {
        eprint!("{}", usage());
        return ExitCode::from(2);
    };
    match parse(cmd, &argv[1..]).and_then(|args| (cmd.run)(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One command: its operands, what it does, and the function that runs it.
/// Its flags are the rows of [`FLAGS`] that name it.
struct Command {
    name: &'static str,
    /// In order. A last operand spelled `<…...>` takes every remaining
    /// operand and may follow flags; the others must precede every flag.
    operands: &'static [&'static str],
    about: &'static str,
    run: fn(&Args) -> Result<()>,
}

/// One flag of one command: `value` is the placeholder of the flag's
/// value, empty for a switch.
struct Flag {
    command: &'static str,
    name: &'static str,
    value: &'static str,
    help: &'static str,
}

const fn flag(
    command: &'static str,
    name: &'static str,
    value: &'static str,
    help: &'static str,
) -> Flag {
    Flag { command, name, value, help }
}

impl Command {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> + '_ {
        FLAGS.iter().filter(|f| f.command == self.name)
    }
}

const COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        operands: &["<dir>"],
        about: "write a synthetic observatory archive (plus ground_truth.json)",
        run: cmd_generate,
    },
    Command {
        name: "wrangle",
        operands: &["<dir>"],
        about: "run the wrangling pipeline and curation loop over an archive directory\n\
                once, and publish what changed into the store (one `watch` cycle)",
        run: cmd_wrangle,
    },
    Command {
        name: "watch",
        operands: &["<dir>"],
        about: "re-wrangle the archive as it changes and append each delta to the\n\
                store's WAL with one fsync, where a live `serve`'s next poll reads it;\n\
                ctrl-c stops after the current cycle",
        run: cmd_watch,
    },
    Command {
        name: "search",
        operands: &["<store-dir>", "<query...>"],
        about: "ranked search, e.g. `near 45.5,-124.4 within 50km with salinity`; the\n\
                results are the same at any shard count and layout, local or remote",
        run: cmd_search,
    },
    Command {
        name: "summary",
        operands: &["<store-dir>", "<dataset-path>"],
        about: "render the dataset summary page for a catalog entry",
        run: cmd_summary,
    },
    Command {
        name: "stats",
        operands: &["<store-dir>"],
        about: "render telemetry accumulated across runs (default: a text table)",
        run: cmd_stats,
    },
    Command {
        name: "browse",
        operands: &["<store-dir>"],
        about: "hierarchical drill-down menus with dataset counts per concept",
        run: cmd_browse,
    },
    Command {
        name: "validate",
        operands: &["<dir>"],
        about: "run the pipeline's validation stage and print findings",
        run: cmd_validate,
    },
    Command {
        name: "fsck",
        operands: &["<store-dir>"],
        about: "verify store integrity (CRCs, magic headers, snapshot/WAL agreement);\n\
                exits nonzero on damage left unrepaired",
        run: cmd_fsck,
    },
    Command {
        name: "shardd",
        operands: &["<store-dir>"],
        about: "host one shard of a layout as a daemon for `serve` or `search` --remote;\n\
                prints its address at startup, and ctrl-c drains in-flight frames",
        run: cmd_shardd,
    },
    Command {
        name: "serve",
        operands: &["<store-dir>"],
        about: "serve the store over HTTP (/search, /datasets, /browse, /healthz, /metrics,\n\
                /debug/traces, /admin/reload): shed excess load with 503, hot-reload a\n\
                republished store, drain in-flight work on SIGTERM / ctrl-c",
        run: cmd_serve,
    },
    Command {
        name: "trace",
        operands: &["<store-dir>"],
        about: "render persisted request traces as span trees with per-span micros and\n\
                shard attribution (default: recent traces, newest first)",
        run: cmd_trace,
    },
];

/// Every (command, flag) pair, in the order `--help` lists them.
const FLAGS: &[Flag] = &[
    flag("generate", "--seed", "N", "generator seed; the same flags write the same archive"),
    flag("generate", "--months", "N", "months of station data, from January 2010"),
    flag("generate", "--stations", "N", "fixed observation stations (at most 10)"),
    flag("wrangle", "--store", "<store-dir>", "store directory (default: <dir>/.metamess)"),
    flag("wrangle", "--expert", "", "add the hand-curated synonym set"),
    flag("wrangle", "--explain", "", "print the telemetry recorded during the run"),
    flag("watch", "--store", "<store-dir>", "store directory (default: <dir>/.metamess)"),
    flag("watch", "--interval-ms", "N", "poll period (default 1000)"),
    flag("watch", "--max-cycles", "N", "stop after N cycles"),
    flag("watch", "--compact-ratio", "F", "compact once WAL > F × snapshot (default 0.5)"),
    flag("watch", "--retain", "N", "previous snapshots kept (default 2)"),
    flag("search", "--explain", "", "append the plan/probe/score/merge breakdown"),
    flag("search", "--shards", "N", "search N shards (clamped to 1..=256)"),
    flag("search", "--remote", "H:P,...", "search this shardd fleet instead"),
    flag("search", "--partial-policy", "fail|degrade", "degrade: skip down shards, marked partial"),
    flag("stats", "--prometheus", "", "Prometheus text exposition"),
    flag("stats", "--json", "", "JSON exposition"),
    flag("stats", "--reset", "", "clear the persisted snapshot"),
    flag("fsck", "--json", "", "emit the machine-readable report"),
    flag("fsck", "--repair", "", "truncate damaged WAL tails, quarantine corrupt files"),
    flag("shardd", "--shard-id", "K/N", "the shard to host (required; K < N <= 256)"),
    flag("shardd", "--listen", "H:P", "listen address (default 127.0.0.1:0, a free port)"),
    flag("serve", "--addr", "H:P", "listen address (default 127.0.0.1:0, a free port)"),
    flag("serve", "--workers", "N", "worker threads (default 4, clamped to 1..=256)"),
    flag("serve", "--queue-depth", "N", "queued requests before 503 (default 64, <= 4096)"),
    flag("serve", "--drain-grace-ms", "N", "how long a drain waits for workers (default 500)"),
    flag("serve", "--shards", "N", "search N shards (clamped to 1..=256)"),
    flag("serve", "--slow-ms", "N", "slower requests enter the slow log (default 100)"),
    flag("serve", "--trace-sample-rate", "F", "traced share, 0.0..=1.0 (default 1.0)"),
    flag("serve", "--remote", "H:P,...", "search this shardd fleet instead"),
    flag("serve", "--partial-policy", "fail|degrade", "degrade: skip down shards, marked partial"),
    flag("trace", "--slow", "", "show the slow-query log"),
    flag("trace", "--json", "", "emit the /debug/traces document"),
    flag("trace", "--id", "HEX", "pick one trace by its 32-hex id"),
];

/// `metamess --help`: every command's synopsis and what it does.
fn usage() -> String {
    let mut out = String::from("metamess — taming the metadata mess\n\nusage:\n");
    for cmd in COMMANDS {
        out += &format!("  {}\n      {}\n", synopsis(cmd), cmd.about.replace('\n', "\n      "));
    }
    out + "\n`metamess <command> --help` lists a command's flags.\n"
}

/// `metamess <command> --help`: the synopsis, what it does, and every flag.
fn help(cmd: &Command) -> String {
    let about = format!("usage: {}\n\n{}\n", synopsis(cmd), cmd.about);
    let line = |f: &Flag| format!("  {:<34} {}\n", format!("{} {}", f.name, f.value), f.help);
    let flags: String = cmd.flags().map(line).collect();
    if flags.is_empty() {
        about
    } else {
        about + "\nflags:\n" + &flags
    }
}

fn synopsis(cmd: &Command) -> String {
    let flags = if cmd.flags().next().is_none() { "" } else { " [flags]" };
    format!("metamess {} {}{flags}", cmd.name, cmd.operands.join(" "))
}

/// A command line read against its [`Command`]: the operands in order and
/// each flag given, with its value (empty for a switch).
struct Args {
    operands: Vec<String>,
    flags: Vec<(&'static Flag, String)>,
}

/// Reads `argv` (the tokens after the command name) against `cmd`. A token
/// starting with `--` is a flag, every other token an operand, so a query
/// word such as `-124.4` stays a word. An unknown flag, a value flag
/// without its value, and a missing or surplus operand are errors that name
/// it.
fn parse(cmd: &'static Command, argv: &[String]) -> Result<Args> {
    let fixed = cmd.operands.iter().take_while(|o| !o.ends_with("...>")).count();
    let mut args = Args { operands: Vec::new(), flags: Vec::new() };
    let mut tokens = argv.iter();
    while let Some(token) = tokens.next() {
        if !token.starts_with("--") {
            args.operands.push(token.clone());
            continue;
        }
        if let Some(operand) = cmd.operands[..fixed].get(args.operands.len()) {
            return Err(Error::invalid(format!("{} needs {operand} before {token}", cmd.name)));
        }
        let flag = cmd.flags().find(|f| f.name == token).ok_or_else(|| {
            Error::invalid(format!("{} has no flag {token} (see `metamess {0} --help`)", cmd.name))
        })?;
        let missing = || Error::invalid(format!("{token} needs a value ({})", flag.value));
        let value = match flag.value {
            "" => String::new(),
            _ => tokens.next().filter(|v| !v.starts_with("--")).cloned().ok_or_else(missing)?,
        };
        args.flags.push((flag, value));
    }
    if let Some(operand) = cmd.operands.get(args.operands.len()) {
        return Err(Error::invalid(format!("{} needs {operand}", cmd.name)));
    }
    let surplus = args.operands.get(cmd.operands.len()).filter(|_| fixed == cmd.operands.len());
    match surplus {
        Some(extra) => Err(Error::invalid(format!("{} takes no operand {extra:?}", cmd.name))),
        None => Ok(args),
    }
}

impl Args {
    fn given(&self, name: &str) -> Option<&(&'static Flag, String)> {
        self.flags.iter().find(|(f, _)| f.name == name)
    }

    fn switch(&self, name: &str) -> bool {
        self.given(name).is_some()
    }

    fn value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>> {
        self.value_with(name, |v| v.parse().ok())
    }

    /// The flag's value as `read` makes it; `None` from `read` is `bad --flag`.
    fn value_with<T>(&self, name: &str, read: impl FnOnce(&str) -> Option<T>) -> Result<Option<T>> {
        let Some((flag, v)) = self.given(name) else { return Ok(None) };
        let bad = || Error::invalid(format!("bad {name} {v:?} (expected {})", flag.value));
        read(v).map(Some).ok_or_else(bad)
    }
}

fn cmd_generate(args: &Args) -> Result<()> {
    let dir = &args.operands[0];
    let mut spec = ArchiveSpec::default();
    spec.seed = args.value("--seed")?.unwrap_or(spec.seed);
    spec.months = args.value("--months")?.unwrap_or(spec.months);
    spec.stations = args.value("--stations")?.unwrap_or(spec.stations);
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

/// `--store`, or `<dir>/.metamess` beside the archive.
fn store_dir(args: &Args) -> Result<PathBuf> {
    Ok(args.value("--store")?.unwrap_or_else(|| Path::new(&args.operands[0]).join(".metamess")))
}

/// How a one-shot wrangle compacts: whenever its cycle published anything,
/// the WAL is folded into a fresh snapshot, and no previous snapshot is kept.
const FOLD_EVERY_PUBLISH: CompactionPolicy =
    CompactionPolicy { wal_ratio: 0.0, min_wal_bytes: 0, retain: 0 };

/// One watch cycle: wrangle the archive (resuming from the store's state, so
/// an archive the last wrangle already took runs no stage), publish what
/// changed and fold it into the snapshot. A re-wrangle that changes nothing
/// writes nothing.
fn cmd_wrangle(args: &Args) -> Result<()> {
    let store_dir = store_dir(args)?;
    let mut options = WatchOptions {
        max_cycles: Some(1),
        compaction: FOLD_EVERY_PUBLISH,
        ..WatchOptions::default()
    };
    if args.switch("--expert") {
        options.curator.manual_synonyms = expert_synonyms();
    }
    let watcher = Watcher::new(&args.operands[0], &store_dir, options)?;
    print_resumed(&watcher, &store_dir);
    watcher.run(|cycle| {
        if cycle.changed {
            print!("{}", cycle.run.render());
        } else {
            println!("archive unchanged since the last wrangle: no stage ran");
        }
        for s in &cycle.history {
            println!(
                "iteration {}: accepted {}, clarified {}, unresolved {}, resolved {:.1}%",
                s.iteration,
                s.accepted,
                s.clarified,
                s.unresolved_after,
                100.0 * s.resolution_after
            );
        }
        println!(
            "published {} datasets to {} (vocabulary v{})",
            cycle.datasets,
            store_dir.display(),
            cycle.vocab_version
        );
    })?;
    if args.switch("--explain") {
        print!("{}", metamess::telemetry::global().snapshot().render_table());
    }
    persist_telemetry(&store_dir)
}

/// The line `wrangle` and `watch` open with when they resume a store.
fn print_resumed(watcher: &Watcher, store_dir: &Path) {
    if watcher.resumed() {
        let ctx = watcher.context();
        println!(
            "resuming from {} (run #{}, {} datasets published)",
            store_dir.join("state").display(),
            ctx.run_id,
            ctx.catalog.len()
        );
    }
}

/// Continuous ingestion: `metamess watch <dir>` — the wrangle loop run
/// forever, appending each cycle's catalog delta to the store's WAL with one
/// fsync so a live `metamess serve` picks it up without reopening.
fn cmd_watch(args: &Args) -> Result<()> {
    let dir = &args.operands[0];
    let store_dir = store_dir(args)?;
    let mut options = WatchOptions::default();
    options.interval = args.value("--interval-ms")?.map_or(options.interval, Duration::from_millis);
    options.max_cycles = args.value("--max-cycles")?.or(options.max_cycles);
    let ratio = args.value_with("--compact-ratio", |r| {
        r.parse::<f64>().ok().filter(|r| r.is_finite() && *r > 0.0)
    })?;
    options.compaction.wal_ratio = ratio.unwrap_or(options.compaction.wal_ratio);
    options.compaction.retain = args.value("--retain")?.unwrap_or(options.compaction.retain);

    let watcher = Watcher::new(dir, &store_dir, options.clone())?;
    print_resumed(&watcher, &store_dir);
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
        "watching {dir} -> {} (poll {}ms; ctrl-c to stop)",
        store_dir.display(),
        options.interval.as_millis()
    );
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
fn persist_telemetry(store_dir: &Path) -> Result<()> {
    let path = telemetry_path(store_dir);
    persist_merged(&path).map_err(|e| Error::io(format!("persist {}", path.display()), e))?;
    let traces = metamess::telemetry::trace::traces_path(store_dir);
    metamess::telemetry::trace::persist_traces(&traces)
        .map_err(|e| Error::io(format!("persist {}", traces.display()), e))?;
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
/// `summary`, `browse` and `shardd` may all run beside a live `watch`. The
/// rows come back encoded; a command decodes what it prints.
fn read_store(store_dir: &Path) -> Result<(Published, Vocabulary)> {
    let published = read_published(store_dir.join("catalog"))?;
    Ok((published, Vocabulary::load_or_default(store_dir.join("vocabulary.json"))?))
}

/// `--shards N`, hashed (clamped to `1..=MAX_SHARDS` by [`ShardSpec::new`],
/// so 0 means unsharded).
fn shard_spec(args: &Args) -> Result<ShardSpec> {
    Ok(ShardSpec::new(args.value("--shards")?.unwrap_or(1), Partitioner::Hash))
}

/// Dials the `--remote` shardd fleet, if one is named, under
/// `--partial-policy` (default fail: a down shard is an error unless
/// degrade is asked for).
fn connect_remote(args: &Args) -> Result<Option<RemoteShardSet>> {
    let addrs = |value: &str| {
        let addrs: Vec<String> =
            value.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect();
        (!addrs.is_empty()).then_some(addrs)
    };
    let Some(addrs) = args.value_with("--remote", addrs)? else { return Ok(None) };
    let mut options = RemoteOptions::default();
    options.partial_policy = args
        .value_with("--partial-policy", PartialPolicy::parse)?
        .unwrap_or(options.partial_policy);
    Ok(Some(RemoteShardSet::connect(&addrs, options)?))
}

fn cmd_search(args: &Args) -> Result<()> {
    let store_dir = Path::new(&args.operands[0]);
    let explain = args.switch("--explain");
    let spec = shard_spec(args)?;
    let query_text = args.operands[1..].join(" ");
    if query_text.trim().is_empty() {
        return Err(Error::invalid("search needs a query"));
    }
    let query = Query::parse(&query_text)?;
    if explain && args.switch("--remote") {
        return Err(Error::invalid("--explain is not available over --remote"));
    }
    // Trace the query like a served request would be (never sampled away:
    // this run exists because someone wants to look at it). The trace is
    // persisted below, so `metamess trace <store> --id <hex>` replays it.
    let trace_ctx = metamess::telemetry::TraceContext::start(1.0);
    let tracing = metamess::telemetry::trace::begin(&trace_ctx, "search");
    if let Some(set) = connect_remote(args)? {
        // Scatter-gather over a shardd fleet: same probe/score/merge as
        // local sharding, so the rendered results are bit-identical.
        let out = set.search(&query)?;
        print!("{}", render_results(&out.hits));
        if out.partial {
            println!(
                "partial: shard(s) {:?} unavailable — degraded to the healthy shards' merge",
                out.failed
            );
        }
    } else {
        let (published, vocab) = read_store(store_dir)?;
        let engine = SearchEngine::from_rows(published.rows, published.generation, vocab, spec);
        if explain {
            let (hits, breakdown) = engine.search_explain(&query);
            print!("{}", render_results(&hits));
            print!("{}", breakdown.render());
        } else {
            print!("{}", render_results(&engine.search(&query)));
        }
    }
    if tracing {
        if let Some(fin) = metamess::telemetry::trace::end(u64::MAX) {
            println!("trace: {} ({}µs)", fin.trace_id_hex(), fin.micros);
        }
    }
    persist_telemetry(store_dir)?;
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<()> {
    let store_dir = Path::new(&args.operands[0]);
    let path = telemetry_path(store_dir);
    if args.switch("--reset") {
        reset(&path).map_err(|e| Error::io(format!("reset {}", path.display()), e))?;
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
    if args.switch("--prometheus") {
        print!("{}", snap.render_prometheus());
    } else if args.switch("--json") {
        println!("{}", snap.render_json());
    } else {
        print!("{}", snap.render_table());
    }
    Ok(())
}

fn cmd_summary(args: &Args) -> Result<()> {
    let (published, _) = read_store(Path::new(&args.operands[0]))?;
    let path = &args.operands[1];
    let id = DatasetId::from_path(path);
    let row = published
        .rows
        .binary_search_by_key(&id, Row::id)
        .map(|at| &published.rows[at])
        .map_err(|_| Error::not_found("dataset", path.clone()))?;
    print!("{}", render_summary(&row.decode()));
    Ok(())
}

fn cmd_browse(args: &Args) -> Result<()> {
    let (published, vocab) = read_store(Path::new(&args.operands[0]))?;
    for tree in metamess::search::browse_all(&published.catalog(), &vocab) {
        print!("{}", tree.render());
        println!();
    }
    Ok(())
}

fn cmd_fsck(args: &Args) -> Result<()> {
    let store_dir = Path::new(&args.operands[0]);
    let report = metamess::fsck::run_fsck(store_dir, args.switch("--repair"))?;
    if args.switch("--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report)
                .map_err(|e| Error::invalid(format!("unencodable report: {e}")))?
        );
    } else {
        print!("{}", metamess::fsck::render_report(&report));
    }
    if report.error_count() > 0 && !report.fully_repaired() {
        // a store left in an older format is whole: name the format
        if let Some(found) = report.unsupported_format() {
            let supported = metamess::core::store::codec::FORMAT_VERSION;
            let store = store_dir.display().to_string();
            return Err(Error::unsupported_format(store, found, supported));
        }
        return Err(Error::corrupt(format!(
            "fsck found {} unrepaired error(s) in {}",
            report.error_count(),
            store_dir.display()
        )));
    }
    Ok(())
}

/// `metamess shardd <store> --shard-id K/N` — host one shard of an
/// N-shard layout as a lean daemon speaking the binary shard protocol.
fn cmd_shardd(args: &Args) -> Result<()> {
    let store_dir = Path::new(&args.operands[0]);
    let (shard_id, shard_count) = args
        .value_with("--shard-id", |s| {
            let (k, n) = s.split_once('/')?;
            Some((k.parse::<usize>().ok()?, n.parse::<usize>().ok()?))
                .filter(|(k, n)| *n >= 1 && *n <= MAX_SHARDS && k < n)
        })?
        .ok_or_else(|| Error::invalid("shardd needs --shard-id K/N"))?;
    let spec = ShardSpec::new(shard_count, Partitioner::Hash);
    let listen: String = args.value("--listen")?.unwrap_or_else(|| "127.0.0.1:0".into());

    let (published, vocab) = read_store(store_dir)?;
    let host = metamess::remote::ShardHost::from_rows(
        published.rows,
        published.generation,
        vocab,
        spec,
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
        std::thread::sleep(Duration::from_millis(50));
    }
    daemon.shutdown();
    println!("shardd stopped");
    persist_telemetry(store_dir)?;
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<()> {
    let store_dir = PathBuf::from(&args.operands[0]);
    let mut config = ServerConfig::default();
    config.addr = args.value("--addr")?.unwrap_or(config.addr);
    let workers = args.value_with("--workers", |w| w.parse().ok().filter(|w| *w > 0))?;
    config.workers = workers.map_or(config.workers, clamp_workers);
    config.queue_depth = args.value("--queue-depth")?.map_or(config.queue_depth, clamp_queue_depth);
    let grace = args.value("--drain-grace-ms")?;
    config.drain_grace = grace.map_or(config.drain_grace, Duration::from_millis);
    config.slow_ms = args.value("--slow-ms")?.unwrap_or(config.slow_ms);
    // clamped to 0.0..=1.0 by Server::bind
    config.trace_sample_rate =
        args.value("--trace-sample-rate")?.unwrap_or(config.trace_sample_rate);
    let spec = shard_spec(args)?;

    let mut state = metamess::server::ServeState::open_sharded(&store_dir, spec)?;
    if let Some(set) = connect_remote(args)? {
        println!(
            "remote fleet connected: {} shard(s), generation {}",
            set.shard_count(),
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
    let _ = std::io::stdout().flush();

    let summary = server.run()?;
    println!(
        "served {} request(s), shed {}, dropped {}, hot-reloaded {} time(s)",
        summary.served, summary.shed, summary.dropped, summary.reloads
    );
    persist_telemetry(&store_dir)?;
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<()> {
    use metamess::telemetry::trace;
    let store_dir = Path::new(&args.operands[0]);
    let slow = args.switch("--slow");
    let id = args.value_with("--id", |id| trace::parse_trace_id(id).map(trace::trace_id_hex))?;
    let path = trace::traces_path(store_dir);
    let Some((recent, slow_log)) = trace::load_persisted_traces(&path) else {
        println!("no traces recorded for {} yet (run search or serve first)", store_dir.display());
        return Ok(());
    };
    let picked: Vec<trace::OwnedTrace> = if let Some(want) = id {
        let found = recent
            .into_iter()
            .chain(slow_log)
            .find(|t| t.trace_id == want)
            .ok_or_else(|| Error::not_found("trace", want))?;
        vec![found]
    } else if slow {
        slow_log
    } else {
        recent
    };
    if args.switch("--json") {
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

fn cmd_validate(args: &Args) -> Result<()> {
    let dir = &args.operands[0];
    let mut ctx = PipelineContext::new(
        ArchiveInput::Dir(PathBuf::from(dir)),
        Vocabulary::observatory_default(),
    );
    // the default store's files are not part of the archive
    ctx.harvest.scan.exclude_dir(Path::new(dir), &Path::new(dir).join(".metamess"));
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

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).expect("declared command")
    }

    fn error(cmd: &'static Command, line: &str) -> String {
        parse(cmd, &argv(line)).err().unwrap_or_else(|| panic!("{line:?} parsed")).to_string()
    }

    /// Over the whole table: an unknown flag and every value flag missing
    /// its value are refused by name, and `<cmd> --help` lists every flag.
    #[test]
    fn every_command_refuses_bad_flags_and_lists_its_own() {
        for (i, f) in FLAGS.iter().enumerate() {
            assert!(COMMANDS.iter().any(|c| c.name == f.command), "{}: no command", f.command);
            let twice = FLAGS[..i].iter().any(|g| g.command == f.command && g.name == f.name);
            assert!(!twice, "{} {} is declared twice", f.command, f.name);
        }
        for cmd in COMMANDS {
            let operands = cmd.operands.join(" ");
            assert!(parse(cmd, &argv(&operands)).is_ok(), "{}", cmd.name);
            assert!(error(cmd, &format!("{operands} --no-such-flag")).contains("--no-such-flag"));
            let help = help(cmd);
            for f in cmd.flags() {
                let listed = format!("{} {}", f.name, f.value);
                assert!(help.contains(&listed), "{}: {}", cmd.name, f.name);
                assert!(help.contains(f.help), "{}: {}", cmd.name, f.name);
                if f.value.is_empty() {
                    assert!(parse(cmd, &argv(&format!("{operands} {}", f.name))).is_ok());
                } else {
                    let missing = error(cmd, &format!("{operands} {}", f.name));
                    assert!(missing.contains(f.name), "{}: {missing}", cmd.name);
                    assert!(parse(cmd, &argv(&format!("{operands} {} v", f.name))).is_ok());
                }
            }
        }
    }

    #[test]
    fn operands_are_positional_and_checked() {
        let search = command("search");
        let args = parse(search, &argv("st --shards 4 near 45.5 -124.4 --explain")).unwrap();
        assert_eq!(args.operands, ["st", "near", "45.5", "-124.4"]);
        assert_eq!(args.value::<usize>("--shards").unwrap(), Some(4));
        assert!(args.switch("--explain"));
        let early = error(search, "--explain st with salinity");
        assert!(early.contains("--explain") && early.contains("<store-dir>"), "{early}");
        assert!(error(search, "st").contains("<query...>"));
        assert!(error(search, "st --remote --explain x").contains("--remote"));
        assert!(error(command("summary"), "st").contains("<dataset-path>"));
        assert!(error(command("fsck"), "st repair").contains("repair"));
        let bad = parse(search, &argv("st --partial-policy zodiac x")).unwrap();
        let bad = bad.value_with("--partial-policy", PartialPolicy::parse).unwrap_err().to_string();
        assert!(bad.contains("--partial-policy \"zodiac\""), "{bad}");
    }

    /// README's "Command line" block names every command, and each of its
    /// lines parses.
    #[test]
    fn readme_command_lines_parse() {
        let readme = include_str!("../README.md");
        let block = readme
            .split("## Command line")
            .nth(1)
            .and_then(|rest| rest.split("```").nth(1))
            .expect("README has a Command line block");
        let mut named = Vec::new();
        for line in block.lines().filter_map(|l| l.strip_prefix("cargo run -- ")) {
            let words = argv(line.split('#').next().unwrap_or_default());
            let cmd = command(&words[0]);
            parse(cmd, &words[1..]).unwrap_or_else(|e| panic!("README {line:?}: {e}"));
            named.push(cmd.name);
        }
        for cmd in COMMANDS {
            assert!(named.contains(&cmd.name), "README's Command line block omits {}", cmd.name);
        }
    }
}
