//! What a run reports, and the one place the metric names and units live.
//! `BENCHMARK.json` lists the same names; `run.sh --quick` checks that the
//! two agree.

use std::collections::BTreeMap;

/// End-to-end metrics with a bound: the driver reads all of them from every
/// untraced run, so the list holds what every workload does and what repeats
/// within its bound (README, "End-to-end metrics").
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("store_bytes_per_dataset", "B"), ("peak_rss_mb", "MiB")];

/// The nine stages of `Pipeline::standard()`, in order, each with the metric
/// its cold-run time is reported as.
pub const STAGES: [(&str, &str); 9] = [
    ("scan-archive", "pipeline.stage.scan-archive_ms"),
    ("perform-known-transformations", "pipeline.stage.perform-known-transformations_ms"),
    ("normalize-units", "pipeline.stage.normalize-units_ms"),
    ("add-external-metadata", "pipeline.stage.add-external-metadata_ms"),
    ("discover-transformations", "pipeline.stage.discover-transformations_ms"),
    ("perform-discovered-transformations", "pipeline.stage.perform-discovered-transformations_ms"),
    ("generate-hierarchies", "pipeline.stage.generate-hierarchies_ms"),
    ("validate", "pipeline.stage.validate_ms"),
    ("publish", "pipeline.stage.publish_ms"),
];

/// Metrics without a bound; the result object of a traced run holds them.
/// The first eight are end to end: the search timings, which do not repeat
/// within a tenth, and what only some workloads have. An untraced run prints
/// those as lines. The rest are per layer. `not_entered` says which of all
/// these a workload leaves out.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("publish_s", "s"),
    ("open_s", "s"),
    ("search_qps", "1/s"),
    ("search_p50_ms", "ms"),
    ("search_p95_ms", "ms"),
    ("wrangle_cold_s", "s"),
    ("freshness_p50_ms", "ms"),
    ("ingest_cycles_per_s", "1/s"),
    ("client.p99_ms", "ms"),
    ("client.max_ms", "ms"),
    ("client.late_send_p99_us", "us"),
    ("client.backlog_max", "count"),
    ("client.bytes_per_response", "B"),
    ("server.parse_us", "us"),
    ("server.handle_us", "us"),
    ("server.serialize_us", "us"),
    ("server.transport_us", "us"),
    ("server.shed_share", "share"),
    ("server.open_ms", "ms"),
    ("server.delta_apply_ms", "ms"),
    ("server.reload_full_ms", "ms"),
    ("server.cache_survived_share", "share"),
    ("json.decode_query_us", "us"),
    ("json.encode_hits_us", "us"),
    ("json.snapshot_encode_mb_s", "MB/s"),
    ("json.snapshot_decode_mb_s", "MB/s"),
    ("search.plan_us", "us"),
    ("search.probe_us", "us"),
    ("search.score_us", "us"),
    ("search.merge_us", "us"),
    ("search.score_ns_per_candidate", "ns"),
    ("search.candidates_per_query", "count"),
    ("search.scored_per_result", "count"),
    ("search.full_scan_share", "share"),
    ("search.cache_lookup_us", "us"),
    ("search.cache_hit_share", "share"),
    ("search.build_ms", "ms"),
    ("search.self_share", "share"),
    ("vocab.expand_us", "us"),
    ("remote.search_us", "us"),
    ("remote.host_handle_us", "us"),
    ("remote.frame_encode_us", "us"),
    ("remote.frame_decode_us", "us"),
    ("remote.wire_us", "us"),
    ("remote.bytes_per_query", "B"),
    ("remote.round_trips_per_query", "count"),
    ("remote.retries", "count"),
    ("remote.partial_share", "share"),
    ("remote.host_build_ms", "ms"),
    ("core.store.commit_ms", "ms"),
    ("core.store.fsyncs_per_publish", "count"),
    ("core.store.wal_bytes_per_mutation", "B"),
    ("core.store.compaction_ms", "ms"),
    ("core.store.compactions", "count"),
    ("core.store.snapshot_write_ms", "ms"),
    ("core.store.snapshot_bytes_per_dataset", "B"),
    ("core.store.open_ms", "ms"),
    ("core.catalog.clone_ms", "ms"),
    ("core.catalog.diff_ms", "ms"),
    ("pipeline.stage.scan-archive_ms", "ms"),
    ("pipeline.stage.perform-known-transformations_ms", "ms"),
    ("pipeline.stage.normalize-units_ms", "ms"),
    ("pipeline.stage.add-external-metadata_ms", "ms"),
    ("pipeline.stage.discover-transformations_ms", "ms"),
    ("pipeline.stage.perform-discovered-transformations_ms", "ms"),
    ("pipeline.stage.generate-hierarchies_ms", "ms"),
    ("pipeline.stage.validate_ms", "ms"),
    ("pipeline.stage.publish_ms", "ms"),
    ("pipeline.cycle_ms", "ms"),
    ("pipeline.stages_skipped_share", "share"),
    ("pipeline.save_state_ms", "ms"),
    ("pipeline.load_state_ms", "ms"),
    ("pipeline.resolved_share", "share"),
    ("pipeline.wrong_assignments", "count"),
    ("harvest.files_per_s", "1/s"),
    ("harvest.reused_share", "share"),
    ("harvest.fingerprint_ms", "ms"),
    ("formats.csv_mb_s", "MB/s"),
    ("formats.cdl_mb_s", "MB/s"),
    ("formats.obslog_mb_s", "MB/s"),
    ("transform.apply_us_per_record", "us"),
    ("discover.key_collision_ms", "ms"),
    ("discover.knn_ms", "ms"),
    ("telemetry.span_ns", "ns"),
    ("telemetry.counter_ns", "ns"),
    ("bench.trace_overhead_share", "share"),
    ("bench.unattributed_share", "share"),
];

/// Whether `workload` leaves the `PER_LAYER` metric `name` out: a layer it does
/// not enter, or an end-to-end metric it does not list. A traced run prints 0
/// for exactly these; any other metric that nobody set, or one of these that
/// somebody did set, is a bug in the benchmark.
fn not_entered(workload: &str, name: &str) -> bool {
    /// What only `wrangle-live` produces.
    const INGEST: &[&str] = &[
        "wrangle_cold_s",
        "freshness_p50_ms",
        "ingest_cycles_per_s",
        "server.delta_apply_ms",
        "server.reload_full_ms",
        "server.cache_survived_share",
        "core.store.commit_ms",
        "core.store.compaction",
        "pipeline.",
        "harvest.",
        "formats.",
        "transform.",
        "discover.",
    ];
    /// The engine's own steps, which scoring on shard hosts hides from the
    /// coordinator, and which `wrangle-live` does not replay.
    const LOCAL_SEARCH: &[&str] = &[
        "search.plan_us",
        "search.probe_us",
        "search.score",
        "search.merge_us",
        "search.candidates_per_query",
        "search.full_scan_share",
        "search.cache_",
        "search.self_share",
    ];
    /// What the request replay measures; `wrangle-live` has none.
    const REPLAY: &[&str] = &[
        "server.parse_us",
        "server.handle_us",
        "server.serialize_us",
        "server.transport_us",
        "json.decode_query_us",
        "json.encode_hits_us",
        "vocab.expand_us",
        "bench.",
    ];
    let any = |prefixes: &[&str]| prefixes.iter().any(|p| name.starts_with(p));
    match workload {
        "wrangle-live" => {
            any(REPLAY)
                || any(LOCAL_SEARCH)
                || any(&["publish_s", "open_s", "search_qps", "remote."])
        }
        "search-remote" => any(INGEST) || any(LOCAL_SEARCH) || name == "publish_s",
        "search-hot" => any(INGEST) || any(&["publish_s", "open_s", "remote."]),
        _ => any(INGEST) || name.starts_with("remote."),
    }
}

pub struct Report {
    workload: String,
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Free-form lines for the reader (digests, sample counts, failures).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &str) -> Report {
        Report {
            workload: workload.to_string(),
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is {value}");
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Prints the run and returns whether it was correct. The result object
    /// of an untraced run holds the `END_TO_END` metrics, that of a traced
    /// run the `PER_LAYER` ones; an untraced run also prints, as lines, the
    /// unbounded end-to-end metrics it measured.
    pub fn print(&self, traced: bool) -> bool {
        let mut json = String::new();
        let mut bugs = Vec::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let in_object = traced != END_TO_END.iter().any(|(n, _)| n == name);
            let skip = not_entered(&self.workload, name);
            let value = match self.values.get(name) {
                Some(_) if skip => {
                    bugs.push(format!("{name} was measured but is listed as not entered"));
                    continue;
                }
                Some(v) => *v,
                None if !in_object => continue,
                None if skip => 0.0,
                None => {
                    bugs.push(format!("{name} was not measured"));
                    continue;
                }
            };
            println!("{name} {value} {unit}");
            if in_object {
                if !json.is_empty() {
                    json.push(',');
                }
                json.push_str(&format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
            }
        }
        assert!(bugs.is_empty(), "{}: {}", self.workload, bugs.join("; "));
        for line in &self.notes {
            println!("# {line}");
        }
        println!("ops_attempted {}", self.attempted);
        println!("ops_failed {}", self.failed);
        let correct = self.failed == 0 && self.attempted > 0;
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
            self.attempted.max(1),
            self.failed
        );
        correct
    }
}

/// Checks that `BENCHMARK.json` lists exactly the workloads and metrics this
/// binary prints, with the same units.
pub fn check_schema(path: &std::path::Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc: serde_json::Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let listed = |key: &str, field: &str| -> Result<Vec<(String, String)>, String> {
        let items = doc.get(key).and_then(|v| v.as_array()).ok_or(format!("no {key} list"))?;
        items
            .iter()
            .map(|item| {
                let text = |f: &str| item.get(f).and_then(|v| v.as_str()).map(str::to_string);
                text("name").zip(text(field)).ok_or(format!("{key}: entry without name or {field}"))
            })
            .collect()
    };
    let same = |key: &str, ours: &[(&str, &str)]| -> Result<(), String> {
        let theirs = listed(key, "unit")?;
        let ours: Vec<(String, String)> =
            ours.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        if theirs == ours {
            Ok(())
        } else {
            let odd: Vec<_> = theirs
                .iter()
                .filter(|t| !ours.contains(t))
                .chain(ours.iter().filter(|o| !theirs.contains(o)))
                .collect();
            Err(format!("{key} differs from the binary (order matters): {odd:?}"))
        }
    };
    same("end_to_end", END_TO_END)?;
    same("per_layer", PER_LAYER)?;
    let workloads: Vec<String> = listed("workloads", "why")?.into_iter().map(|(n, _)| n).collect();
    if workloads != crate::WORKLOADS {
        return Err(format!("workloads differ from the binary: {workloads:?}"));
    }
    Ok(())
}
