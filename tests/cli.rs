//! End-to-end CLI test: generate → wrangle → search → summary → validate.

use metamess::core::store::read_published;
use std::path::PathBuf;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_metamess")
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(bin()).args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

fn workdir() -> PathBuf {
    let d = std::env::temp_dir().join(format!("metamess-cli-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn full_cli_workflow() {
    let dir = workdir();
    let dir_s = dir.to_str().unwrap();

    // generate
    let (ok, stdout, stderr) = run(&["generate", dir_s, "--months", "3", "--stations", "2"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("wrote"), "{stdout}");
    assert!(dir.join("ground_truth.json").exists());

    // wrangle
    let (ok, stdout, stderr) = run(&["wrangle", dir_s, "--expert"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("published"), "{stdout}");
    let store = dir.join(".metamess");
    assert!(store.join("catalog").join("snapshot.bin").exists());
    assert!(store.join("vocabulary.json").exists());

    // search
    let store_s = store.to_str().unwrap();
    let (ok, stdout, stderr) = run(&["search", store_s, "with", "salinity", "limit", "3"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("1. ["), "{stdout}");

    // a query that names no radius is refused where it is parsed
    let (ok, out, err) = run(&["search", store_s, "near", "45,-124", "within", "infkm"]);
    assert!(!ok, "{out}");
    assert!(err.contains("radius_km inf"), "{err}");

    // the search printed its trace id; `metamess trace --id` replays the
    // span tree from the persisted flight recorder
    let tid = stdout
        .lines()
        .find_map(|l| l.strip_prefix("trace: "))
        .and_then(|l| l.split_whitespace().next())
        .expect("search prints its trace id")
        .to_string();
    assert_eq!(tid.len(), 32, "{tid}");
    assert!(store.join("state").join("traces.json").exists());
    let (ok, stdout, stderr) = run(&["trace", store_s, "--id", &tid]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains(&format!("trace {tid}")), "{stdout}");
    assert!(stdout.contains("search"), "{stdout}");
    assert!(stdout.contains("shard.probe"), "{stdout}");
    assert!(stdout.contains("shard="), "{stdout}");
    // the wrangle run left its own span tree (one child per stage)
    let (ok, stdout, stderr) = run(&["trace", store_s]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("wrangle"), "{stdout}");
    assert!(stdout.contains("scan-archive"), "{stdout}");
    // --json emits the /debug/traces document shape
    let (ok, stdout, stderr) = run(&["trace", store_s, "--json"]);
    assert!(ok, "{stderr}");
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("trace --json parses");
    assert!(!v["traces"].as_array().unwrap().is_empty(), "{stdout}");
    // an unknown id is a clean error
    let (ok, _, stderr) = run(&["trace", store_s, "--id", &"f".repeat(32)]);
    assert!(!ok);
    assert!(stderr.contains("not found"), "{stderr}");

    // summary of a known dataset
    let (ok, stdout, stderr) = run(&["summary", store_s, "stations/saturn01/2010/01.csv"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("variables:"), "{stdout}");
    assert!(stdout.contains("saturn01"), "{stdout}");

    // browse: hierarchical menus with counts
    let (ok, stdout, stderr) = run(&["browse", store_s]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("[observatory]"), "{stdout}");
    assert!(stdout.contains('('), "{stdout}");

    // validate (wrangled archive: warnings possible, no errors)
    let (ok, stdout, stderr) = run(&["validate", dir_s]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("findings") || stdout.contains("no findings"), "{stdout}");
    assert!(stdout.contains("(0 errors)") || stdout.contains("no findings"), "{stdout}");

    // search --explain: results plus the per-phase breakdown
    let (ok, stdout, stderr) =
        run(&["search", store_s, "with", "salinity", "limit", "3", "--explain"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("1. ["), "{stdout}");
    assert!(stdout.contains("phase breakdown"), "{stdout}");
    for phase in ["plan", "probe", "score", "merge", "total"] {
        assert!(stdout.contains(phase), "missing {phase} in: {stdout}");
    }

    // the wrangle and searches above persisted telemetry into the store
    assert!(store.join("state").join("telemetry.json").exists());

    // stats: human table with accumulated counters + ledger-derived gauges
    let (ok, stdout, stderr) = run(&["stats", store_s]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("counters"), "{stdout}");
    assert!(stdout.contains("metamess_search_queries_total"), "{stdout}");
    assert!(stdout.contains("metamess_pipeline_last_run_id"), "{stdout}");
    assert!(stdout.contains("metamess_pipeline_stage_last_micros"), "{stdout}");

    // stats --prometheus: exposition format with TYPE lines and buckets
    let (ok, stdout, stderr) = run(&["stats", store_s, "--prometheus"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("# TYPE metamess_search_queries_total counter"), "{stdout}");
    assert!(stdout.contains("le=\"+Inf\""), "{stdout}");

    // stats --json: machine-readable, with the expected sections
    let (ok, stdout, stderr) = run(&["stats", store_s, "--json"]);
    assert!(ok, "{stderr}");
    for section in ["\"counters\"", "\"gauges\"", "\"histograms\""] {
        assert!(stdout.contains(section), "missing {section} in: {stdout}");
    }

    // stats --reset: snapshot gone; a fresh stats call falls back to the
    // ledger-derived gauges only
    let (ok, stdout, stderr) = run(&["stats", store_s, "--reset"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("reset"), "{stdout}");
    assert!(!store.join("state").join("telemetry.json").exists());
    let (ok, stdout, _) = run(&["stats", store_s]);
    assert!(ok);
    assert!(!stdout.contains("metamess_search_queries_total"), "{stdout}");

    // wrangle --explain on an unchanged archive prints the live registry:
    // one cycle, skipped before any stage, over a walk of the archive
    let (ok, stdout, stderr) = run(&["wrangle", dir_s, "--expert", "--explain"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("archive unchanged"), "{stdout}");
    assert!(stdout.contains("counters"), "{stdout}");
    let skipped = stdout.lines().find(|l| l.contains("metamess_ingest_cycles_skipped_total"));
    assert!(skipped.is_some_and(|l| l.ends_with(" 1")), "{stdout}");
    assert!(stdout.contains("metamess_harvest_files_read_total"), "{stdout}");
}

/// A re-wrangle of an unchanged archive publishes nothing: the store's files
/// keep their bytes and mtimes and the generation stands, so a live `serve`
/// has nothing to reload and keeps its cache. Nor does it rewrite the state:
/// the state names the archive its last cycle wrangled.
#[test]
fn rewrangling_an_unchanged_archive_leaves_the_store_as_it_was() {
    let dir = std::env::temp_dir().join(format!("metamess-cli-rewrangle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();
    run(&["generate", dir_s, "--months", "1", "--stations", "1"]);
    let (ok, _, stderr) = run(&["wrangle", dir_s]);
    assert!(ok, "{stderr}");
    let store = dir.join(".metamess");
    let files = ["catalog/snapshot.bin", "catalog/wal.log", "vocabulary.json", "state/state.bin"]
        .map(|f| store.join(f));
    let look = || {
        let generation = read_published(store.join("catalog")).unwrap().generation;
        let bytes = files.each_ref().map(|f| std::fs::read(f).unwrap());
        let mtimes = files.each_ref().map(|f| std::fs::metadata(f).unwrap().modified().unwrap());
        (generation, bytes, mtimes)
    };
    let before = look();
    // a rewrite now would show in the mtimes even on a coarse clock
    std::thread::sleep(std::time::Duration::from_millis(50));
    let (ok, stdout, stderr) = run(&["wrangle", dir_s]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("resuming from"), "{stdout}");
    assert!(stdout.contains("published"), "{stdout}");
    let after = look();
    assert_eq!(after.0, before.0, "the generation moved");
    for (ix, f) in files.iter().enumerate() {
        assert!(after.1[ix] == before.1[ix], "{} was rewritten", f.display());
        assert_eq!(after.2[ix], before.2[ix], "{} was touched", f.display());
    }
}

/// A state image written before every run executed every stage: its ledger
/// gives each stage the digest of its inputs and the run that last executed
/// it. The image is the one a wrangle writes, with its ledger re-encoded in
/// that older form and framed again.
fn rewrite_in_the_per_stage_digest_form(state: &std::path::Path) -> Vec<u8> {
    use metamess::core::store::{crc32, read_state, std_vfs};
    let image = read_state(std_vfs().as_ref(), state).unwrap().expect("a state image");
    let json = serde_json::to_string(&image.ledger).unwrap();
    let mut ledger = String::new();
    for (ix, piece) in json.split(r#"{"micros":"#).enumerate() {
        match piece.split_once('}') {
            Some((micros, rest)) if ix > 0 => ledger.push_str(&format!(
                r#"{{"input_digest":{},"micros":{micros},"last_run":{}}}{rest}"#,
                0x9e37_79b9_u64 * ix as u64,
                image.ledger.run_id
            )),
            _ => ledger.push_str(piece),
        }
    }
    assert_eq!(ledger.matches("input_digest").count(), image.ledger.stages.len(), "{ledger}");
    let mut payload = (ledger.len() as u32).to_le_bytes().to_vec();
    payload.extend_from_slice(ledger.as_bytes());
    payload.extend_from_slice(&(image.curation.len() as u32).to_le_bytes());
    payload.extend_from_slice(&image.curation);
    let mut bytes = b"MMSTATE2".to_vec();
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    std::fs::write(state, &bytes).unwrap();
    bytes
}

#[test]
fn a_state_with_per_stage_digests_resumes_and_runs_no_cycle() {
    let dir = std::env::temp_dir().join(format!("metamess-cli-older-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();
    run(&["generate", dir_s, "--months", "1", "--stations", "1"]);
    let (ok, _, stderr) = run(&["wrangle", dir_s]);
    assert!(ok, "{stderr}");
    let store = dir.join(".metamess");
    let state = store.join("state").join("state.bin");
    let older = rewrite_in_the_per_stage_digest_form(&state);

    // the older ledger resumes: the archive is the one it names, so the
    // wrangle runs no cycle and writes no state
    let (ok, stdout, stderr) = run(&["wrangle", dir_s]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("resuming from"), "{stdout}");
    assert!(stdout.contains("no stage ran"), "{stdout}");
    assert!(std::fs::read(&state).unwrap() == older, "the state was rewritten");
    assert!(!store.join("state").join("quarantine").exists(), "the state was quarantined");

    // and its per-stage timings are still the stage gauges
    let (ok, stdout, stderr) = run(&["stats", store.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    for stage in ["scan-archive", "validate", "publish"] {
        let gauge = format!("metamess_pipeline_stage_last_micros{{stage=\"{stage}\"}}");
        assert!(stdout.contains(&gauge), "{gauge} missing: {stdout}");
    }
}

/// fsck on a real wrangled store: clean pass, then three hand-corrupted
/// artifacts (WAL record, snapshot header, state image CRC) detected, reported
/// as JSON, and quarantined/truncated by --repair.
#[test]
fn fsck_detects_and_repairs_corruption() {
    let dir = std::env::temp_dir().join(format!("metamess-cli-fsck-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();
    run(&["generate", dir_s, "--months", "1", "--stations", "1"]);
    let (ok, _, stderr) = run(&["wrangle", dir_s]);
    assert!(ok, "{stderr}");
    let store = dir.join(".metamess");
    let store_s = store.to_str().unwrap();

    // a freshly wrangled store is clean, and the catalog is its only copy
    // of what was published
    let (ok, stdout, stderr) = run(&["fsck", store_s]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
    assert!(!store.join("state").join("published.bin").exists());
    assert!(!stdout.contains("state/published"), "{stdout}");
    // the resume state is one image
    assert!(store.join("state").join("state.bin").exists());
    for gone in ["working.bin", "ledger.bin", "vocabulary.json", "curation.json"] {
        assert!(!store.join("state").join(gone).exists(), "state/{gone}");
    }

    // corrupt a WAL record: append garbage that can never frame-decode
    let wal = store.join("catalog").join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0x01]);
    std::fs::write(&wal, &bytes).unwrap();
    // corrupt the snapshot header: break the magic
    let snap = store.join("catalog").join("snapshot.bin");
    let mut bytes = std::fs::read(&snap).unwrap();
    bytes[0] ^= 0xff;
    std::fs::write(&snap, &bytes).unwrap();
    // corrupt the state image: flip a payload byte so its CRC mismatches
    let state = store.join("state").join("state.bin");
    let mut bytes = std::fs::read(&state).unwrap();
    let ix = bytes.len() - 2;
    bytes[ix] ^= 0x08;
    std::fs::write(&state, &bytes).unwrap();

    // unrepaired damage → nonzero exit, findings on stdout
    let (ok, stdout, stderr) = run(&["fsck", store_s]);
    assert!(!ok);
    assert!(stderr.contains("unrepaired"), "{stderr}");
    assert!(stdout.contains("ERROR"), "{stdout}");
    assert!(stdout.contains("crc mismatch"), "{stdout}");
    assert!(stdout.contains("bad magic"), "{stdout}");

    // --json is machine-readable and still exits nonzero
    let (ok, stdout, _) = run(&["fsck", store_s, "--json"]);
    assert!(!ok);
    let report: serde_json::Value = serde_json::from_str(&stdout).expect("valid json");
    assert!(report["findings"].as_array().unwrap().len() >= 3, "{stdout}");

    // --repair: damaged tail truncated, corrupt files quarantined
    let (ok, stdout, stderr) = run(&["fsck", store_s, "--repair"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("repaired"), "{stdout}");
    let quarantine = store.join("state").join("quarantine");
    assert!(quarantine.exists());
    assert!(quarantine.join("snapshot.bin.0").exists());
    assert!(quarantine.join("snapshot.bin.0.reason.json").exists());
    assert!(quarantine.join("state.bin.0").exists());
    assert!(!state.exists());
    // the WAL survived: its damaged tail was truncated in place
    assert!(wal.exists());

    // after repair the store is clean again and still searchable
    let (ok, stdout, stderr) = run(&["fsck", store_s]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
    let (ok, _, stderr) = run(&["search", store_s, "with", "water_temperature"]);
    assert!(ok, "{stderr}");
}

/// A snapshot payload format 4 wrote, the one its codec golden test
/// pinned: two datasets whose variables carry a fourth number, Welford's
/// `m2`.
const FORMAT_4_PAYLOAD: &str = concat!(
    "0400100873617475726e303103637376167072696e636970616c5f696e76657374696761746f72064d65676c",
    "65720641546173746e0b66696e6765727072696e741177617465725f74656d70657261747572650464656743",
    "0763656c7369757305776174657208706879736963616c0b74656d70657261747572650871615f6c6576656c",
    "000773746174696f6e066f666673657404040f530506070809030a0b060c002c000e0000000f000000030107",
    "617263686976650373696d02776e3803bbd25d20136372756973652f63312f63617374332e63646c1b636173",
    "74206174206372756973652f63312f63617374332e63646cf700f13892c204c99b01a80fffc50a80b2f4b309",
    "ac02efcdab89674523018096010301010203020030039235f115abaaaaaaaa2a2540abaaaaaaaa12564002ae",
    "0201c000000000000000f07f000000000000f0ff00000000680277578a05ca43076f64642e637376076f6464",
    "2e6373761ae1390b6a20df63fa5ec000000000000000000000000d000302c000000000000000f07f00000000",
    "0000f0ff0000000003c001000000000000008000000000000000800000000001c000000000000000f07f0000",
    "00000000f0ff00000007",
);

/// Runs `args`, which must exit within 20 s: a command that took an
/// unreadable store for a readable one would serve it until killed.
fn run_bounded(args: &[&str]) -> (bool, String) {
    let mut child = Command::new(bin())
        .args(args)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while child.try_wait().unwrap().is_none() {
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            panic!("{args:?} still running after 20 s");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let out = child.wait_with_output().unwrap();
    (out.status.success(), String::from_utf8_lossy(&out.stderr).to_string())
}

/// A snapshot payload format 5 wrote, the one its codec golden test
/// pinned: two datasets whose rows write their ids and whole paths, and
/// whose variables write their totals.
const FORMAT_5_PAYLOAD: &str = concat!(
    "0500100873617475726e303103637376167072696e636970616c5f696e76657374696761746f72064d65676c",
    "65720641546173746e0b66696e6765727072696e741177617465725f74656d70657261747572650464656743",
    "0763656c7369757305776174657208706879736963616c0b74656d70657261747572650871615f6c6576656c",
    "000773746174696f6e066f666673657404040f530506070809030a0b060c002c000e0000000f000000030107",
    "617263686976650373696d02776e3803bbd25d20136372756973652f63312f63617374332e63646c1b636173",
    "74206174206372756973652f63312f63617374332e63646cf700f13892c204c99b01a80fffc50a80b2f4b309",
    "ac02efcdab89674523018096010301010203020030039235f115abaaaaaaaa2a254002ae0201400000000000",
    "0000f07f000000000000f0ff000000680277578a05ca43076f64642e637376076f64642e6373761ae1390b6a",
    "20df63fa5ec000000000000000000000000d0003024000000000000000f07f000000000000f0ff0000000340",
    "0100000000000000800000000000000080000000014000000000000000f07f000000000000f0ff000007",
);

/// A store format 4 wrote is refused by name by its readers, and `fsck
/// --repair` sets none of it aside: the files are whole, only older.
#[test]
fn a_format_4_store_is_refused_by_name_and_left_as_it_was() {
    refused_by_name_and_left_as_it_was(4, FORMAT_4_PAYLOAD);
}

/// A store format 5 wrote, whose rows format 6 would read otherwise, is
/// refused alike.
#[test]
fn a_format_5_store_is_refused_by_name_and_left_as_it_was() {
    refused_by_name_and_left_as_it_was(5, FORMAT_5_PAYLOAD);
}

/// Puts a catalog of `format` in a wrangled store, as that format left it:
/// a snapshot whose payload is `payload_hex` and an emptied log. `search`
/// and `serve` refuse it by name, `fsck` and `fsck --repair` report it and
/// repair nothing, and the files stay byte for byte.
fn refused_by_name_and_left_as_it_was(format: u8, payload_hex: &str) {
    let dir =
        std::env::temp_dir().join(format!("metamess-cli-format{format}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();
    run(&["generate", dir_s, "--months", "1", "--stations", "1"]);
    let (ok, _, stderr) = run(&["wrangle", dir_s]);
    assert!(ok, "{stderr}");
    let store = dir.join(".metamess");
    let store_s = store.to_str().unwrap();
    let payload: Vec<u8> = (0..payload_hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&payload_hex[i..i + 2], 16).unwrap())
        .collect();
    let mut snapshot = format!("MMSNAP0{format}").into_bytes();
    snapshot.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    snapshot.extend_from_slice(&metamess::core::store::crc32(&payload).to_le_bytes());
    snapshot.extend_from_slice(&payload);
    let files = [
        (store.join("catalog/snapshot.bin"), snapshot),
        (store.join("catalog/wal.log"), format!("MMWAL00{format}").into_bytes()),
    ];
    for (path, bytes) in &files {
        std::fs::write(path, bytes).unwrap();
    }
    let named = format!("store format {format}; re-wrangle, this build reads format 6");
    for args in [
        &["search", store_s, "with", "salinity"][..],
        &["serve", store_s, "--addr", "127.0.0.1:0", "--workers", "1"],
    ] {
        let (ok, stderr) = run_bounded(args);
        assert!(!ok && stderr.contains(&named), "{args:?}: {stderr}");
    }
    for args in [&["fsck", store_s][..], &["fsck", store_s, "--repair"]] {
        let (ok, stdout, stderr) = run(args);
        assert!(!ok, "{args:?}");
        assert_eq!(stdout.matches(&named).count(), 2, "{args:?}: {stdout}");
        assert!(stdout.contains("0 repair(s) applied"), "{args:?}: {stdout}");
        // the last line names the format, not damage
        let last = stderr.lines().last().unwrap_or_default();
        assert!(last.contains(&named) && !last.contains("corrupt"), "{args:?}: {stderr}");
    }
    for (path, bytes) in &files {
        assert!(
            std::fs::read(path).unwrap() == *bytes,
            "{} was moved or rewritten",
            path.display()
        );
    }
    assert!(!store.join("state/quarantine").exists());
}

/// Sharded search through the CLI: identical bytes to unsharded output,
/// clamped shard counts, shard telemetry in `stats`, and `--partition`
/// refused as an unknown flag.
#[test]
fn sharded_search_cli() {
    let dir = std::env::temp_dir().join(format!("metamess-cli-shard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();
    run(&["generate", dir_s, "--months", "3", "--stations", "4"]);
    let (ok, _, stderr) = run(&["wrangle", dir_s, "--expert"]);
    assert!(ok, "{stderr}");
    let store = dir.join(".metamess");
    let store_s = store.to_str().unwrap();

    // scatter-gather is invisible in the results: byte-identical stdout,
    // but for the `trace: <id> (<µs>)` line every run draws anew
    let results = |stdout: String| -> String {
        stdout.lines().filter(|l| !l.starts_with("trace: ")).map(|l| format!("{l}\n")).collect()
    };
    let query = ["near", "46.2,-123.9", "within", "50km", "with", "salinity", "limit", "5"];
    let mut unsharded = vec!["search", store_s];
    unsharded.extend_from_slice(&query);
    let (ok, baseline, stderr) = run(&unsharded);
    assert!(ok, "{stderr}");
    let baseline = results(baseline);
    assert!(baseline.contains("1. ["), "{baseline}");
    for shards in ["2", "4", "8"] {
        let mut sharded = vec!["search", store_s, "--shards", shards];
        sharded.extend_from_slice(&query);
        let (ok, stdout, stderr) = run(&sharded);
        assert!(ok, "{stderr}");
        assert_eq!(results(stdout), baseline, "--shards {shards} changed the results");
    }

    // --shards 0 means "unsharded" (clamped to 1), not an error
    let mut clamped = vec!["search", store_s, "--shards", "0"];
    clamped.extend_from_slice(&query);
    let (ok, stdout, stderr) = run(&clamped);
    assert!(ok, "{stderr}");
    assert_eq!(results(stdout), baseline);

    // --explain reports the shard fan-out when sharded
    let mut explain = vec!["search", store_s, "--shards", "4", "--explain"];
    explain.extend_from_slice(&query);
    let (ok, stdout, stderr) = run(&explain);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("shards"), "{stdout}");

    // the searches above recorded shard telemetry into the store
    let (ok, stdout, stderr) = run(&["stats", store_s]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("metamess_search_shards_visited_total"), "{stdout}");

    // hash is the only layout: `--partition` is an unknown flag, whatever
    // its value
    for partition in ["hash", "zodiac"] {
        let args = ["search", store_s, "--shards", "2", "--partition", partition, "x"];
        let (ok, _, stderr) = run(&args);
        assert!(!ok);
        assert!(stderr.contains("has no flag --partition"), "{stderr}");
    }
}

#[test]
fn telemetry_can_be_disabled() {
    let dir = std::env::temp_dir().join(format!("metamess-cli-notelem-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();
    let run_env = |args: &[&str]| {
        let out = Command::new(bin())
            .args(args)
            .env("METAMESS_TELEMETRY", "0")
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    run_env(&["generate", dir_s, "--months", "1", "--stations", "1"]);
    run_env(&["wrangle", dir_s]);
    let store = dir.join(".metamess");
    // disabled runs record nothing, so no telemetry or trace file is
    // written
    assert!(!store.join("state").join("telemetry.json").exists());
    assert!(!store.join("state").join("traces.json").exists());
    // --explain still works: phase timings are measured independently
    let stdout = run_env(&["search", store.to_str().unwrap(), "with", "salinity", "--explain"]);
    assert!(stdout.contains("phase breakdown"), "{stdout}");
}

#[test]
fn cli_errors_are_clean() {
    // no args → usage on stderr, exit code 2
    let out = Command::new(bin()).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    // unknown store dir → an empty store is created on open; search simply
    // returns no results
    let empty_store =
        std::env::temp_dir().join(format!("metamess-cli-empty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&empty_store);
    let (ok, stdout, stderr) = run(&["search", empty_store.to_str().unwrap(), "with", "salinity"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("no results"), "{stdout}");

    // bad query → clean error
    let dir = workdir();
    let dir_s = dir.to_str().unwrap();
    run(&["generate", dir_s, "--months", "1", "--stations", "1"]);
    run(&["wrangle", dir_s]);
    let store = dir.join(".metamess");
    let (ok, _, stderr) = run(&["search", store.to_str().unwrap(), "frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("error"), "{stderr}");

    // missing dataset in summary → clean error
    let (ok, _, stderr) = run(&["summary", store.to_str().unwrap(), "nope.csv"]);
    assert!(!ok);
    assert!(stderr.contains("not found"), "{stderr}");

    // --help is generated from the flag table: stdout, exit 0
    let out = Command::new(bin()).arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage"));
    let (ok, stdout, stderr) = run(&["fsck", "--help"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("--repair"), "{stdout}");

    // a misspelt flag, or a flag where the store belongs, is refused by name
    let store_s = store.to_str().unwrap();
    for (args, flag) in [
        (&["fsck", store_s, "--repiar"][..], "--repiar"),
        (&["search", store_s, "--shard", "4", "with", "salinity"], "--shard"),
        (&["search", "--explain", store_s, "with", "salinity"], "--explain"),
    ] {
        let (ok, _, stderr) = run(args);
        assert!(!ok, "{args:?} succeeded");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
    // …before anything is written
    let unwritten = dir.with_extension("seeds");
    let (ok, _, stderr) = run(&["generate", unwritten.to_str().unwrap(), "--seeds", "5"]);
    assert!(!ok);
    assert!(stderr.contains("--seeds"), "{stderr}");
    assert!(!unwritten.exists());
}
