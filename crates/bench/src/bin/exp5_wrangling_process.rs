//! **E5 — Figure: The Metadata Wrangling Process.**
//!
//! Reproduces the poster's two-panel process figure as measurements:
//!
//! * left panel — the chain *without* discovery (known transformations
//!   only), showing how much mess the translation table leaves;
//! * right panel — the full chain with discover/perform-discovered,
//!   showing "the mess that's left" shrinking stage by stage;
//! * plus the rerun economics of curatorial activity 2 (full scan vs
//!   incremental rescan, and a watch cycle over an unchanged archive).
//!
//! ```text
//! cargo run --release -p metamess-bench --bin exp5_wrangling_process
//! ```

use metamess_archive::{generate, ArchiveSpec};
use metamess_bench::{domain_knowledge, pct};
use metamess_pipeline::{
    ArchiveInput, CurationLoop, CuratorPolicy, Pipeline, PipelineContext, RunReport, WatchOptions,
    Watcher,
};
use metamess_vocab::Vocabulary;
use std::time::Instant;

fn fresh_ctx(spec: &ArchiveSpec) -> PipelineContext {
    let archive = generate(spec);
    PipelineContext::new(ArchiveInput::Memory(archive.files), Vocabulary::observatory_default())
}

fn main() {
    let spec = ArchiveSpec::default();
    println!("E5: the metadata wrangling process, stage by stage\n");

    // Left panel: known transformations only.
    let mut ctx = fresh_ctx(&spec);
    let report = Pipeline::known_only().run(&mut ctx).expect("runs");
    println!("panel 1 — known transformations only:");
    print!("{}", report.render());
    let known_only_resolution = report.stages.last().unwrap().resolution_after;
    println!(
        "the mess that's left after known transformations: {}\n",
        pct(1.0 - known_only_resolution)
    );

    // Right panel: the full chain with discovery, curated to fixpoint.
    let mut ctx = fresh_ctx(&spec);
    let mut pipeline = Pipeline::standard();
    let policy = CuratorPolicy { manual_synonyms: domain_knowledge(), ..Default::default() };
    let curator = CurationLoop::new(policy);
    let (history, last) = curator.run_to_fixpoint(&mut pipeline, &mut ctx).expect("converges");
    println!("panel 2 — full chain with discovered transformations (final run):");
    print!("{}", last.render());
    println!("\nmess remaining per curation iteration:");
    println!("{:>6} {:>12} {:>12}", "iter", "unresolved", "mess left");
    for s in &history {
        println!(
            "{:>6} {:>12} {:>12}",
            s.iteration,
            s.unresolved_after,
            pct(1.0 - s.resolution_after)
        );
    }
    let full_resolution = history.last().unwrap().resolution_after;
    println!(
        "\nknown-only resolved {} vs full process {} — discovery + curation closed {} of the gap",
        pct(known_only_resolution),
        pct(full_resolution),
        pct((full_resolution - known_only_resolution) / (1.0 - known_only_resolution).max(1e-9))
    );

    // Rerun economics: full first run vs no-change rerun vs one-file change.
    // Every run executes every stage; the scan re-parses only the files
    // whose content moved and reuses the rest.
    println!("\nrerun cost (curatorial activity 2), on-disk archive:");
    let dir = std::env::temp_dir().join(format!("metamess-exp5-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let archive = generate(&spec);
    let archive_dir = dir.join("archive");
    archive.write_to(&archive_dir).expect("write archive");
    let mut ctx = PipelineContext::new(
        ArchiveInput::Dir(archive_dir.clone()),
        Vocabulary::observatory_default(),
    );
    let mut pipeline = Pipeline::standard();
    let timed = |pipeline: &mut Pipeline, ctx: &mut PipelineContext| {
        let t = Instant::now();
        let report = pipeline.run(ctx).expect("runs");
        (report, t.elapsed())
    };
    let (r1, first) = timed(&mut pipeline, &mut ctx);
    let (r2, rerun) = timed(&mut pipeline, &mut ctx);
    // touch one file
    let touch = || {
        let full = archive_dir.join(&archive.truth.datasets[0].path);
        let mut content = std::fs::read_to_string(&full).unwrap();
        content.push('\n');
        std::fs::write(&full, content).unwrap();
    };
    touch();
    let (r3, incr) = timed(&mut pipeline, &mut ctx);
    for (what, r, took) in [
        ("first run:", &r1, first),
        ("no-change rerun:", &r2, rerun),
        ("one-file change:", &r3, incr),
    ] {
        let (parsed, reused) = scan_counts(r);
        println!("  {what:<17} {took:>10.2?}  ({parsed} files parsed, {reused} reused)");
    }

    println!("\nper-stage cold vs incremental (micros):");
    println!("  {:<34} {:>10} {:>12} {:>12}", "stage", "cold", "no-change", "one-file");
    for (ix, s) in r1.stages.iter().enumerate() {
        println!(
            "  {:<34} {:>10} {:>12} {:>12}",
            s.component, s.micros, r2.stages[ix].micros, r3.stages[ix].micros
        );
    }

    // The skip a rerun does get: a watch cycle over an archive its last
    // cycle already wrangled runs no stage.
    println!("\nwatch cycles over the same archive:");
    let mut watcher = Watcher::new(&archive_dir, dir.join("store"), WatchOptions::default())
        .expect("open the watcher");
    let cycles =
        [("cold cycle:", false), ("unchanged archive:", false), ("one-file change:", true)];
    for (what, edit) in cycles {
        if edit {
            touch();
        }
        let c = watcher.run_cycle().expect("a cycle");
        let ran = if c.changed {
            format!("{} curation iteration(s), {} published", c.history.len(), c.mutations)
        } else {
            "skipped: no stage ran".to_string()
        };
        println!("  {what:<19} {:>8.2} ms  ({ran})", c.micros as f64 / 1e3);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The files a run's scan parsed and the ones it reused unparsed.
fn scan_counts(r: &RunReport) -> (u64, u64) {
    let scan = r.stage("scan-archive").expect("the chain scans");
    (scan.changed, scan.processed - scan.changed - scan.errors.len() as u64)
}
