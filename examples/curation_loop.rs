//! The four curatorial activities, end to end: compose the process, run and
//! rerun it, improve it between runs, and validate the results — watching
//! "the mess that's left" shrink each iteration.
//!
//! ```text
//! cargo run --example curation_loop
//! ```

use metamess::pipeline::Severity;
use metamess::prelude::*;

fn main() {
    let archive = metamess::archive::generate(&ArchiveSpec::default());
    let truth = archive.truth.clone();
    let mut ctx = PipelineContext::new(
        ArchiveInput::Memory(archive.files),
        Vocabulary::observatory_default(),
    );
    // Curatorial expectation: every known dataset must show up.
    ctx.expected_datasets = truth.datasets.iter().map(|d| d.path.clone()).collect();

    // Activity 1: create the process from composable components.
    let mut pipeline = Pipeline::standard();
    println!("process chain: {}\n", pipeline.component_names().join(" -> "));

    // Activity 3's domain knowledge: the hand-entered synonym table rows a
    // curator accumulates (simulated from the archive's ad-hoc spellings).
    let manual: Vec<(String, String)> = [
        "air_temperature",
        "water_temperature",
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
    ]
    .iter()
    .flat_map(|c| {
        metamess::archive::adhoc_synonyms(c).iter().map(move |v| (c.to_string(), v.to_string()))
    })
    .collect();

    // Activities 2 + 3: run, review, improve, rerun — to a fixpoint.
    let policy = CuratorPolicy { manual_synonyms: manual, ..CuratorPolicy::default() };
    let curator = CurationLoop::new(policy);
    let (history, last_run) =
        curator.run_to_fixpoint(&mut pipeline, &mut ctx).expect("loop converges");

    println!("curation history (the shrinking mess):");
    println!(
        "  {:<5} {:>9} {:>9} {:>10} {:>11} {:>10}",
        "iter", "reviewed", "accepted", "clarified", "unresolved", "resolved"
    );
    for s in &history {
        println!(
            "  {:<5} {:>9} {:>9} {:>10} {:>11} {:>9.1}%",
            s.iteration,
            s.reviewed,
            s.accepted,
            s.clarified,
            s.unresolved_after,
            100.0 * s.resolution_after
        );
    }

    println!("\nfinal run:");
    print!("{}", last_run.render());

    // Activity 4: validation findings after the final run.
    let errors = ctx.findings.iter().filter(|f| f.severity == Severity::Error).count();
    let warnings = ctx.findings.len() - errors;
    println!("\nvalidation: {errors} errors, {warnings} warnings");
    for f in ctx.findings.iter().take(8) {
        println!("  [{:?}] {}: {}", f.severity, f.rule, f.message);
    }
    if ctx.findings.len() > 8 {
        println!("  ... and {} more", ctx.findings.len() - 8);
    }

    println!(
        "\nvocabulary grew to version {} with {} preferred terms and {} alternates",
        ctx.vocab.version,
        ctx.vocab.synonyms.len(),
        ctx.vocab.synonyms.alternate_count()
    );

    // Score the outcome against the generator's ground truth.
    let mut correct = 0usize;
    let mut total = 0usize;
    for td in &truth.datasets {
        let Some(d) = ctx.catalog.get_by_path(&td.path) else { continue };
        for tv in &td.variables {
            if ["time", "lat", "lon"].contains(&tv.harvested.as_str()) {
                continue;
            }
            let Some(v) = d.variable(&tv.harvested) else { continue };
            total += 1;
            let ok = if tv.qa {
                v.flags.qa
            } else {
                v.canonical_name.as_deref() == Some(tv.canonical.as_str()) || v.flags.ambiguous
                // exposed to the curator counts as handled
            };
            if ok {
                correct += 1;
            }
        }
    }
    println!(
        "ground-truth agreement: {correct}/{total} variables ({:.1}%)",
        100.0 * correct as f64 / total.max(1) as f64
    );
}
