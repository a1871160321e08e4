//! **E7 — Major curatorial activities 1–4: the improvement loop.**
//!
//! Iterated curation: each iteration the scripted curator reviews discovery
//! proposals, clarifies ambiguities, expands abbreviations, (optionally)
//! enters hand-known synonyms, and reruns the process — tracking the
//! unresolved-name count per iteration until fixpoint, under three curator
//! profiles.
//!
//! ```text
//! cargo run --release -p metamess-bench --bin exp7_curation_loop
//! ```

use metamess_archive::{generate, ArchiveSpec};
use metamess_bench::{domain_knowledge, pct};
use metamess_pipeline::{ArchiveInput, CurationLoop, CuratorPolicy, Pipeline, PipelineContext};
use metamess_vocab::Vocabulary;

fn run_profile(name: &str, policy: CuratorPolicy, spec: &ArchiveSpec) {
    let archive = generate(spec);
    let mut ctx = PipelineContext::new(
        ArchiveInput::Memory(archive.files),
        Vocabulary::observatory_default(),
    );
    let mut pipeline = Pipeline::standard();
    let curator = CurationLoop::new(policy);
    let (history, _) = curator.run_to_fixpoint(&mut pipeline, &mut ctx).expect("converges");
    println!("curator profile: {name}");
    println!(
        "  {:>5} {:>9} {:>9} {:>10} {:>11} {:>10} {:>9}",
        "iter", "reviewed", "accepted", "clarified", "unresolved", "mess left", "warnings"
    );
    for s in &history {
        println!(
            "  {:>5} {:>9} {:>9} {:>10} {:>11} {:>10} {:>9}",
            s.iteration,
            s.reviewed,
            s.accepted,
            s.clarified,
            s.unresolved_after,
            pct(1.0 - s.resolution_after),
            s.warnings
        );
    }
    println!(
        "  converged after {} iteration(s); vocabulary v{} with {} alternates\n",
        history.len(),
        ctx.vocab.version,
        ctx.vocab.synonyms.alternate_count()
    );
}

fn main() {
    let spec = ArchiveSpec::default();
    println!("E7: the curation loop under three curator profiles\n");

    run_profile(
        "conservative (confidence >= 0.75, no manual entries)",
        CuratorPolicy { min_confidence: 0.75, ..CuratorPolicy::default() },
        &spec,
    );
    run_profile(
        "default (confidence >= 0.55, auto-abbreviations, context clarification)",
        CuratorPolicy::default(),
        &spec,
    );
    run_profile(
        "expert (default + hand-entered domain synonym table)",
        CuratorPolicy { manual_synonyms: domain_knowledge(), ..CuratorPolicy::default() },
        &spec,
    );
}
