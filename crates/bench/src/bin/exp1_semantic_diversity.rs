//! **E1 — Table: Categories of Semantic Diversity, and Possible Approaches.**
//!
//! Regenerates the poster's table with measured columns: for each of the
//! seven categories, the number of injected occurrences in the synthetic
//! archive, the technical approach the system applied, and the measured
//! precision/recall of that approach against ground truth.
//!
//! ```text
//! cargo run --release -p metamess-bench --bin exp1_semantic_diversity
//! ```

use metamess_archive::{ArchiveSpec, MessCategory};
use metamess_bench::{pct, score_against_truth, wrangle_archive};

fn approach(cat: MessCategory) -> &'static str {
    match cat {
        MessCategory::Clean => "leave as is",
        MessCategory::Misspelling => "translate current to desired name (discovered)",
        MessCategory::Synonym => "translate current to desired name (table + discovered)",
        MessCategory::Abbreviation => "translate current to desired name (initial expansion)",
        MessCategory::Excessive => "mark variables; exclude from search",
        MessCategory::Ambiguous => "identify and expose; curator clarifies by context",
        MessCategory::SourceContext => "specify context of variable (context rules)",
        MessCategory::MultiLevel => "group variables; hierarchical menus",
    }
}

fn example(cat: MessCategory) -> &'static str {
    match cat {
        MessCategory::Clean => "salinity",
        MessCategory::Misspelling => "air_temperatrue, airtemp",
        MessCategory::Synonym => "h2o_temp, salt (cf. C, degC, Centigrade)",
        MessCategory::Abbreviation => "ATastn (cf. MWHLA)",
        MessCategory::Excessive => "qa_level, battery_voltage",
        MessCategory::Ambiguous => "temp: temporary or temperature?",
        MessCategory::SourceContext => "temperature: air or water, by source",
        MessCategory::MultiLevel => "fluorescence vs fluores375/fluores400",
    }
}

fn main() {
    let spec = ArchiveSpec::default();
    println!("E1: Categories of Semantic Diversity (archive seed {})\n", spec.seed);
    let (ctx, truth) = wrangle_archive(&spec);
    let scores = score_against_truth(&ctx.catalog, &truth);

    println!(
        "{:<42} {:<44} {:>8} {:>8} {:>7} {:>9} {:>9}",
        "category", "approach applied", "injected", "correct", "wrong", "recall", "precision"
    );
    let order = [
        MessCategory::Misspelling,
        MessCategory::Synonym,
        MessCategory::Abbreviation,
        MessCategory::Excessive,
        MessCategory::Ambiguous,
        MessCategory::SourceContext,
        MessCategory::MultiLevel,
        MessCategory::Clean,
    ];
    for cat in order {
        let Some(s) = scores.get(&cat) else { continue };
        println!(
            "{:<42} {:<44} {:>8} {:>8} {:>7} {:>9} {:>9}",
            cat.name(),
            approach(cat),
            s.injected,
            s.correct,
            s.wrong,
            pct(s.recall()),
            pct(s.precision())
        );
        println!("{:<42}   e.g. {}", "", example(cat));
    }

    let total_injected: usize = scores.values().map(|s| s.injected).sum::<usize>();
    let total_correct: usize = scores.values().map(|s| s.correct).sum::<usize>();
    println!(
        "\noverall: {total_correct}/{total_injected} variable occurrences handled correctly ({})",
        pct(total_correct as f64 / total_injected.max(1) as f64)
    );
    println!("final catalog resolution: {}", pct(ctx.catalog.resolution_fraction()));
}
