//! Google Refine compatibility: the poster's exported JSON rules must parse,
//! round-trip, and execute against catalog-derived metadata.

use metamess::core::{Record, Value};
use metamess::prelude::*;
use metamess::transform::{apply_operations, operations_to_json};

/// The poster's figure, completed into a valid operation-history export.
const POSTER_RULE: &str = r#"[
  { "op": "core/mass-edit",
    "description": "Mass edit cells in column field",
    "engineConfig": { "facets": [], "mode": "row-based" },
    "columnName": "field",
    "expression": "value",
    "edits": [ {
        "fromBlank": false,
        "fromError": false,
        "from": [ "ATastn" ],
        "to": "sea surface temperature" } ] }
]"#;

#[test]
fn poster_rule_applies_to_wrangled_catalog_export() {
    // Build a working catalog with an ATastn column in it.
    let archive = metamess::archive::generate(&ArchiveSpec::default());
    let mut ctx = PipelineContext::new(
        ArchiveInput::Memory(archive.files),
        Vocabulary::observatory_default(),
    );
    Pipeline::standard().run(&mut ctx).unwrap();

    // Export the variable facet the way the poster extracts catalog entries
    // to Refine: one row per (dataset, field).
    let mut rows: Vec<Record> = Vec::new();
    for d in ctx.catalog.iter() {
        for v in &d.variables {
            let mut r = Record::new();
            r.set("dataset", d.path.clone());
            r.set("field", v.name.clone());
            rows.push(r);
        }
    }
    // Whether or not this seed's archive happened to emit ATastn, make sure
    // at least one is present so the poster's exact rule has work to do.
    if !rows.iter().any(|r| r.get("field") == Some(&Value::Text("ATastn".into()))) {
        let mut r = Record::new();
        r.set("dataset", "stations/saturn05/2010/07.csv");
        r.set("field", "ATastn");
        rows.push(r);
    }
    let atastn_before =
        rows.iter().filter(|r| r.get("field") == Some(&Value::Text("ATastn".into()))).count();

    let ops = parse_operations(POSTER_RULE).unwrap();
    let report = apply_operations(&mut rows, &ops).unwrap();
    assert_eq!(report.total_changed() as usize, atastn_before);
    assert_eq!(
        rows.iter()
            .filter(|r| r.get("field") == Some(&Value::Text("sea surface temperature".into())))
            .count(),
        atastn_before
    );
}

#[test]
fn exported_discovered_rules_are_valid_refine_json() {
    let archive = metamess::archive::generate(&ArchiveSpec::default());
    let mut ctx = PipelineContext::new(
        ArchiveInput::Memory(archive.files),
        Vocabulary::observatory_default(),
    );
    Pipeline::standard().run(&mut ctx).unwrap();
    assert!(!ctx.proposals.is_empty());

    let ops: Vec<Operation> = ctx.proposals.iter().map(|p| p.operation.clone()).collect();
    let json = operations_to_json(&ops);
    // Refine requires the `op` tag on every entry.
    let raw: serde_json::Value = serde_json::from_str(&json).unwrap();
    for entry in raw.as_array().unwrap() {
        assert_eq!(entry["op"].as_str(), Some("core/mass-edit"));
        assert!(entry["edits"].as_array().is_some());
        assert!(entry["columnName"].as_str().is_some());
    }
    // and it round-trips structurally
    let back = parse_operations(&json).unwrap();
    assert_eq!(back, ops);
}

#[test]
fn unknown_refine_ops_survive_and_are_skipped() {
    let json = r#"[
      {"op": "core/mass-edit", "columnName": "field", "expression": "value",
       "edits": [{"from": ["x"], "to": "y"}]},
      {"op": "core/recon-match-best-candidates", "columnName": "field"},
      {"op": "core/text-transform", "columnName": "field",
       "expression": "grel:value.trim()"}
    ]"#;
    let ops = parse_operations(json).unwrap();
    assert_eq!(ops.len(), 3);
    assert!(!ops[1].is_executable());
    let mut rows = vec![{
        let mut r = Record::new();
        r.set("field", "  x  ");
        r
    }];
    let report = apply_operations(&mut rows, &ops).unwrap();
    assert!(report.ops[1].skipped);
    // trim ran; the mass-edit missed (cell was padded)
    assert_eq!(rows[0].get("field"), Some(&Value::Text("x".into())));
    // round trip keeps all three, including the unknown one
    let back = parse_operations(&operations_to_json(&ops)).unwrap();
    assert_eq!(back.len(), 3);
}

#[test]
fn grel_expressions_from_refine_exports_evaluate() {
    use metamess::transform::grel::{eval, parse, EvalContext};
    // expressions of the shape Refine actually exports
    let cases = [
        ("value.trim().toLowercase()", Value::Text("  Air_Temp ".into()), "air_temp"),
        ("value.replace(' ', '_')", Value::Text("sea surface temp".into()), "sea_surface_temp"),
        ("if(isBlank(value), 'unknown', value)", Value::Null, "unknown"),
        ("value.fingerprint()", Value::Text("Température de l'air".into()), "air de l température"),
    ];
    for (src, input, expect) in cases {
        let e = parse(src).unwrap();
        let got = eval(&e, &EvalContext::of_value(&input)).unwrap();
        assert_eq!(got.render(), expect, "{src}");
    }
}
