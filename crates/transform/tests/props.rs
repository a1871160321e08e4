//! Seeded sweeps over the GREL engine and Refine-rule application: each
//! property runs on `CASES` generators; a failure names its seed.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use common::{printable, sweep, Rng, ALPHA, DIGITS, IDENT, LOWER};
use metamess_core::value::{Record, Value};
use metamess_transform::grel::{eval, lex, parse, EvalContext};
use metamess_transform::{apply_operations, operations_to_json, parse_operations, Operation};

const CASES: u64 = 256;

/// One row per value, each holding it under `field`.
fn table(values: &[String]) -> Vec<Record> {
    values
        .iter()
        .map(|v| {
            let mut r = Record::new();
            r.set("field", v.clone());
            r
        })
        .collect()
}

#[test]
fn lexer_never_panics() {
    sweep(CASES, |rng| {
        let _ = lex(&rng.text(0, 60));
    });
}

#[test]
fn parser_never_panics() {
    sweep(CASES, |rng| {
        let _ = parse(&rng.text(0, 60));
    });
}

#[test]
fn eval_never_panics_on_random_strings() {
    let grel = format!("{ALPHA}{DIGITS}_.,()'[] +*/<>=!&|-");
    sweep(CASES, |rng| {
        let src = rng.string(&grel, 0, 40);
        let cell = rng.string(&printable(), 0, 16);
        if let Ok(expr) = parse(&src) {
            let _ = eval(&expr, &EvalContext::of_value(&Value::sniff(&cell)));
        }
    });
}

#[test]
fn string_builtins_total_on_any_value() {
    // the core cleanup chain must succeed on every conceivable cell
    let expr = parse("value.trim().toLowercase().replace('_', ' ')").unwrap();
    let total = |cell: String| {
        for v in [Value::sniff(&cell), Value::Text(cell.clone()), Value::Null] {
            let out = eval(&expr, &EvalContext::of_value(&v)).unwrap();
            assert!(matches!(out, Value::Text(_)));
        }
    };
    // the case proptest once shrank a failure to
    total("0  00  aaΣ".to_string());
    sweep(CASES, |rng| total(rng.text(0, 24)));
}

#[test]
fn fingerprint_expression_is_idempotent() {
    let expr = parse("value.fingerprint()").unwrap();
    sweep(CASES, |rng| {
        let v = Value::Text(rng.string(&printable(), 0, 24));
        let once = eval(&expr, &EvalContext::of_value(&v)).unwrap();
        let twice = eval(&expr, &EvalContext::of_value(&once)).unwrap();
        assert_eq!(once, twice);
    });
}

#[test]
fn mass_edit_moves_exactly_matching_cells() {
    sweep(CASES, |rng| {
        let values = rng.vec(1, 30, |rng| rng.string(IDENT, 1, 10));
        let target = rng.pick(&values).clone();
        let mut rows = table(&values);
        let op = Operation::mass_edit("field", vec![target.clone()], "CANON");
        let expected = values.iter().filter(|v| **v == target).count() as u64;
        let report = apply_operations(&mut rows, &[op]).unwrap();
        assert_eq!(report.total_changed(), expected);
        for (v, row) in values.iter().zip(rows.iter()) {
            let now = row.get("field").unwrap().render().into_owned();
            assert_eq!(now, if *v == target { "CANON" } else { v });
        }
    });
}

#[test]
fn operations_json_round_trip() {
    sweep(CASES, |rng| {
        let ops: Vec<Operation> = rng.vec(1, 8, |rng: &mut Rng| {
            let from = rng.string(LOWER, 1, 8);
            Operation::mass_edit("field", vec![from], &rng.string(&format!("{LOWER} "), 1, 12))
        });
        let back = parse_operations(&operations_to_json(&ops)).unwrap();
        assert_eq!(back, ops);
    });
}

#[test]
fn text_transform_trim_idempotent_over_table() {
    sweep(CASES, |rng| {
        let mut rows = table(&rng.vec(1, 20, |rng| rng.string(&format!(" {IDENT}"), 0, 12)));
        let op = Operation::text_transform("field", "value.trim()");
        apply_operations(&mut rows, std::slice::from_ref(&op)).unwrap();
        let snapshot = rows.clone();
        let second = apply_operations(&mut rows, &[op]).unwrap();
        assert_eq!(second.total_changed(), 0);
        assert_eq!(rows, snapshot);
    });
}
