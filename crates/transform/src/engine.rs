//! The rule-application engine: "run rules against metadata".
//!
//! Applies a sequence of Refine [`Operation`]s to a table of [`Record`]s —
//! in the paper's workflow, the table is the working catalog's variable list
//! exported one row per variable. Returns per-operation statistics so the
//! curator can validate what each rule touched (curatorial activity 4).

use crate::grel::{eval, parse, EvalContext, Expr};
use crate::ops::{EngineConfig, Operation};
use metamess_core::error::{Error, Result};
use metamess_core::value::{Record, Value};
use serde::{Deserialize, Serialize};

/// Statistics for one applied operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpStats {
    /// Index of the operation in the input sequence.
    pub index: usize,
    /// Operation description (or `"<unknown>"`).
    pub description: String,
    /// Rows the engine config selected.
    pub rows_matched: u64,
    /// Cells actually changed.
    pub cells_changed: u64,
    /// Cells where expression evaluation failed (kept per `onError`).
    pub errors: u64,
    /// Whether the op was skipped (unknown / inert).
    pub skipped: bool,
}

/// Result of applying a rule sequence.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ApplyReport {
    /// Per-operation stats, in application order.
    pub ops: Vec<OpStats>,
}

impl ApplyReport {
    /// Total cells changed across all operations.
    pub fn total_changed(&self) -> u64 {
        self.ops.iter().map(|o| o.cells_changed).sum()
    }
}

/// Strips Refine's optional `grel:` language prefix.
fn strip_lang(expr: &str) -> &str {
    expr.strip_prefix("grel:").unwrap_or(expr).trim()
}

/// True when `record` passes every executable facet of `config`.
fn facets_match(config: &EngineConfig, record: &Record) -> bool {
    for f in &config.facets {
        if f.facet_type != "list" || strip_lang(&f.expression) != "value" {
            continue; // inert facet: no constraint we can execute
        }
        if f.selection.is_empty() {
            continue;
        }
        let cell = record.get(&f.column_name).cloned().unwrap_or(Value::Null);
        let cell_s = cell.render().into_owned();
        let hit = f.selection.iter().any(|c| match &c.v.v {
            serde_json::Value::String(s) => *s == cell_s,
            serde_json::Value::Number(n) => {
                cell.as_f64().is_some_and(|x| n.as_f64().is_some_and(|y| x == y))
            }
            serde_json::Value::Bool(b) => matches!(cell, Value::Bool(x) if x == *b),
            serde_json::Value::Null => cell.is_null(),
            _ => false,
        });
        if !hit {
            return false;
        }
    }
    true
}

/// Applies one operation to the table; returns its stats.
pub fn apply_operation(records: &mut [Record], op: &Operation, index: usize) -> Result<OpStats> {
    let mut stats = OpStats {
        index,
        description: op.description().unwrap_or("<unknown>").to_string(),
        rows_matched: 0,
        cells_changed: 0,
        errors: 0,
        skipped: false,
    };
    match op {
        Operation::MassEdit { engine_config, column_name, expression, edits, .. } => {
            let key_expr: Option<Expr> = match strip_lang(expression) {
                "value" => None,
                other => Some(parse(other)?),
            };
            for rec in records.iter_mut() {
                if !facets_match(engine_config, rec) {
                    continue;
                }
                stats.rows_matched += 1;
                let Some(cell) = rec.get(column_name).cloned() else { continue };
                // Compute the match key (usually the raw value).
                let key = match &key_expr {
                    None => cell.clone(),
                    Some(e) => match eval(e, &EvalContext { value: &cell, record: Some(rec) }) {
                        Ok(v) => v,
                        Err(_) => {
                            stats.errors += 1;
                            continue;
                        }
                    },
                };
                let key_s = key.render().into_owned();
                for edit in edits {
                    let hit = (edit.from_blank && key.is_null())
                        || edit.from.iter().any(|f| *f == key_s && !key.is_null());
                    if hit {
                        let new = Value::Text(edit.to.clone());
                        if cell != new {
                            rec.set(column_name.clone(), new);
                            stats.cells_changed += 1;
                        }
                        break;
                    }
                }
            }
        }
        Operation::TextTransform {
            engine_config,
            column_name,
            expression,
            on_error,
            repeat,
            repeat_count,
            ..
        } => {
            let expr = parse(strip_lang(expression))?;
            let max_iters = if *repeat { (*repeat_count).max(1) } else { 1 };
            for rec in records.iter_mut() {
                if !facets_match(engine_config, rec) {
                    continue;
                }
                stats.rows_matched += 1;
                if rec.get(column_name).is_none() {
                    continue;
                }
                let mut changed_this_row = false;
                for _ in 0..max_iters {
                    let cell = rec.get(column_name).cloned().unwrap_or(Value::Null);
                    let out = eval(&expr, &EvalContext { value: &cell, record: Some(rec) });
                    match out {
                        Ok(v) => {
                            if v == cell {
                                break; // fixpoint
                            }
                            rec.set(column_name.clone(), v);
                            changed_this_row = true;
                        }
                        Err(_) => {
                            stats.errors += 1;
                            if on_error == "set-to-blank" {
                                let was = rec.get(column_name).cloned();
                                rec.set(column_name.clone(), Value::Null);
                                if was != Some(Value::Null) {
                                    changed_this_row = true;
                                }
                            }
                            break; // keep-original / store-error both stop
                        }
                    }
                }
                if changed_this_row {
                    stats.cells_changed += 1;
                }
            }
        }
        Operation::ColumnRename { old_column_name, new_column_name, .. } => {
            for rec in records.iter_mut() {
                match rec.rename(old_column_name, new_column_name) {
                    Ok(true) => {
                        stats.rows_matched += 1;
                        stats.cells_changed += 1;
                    }
                    Ok(false) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Operation::ColumnRemoval { column_name, .. } => {
            for rec in records.iter_mut() {
                if rec.remove(column_name).is_some() {
                    stats.rows_matched += 1;
                    stats.cells_changed += 1;
                }
            }
        }
        Operation::Unknown(v) => {
            stats.skipped = true;
            stats.description = v
                .get("op")
                .and_then(|o| o.as_str())
                .map(|s| format!("<unsupported op {s}>"))
                .unwrap_or_else(|| "<unknown>".to_string());
        }
    }
    Ok(stats)
}

/// Applies a sequence of operations in order.
pub fn apply_operations(records: &mut [Record], ops: &[Operation]) -> Result<ApplyReport> {
    let mut report = ApplyReport::default();
    for (ix, op) in ops.iter().enumerate() {
        report.ops.push(apply_operation(records, op, ix)?);
    }
    Ok(report)
}

/// Strict variant: fails if any operation is unknown (used when the curator
/// requires every exported rule to execute).
pub fn apply_operations_strict(records: &mut [Record], ops: &[Operation]) -> Result<ApplyReport> {
    if let Some(ix) = ops.iter().position(|o| !o.is_executable()) {
        return Err(Error::invalid(format!("operation {ix} is not executable")));
    }
    apply_operations(records, ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{parse_operations, MassEdit};

    fn table() -> Vec<Record> {
        let rows = [
            ("saturn01", "ATastn"),
            ("saturn01", "airtemp"),
            ("ogi01", "ATastn"),
            ("ogi01", "salinity"),
        ];
        rows.iter()
            .map(|(src, field)| {
                let mut r = Record::new();
                r.set("source", *src);
                r.set("field", *field);
                r
            })
            .collect()
    }

    #[test]
    fn mass_edit_poster_example() {
        let mut t = table();
        let op = Operation::mass_edit("field", vec!["ATastn".into()], "sea surface temperature");
        let stats = apply_operation(&mut t, &op, 0).unwrap();
        assert_eq!(stats.rows_matched, 4);
        assert_eq!(stats.cells_changed, 2);
        assert_eq!(t[0].get("field").unwrap(), &Value::Text("sea surface temperature".into()));
        assert_eq!(t[1].get("field").unwrap(), &Value::Text("airtemp".into()));
    }

    #[test]
    fn mass_edit_is_idempotent() {
        let mut t = table();
        let op = Operation::mass_edit("field", vec!["ATastn".into()], "sst");
        apply_operation(&mut t, &op, 0).unwrap();
        let stats2 = apply_operation(&mut t, &op, 0).unwrap();
        assert_eq!(stats2.cells_changed, 0);
    }

    #[test]
    fn mass_edit_from_blank() {
        let mut t = table();
        t[3].set("field", Value::Null);
        let op = Operation::MassEdit {
            description: String::new(),
            engine_config: EngineConfig::default(),
            column_name: "field".into(),
            expression: "value".into(),
            edits: vec![MassEdit {
                from_blank: true,
                from_error: false,
                from: vec![],
                to: "unknown".into(),
            }],
        };
        let stats = apply_operation(&mut t, &op, 0).unwrap();
        assert_eq!(stats.cells_changed, 1);
        assert_eq!(t[3].get("field").unwrap(), &Value::Text("unknown".into()));
    }

    #[test]
    fn mass_edit_respects_facet() {
        let json = r#"[
          { "op": "core/mass-edit",
            "engineConfig": { "facets": [
              { "type": "list", "columnName": "source", "expression": "value",
                "selection": [ {"v": {"v": "saturn01", "l": "saturn01"}} ] } ],
              "mode": "row-based" },
            "columnName": "field", "expression": "value",
            "edits": [ {"from": ["ATastn"], "to": "sst"} ] }
        ]"#;
        let ops = parse_operations(json).unwrap();
        let mut t = table();
        let report = apply_operations(&mut t, &ops).unwrap();
        // only the saturn01 rows are in scope
        assert_eq!(report.ops[0].rows_matched, 2);
        assert_eq!(report.ops[0].cells_changed, 1);
        assert_eq!(t[0].get("field").unwrap(), &Value::Text("sst".into()));
        assert_eq!(t[2].get("field").unwrap(), &Value::Text("ATastn".into()));
    }

    #[test]
    fn text_transform_trims_and_lowercases() {
        let mut t = vec![{
            let mut r = Record::new();
            r.set("field", "  Air_Temp ");
            r
        }];
        let op = Operation::text_transform("field", "grel:value.trim().toLowercase()");
        let stats = apply_operation(&mut t, &op, 0).unwrap();
        assert_eq!(stats.cells_changed, 1);
        assert_eq!(t[0].get("field").unwrap(), &Value::Text("air_temp".into()));
    }

    #[test]
    fn text_transform_repeat_reaches_fixpoint() {
        let mut t = vec![{
            let mut r = Record::new();
            r.set("field", "a__b___c");
            r
        }];
        let op = Operation::TextTransform {
            description: String::new(),
            engine_config: EngineConfig::default(),
            column_name: "field".into(),
            expression: "value.replace('__', '_')".into(),
            on_error: "keep-original".into(),
            repeat: true,
            repeat_count: 10,
        };
        apply_operation(&mut t, &op, 0).unwrap();
        assert_eq!(t[0].get("field").unwrap(), &Value::Text("a_b_c".into()));
    }

    #[test]
    fn text_transform_error_handling() {
        let mut t = vec![
            {
                let mut r = Record::new();
                r.set("field", "abc");
                r
            },
            {
                let mut r = Record::new();
                r.set("field", "5");
                r
            },
        ];
        // toNumber fails on "abc"
        let mut op = Operation::text_transform("field", "toNumber(value) + 1");
        let stats = apply_operation(&mut t, &op, 0).unwrap();
        assert_eq!(stats.errors, 1);
        assert_eq!(t[0].get("field").unwrap(), &Value::Text("abc".into())); // keep-original
        assert_eq!(t[1].get("field").unwrap(), &Value::Int(6));

        // set-to-blank variant
        if let Operation::TextTransform { ref mut on_error, .. } = op {
            *on_error = "set-to-blank".into();
        }
        let mut t2 = vec![{
            let mut r = Record::new();
            r.set("field", "abc");
            r
        }];
        apply_operation(&mut t2, &op, 0).unwrap();
        assert!(t2[0].get("field").unwrap().is_null());
    }

    #[test]
    fn rename_and_removal() {
        let mut t = table();
        let ops = vec![
            Operation::ColumnRename {
                description: String::new(),
                old_column_name: "field".into(),
                new_column_name: "variable".into(),
            },
            Operation::ColumnRemoval { description: String::new(), column_name: "source".into() },
        ];
        let report = apply_operations(&mut t, &ops).unwrap();
        assert_eq!(report.ops[0].cells_changed, 4);
        assert_eq!(report.ops[1].cells_changed, 4);
        assert!(t[0].get("variable").is_some());
        assert!(t[0].get("source").is_none());
    }

    #[test]
    fn unknown_op_skipped_not_failed() {
        let json = r#"[ {"op": "core/recon", "columnName": "x"} ]"#;
        let ops = parse_operations(json).unwrap();
        let mut t = table();
        let report = apply_operations(&mut t, &ops).unwrap();
        assert!(report.ops[0].skipped);
        assert!(report.ops[0].description.contains("core/recon"));
        assert!(apply_operations_strict(&mut t, &ops).is_err());
    }

    #[test]
    fn bad_expression_is_an_error() {
        let mut t = table();
        let op = Operation::text_transform("field", "value..");
        assert!(apply_operation(&mut t, &op, 0).is_err());
    }

    #[test]
    fn report_totals() {
        let mut t = table();
        let ops = vec![
            Operation::mass_edit("field", vec!["ATastn".into()], "sst"),
            Operation::mass_edit("field", vec!["airtemp".into()], "air_temperature"),
        ];
        let report = apply_operations(&mut t, &ops).unwrap();
        assert_eq!(report.total_changed(), 3);
    }

    #[test]
    fn missing_column_is_harmless() {
        let mut t = table();
        let op = Operation::mass_edit("nope", vec!["x".into()], "y");
        let stats = apply_operation(&mut t, &op, 0).unwrap();
        assert_eq!(stats.cells_changed, 0);
        let op2 = Operation::text_transform("nope", "value.trim()");
        let stats2 = apply_operation(&mut t, &op2, 0).unwrap();
        assert_eq!(stats2.cells_changed, 0);
    }
}
