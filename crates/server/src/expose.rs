//! Store-level metrics assembly, shared by `GET /metrics` and the CLI's
//! `metamess stats`.
//!
//! Both consumers must emit **identical expositions for the same
//! snapshot**, so the assembly lives in exactly one place: persisted
//! cross-process history (`<store>/state/telemetry.json`), merged with the
//! live in-process registry, plus gauges from the run ledger in the state
//! image (per-stage timings survive even runs that had telemetry disabled).

use metamess_core::store::{read_state, std_vfs, StateImage};
use metamess_telemetry::{labeled, MetricsSnapshot};
use std::path::Path;

/// Builds the full metrics snapshot for a store: persisted history +
/// live registry + ledger gauges.
pub fn store_snapshot(store_dir: &Path) -> MetricsSnapshot {
    let mut snap =
        metamess_telemetry::load_snapshot(&metamess_telemetry::telemetry_path(store_dir))
            .unwrap_or_default();
    snap.merge(&metamess_telemetry::global().snapshot());
    let state = store_dir.join("state").join("state.bin");
    if let Ok(Some(StateImage { ledger, .. })) = read_state(std_vfs().as_ref(), &state) {
        snap.gauges.insert("metamess_pipeline_last_run_id".to_string(), ledger.run_id as i64);
        for (stage, rec) in &ledger.stages {
            let name = labeled("metamess_pipeline_stage_last_micros", "stage", stage);
            snap.gauges.insert(name, rec.micros as i64);
        }
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpstore(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("metamess-expo-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(d.join("state")).unwrap();
        d
    }

    #[test]
    fn persisted_history_is_folded_in() {
        let dir = tmpstore("hist");
        let r = metamess_telemetry::MetricsRegistry::new(true);
        r.counter("metamess_expose_test_total").add(9);
        std::fs::write(metamess_telemetry::telemetry_path(&dir), r.snapshot().render_json())
            .unwrap();
        let snap = store_snapshot(&dir);
        assert!(snap.counters["metamess_expose_test_total"] >= 9);
    }

    #[test]
    fn ledger_gauges_come_from_the_state_image() {
        use metamess_core::store::{write_state, RunLedger, StageRecord};
        let dir = tmpstore("state");
        let mut ledger = RunLedger::new();
        ledger.run_id = 42;
        ledger.record("publish", StageRecord { micros: 17 });
        let path = dir.join("state").join("state.bin");
        write_state(std_vfs().as_ref(), &path, &ledger, b"{}").unwrap();
        let snap = store_snapshot(&dir);
        assert_eq!(snap.gauges["metamess_pipeline_last_run_id"], 42);
        let stage = labeled("metamess_pipeline_stage_last_micros", "stage", "publish");
        assert_eq!(snap.gauges[&stage], 17);
    }

    #[test]
    fn empty_store_yields_live_only_snapshot() {
        let dir = tmpstore("empty");
        let snap = store_snapshot(&dir);
        // No persisted file, no ledger: only whatever the live global
        // registry holds (possibly nothing).
        assert!(!snap.gauges.contains_key("metamess_pipeline_last_run_id"));
    }
}
