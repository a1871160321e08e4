//! The durable run ledger: what the pipeline remembers between runs — and
//! between *processes*.
//!
//! It names the content fingerprint of the catalog the last pipeline run,
//! curation loop or watch cycle ended with, and what a watch cycle wrangled
//! ([`RunLedger::cycle_input`]): a watcher that resumes it over the same
//! archive and settings runs no cycle. For every stage of the last run it
//! records how long the stage took (`metamess_pipeline_stage_last_micros`).
//!
//! The ledger is kept as JSON inside the pipeline's state image
//! (`state.rs`). Since the image holds no catalog, a process that resumes
//! it must hold the catalog it names, or it describes a catalog the process
//! does not have.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What the ledger remembers about one stage of the last run. Ledgers
/// written before the stages ran on every run also carry a per-stage input
/// digest and the run that last executed the stage; decoding skips them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageRecord {
    /// Wall-clock duration of the stage's last run, in microseconds.
    pub micros: u64,
}

/// Per-stage records of the most recent pipeline run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunLedger {
    /// Identifier of the run that last updated the ledger.
    pub run_id: u64,
    /// Hex trace id of the wrangle trace recorded for the run that last
    /// updated the ledger (32 lowercase hex chars), or empty in ledgers
    /// written before tracing existed / with telemetry disabled. Lets
    /// `metamess trace` link a published catalog generation back to the
    /// per-stage span tree that produced it.
    #[serde(default, skip_serializing_if = "String::is_empty")]
    pub trace_id: String,
    /// Content fingerprint of the catalog the ledger describes: the working
    /// catalog at the end of the last pipeline run, curation loop or watch
    /// cycle that finished. `None` while a run is under way, after a run
    /// that failed, and in ledgers written before this field existed.
    #[serde(default)]
    pub catalog_fingerprint: Option<u64>,
    /// Digest of what the watch cycle that last ran over these records
    /// wrangled — the archive listing and the watcher's settings — set once
    /// the cycle's curation loop finished. `None` after any other run, and
    /// in ledgers written before this field existed: a watcher that resumes
    /// a ledger naming the archive it finds again runs no cycle for it.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cycle_input: Option<u64>,
    /// Stage name → record.
    pub stages: BTreeMap<String, StageRecord>,
}

impl RunLedger {
    /// Creates an empty ledger.
    pub fn new() -> RunLedger {
        RunLedger::default()
    }

    /// The record of a stage, when one exists.
    pub fn get(&self, stage: &str) -> Option<&StageRecord> {
        self.stages.get(stage)
    }

    /// Inserts or replaces a stage record.
    pub fn record(&mut self, stage: &str, rec: StageRecord) {
        self.stages.insert(stage.to_string(), rec);
    }

    /// Number of recorded stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True when no stage has been recorded.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Forgets everything: the ledger then names no catalog, so a watcher
    /// wrangles its next cycle cold.
    pub fn clear(&mut self) {
        self.run_id = 0;
        self.trace_id.clear();
        self.catalog_fingerprint = None;
        self.cycle_input = None;
        self.stages.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Result;
    use crate::store::state::{read_state, write_state};
    use crate::store::vfs::std_vfs;
    use std::fs;
    use std::path::{Path, PathBuf};

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("metamess-ledg-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample() -> RunLedger {
        let mut l = RunLedger::new();
        l.run_id = 3;
        l.catalog_fingerprint = Some(77);
        l.record("scan-archive", StageRecord { micros: 40 });
        l.record("publish", StageRecord { micros: 7 });
        l
    }

    /// Writes `ledger` in a state image at `path`, beside empty curation.
    fn write_in_state(path: &Path, ledger: &RunLedger) {
        write_state(std_vfs().as_ref(), path, ledger, b"").unwrap();
    }

    fn read_from_state(path: &Path) -> Result<Option<RunLedger>> {
        Ok(read_state(std_vfs().as_ref(), path)?.map(|state| state.ledger))
    }

    #[test]
    fn round_trip() {
        let dir = tmpdir("rt");
        let p = dir.join("state.bin");
        let l = sample();
        write_in_state(&p, &l);
        assert_eq!(read_from_state(&p).unwrap().unwrap(), l);
    }

    #[test]
    fn missing_is_none() {
        let dir = tmpdir("miss");
        assert!(read_from_state(&dir.join("none.bin")).unwrap().is_none());
    }

    #[test]
    fn corrupt_payload_detected() {
        let dir = tmpdir("corrupt");
        let p = dir.join("state.bin");
        write_in_state(&p, &sample());
        // a byte of the ledger, which opens the payload after its length
        let mut bytes = fs::read(&p).unwrap();
        bytes[16 + 4 + 2] ^= 0x04;
        fs::write(&p, &bytes).unwrap();
        assert!(read_from_state(&p).unwrap_err().is_corrupt());
    }

    #[test]
    fn pre_last_run_payload_decodes_with_zero() {
        // JSON written by older builds, with stage fields this build no
        // longer has (the run that last executed the stage, a digest of
        // the written slots): they are skipped, and only the timing is
        // kept. `tests/cli.rs` resumes a whole image of that form.
        let old = r#"{"run_id":2,"stages":{"publish":
            {"retired_field":6,"micros":11,"last_run":2}}}"#;
        let l: RunLedger = serde_json::from_str(old).unwrap();
        assert_eq!(l.get("publish"), Some(&StageRecord { micros: 11 }));
        let json = serde_json::to_string(&l).unwrap();
        for retired in ["retired_field", "last_run"] {
            assert!(!json.contains(retired), "{json}");
        }
        // …and before RunLedger grew `trace_id` and `catalog_fingerprint`.
        assert_eq!(l.trace_id, "");
        assert_eq!(l.catalog_fingerprint, None);
    }

    #[test]
    fn empty_trace_id_is_not_serialized() {
        let l = sample();
        let json = serde_json::to_string(&l).unwrap();
        assert!(!json.contains("trace_id"), "{json}");
        let mut traced = l.clone();
        traced.trace_id = "00000000000000000000000000000abc".to_string();
        let json = serde_json::to_string(&traced).unwrap();
        assert!(json.contains("\"trace_id\":\"00000000000000000000000000000abc\""), "{json}");
        let back: RunLedger = serde_json::from_str(&json).unwrap();
        assert_eq!(back, traced);
    }

    #[test]
    fn record_replaces_and_clear_forgets() {
        let mut l = sample();
        assert_eq!(l.len(), 2);
        l.record("publish", StageRecord { micros: 1 });
        assert_eq!(l.len(), 2);
        assert_eq!(l.get("publish").unwrap().micros, 1);
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l.run_id, 0);
        assert_eq!(l.catalog_fingerprint, None);
    }
}
