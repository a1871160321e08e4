//! The durable run ledger: what the incremental pipeline engine remembers
//! between runs — and between *processes*.
//!
//! For every stage of the last pipeline run the ledger records the digest
//! of the stage's declared inputs, how long it took, and which run last
//! executed it. A fresh process that loads the ledger resumes
//! incrementality: stages whose input digest still matches are skipped
//! without re-executing anything.
//!
//! The ledger is kept as JSON inside the pipeline's state image
//! (`state.rs`). It names the content fingerprint of the catalog its run
//! ended with, since the image holds no catalog: a process that resumes it
//! must hold that catalog, or the records describe inputs it does not have.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What the ledger remembers about one stage of the last run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageRecord {
    /// Digest of the stage's declared read slots when it last ran.
    pub input_digest: u64,
    /// Wall-clock duration of the last execution, in microseconds.
    pub micros: u64,
    /// `run_id` of the run that last *executed* this stage (as opposed to
    /// skipping it). Zero in ledgers written before this field existed.
    #[serde(default)]
    pub last_run: u64,
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
    /// Content fingerprint of the catalog the records were recorded
    /// against: the working catalog at the end of the last run that
    /// finished. `None` while a run is under way, after a run that failed,
    /// and in ledgers written before this field existed.
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

    /// Forgets everything (forces the next run to execute every stage).
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
        l.record("scan-archive", StageRecord { input_digest: 1, micros: 40, last_run: 3 });
        l.record("publish", StageRecord { input_digest: 9, micros: 7, last_run: 3 });
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
        // JSON written before StageRecord grew `last_run`, with a stage
        // field this build no longer has (older ledgers also carried a
        // per-stage digest of the written slots): it is skipped
        let old = r#"{"run_id":2,"stages":{"publish":
            {"input_digest":5,"retired_field":6,"micros":11}}}"#;
        let l: RunLedger = serde_json::from_str(old).unwrap();
        let rec = l.get("publish").unwrap();
        assert_eq!((rec.input_digest, rec.micros), (5, 11));
        assert_eq!(rec.last_run, 0);
        assert!(!serde_json::to_string(&l).unwrap().contains("retired_field"));
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
        l.record("publish", StageRecord { input_digest: 1, micros: 1, last_run: 4 });
        assert_eq!(l.len(), 2);
        assert_eq!(l.get("publish").unwrap().input_digest, 1);
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l.run_id, 0);
        assert_eq!(l.catalog_fingerprint, None);
    }
}
