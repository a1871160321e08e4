//! The pipeline's resume state, as one framed image.
//!
//! ```text
//! payload := ledger_len:u32   ledger:[u8; ledger_len]      run ledger (JSON)
//!            curation_len:u32 curation:[u8; curation_len]  the pipeline's
//! ```
//!
//! The frame is the one snapshots use (`frame.rs`) under the magic
//! `MMSTATE2`. The curation bytes are the pipeline's: the store keeps them
//! under the frame's CRC and reads nothing in them. The image holds no
//! catalog: the store is the published catalog, and the ledger names the
//! content fingerprint of the catalog it was recorded against, so a reader
//! can tell whether the store is that catalog. An `MMSTATE1` image, which
//! carried the working catalog as well, is refused by name.
//!
//! A state is written whole by one [`write_atomic`](super::write_atomic): a
//! reader finds the previous state or the new one, never parts of two runs.

use super::frame::{read_framed, write_framed};
use super::ledger::RunLedger;
use super::vfs::Vfs;
use crate::error::{Error, Result};
use std::ops::Range;
use std::path::Path;

/// The eight magic bytes opening a state image.
const STATE_MAGIC: &[u8; 8] = b"MMSTATE2";

/// The magic of the format before, whose image also held the working
/// catalog.
const STATE1_MAGIC: &[u8; 8] = b"MMSTATE1";

/// What a state image holds, as [`read_state`] parsed it.
#[derive(Debug, PartialEq)]
pub struct StateImage {
    /// The run ledger.
    pub ledger: RunLedger,
    /// The pipeline's curation state, in the pipeline's own encoding.
    pub curation: Vec<u8>,
}

/// Writes a state image at `path`, replacing any there atomically: one
/// fsync, one rename.
pub fn write_state(vfs: &dyn Vfs, path: &Path, ledger: &RunLedger, curation: &[u8]) -> Result<()> {
    let ledger = serde_json::to_vec(ledger)
        .map_err(|e| Error::invalid(format!("unencodable ledger: {e}")))?;
    // the frame refuses a payload whose length outgrows a u32, and with it
    // any part that would
    let ledger_len = (ledger.len() as u32).to_le_bytes();
    let curation_len = (curation.len() as u32).to_le_bytes();
    let payload: [&[u8]; 4] = [&ledger_len, &ledger, &curation_len, curation];
    write_framed(vfs, path, STATE_MAGIC, &payload, "state")
}

/// Reads the state image at `path`. Returns `Ok(None)` when there is none,
/// and `Err(Corrupt)` when the file fails its frame, a part of it does not
/// decode, bytes follow the curation part, or it is an `MMSTATE1` image.
pub fn read_state(vfs: &dyn Vfs, path: &Path) -> Result<Option<StateImage>> {
    let framed = match read_framed(vfs, path, STATE_MAGIC, "state") {
        // Looked at again only once the read has failed, so the good path
        // reads the file once.
        Err(e) if e.is_corrupt() && vfs.read(path).is_ok_and(|b| b.starts_with(STATE1_MAGIC)) => {
            return Err(Error::corrupt(format!(
                "state {}: an MMSTATE1 image, which also held the working catalog; not read",
                path.display()
            )));
        }
        read => read?,
    };
    let Some(framed) = framed else {
        return Ok(None);
    };
    let undecodable =
        |what: String| Error::corrupt(format!("state {}: undecodable: {what}", path.display()));
    let (bytes, mut at) = framed.into_parts();
    let ledger = part(&bytes, &mut at).ok_or_else(|| undecodable("ledger past the end".into()))?;
    let curation =
        part(&bytes, &mut at).ok_or_else(|| undecodable("curation past the end".into()))?;
    if at != bytes.len() {
        return Err(undecodable(format!("{} bytes after the curation", bytes.len() - at)));
    }
    let ledger =
        serde_json::from_slice(&bytes[ledger]).map_err(|e| undecodable(format!("ledger: {e}")))?;
    Ok(Some(StateImage { ledger, curation: bytes[curation].to_vec() }))
}

/// The range of the `len:u32`-prefixed part of `bytes` at `*at`, moving
/// `*at` past it; `None` when the part does not fit.
fn part(bytes: &[u8], at: &mut usize) -> Option<Range<usize>> {
    let len = u32::from_le_bytes(bytes.get(*at..*at + 4)?.try_into().ok()?);
    let start = *at + 4;
    let end = start.checked_add(len as usize).filter(|&end| end <= bytes.len())?;
    *at = end;
    Some(start..end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ledger::StageRecord;
    use crate::store::vfs::std_vfs;
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("metamess-state-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    /// A state's two parts.
    type Parts = (RunLedger, Vec<u8>);

    fn sample() -> Parts {
        let mut ledger = RunLedger::new();
        ledger.run_id = 4;
        ledger.catalog_fingerprint = Some(0x5eed);
        ledger.record("publish", StageRecord { micros: 3 });
        (ledger, br#"{"run_id":4}"#.to_vec())
    }

    fn write(path: &Path, (ledger, curation): &Parts) {
        write_state(std_vfs().as_ref(), path, ledger, curation).unwrap();
    }

    fn read(path: &Path) -> Parts {
        let s = read_state(std_vfs().as_ref(), path).unwrap().unwrap();
        (s.ledger, s.curation)
    }

    #[test]
    fn an_image_reads_back_what_was_written() {
        let dir = tmpdir("rt");
        let p = dir.join("state.bin");
        let s = sample();
        write(&p, &s);
        assert_eq!(read(&p), s);
        assert!(!dir.join("state.tmp").exists());
        // empty parts are parts too
        let empty = (RunLedger::new(), vec![]);
        write(&p, &empty);
        assert_eq!(read(&p), empty);
    }

    #[test]
    fn a_part_that_does_not_decode_is_corrupt() {
        let dir = tmpdir("parts");
        let p = dir.join("state.bin");
        let vfs = std_vfs();
        let s = sample();
        let ledger = serde_json::to_vec(&s.0).unwrap();
        let corrupt_under = |magic: &[u8; 8], payload: &[&[u8]], why: &str| {
            write_framed(vfs.as_ref(), &p, magic, payload, "state").unwrap();
            let e = read_state(vfs.as_ref(), &p).unwrap_err();
            assert!(e.is_corrupt() && e.to_string().contains(why), "{why}: {e}");
        };
        let corrupt = |payload: &[&[u8]], why: &str| corrupt_under(STATE_MAGIC, payload, why);
        let len = |n: usize| (n as u32).to_le_bytes();
        corrupt(&[], "ledger past the end");
        corrupt(&[&len(ledger.len() + 1), &ledger], "ledger past the end");
        corrupt(&[&len(ledger.len()), &ledger, &len(9), b"short"], "curation past the end");
        corrupt(&[&len(3), b"{]x", &len(0)], "undecodable: ledger");
        // bytes after the curation part, such as a catalog
        corrupt(&[&len(ledger.len()), &ledger, &len(2), b"{}", b"x"], "1 bytes after the curation");
        // a whole image of the format before is refused by name
        corrupt_under(STATE1_MAGIC, &[&len(ledger.len()), &ledger, &len(0)], "an MMSTATE1 image");
    }
}
