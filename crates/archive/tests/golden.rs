//! Golden archive digests: `generate` writes the same bytes, file for file,
//! for a pinned spec. A change to a writer or to how the generator builds a
//! file's cells that alters one byte of the archive fails here.

use metamess_archive::{generate, ArchiveSpec};

/// FNV-1a over every file's path and bytes, each length-prefixed.
fn digest(spec: &ArchiveSpec) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (path, text) in &generate(spec).files {
        eat(path.as_bytes());
        eat(text.as_bytes());
    }
    h
}

#[test]
fn the_default_archive_is_byte_for_byte_pinned() {
    assert_eq!(
        digest(&ArchiveSpec::default()),
        10_943_824_370_409_399_275,
        "default archive digest"
    );
}

/// The archive the `wrangle-live` workload generates (seed 1).
#[test]
fn the_wrangle_live_archive_is_byte_for_byte_pinned() {
    let spec = ArchiveSpec {
        seed: 1,
        stations: 10,
        months: 60,
        cruises: 60,
        glider_missions: 100,
        rows_per_file: 96,
        ..ArchiveSpec::default()
    };
    assert_eq!(digest(&spec), 7_913_114_019_333_544_518, "wrangle-live archive digest");
}
