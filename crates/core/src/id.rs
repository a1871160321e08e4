//! Stable identifiers for catalog entities.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Stable identifier of a dataset in the catalog.
///
/// Derived deterministically from the dataset's archive-relative path so that
/// re-running the wrangling process (curatorial activity 2) assigns the same
/// ids and the working catalog can be diffed against the published one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct DatasetId(pub u64);

impl DatasetId {
    /// Derives an id from an archive-relative path (FNV-1a 64).
    pub fn from_path(path: &str) -> DatasetId {
        DatasetId(fnv1a(path.as_bytes()))
    }

    /// The id of the path that is `dir` followed by `name`, hashed without
    /// joining them: `from_path(&format!("{dir}{name}"))`.
    pub fn from_parts(dir: &str, name: &str) -> DatasetId {
        DatasetId(fnv1a_from(fnv1a(dir.as_bytes()), name.as_bytes()))
    }
}

impl fmt::Display for DatasetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ds-{:016x}", self.0)
    }
}

/// FNV-1a 64-bit hash. Used for path-derived ids and cheap content
/// fingerprints; *not* used where collision resistance matters.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(0xcbf2_9ce4_8422_2325, bytes)
}

/// FNV-1a 64 of `bytes`, continued from the hash `h` of what precedes them.
fn fnv1a_from(mut h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_is_deterministic() {
        let a = DatasetId::from_path("stations/saturn01/2010/06.csv");
        let b = DatasetId::from_path("stations/saturn01/2010/06.csv");
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_paths_distinct_ids() {
        let a = DatasetId::from_path("a.csv");
        let b = DatasetId::from_path("b.csv");
        assert_ne!(a, b);
    }

    #[test]
    fn an_id_from_parts_is_the_id_of_the_joined_path() {
        for (dir, name) in [("stations/saturn01/2010/", "06.csv"), ("", "top.csv"), ("a/", "")] {
            let joined = format!("{dir}{name}");
            assert_eq!(DatasetId::from_parts(dir, name), DatasetId::from_path(&joined));
        }
    }

    #[test]
    fn fnv_known_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn display_forms() {
        let d = DatasetId(0xabc);
        assert_eq!(d.to_string(), "ds-0000000000000abc");
    }
}
