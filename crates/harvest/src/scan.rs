//! Archive scanning: the configured entry point of the wrangling chain.
//!
//! "Configure: directories, file types, naming conventions" — the scan stage
//! walks the archive deterministically, filters by the configured
//! extensions/directories, and fingerprints content so reruns can skip
//! unchanged files. [`ArchiveInput::scan`] is the only walk: a pipeline run
//! or a watch cycle takes it once, and the engine's archive digest and the
//! harvester both read that one listing.

use crate::harvester::harvest_metrics;
use metamess_core::error::{Error, IoContext, Result};
use metamess_core::id::fnv1a;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Scan-stage configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScanConfig {
    /// Archive-relative directories to scan; empty = whole archive.
    /// The curator's "specifying an additional directory to scan" process
    /// improvement is an append here.
    pub roots: Vec<String>,
    /// File extensions to consider (lowercase, no dot); empty = all.
    pub extensions: Vec<String>,
    /// Path substrings to skip (e.g. `"scratch/"`). One that opens with `/`
    /// is anchored at the archive root: `"/store/"` skips what lies under
    /// `store/` and nothing else.
    pub exclude: Vec<String>,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            roots: Vec::new(),
            extensions: vec![
                "csv".into(),
                "tsv".into(),
                "txt".into(),
                "cdl".into(),
                "nc".into(),
                "obslog".into(),
                "cnv".into(),
                "cast".into(),
                "bin".into(), // deliberately included: sniffing reports junk
            ],
            exclude: vec!["ground_truth.json".into()],
        }
    }
}

impl ScanConfig {
    /// True when the archive-relative path passes the configuration.
    pub fn accepts(&self, rel: &str) -> bool {
        let excludes = |e: &String| match e.strip_prefix('/') {
            Some(prefix) => rel.starts_with(prefix),
            None => rel.contains(e.as_str()),
        };
        if self.exclude.iter().any(excludes) {
            return false;
        }
        if !self.roots.is_empty()
            && !self.roots.iter().any(|r| {
                let r = r.trim_end_matches('/');
                rel == r || rel.starts_with(&format!("{r}/"))
            })
        {
            return false;
        }
        if !self.extensions.is_empty() {
            let ext = Path::new(rel)
                .extension()
                .and_then(|e| e.to_str())
                .map(|e| e.to_ascii_lowercase())
                .unwrap_or_default();
            if !self.extensions.contains(&ext) {
                return false;
            }
        }
        true
    }

    /// Keeps the directory `dir` out of a walk of the archive at `archive`
    /// when it lies inside it, whatever its name: a store nested in the
    /// archive. Its archive-relative path is excluded as a prefix, so a store
    /// at `store` does not hide `stations/store_x.csv`.
    pub fn exclude_dir(&mut self, archive: &Path, dir: &Path) {
        let real = |p: &Path| p.canonicalize().or_else(|_| std::path::absolute(p));
        let (Ok(archive), Ok(dir)) = (real(archive), real(dir)) else { return };
        if let Ok(inside) = dir.strip_prefix(&archive) {
            let rel = rel_path(Path::new(""), inside);
            if !rel.is_empty() {
                self.exclude.push(format!("/{rel}/"));
            }
        }
    }
}

/// One file found by the scan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileEntry {
    /// Archive-relative path (always `/`-separated).
    pub rel_path: String,
    /// File length in bytes.
    pub len: u64,
    /// FNV-1a fingerprint of the content.
    pub fingerprint: u64,
}

/// Where the archive lives. [`ArchiveInput::scan`] is the one walk of it;
/// every reader of the archive takes that listing.
#[derive(Debug, Clone)]
pub enum ArchiveInput {
    /// In-memory `(rel_path, content)` pairs (tests, benches, generators).
    Memory(Vec<(String, String)>),
    /// A directory on disk.
    Dir(PathBuf),
}

impl ArchiveInput {
    /// Lists the files `config` accepts, path-sorted, each read once for its
    /// length and content fingerprint. A directory walk never descends
    /// through a symlink (`up -> ..` would loop); a symlink to a file is
    /// read like the file.
    pub fn scan(&self, config: &ScanConfig) -> Result<Vec<FileEntry>> {
        let metrics = metamess_telemetry::enabled().then(harvest_metrics);
        let read = |rel: String, bytes: &[u8]| {
            if let Some(m) = metrics {
                m.files_read.add(1);
                m.bytes_read.add(bytes.len() as u64);
            }
            FileEntry::of(rel, bytes)
        };
        let mut out = Vec::new();
        match self {
            ArchiveInput::Memory(files) => {
                for (rel, content) in files.iter().filter(|(rel, _)| config.accepts(rel)) {
                    out.push(read(rel.clone(), content.as_bytes()));
                }
            }
            ArchiveInput::Dir(root) => {
                let mut stack = vec![root.clone()];
                while let Some(dir) = stack.pop() {
                    let entries =
                        std::fs::read_dir(&dir).io_ctx(format!("read dir {}", dir.display()))?;
                    for e in entries {
                        let e = e.io_ctx("read dir entry")?;
                        let path = e.path();
                        let kind = e.file_type().io_ctx(format!("stat {}", path.display()))?;
                        if kind.is_dir() {
                            stack.push(path);
                            continue;
                        }
                        if kind.is_symlink() && path.is_dir() {
                            continue;
                        }
                        let rel = rel_path(root, &path);
                        if config.accepts(&rel) {
                            let bytes = std::fs::read(&path)
                                .io_ctx(format!("read file {}", path.display()))?;
                            out.push(read(rel, &bytes));
                        }
                    }
                }
            }
        }
        out.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        Ok(out)
    }

    /// Reads one listed file's content as text.
    pub fn read(&self, rel_path: &str) -> Result<String> {
        match self {
            ArchiveInput::Memory(files) => files
                .iter()
                .find(|(p, _)| p == rel_path)
                .map(|(_, c)| c.clone())
                .ok_or_else(|| Error::not_found("file", rel_path)),
            ArchiveInput::Dir(root) => {
                let p = root.join(rel_path);
                let bytes = std::fs::read(&p).io_ctx(format!("read {}", p.display()))?;
                String::from_utf8(bytes)
                    .map_err(|_| Error::parse(format!("file {rel_path}"), "not valid utf-8 text"))
            }
        }
    }
}

impl FileEntry {
    fn of(rel_path: String, bytes: &[u8]) -> FileEntry {
        FileEntry { rel_path, len: bytes.len() as u64, fingerprint: fnv1a(bytes) }
    }
}

/// Stable 64-bit fingerprint of an entire scanned archive, from the
/// per-file `(path, len, content-hash)` triples. Entry order does not
/// matter (entries are sorted by path first), so memory and directory
/// scans of the same content fingerprint identically. Used by the pipeline
/// engine as the scan stage's input digest: an unchanged fingerprint means
/// no file was added, removed or modified since the last run.
pub fn archive_fingerprint(entries: &[FileEntry]) -> u64 {
    let mut sorted: Vec<&FileEntry> = entries.iter().collect();
    sorted.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    let mut buf = Vec::with_capacity(sorted.len() * 32);
    for e in sorted {
        buf.extend_from_slice(e.rel_path.as_bytes());
        buf.push(0);
        buf.extend_from_slice(&e.len.to_le_bytes());
        buf.extend_from_slice(&e.fingerprint.to_le_bytes());
    }
    fnv1a(&buf)
}

fn rel_path(base: &Path, full: &Path) -> String {
    full.strip_prefix(base)
        .unwrap_or(full)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_accepts_extensions() {
        let c = ScanConfig::default();
        assert!(c.accepts("stations/s1/2010/01.csv"));
        assert!(c.accepts("a.CDL"));
        assert!(!c.accepts("readme.md"));
        assert!(!c.accepts("noext"));
        assert!(!c.accepts("ground_truth.json"));
    }

    #[test]
    fn config_roots_scope() {
        let c = ScanConfig { roots: vec!["stations".into()], ..ScanConfig::default() };
        assert!(c.accepts("stations/s1/x.csv"));
        assert!(!c.accepts("cruises/c1/x.obslog"));
        // no prefix-string false positives
        assert!(!c.accepts("stationsextra/x.csv"));
    }

    #[test]
    fn config_exclude() {
        let c = ScanConfig { exclude: vec!["scratch/".into()], ..ScanConfig::default() };
        assert!(!c.accepts("scratch/x.csv"));
        assert!(c.accepts("keep/x.csv"));
    }

    #[test]
    fn an_excluded_dir_is_a_prefix_of_the_archive() {
        let archive = std::env::temp_dir().join(format!("metamess-excl-{}", std::process::id()));
        let mut c = ScanConfig::default();
        c.exclude_dir(&archive, &archive.join("store"));
        c.exclude_dir(&archive, &archive.join("deep").join("st"));
        // outside the archive, or the archive itself: nothing to exclude
        c.exclude_dir(&archive, &std::env::temp_dir().join("elsewhere"));
        c.exclude_dir(&archive, &archive);
        assert_eq!(c.exclude[1..], ["/store/".to_string(), "/deep/st/".to_string()]);
        assert!(!c.accepts("store/catalog/snapshot.bin"));
        assert!(!c.accepts("deep/st/state/state.bin"));
        assert!(c.accepts("stations/store_x.csv"));
        assert!(c.accepts("stations/store/x.csv"));
        assert!(c.accepts("store_x/a.csv"));
        assert!(c.accepts("deep/stations/a.csv"));
    }

    fn memory(files: &[(&str, &str)]) -> ArchiveInput {
        ArchiveInput::Memory(files.iter().map(|(p, c)| (p.to_string(), c.to_string())).collect())
    }

    #[test]
    fn memory_scan_sorted_and_fingerprinted() {
        let archive = memory(&[("b.csv", "x,y\n1,2\n"), ("a.csv", "x,y\n3,4\n")]);
        let entries = archive.scan(&ScanConfig::default()).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].rel_path, "a.csv");
        assert_ne!(entries[0].fingerprint, entries[1].fingerprint);
        assert_eq!(entries[1].len, 8);
        assert_eq!(archive.read("b.csv").unwrap(), "x,y\n1,2\n");
        assert!(archive.read("c.csv").is_err());
    }

    #[test]
    fn archive_fingerprint_tracks_content_not_order() {
        let config = ScanConfig::default();
        let entries =
            memory(&[("b.csv", "x,y\n1,2\n"), ("a.csv", "x,y\n3,4\n")]).scan(&config).unwrap();
        let fp = archive_fingerprint(&entries);
        // order-insensitive
        let mut reversed = entries.clone();
        reversed.reverse();
        assert_eq!(archive_fingerprint(&reversed), fp);
        // one-byte edit moves it
        let edited = memory(&[("b.csv", "x,y\n1,2\n"), ("a.csv", "x,y\n3,5\n")]);
        assert_ne!(archive_fingerprint(&edited.scan(&config).unwrap()), fp);
        // removal moves it
        assert_ne!(archive_fingerprint(&entries[..1]), fp);
        // empty archive has a stable fingerprint
        assert_eq!(archive_fingerprint(&[]), archive_fingerprint(&[]));
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("metamess-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn directory_scan_matches_memory_scan() {
        let dir = temp_dir("scan");
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        std::fs::write(dir.join("a.csv"), "x\n1\n").unwrap();
        std::fs::write(dir.join("sub/b.csv"), "y\n2\n").unwrap();
        std::fs::write(dir.join("skip.md"), "nope").unwrap();
        let config = ScanConfig::default();
        let disk = ArchiveInput::Dir(dir.clone());
        let mem = memory(&[("a.csv", "x\n1\n"), ("sub/b.csv", "y\n2\n")]);
        assert_eq!(disk.scan(&config).unwrap(), mem.scan(&config).unwrap());
        assert_eq!(disk.read("sub/b.csv").unwrap(), mem.read("sub/b.csv").unwrap());
    }

    #[test]
    #[cfg(unix)]
    fn symlinked_directories_are_not_followed() {
        use std::os::unix::fs::symlink;
        let dir = temp_dir("scan-links");
        std::fs::create_dir_all(dir.join("stations")).unwrap();
        std::fs::write(dir.join("stations/a.csv"), "x\n1\n").unwrap();
        let archive = ArchiveInput::Dir(dir.clone());
        let config = ScanConfig::default();
        let listed = |archive: &ArchiveInput| -> Vec<String> {
            archive.scan(&config).unwrap().into_iter().map(|e| e.rel_path).collect()
        };
        // a link back up the tree would otherwise loop until ELOOP
        symlink("..", dir.join("stations/up")).unwrap();
        assert_eq!(listed(&archive), ["stations/a.csv"]);
        // two links into each other's trees would otherwise grow without bound
        symlink("stations", dir.join("mirror")).unwrap();
        assert_eq!(listed(&archive), ["stations/a.csv"]);
        // a link to a file is still read
        symlink("stations/a.csv", dir.join("linked.csv")).unwrap();
        assert_eq!(listed(&archive), ["linked.csv", "stations/a.csv"]);
    }
}
