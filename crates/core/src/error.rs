//! Error types shared across the metamess workspace.

use std::fmt;

/// Convenience result alias used throughout the workspace.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// Unified error type for catalog, storage, parsing and validation failures.
///
/// Substrate crates define their own richer error enums where useful and
/// convert into `Error` at crate boundaries via [`Error::io`] or `From`.
#[derive(Debug)]
pub enum Error {
    /// An I/O error, annotated with the operation that failed.
    Io {
        /// Human-readable description of the operation (e.g. a path).
        context: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// Input could not be parsed (file formats, queries, expressions, JSON).
    Parse {
        /// What was being parsed.
        what: String,
        /// Why parsing failed.
        message: String,
        /// 1-based line number when known.
        line: Option<usize>,
    },
    /// The on-disk store is corrupt (bad checksum, truncated record, ...).
    Corrupt {
        /// Description of the corruption site.
        message: String,
    },
    /// A store file in a format generation this build does not read. The
    /// file is whole, not damaged: nothing repairs it or sets it aside.
    UnsupportedFormat {
        /// The file, as its reader names it.
        file: String,
        /// The format generation the file declares.
        found: u8,
        /// The one this build reads and writes.
        supported: u8,
    },
    /// A referenced entity (dataset, variable, term, component) is missing.
    NotFound {
        /// Entity kind, e.g. `"dataset"`.
        kind: &'static str,
        /// Entity key that was looked up.
        key: String,
    },
    /// An operation conflicts with catalog state (duplicate id, stale generation).
    Conflict {
        /// Explanation of the conflict.
        message: String,
    },
    /// A validation rule failed (curatorial activity 4 in the paper).
    Validation {
        /// Name of the validation rule.
        rule: String,
        /// Explanation of the failure.
        message: String,
    },
    /// Invalid argument or configuration supplied by the caller.
    Invalid {
        /// Explanation of what was invalid.
        message: String,
    },
}

impl Error {
    /// Builds a [`Error::Parse`] without line information.
    pub fn parse(what: impl Into<String>, message: impl Into<String>) -> Self {
        Error::Parse { what: what.into(), message: message.into(), line: None }
    }

    /// Builds a [`Error::Parse`] with a 1-based line number.
    pub fn parse_at(what: impl Into<String>, message: impl Into<String>, line: usize) -> Self {
        Error::Parse { what: what.into(), message: message.into(), line: Some(line) }
    }

    /// Builds a [`Error::Corrupt`].
    pub fn corrupt(message: impl Into<String>) -> Self {
        Error::Corrupt { message: message.into() }
    }

    /// Builds a [`Error::UnsupportedFormat`].
    pub fn unsupported_format(file: impl Into<String>, found: u8, supported: u8) -> Self {
        Error::UnsupportedFormat { file: file.into(), found, supported }
    }

    /// Builds a [`Error::NotFound`].
    pub fn not_found(kind: &'static str, key: impl Into<String>) -> Self {
        Error::NotFound { kind, key: key.into() }
    }

    /// Builds a [`Error::Conflict`].
    pub fn conflict(message: impl Into<String>) -> Self {
        Error::Conflict { message: message.into() }
    }

    /// Builds a [`Error::Validation`].
    pub fn validation(rule: impl Into<String>, message: impl Into<String>) -> Self {
        Error::Validation { rule: rule.into(), message: message.into() }
    }

    /// Builds a [`Error::Invalid`].
    pub fn invalid(message: impl Into<String>) -> Self {
        Error::Invalid { message: message.into() }
    }

    /// Wraps an [`std::io::Error`] with the failing operation's description.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        Error::Io { context: context.into(), source }
    }

    /// True when the error indicates on-disk corruption.
    pub fn is_corrupt(&self) -> bool {
        matches!(self, Error::Corrupt { .. })
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io { context, source } => write!(f, "io error during {context}: {source}"),
            Error::Parse { what, message, line: Some(line) } => {
                write!(f, "parse error in {what} at line {line}: {message}")
            }
            Error::Parse { what, message, line: None } => {
                write!(f, "parse error in {what}: {message}")
            }
            Error::Corrupt { message } => write!(f, "corrupt store: {message}"),
            Error::UnsupportedFormat { file, found, supported } => write!(
                f,
                "{file}: store format {found}; re-wrangle, this build reads format {supported}"
            ),
            Error::NotFound { kind, key } => write!(f, "{kind} not found: {key}"),
            Error::Conflict { message } => write!(f, "conflict: {message}"),
            Error::Validation { rule, message } => {
                write!(f, "validation rule '{rule}' failed: {message}")
            }
            Error::Invalid { message } => write!(f, "invalid argument: {message}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Extension trait to attach context to `io::Result` values concisely.
pub trait IoContext<T> {
    /// Converts an `io::Result` into a metamess [`Result`], naming the operation.
    fn io_ctx(self, context: impl Into<String>) -> Result<T>;
}

impl<T> IoContext<T> for std::result::Result<T, std::io::Error> {
    fn io_ctx(self, context: impl Into<String>) -> Result<T> {
        self.map_err(|e| Error::io(context, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_io() {
        let e = Error::io("open wal", std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(e.to_string().contains("open wal"));
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn display_parse_with_line() {
        let e = Error::parse_at("query", "unexpected token", 3);
        assert_eq!(e.to_string(), "parse error in query at line 3: unexpected token");
    }

    #[test]
    fn display_parse_without_line() {
        let e = Error::parse("csv", "bad header");
        assert_eq!(e.to_string(), "parse error in csv: bad header");
    }

    #[test]
    fn corruption_flag() {
        assert!(Error::corrupt("bad crc").is_corrupt());
        assert!(!Error::invalid("x").is_corrupt());
        // an older format is not damage: nobody may quarantine it
        let e = Error::unsupported_format("snapshot s.bin", 1, 2);
        assert!(!e.is_corrupt());
        assert_eq!(
            e.to_string(),
            "snapshot s.bin: store format 1; re-wrangle, this build reads format 2"
        );
    }

    #[test]
    fn not_found_display() {
        let e = Error::not_found("dataset", "ds-17");
        assert_eq!(e.to_string(), "dataset not found: ds-17");
    }

    #[test]
    fn io_ctx_helper() {
        let r: std::result::Result<(), std::io::Error> = Err(std::io::Error::other("boom"));
        let e = r.io_ctx("write snapshot").unwrap_err();
        assert!(matches!(e, Error::Io { .. }));
    }

    #[test]
    fn source_chain() {
        use std::error::Error as _;
        let e = Error::io("x", std::io::Error::other("y"));
        assert!(e.source().is_some());
        assert!(Error::invalid("z").source().is_none());
    }
}
