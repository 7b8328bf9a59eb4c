//! Trace records, encodings, trace files, and merging.
//!
//! The paper (Section 3) gathered kernel-call-level traces on the four
//! Sprite file servers: opens, closes, repositions (`lseek`), deletes,
//! truncates, directory reads, and — for files undergoing concurrent
//! write-sharing — every read and write request. The per-server logs were
//! merged by timestamp into a single ordered record stream, and records
//! produced by the tracing itself and by nightly backups were scrubbed.
//!
//! This crate is the Rust incarnation of that machinery:
//!
//! * [`Record`] / [`RecordKind`] — the event vocabulary.
//! * [`codec`] — a compact deterministic binary encoding, plus the
//!   tab-separated text rendering that `tracetool dump` prints.
//! * [`mod@file`] — buffered trace-file readers and writers.
//! * [`merge`] — [`merge::merge_vecs`], the k-way timestamp merge of
//!   per-server record vectors, and the scrub filter.
//! * [`stats`] — the overall per-trace statistics of Table 1.

pub mod codec;
pub mod file;
pub mod ids;
pub mod merge;
pub mod record;
pub mod stats;

pub use file::{TraceReader, TraceWriter};
pub use ids::{ClientId, FileId, Handle, Pid, ServerId, UserId};
pub use record::{OpenMode, Record, RecordKind};
pub use stats::{TraceStats, TraceStatsBuilder};

/// Errors produced while reading or writing trace files.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The stream is not a valid trace (bad magic, bad tag, or short read).
    Corrupt(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Corrupt(msg) => write!(f, "corrupt trace: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Result alias for trace operations.
pub type Result<T> = std::result::Result<T, TraceError>;
