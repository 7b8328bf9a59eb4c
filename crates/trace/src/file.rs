//! Buffered trace-file writers and readers.
//!
//! In the measured system each file server appended its trace to its own
//! series of files; analysis later merged them. [`TraceWriter`] and
//! [`TraceReader`] provide the same workflow over any `Write`/`Read`
//! (files in production, `Vec<u8>` in tests).
//!
//! # Examples
//!
//! ```
//! use sdfs_simkit::SimTime;
//! use sdfs_trace::file::{from_bytes, to_bytes};
//! use sdfs_trace::{ClientId, FileId, Pid, Record, RecordKind, UserId};
//!
//! let records = vec![Record {
//!     time: SimTime::from_secs(1),
//!     client: ClientId(3),
//!     user: UserId(7),
//!     pid: Pid(42),
//!     migrated: false,
//!     kind: RecordKind::Create { file: FileId(0), is_dir: false },
//! }];
//! let bytes = to_bytes(&records).expect("in-memory encode cannot fail");
//! assert_eq!(from_bytes(&bytes).expect("round-trip decode"), records);
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use sdfs_simkit::SimTime;

use crate::codec;
use crate::record::Record;
use crate::{Result, TraceError};

/// Writes records to a binary trace stream.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    inner: W,
    count: u64,
    last_time: SimTime,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates a trace file at `path`, truncating any existing file.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = File::create(path)?;
        TraceWriter::new(BufWriter::new(file))
    }
}

impl<W: Write> TraceWriter<W> {
    /// Wraps a writer, emitting the stream magic immediately.
    pub fn new(mut inner: W) -> Result<Self> {
        codec::write_magic(&mut inner)?;
        Ok(TraceWriter {
            inner,
            count: 0,
            last_time: SimTime::ZERO,
        })
    }

    /// Appends one record.
    ///
    /// Records must be appended in non-decreasing time order; the writer
    /// enforces this so that merge never has to sort.
    pub fn write(&mut self, rec: &Record) -> Result<()> {
        if rec.time < self.last_time {
            return Err(TraceError::Corrupt(format!(
                "record at {} written after {}",
                rec.time, self.last_time
            )));
        }
        self.last_time = rec.time;
        codec::write_record(&mut self.inner, rec)?;
        self.count += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Reads records from a binary trace stream, in the non-decreasing
/// time order [`TraceWriter`] enforces.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    inner: R,
    errored: bool,
    /// Records read so far.
    count: u64,
    last_time: SimTime,
}

impl TraceReader<BufReader<File>> {
    /// Opens the trace file at `path`.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = File::open(path)?;
        TraceReader::new(BufReader::new(file))
    }
}

impl<R: Read> TraceReader<R> {
    /// Wraps a reader, validating the stream magic immediately.
    pub fn new(mut inner: R) -> Result<Self> {
        codec::read_magic(&mut inner)?;
        Ok(TraceReader {
            inner,
            errored: false,
            count: 0,
            last_time: SimTime::ZERO,
        })
    }

    /// Reads the next record, or `Ok(None)` at end of stream. A record
    /// earlier than the one before it is [`TraceError::Corrupt`].
    pub fn read(&mut self) -> Result<Option<Record>> {
        let Some(rec) = codec::read_record(&mut self.inner)? else {
            return Ok(None);
        };
        if rec.time < self.last_time {
            return Err(TraceError::Corrupt(format!(
                "record {} at {} follows one at {}",
                self.count, rec.time, self.last_time
            )));
        }
        self.last_time = rec.time;
        self.count += 1;
        Ok(Some(rec))
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.errored {
            return None;
        }
        match self.read() {
            Ok(Some(r)) => Some(Ok(r)),
            Ok(None) => None,
            Err(e) => {
                self.errored = true;
                Some(Err(e))
            }
        }
    }
}

/// Reads every record from the trace file at `path`.
pub fn read_all<P: AsRef<Path>>(path: P) -> Result<Vec<Record>> {
    TraceReader::open(path)?.collect()
}

/// Encodes records into an in-memory binary trace.
pub fn to_bytes(records: &[Record]) -> Result<Vec<u8>> {
    let mut w = TraceWriter::new(Vec::new())?;
    for r in records {
        w.write(r)?;
    }
    w.finish()
}

/// Decodes an in-memory binary trace.
pub fn from_bytes(bytes: &[u8]) -> Result<Vec<Record>> {
    let mut cursor = bytes;
    TraceReader::new(&mut cursor)?.collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientId, FileId, Pid, UserId};
    use crate::record::RecordKind;

    fn rec(t: u64, file: u64) -> Record {
        Record {
            time: SimTime::from_secs(t),
            client: ClientId(1),
            user: UserId(2),
            pid: Pid(3),
            migrated: false,
            kind: RecordKind::Create {
                file: FileId(file),
                is_dir: false,
            },
        }
    }

    #[test]
    fn memory_round_trip() {
        let records = vec![rec(1, 10), rec(2, 20), rec(2, 30)];
        let bytes = to_bytes(&records).expect("encode");
        let back = from_bytes(&bytes).expect("decode");
        assert_eq!(back, records);
    }

    #[test]
    fn rejects_time_travel() {
        let mut w = TraceWriter::new(Vec::new()).expect("writer");
        w.write(&rec(10, 1)).expect("first write");
        let err = w.write(&rec(5, 2)).expect_err("out of order");
        assert!(matches!(err, TraceError::Corrupt(_)));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("sdfs-trace-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("t.trace");
        let records = vec![rec(1, 1), rec(3, 2)];
        let mut w = TraceWriter::create(&path).expect("create file");
        for r in &records {
            w.write(r).expect("write");
        }
        w.finish().expect("finish file");
        let back = read_all(&path).expect("read file");
        assert_eq!(back, records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn iterator_stops_after_error() {
        let records = vec![rec(1, 1), rec(2, 2)];
        let mut bytes = to_bytes(&records).expect("encode");
        bytes.truncate(bytes.len() - 2); // corrupt the last record
        let mut cursor = &bytes[..];
        let reader = TraceReader::new(&mut cursor).expect("reader");
        let results: Vec<_> = reader.collect();
        assert_eq!(results.len(), 2);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
    }

    #[test]
    fn count_tracks_writes() {
        let mut w = TraceWriter::new(Vec::new()).expect("writer");
        assert_eq!(w.count(), 0);
        w.write(&rec(1, 1)).expect("write");
        w.write(&rec(1, 2)).expect("write");
        assert_eq!(w.count(), 2);
    }
}
