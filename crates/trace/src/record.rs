//! The trace record vocabulary.
//!
//! Records are emitted at the level of kernel calls, exactly as in the
//! paper: individual `read`/`write` calls are *not* logged. Instead the
//! byte ranges transferred are carried on the *boundary* events — a
//! [`RecordKind::Reposition`] reports the sequential run that just ended,
//! and a [`RecordKind::Close`] reports the final run plus whole-access
//! totals. For files undergoing concurrent write-sharing, every read and
//! write passes through to the server and is logged individually
//! ([`RecordKind::SharedRead`] / [`RecordKind::SharedWrite`]), which is
//! what the consistency simulations of Sections 5.5–5.6 consume.

use sdfs_simkit::{SimDuration, SimTime};

use crate::ids::{ClientId, FileId, Handle, Pid, UserId};

/// The declared mode of an open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpenMode {
    /// Opened for reading only.
    Read,
    /// Opened for writing only.
    Write,
    /// Opened for both reading and writing.
    ReadWrite,
}

impl OpenMode {
    /// Returns `true` if the mode permits writing.
    pub fn writes(self) -> bool {
        matches!(self, OpenMode::Write | OpenMode::ReadWrite)
    }

    /// Returns `true` if the mode permits reading.
    pub fn reads(self) -> bool {
        matches!(self, OpenMode::Read | OpenMode::ReadWrite)
    }
}

/// One trace record: a timestamped kernel-call event attributed to a
/// user, client, and process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// When the event occurred.
    pub time: SimTime,
    /// The workstation that issued the call.
    pub client: ClientId,
    /// The user on whose behalf the call ran.
    pub user: UserId,
    /// The issuing process.
    pub pid: Pid,
    /// Whether the issuing process was running as a migrated process.
    pub migrated: bool,
    /// What happened.
    pub kind: RecordKind,
}

/// The event-specific payload of a [`Record`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordKind {
    /// A file or directory was opened.
    Open {
        /// Handle identifying this open for later repositions/close.
        fd: Handle,
        /// The opened file.
        file: FileId,
        /// Declared access mode.
        mode: OpenMode,
        /// File size at open time, in bytes.
        size: u64,
        /// Whether the object is a directory.
        is_dir: bool,
    },
    /// The file offset was changed with `lseek`, ending a sequential run.
    Reposition {
        /// Handle of the affected open.
        fd: Handle,
        /// The file.
        file: FileId,
        /// Offset before the seek (end of the completed run).
        from: u64,
        /// Offset after the seek (start of the next run).
        to: u64,
        /// Bytes read during the run that just ended.
        run_read: u64,
        /// Bytes written during the run that just ended.
        run_written: u64,
    },
    /// An open file or directory was closed.
    Close {
        /// Handle of the closed open.
        fd: Handle,
        /// The file.
        file: FileId,
        /// Final file offset.
        offset: u64,
        /// Bytes read during the final sequential run.
        run_read: u64,
        /// Bytes written during the final sequential run.
        run_written: u64,
        /// Total bytes read over the whole access.
        total_read: u64,
        /// Total bytes written over the whole access.
        total_written: u64,
        /// File size at close time, in bytes.
        size: u64,
        /// When the corresponding open happened (for open-duration
        /// analysis, Figure 3).
        opened_at: SimTime,
    },
    /// A file or directory was created.
    Create {
        /// The new file.
        file: FileId,
        /// Whether the object is a directory.
        is_dir: bool,
    },
    /// A file or directory was removed.
    Delete {
        /// The removed file.
        file: FileId,
        /// Its size at deletion, in bytes.
        size: u64,
        /// Whether the object is a directory.
        is_dir: bool,
        /// Age of the oldest byte in the file at deletion (time since the
        /// earliest still-present data was written). Used by the
        /// file-lifetime analysis (Figure 4).
        oldest_age: SimDuration,
        /// Age of the newest byte at deletion.
        newest_age: SimDuration,
    },
    /// A file was truncated to zero length (counted as a delete of its
    /// bytes by the lifetime analysis, per the paper).
    Truncate {
        /// The truncated file.
        file: FileId,
        /// Size before truncation, in bytes.
        old_size: u64,
        /// Age of the oldest byte at truncation.
        oldest_age: SimDuration,
        /// Age of the newest byte at truncation.
        newest_age: SimDuration,
    },
    /// A read that passed through to the server because the file was
    /// undergoing concurrent write-sharing.
    SharedRead {
        /// The shared file.
        file: FileId,
        /// Starting byte offset.
        offset: u64,
        /// Length in bytes.
        len: u64,
    },
    /// A write that passed through to the server because the file was
    /// undergoing concurrent write-sharing.
    SharedWrite {
        /// The shared file.
        file: FileId,
        /// Starting byte offset.
        offset: u64,
        /// Length in bytes.
        len: u64,
    },
    /// A user-level directory read (e.g. listing a directory).
    DirRead {
        /// The directory.
        file: FileId,
        /// Bytes of directory data returned.
        bytes: u64,
    },
}

impl Record {
    /// Returns the file the record concerns.
    pub fn file(&self) -> FileId {
        match self.kind {
            RecordKind::Open { file, .. }
            | RecordKind::Reposition { file, .. }
            | RecordKind::Close { file, .. }
            | RecordKind::Create { file, .. }
            | RecordKind::Delete { file, .. }
            | RecordKind::Truncate { file, .. }
            | RecordKind::SharedRead { file, .. }
            | RecordKind::SharedWrite { file, .. }
            | RecordKind::DirRead { file, .. } => file,
        }
    }

    /// Returns a short lowercase name for the record kind.
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            RecordKind::Open { .. } => "open",
            RecordKind::Reposition { .. } => "reposition",
            RecordKind::Close { .. } => "close",
            RecordKind::Create { .. } => "create",
            RecordKind::Delete { .. } => "delete",
            RecordKind::Truncate { .. } => "truncate",
            RecordKind::SharedRead { .. } => "shared_read",
            RecordKind::SharedWrite { .. } => "shared_write",
            RecordKind::DirRead { .. } => "dir_read",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: RecordKind) -> Record {
        Record {
            time: SimTime::from_secs(1),
            client: ClientId(2),
            user: UserId(3),
            pid: Pid(4),
            migrated: false,
            kind,
        }
    }

    #[test]
    fn open_mode_predicates() {
        assert!(OpenMode::Read.reads());
        assert!(!OpenMode::Read.writes());
        assert!(OpenMode::Write.writes());
        assert!(!OpenMode::Write.reads());
        assert!(OpenMode::ReadWrite.reads() && OpenMode::ReadWrite.writes());
    }

    #[test]
    fn file_extraction() {
        let r = rec(RecordKind::Delete {
            file: FileId(9),
            size: 100,
            is_dir: false,
            oldest_age: SimDuration::from_secs(5),
            newest_age: SimDuration::from_secs(1),
        });
        assert_eq!(r.file(), FileId(9));
        assert_eq!(r.kind_name(), "delete");
    }
}
