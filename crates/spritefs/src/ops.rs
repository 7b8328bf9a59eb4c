//! The application-level operation stream consumed by the cluster.
//!
//! `sdfs-workload` produces a time-ordered sequence of [`AppOp`]s — the
//! kernel-call-level requests that user processes would have issued on the
//! measured cluster. The simulator executes them against the caches and
//! servers; it never sees "applications", only this stream.

use sdfs_simkit::SimTime;
use sdfs_trace::{ClientId, FileId, Handle, OpenMode, Pid, UserId};

/// One application-level operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppOp {
    /// When the operation is issued.
    pub time: SimTime,
    /// The workstation it runs on.
    pub client: ClientId,
    /// The user it runs as.
    pub user: UserId,
    /// The issuing process.
    pub pid: Pid,
    /// Whether the process is running under process migration.
    pub migrated: bool,
    /// The operation itself.
    pub kind: OpKind,
}

/// The operation vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// Open a file (or directory) with the given mode. The workload
    /// allocates `fd` handles that are unique across the whole trace.
    Open {
        /// Handle for subsequent operations on this open.
        fd: Handle,
        /// File to open.
        file: FileId,
        /// Declared access mode.
        mode: OpenMode,
    },
    /// Read `len` bytes sequentially from the current offset. Reads past
    /// end-of-file are truncated to the available bytes.
    Read {
        /// Which open.
        fd: Handle,
        /// Requested length in bytes.
        len: u64,
    },
    /// Write `len` bytes sequentially at the current offset, extending
    /// the file if the write passes end-of-file.
    Write {
        /// Which open.
        fd: Handle,
        /// Length in bytes.
        len: u64,
    },
    /// Change the file offset (`lseek`), ending the current sequential
    /// run.
    Seek {
        /// Which open.
        fd: Handle,
        /// New absolute offset.
        to: u64,
    },
    /// Close an open file.
    Close {
        /// Which open.
        fd: Handle,
    },
    /// Force the open file's dirty data through to the server (`fsync`).
    Fsync {
        /// Which open.
        fd: Handle,
    },
    /// Create a file or directory. The workload allocates [`FileId`]s.
    Create {
        /// Identity of the new object.
        file: FileId,
        /// Whether it is a directory.
        is_dir: bool,
    },
    /// Remove a file or directory.
    Delete {
        /// The object to remove.
        file: FileId,
    },
    /// Truncate a file to zero length.
    Truncate {
        /// The file to truncate.
        file: FileId,
    },
    /// Read directory contents (e.g. `ls`); directories are not cached on
    /// clients, so this is pass-through traffic.
    ReadDir {
        /// The directory.
        dir: FileId,
        /// Bytes of directory data returned.
        bytes: u64,
    },
    /// A process starts executing `exec`: the VM system faults in code
    /// and initialized-data pages (checking the client file cache).
    /// Heap and stack memory is acquired but never read from the file.
    ProcStart {
        /// The executable file.
        exec: FileId,
        /// Bytes of program text.
        code_bytes: u64,
        /// Bytes of initialized data (faulted from the executable).
        data_bytes: u64,
        /// Bytes of heap/stack the process grows to (VM pressure only).
        heap_bytes: u64,
    },
    /// The process exits: its dirty pages are discarded, its code pages
    /// are retained for a while for future invocations.
    ProcExit,
    /// Page-in from a backing file (modified data / stack that was paged
    /// out earlier). Never cached on the client.
    PageIn {
        /// The backing file.
        file: FileId,
        /// Byte offset within it.
        offset: u64,
        /// Bytes paged in.
        bytes: u64,
    },
    /// Page-out to a backing file under memory pressure.
    PageOut {
        /// The backing file.
        file: FileId,
        /// Byte offset within it.
        offset: u64,
        /// Bytes paged out.
        bytes: u64,
    },
}

impl AppOp {
    /// Returns a short lowercase name for the operation kind.
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            OpKind::Open { .. } => "open",
            OpKind::Read { .. } => "read",
            OpKind::Write { .. } => "write",
            OpKind::Seek { .. } => "seek",
            OpKind::Close { .. } => "close",
            OpKind::Fsync { .. } => "fsync",
            OpKind::Create { .. } => "create",
            OpKind::Delete { .. } => "delete",
            OpKind::Truncate { .. } => "truncate",
            OpKind::ReadDir { .. } => "readdir",
            OpKind::ProcStart { .. } => "proc_start",
            OpKind::ProcExit => "proc_exit",
            OpKind::PageIn { .. } => "page_in",
            OpKind::PageOut { .. } => "page_out",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names() {
        let op = AppOp {
            time: SimTime::ZERO,
            client: ClientId(0),
            user: UserId(0),
            pid: Pid(0),
            migrated: false,
            kind: OpKind::ProcExit,
        };
        assert_eq!(op.kind_name(), "proc_exit");
        let mut op2 = op.clone();
        op2.kind = OpKind::Read {
            fd: Handle(1),
            len: 42,
        };
        assert_eq!(op2.kind_name(), "read");
    }
}
