//! Per-client workstation state.
//!
//! Every client is diskless: all file data comes from servers through the
//! block cache. A client tracks its open files, its physical-memory
//! accounting (file cache vs. virtual memory), the file versions it has
//! seen (for open-time staleness checks), and its kernel counters.

use sdfs_simkit::FastMap;

use sdfs_simkit::{SimDuration, SimTime};
use sdfs_trace::{ClientId, FileId, Handle, OpenMode, Pid};

use crate::cache::BlockCache;
use crate::metrics::MachineMetrics;
use crate::vm::MemoryManager;

/// Client-side state of one open file.
#[derive(Debug, Clone)]
pub struct FdState {
    /// The open file.
    pub file: FileId,
    /// Declared mode.
    pub mode: OpenMode,
    /// Current byte offset.
    pub offset: u64,
    /// When the open happened.
    pub opened_at: SimTime,
    /// Bytes read in the current sequential run.
    pub run_read: u64,
    /// Bytes written in the current sequential run.
    pub run_written: u64,
    /// Total bytes read through this handle.
    pub total_read: u64,
    /// Total bytes written through this handle.
    pub total_written: u64,
    /// Whether the open was issued by a migrated process.
    pub migrated: bool,
    /// Conflict epoch at which `pass_through` was memoized (control-plane
    /// fast path). `u64::MAX` = never valid; the cluster stamps it at
    /// open time when the fast path is enabled.
    pub(crate) pass_epoch: u64,
    /// Memoized "reads/writes bypass the cache" flag (the file's
    /// `uncacheable` state), trusted while `pass_epoch` matches the
    /// cluster's conflict epoch — every `uncacheable` flip bumps it.
    pub(crate) pass_through: bool,
}

impl FdState {
    /// Creates the state for a fresh open.
    pub fn new(file: FileId, mode: OpenMode, now: SimTime, migrated: bool) -> Self {
        FdState {
            file,
            mode,
            offset: 0,
            opened_at: now,
            run_read: 0,
            run_written: 0,
            total_read: 0,
            total_written: 0,
            migrated,
            pass_epoch: u64::MAX,
            pass_through: false,
        }
    }

    /// Whether any data was written through this handle.
    pub fn wrote(&self) -> bool {
        self.total_written > 0
    }

    /// How long this handle has been open — the duration of the
    /// observability layer's file-open span when the close arrives.
    pub fn open_duration(&self, now: SimTime) -> SimDuration {
        now.since(self.opened_at)
    }
}

/// A running process, for VM accounting.
#[derive(Debug, Clone, Copy)]
pub struct ProcState {
    /// The executable file.
    pub exec: FileId,
    /// Resident code pages.
    pub code_pages: u64,
    /// Resident data (and stack) pages.
    pub data_pages: u64,
}

/// The data side of one client: the block cache, the memory manager,
/// the VM process table, and the kernel counters.
#[derive(Debug)]
pub struct ClientData {
    /// The file block cache.
    pub cache: BlockCache,
    /// Physical-memory accounting (file cache ↔ VM trade).
    pub mem: MemoryManager,
    /// Running processes (for the VM model).
    pub procs: FastMap<Pid, ProcState>,
    /// Shared program text: executable → (running instances, resident
    /// code pages). Concurrent processes of the same program share one
    /// copy of the code, as real Sprite did.
    pub shared_text: FastMap<FileId, (u32, u64)>,
    /// Kernel counters and cache-size samples.
    pub metrics: MachineMetrics,
    /// Scratch buffer reused for per-file block index lists on the
    /// flush and invalidate paths.
    pub scratch_blocks: Vec<u64>,
}

/// One diskless client workstation.
///
/// The struct itself holds the open-file and consistency bookkeeping
/// consulted on every operation; the cache, memory and counters live in
/// [`Client::data`] and are reachable through `Deref`, so
/// `client.cache` and `client.metrics` work everywhere.
#[derive(Debug)]
pub struct Client {
    /// The client's identity.
    pub id: ClientId,
    /// Cache, memory, processes, and counters.
    pub data: ClientData,
    /// Open file table.
    pub fds: FastMap<Handle, FdState>,
    /// Last file version this client observed, per file; used for the
    /// open-time staleness check.
    pub seen_version: FastMap<FileId, u64>,
    /// Last revalidation time per file (polling consistency mode).
    pub last_validate: FastMap<FileId, SimTime>,
    /// Last time any application operation ran here (for the Table 4
    /// activity screen).
    pub last_activity: SimTime,
}

impl std::ops::Deref for Client {
    type Target = ClientData;
    fn deref(&self) -> &ClientData {
        &self.data
    }
}

impl std::ops::DerefMut for Client {
    fn deref_mut(&mut self) -> &mut ClientData {
        &mut self.data
    }
}

impl ClientData {
    /// Creates the data side with the given memory geometry.
    pub fn new(
        mem_bytes: u64,
        reserved_bytes: u64,
        page_size: u64,
        preference: SimDuration,
        code_retention: SimDuration,
    ) -> Self {
        ClientData {
            cache: BlockCache::new(),
            mem: MemoryManager::new(
                mem_bytes,
                reserved_bytes,
                page_size,
                preference,
                code_retention,
            ),
            procs: FastMap::default(),
            shared_text: FastMap::default(),
            metrics: MachineMetrics::new(),
            scratch_blocks: Vec::new(),
        }
    }

    /// Current file cache size in bytes.
    pub fn cache_bytes(&self, page_size: u64) -> u64 {
        self.mem.fc_pages() * page_size
    }
}

impl Client {
    /// Creates a client with the given memory geometry.
    pub fn new(
        id: ClientId,
        mem_bytes: u64,
        reserved_bytes: u64,
        page_size: u64,
        preference: SimDuration,
        code_retention: SimDuration,
    ) -> Self {
        Client {
            id,
            data: ClientData::new(
                mem_bytes,
                reserved_bytes,
                page_size,
                preference,
                code_retention,
            ),
            fds: FastMap::default(),
            seen_version: FastMap::default(),
            last_validate: FastMap::default(),
            last_activity: SimTime::ZERO,
        }
    }

    /// Returns `true` if this client holds any open handle on `file`.
    pub fn has_open(&self, file: FileId) -> bool {
        self.fds.values().any(|fd| fd.file == file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client() -> Client {
        Client::new(
            ClientId(1),
            24 << 20,
            6 << 20,
            4096,
            SimDuration::from_mins(20),
            SimDuration::from_mins(20),
        )
    }

    #[test]
    fn fd_lifecycle() {
        let mut c = client();
        let fd = FdState::new(FileId(3), OpenMode::ReadWrite, SimTime::from_secs(1), false);
        assert!(!fd.wrote());
        c.fds.insert(Handle(1), fd);
        assert!(c.has_open(FileId(3)));
        assert!(!c.has_open(FileId(4)));
        let st = c.fds.get_mut(&Handle(1)).expect("fd present");
        st.total_written = 10;
        assert!(st.wrote());
        c.fds.remove(&Handle(1));
        assert!(!c.has_open(FileId(3)));
    }

    #[test]
    fn cache_bytes_follow_memory_manager() {
        let mut c = client();
        assert_eq!(c.cache_bytes(4096), 0);
        c.mem.fc_acquire(SimTime::ZERO);
        c.mem.fc_acquire(SimTime::ZERO);
        assert_eq!(c.cache_bytes(4096), 8192);
    }
}
