//! File-server state: server caches and per-file consistency bookkeeping.
//!
//! Servers cache both naming information and file data (clients cache
//! only file data); naming operations — opens, closes, deletes — always
//! pass through to the server, which is what makes system-wide tracing
//! from the servers possible. The server also owns the consistency
//! state: who has each file open and in what mode, who wrote it last,
//! whether client caching is disabled, and (in token mode) who holds
//! which tokens.

use sdfs_simkit::{FastMap, FastSet};

use sdfs_simkit::{CounterSet, SimTime};
use sdfs_trace::{ClientId, FileId, Handle, OpenMode, ServerId};

use crate::cache::{BlockCache, BlockKey};

/// One client's open of a file, as the server sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenEntry {
    /// The opening client.
    pub client: ClientId,
    /// The open handle.
    pub handle: Handle,
    /// Declared mode.
    pub mode: OpenMode,
}

/// Token state for one file (token consistency mode only).
#[derive(Debug, Clone, Default)]
pub struct TokenState {
    /// Clients holding read tokens.
    pub readers: FastSet<ClientId>,
    /// The client holding the write token, if any.
    pub writer: Option<ClientId>,
}

/// Epoch-guarded summary of a *calm* file: a single client using the
/// file with no conflicting state, which lets the cluster's control
/// plane admit an open or close with an O(1) decision instead of the
/// full consistency walk (DESIGN.md §13).
///
/// The summary is trusted only while `live` is set **and** `epoch`
/// matches the cluster's current conflict epoch. Every slow-path walk
/// recomputes it from the actual state, and cluster-wide disruptions
/// (cache-mode flips, client restarts, server crashes and recoveries,
/// deletes, truncates) bump the epoch, killing every summary at once.
#[derive(Debug, Clone, Copy)]
pub struct CalmState {
    /// Whether the summary is meaningful at all (`false` forces the
    /// slow path, which recomputes it).
    pub live: bool,
    /// Conflict epoch at establishment.
    pub epoch: u64,
    /// The sole client using the file.
    pub client: ClientId,
    /// Version stamp the client's cache tracks (Sprite policies):
    /// equals both the file's current version and the client's
    /// `seen_version` entry while the summary holds.
    pub seen_version: u64,
    /// The client holds the write token (token policy).
    pub holds_write: bool,
    /// The client holds a read token (token policy).
    pub holds_read: bool,
    /// The client's most recent attribute poll (polling policy).
    pub last_validate: SimTime,
}

impl Default for CalmState {
    fn default() -> Self {
        CalmState {
            live: false,
            epoch: 0,
            client: ClientId(0),
            seen_version: 0,
            holds_write: false,
            holds_read: false,
            last_validate: SimTime::ZERO,
        }
    }
}

/// Per-file consistency state kept by the owning server.
#[derive(Debug, Clone, Default)]
pub struct SrvFileState {
    /// Current opens of this file.
    pub opens: Vec<OpenEntry>,
    /// Whether clients may cache this file (false during concurrent
    /// write-sharing under the Sprite policies).
    pub uncacheable: bool,
    /// The client whose cache may hold the newest data.
    pub last_writer: Option<ClientId>,
    /// Token holders (token mode).
    pub tokens: TokenState,
    /// Fast-path summary. Bookkeeping only: no output-visible code path
    /// reads it, so a stale (dead) summary can never change a byte.
    pub calm: CalmState,
}

impl SrvFileState {
    /// Number of distinct clients with the file open. The opens list is
    /// tiny (a handful at most), so a quadratic scan beats allocating a
    /// scratch vector — this runs on every open and close.
    pub fn distinct_clients(&self) -> usize {
        let mut n = 0;
        for (i, o) in self.opens.iter().enumerate() {
            if !self.opens[..i].iter().any(|p| p.client == o.client) {
                n += 1;
            }
        }
        n
    }

    /// Whether any open is a writing open.
    pub fn any_writer(&self) -> bool {
        self.opens.iter().any(|o| o.mode.writes())
    }

    /// The concurrent write-sharing condition of Section 5.5: open on
    /// multiple machines with at least one writer.
    pub fn write_shared(&self) -> bool {
        self.distinct_clients() >= 2 && self.any_writer()
    }

    /// Removes the open identified by `handle`, returning it.
    pub fn remove_open(&mut self, handle: Handle) -> Option<OpenEntry> {
        let idx = self.opens.iter().position(|o| o.handle == handle)?;
        Some(self.opens.remove(idx))
    }

    /// Whether this state carries no information and can be dropped.
    pub fn is_quiescent(&self) -> bool {
        self.opens.is_empty()
            && !self.uncacheable
            && self.last_writer.is_none()
            && self.tokens.readers.is_empty()
            && self.tokens.writer.is_none()
    }
}

/// One file server.
#[derive(Debug)]
pub struct Server {
    /// The server's identity.
    pub id: ServerId,
    /// The server's block cache.
    pub cache: BlockCache,
    /// Cache capacity in blocks.
    pub capacity_blocks: u64,
    /// Per-file consistency state (only for files with activity).
    pub files: FastMap<FileId, SrvFileState>,
    /// Server-side counters (disk traffic, RPCs served).
    pub counters: CounterSet,
    /// Scratch buffer reused by the write-back daemon's file scan.
    scratch_files: Vec<FileId>,
    /// Scratch buffer reused for per-file block index lists.
    scratch_blocks: Vec<u64>,
    /// When set, every block written to disk is appended to
    /// `disk_flush_log` (SpriteSan uses this to track what survives a
    /// crash). Off by default so plain runs pay nothing.
    log_disk_flushes: bool,
    /// Blocks flushed to disk since the last [`Server::take_disk_flush_log`].
    disk_flush_log: Vec<BlockKey>,
}

impl Server {
    /// Creates a server with the given cache capacity.
    pub fn new(id: ServerId, capacity_bytes: u64, block_size: u64) -> Self {
        Server {
            id,
            cache: BlockCache::new(),
            capacity_blocks: capacity_bytes / block_size,
            files: FastMap::default(),
            counters: CounterSet::new(),
            scratch_files: Vec::new(),
            scratch_blocks: Vec::new(),
            log_disk_flushes: false,
            disk_flush_log: Vec::new(),
        }
    }

    /// Enables or disables the disk-flush event log (sanitized runs only).
    pub fn set_disk_flush_logging(&mut self, on: bool) {
        self.log_disk_flushes = on;
        if !on {
            self.disk_flush_log.clear();
        }
    }

    /// Drains the disk-flush log into `into` (appending), leaving the log
    /// empty. No-op unless logging is enabled.
    pub fn take_disk_flush_log(&mut self, into: &mut Vec<BlockKey>) {
        into.append(&mut self.disk_flush_log);
    }

    /// A power failure: the volatile block cache and all per-client
    /// consistency state vanish; only what reached disk survives. Dirty
    /// cached blocks are destroyed — each is appended to `lost` with its
    /// accumulated application bytes — and the total lost bytes are
    /// returned. Counters survive (they model the tracing daemon's
    /// stable log, and wiping them would break campaign accounting).
    ///
    /// `nvram_bytes` models a battery-backed write buffer
    /// ([`crate::Config::server_nvram_bytes`]): the newest
    /// `nvram_bytes` of dirty data survive the crash — appended to
    /// `saved` instead of `lost` — and replay to disk at reboot, so
    /// they are as durable as a disk flush. With a buffer at least as
    /// large as the dirty working set, crash loss drops to zero while
    /// the delayed-write traffic savings are untouched (the buffer only
    /// matters at crash time).
    pub fn crash(
        &mut self,
        lost: &mut Vec<(BlockKey, u64)>,
        nvram_bytes: u64,
        saved: &mut Vec<(BlockKey, u64)>,
    ) -> u64 {
        let mut files = std::mem::take(&mut self.scratch_files);
        let mut blocks = std::mem::take(&mut self.scratch_blocks);
        self.cache.files_with_dirty_before_into(SimTime::MAX, &mut files);
        let first_lost = lost.len();
        for &file in &files {
            self.cache.dirty_blocks_of_into(file, &mut blocks);
            for &index in &blocks {
                let key = BlockKey { file, index };
                let bytes = self
                    .cache
                    .get(key)
                    .map(|e| e.dirty_app_bytes)
                    .unwrap_or(0);
                lost.push((key, bytes));
            }
        }
        // The scan runs oldest-dirty first, so the buffer's contents —
        // the newest writes — sit at the tail: move entries from the
        // tail to `saved` until the buffer budget runs out.
        let mut budget = nvram_bytes;
        while nvram_bytes > 0 && lost.len() > first_lost {
            let &(_, bytes) = lost.last().expect("tail entry");
            if bytes > budget {
                break;
            }
            budget -= bytes;
            saved.push(lost.pop().expect("tail entry"));
        }
        let lost_bytes = lost[first_lost..].iter().map(|&(_, b)| b).sum();
        files.clear();
        blocks.clear();
        self.scratch_files = files;
        self.scratch_blocks = blocks;
        self.cache = BlockCache::new();
        self.files.clear();
        self.disk_flush_log.clear();
        lost_bytes
    }

    /// Mutable access to the consistency state for `file`, creating it on
    /// first touch.
    pub fn file_state(&mut self, file: FileId) -> &mut SrvFileState {
        self.files.entry(file).or_default()
    }

    /// Drops quiescent file state to keep the map small.
    pub fn gc_file(&mut self, file: FileId) {
        if self
            .files
            .get(&file)
            .is_some_and(SrvFileState::is_quiescent)
        {
            self.files.remove(&file);
        }
    }

    /// Serves a block read from a client: hit in the server cache or a
    /// disk read. `block_bytes` is the payload size. Returns `true` on a
    /// server-cache hit — the observability layer uses this to decide
    /// whether the RPC's modeled latency includes a disk access.
    pub fn serve_read(&mut self, key: BlockKey, block_bytes: u64, now: SimTime) -> bool {
        self.counters.add("server.read.bytes", block_bytes);
        if self.cache.touch(key, now) {
            self.counters.bump("server.cache.read.hit");
            true
        } else {
            self.counters.bump("server.cache.read.miss");
            self.counters.add("server.disk.read.bytes", block_bytes);
            self.insert_block(key, now);
            false
        }
    }

    /// Accepts a block write from a client into the server cache (the
    /// server itself uses a 30-second delayed write to disk).
    pub fn accept_write(&mut self, key: BlockKey, block_bytes: u64, now: SimTime) {
        self.counters.add("server.write.bytes", block_bytes);
        self.insert_block(key, now);
        self.cache.mark_dirty(key, now, block_bytes);
    }

    /// Inserts a block, evicting LRU blocks past capacity (dirty
    /// evictions are written to disk first).
    fn insert_block(&mut self, key: BlockKey, now: SimTime) {
        self.cache.insert(key, now);
        while self.cache.len() as u64 > self.capacity_blocks {
            if let Some((evicted, entry)) = self.cache.pop_lru() {
                if entry.dirty {
                    self.counters.add("server.disk.write.bytes", 4096);
                    if self.log_disk_flushes {
                        self.disk_flush_log.push(evicted);
                    }
                }
                self.counters.bump("server.cache.evictions");
            } else {
                break;
            }
        }
    }

    /// The server's delayed-write daemon: flush blocks dirty since
    /// `cutoff` to disk.
    pub fn flush_dirty_before(&mut self, cutoff: SimTime, block_size: u64) {
        let mut files = std::mem::take(&mut self.scratch_files);
        let mut blocks = std::mem::take(&mut self.scratch_blocks);
        self.cache.files_with_dirty_before_into(cutoff, &mut files);
        for &file in &files {
            self.cache.dirty_blocks_of_into(file, &mut blocks);
            for &index in &blocks {
                let key = BlockKey { file, index };
                if self.cache.clean(key).is_some() {
                    self.counters.add("server.disk.write.bytes", block_size);
                    if self.log_disk_flushes {
                        self.disk_flush_log.push(key);
                    }
                }
            }
        }
        self.scratch_files = files;
        self.scratch_blocks = blocks;
    }

    /// Drops all cached blocks of `file` (deletion or truncation).
    pub fn drop_file_blocks(&mut self, file: FileId) {
        let mut blocks = std::mem::take(&mut self.scratch_blocks);
        self.cache.blocks_of_into(file, &mut blocks);
        for &index in &blocks {
            self.cache.remove(BlockKey { file, index });
        }
        self.scratch_blocks = blocks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(file: u64, index: u64) -> BlockKey {
        BlockKey {
            file: FileId(file),
            index,
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn write_sharing_condition() {
        let mut s = SrvFileState::default();
        s.opens.push(OpenEntry {
            client: ClientId(1),
            handle: Handle(1),
            mode: OpenMode::Read,
        });
        assert!(!s.write_shared());
        s.opens.push(OpenEntry {
            client: ClientId(1),
            handle: Handle(2),
            mode: OpenMode::Write,
        });
        // Same machine twice: not *concurrent* write-sharing.
        assert!(!s.write_shared());
        s.opens.push(OpenEntry {
            client: ClientId(2),
            handle: Handle(3),
            mode: OpenMode::Read,
        });
        assert!(s.write_shared());
        s.remove_open(Handle(2));
        assert!(!s.write_shared());
    }

    #[test]
    fn quiescence_and_gc() {
        let mut srv = Server::new(ServerId(0), 1 << 20, 4096);
        let st = srv.file_state(FileId(1));
        st.opens.push(OpenEntry {
            client: ClientId(0),
            handle: Handle(1),
            mode: OpenMode::Read,
        });
        srv.gc_file(FileId(1));
        assert!(srv.files.contains_key(&FileId(1)), "still open");
        srv.file_state(FileId(1)).remove_open(Handle(1));
        srv.gc_file(FileId(1));
        assert!(!srv.files.contains_key(&FileId(1)), "gc after quiesce");
    }

    #[test]
    fn server_cache_hit_miss() {
        let mut srv = Server::new(ServerId(0), 8 * 4096, 4096);
        srv.serve_read(key(1, 0), 4096, t(1));
        assert_eq!(srv.counters.get("server.cache.read.miss"), 1);
        assert_eq!(srv.counters.get("server.disk.read.bytes"), 4096);
        srv.serve_read(key(1, 0), 4096, t(2));
        assert_eq!(srv.counters.get("server.cache.read.hit"), 1);
    }

    #[test]
    fn capacity_eviction_writes_dirty_to_disk() {
        let mut srv = Server::new(ServerId(0), 2 * 4096, 4096);
        srv.accept_write(key(1, 0), 4096, t(1));
        srv.accept_write(key(1, 1), 4096, t(2));
        assert_eq!(srv.cache.len(), 2);
        srv.serve_read(key(2, 0), 4096, t(3));
        assert_eq!(srv.cache.len(), 2, "capacity enforced");
        assert_eq!(srv.counters.get("server.cache.evictions"), 1);
        // The evicted block (1,0) was dirty → disk write.
        assert_eq!(srv.counters.get("server.disk.write.bytes"), 4096);
    }

    #[test]
    fn daemon_flush() {
        let mut srv = Server::new(ServerId(0), 1 << 20, 4096);
        srv.accept_write(key(1, 0), 4096, t(0));
        srv.accept_write(key(2, 0), 4096, t(50));
        srv.flush_dirty_before(t(30), 4096);
        assert_eq!(srv.counters.get("server.disk.write.bytes"), 4096);
        assert_eq!(srv.cache.dirty_len(), 1);
    }

    #[test]
    fn crash_destroys_dirty_blocks_but_not_disk() {
        let mut srv = Server::new(ServerId(0), 1 << 20, 4096);
        srv.set_disk_flush_logging(true);
        srv.accept_write(key(1, 0), 4096, t(0));
        srv.accept_write(key(2, 0), 4096, t(50));
        // The daemon flushes the old block to disk; the young one stays
        // dirty in the volatile cache.
        srv.flush_dirty_before(t(30), 4096);
        let mut flushed = Vec::new();
        srv.take_disk_flush_log(&mut flushed);
        assert_eq!(flushed, vec![key(1, 0)]);
        srv.file_state(FileId(2)).last_writer = Some(ClientId(3));

        let mut lost = Vec::new();
        let mut saved = Vec::new();
        let lost_bytes = srv.crash(&mut lost, 0, &mut saved);
        assert_eq!(lost, vec![(key(2, 0), 4096)], "unflushed block destroyed");
        assert_eq!(lost_bytes, 4096);
        assert!(saved.is_empty(), "no NVRAM, nothing saved");
        assert!(srv.cache.is_empty(), "volatile cache gone");
        assert!(srv.files.is_empty(), "consistency state gone");
        // A second crash right after loses nothing.
        let mut lost2 = Vec::new();
        assert_eq!(srv.crash(&mut lost2, 0, &mut saved), 0);
        assert!(lost2.is_empty());
    }

    #[test]
    fn nvram_buffer_saves_newest_dirty_data() {
        let mut srv = Server::new(ServerId(0), 1 << 20, 4096);
        srv.accept_write(key(1, 0), 4096, t(0));
        srv.accept_write(key(2, 0), 4096, t(50));
        srv.accept_write(key(3, 0), 4096, t(90));

        // A one-block buffer carries the newest write across the crash.
        let mut lost = Vec::new();
        let mut saved = Vec::new();
        let lost_bytes = srv.crash(&mut lost, 4096, &mut saved);
        assert_eq!(lost_bytes, 8192);
        assert_eq!(lost.len(), 2);
        assert_eq!(saved, vec![(key(3, 0), 4096)], "newest dirty block saved");

        // A buffer bigger than the dirty set drops loss to zero.
        srv.accept_write(key(1, 0), 4096, t(200));
        srv.accept_write(key(2, 0), 4096, t(210));
        let mut lost = Vec::new();
        let mut saved = Vec::new();
        let lost_bytes = srv.crash(&mut lost, 1 << 20, &mut saved);
        assert_eq!(lost_bytes, 0);
        assert!(lost.is_empty());
        assert_eq!(saved.len(), 2);
    }

    #[test]
    fn drop_file_blocks() {
        let mut srv = Server::new(ServerId(0), 1 << 20, 4096);
        srv.accept_write(key(1, 0), 4096, t(0));
        srv.accept_write(key(1, 1), 4096, t(0));
        srv.accept_write(key(2, 0), 4096, t(0));
        srv.drop_file_blocks(FileId(1));
        assert_eq!(srv.cache.len(), 1);
        assert_eq!(srv.cache.dirty_len(), 1);
    }
}
