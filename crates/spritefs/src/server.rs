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
use crate::config::BLOCK_SIZE;
use crate::metrics::server as names;

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

    /// Whether `client` holds anything here: an open, the writer of
    /// record, or a token.
    pub(crate) fn involves(&self, client: ClientId) -> bool {
        self.opens.iter().any(|o| o.client == client)
            || self.last_writer == Some(client)
            || self.tokens.writer == Some(client)
            || self.tokens.readers.contains(&client)
    }

    /// Forgets `client`'s opens, writer-of-record role and tokens, as
    /// after its crash or a revoked grant.
    pub(crate) fn forget(&mut self, client: ClientId) {
        self.opens.retain(|o| o.client != client);
        if self.last_writer == Some(client) {
            self.last_writer = None;
        }
        if self.tokens.writer == Some(client) {
            self.tokens.writer = None;
        }
        self.tokens.readers.remove(&client);
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

/// Dirty blocks a crash destroyed or saved, each with its accumulated
/// application bytes ([`Server::crash`]).
pub type CrashBlocks = Vec<(BlockKey, u64)>;

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
    /// When set, every block written to disk is appended to
    /// `disk_flush_log` (SpriteSan uses this to track what survives a
    /// crash). Off by default so plain runs pay nothing.
    log_disk_flushes: bool,
    /// Blocks flushed to disk since the last [`Server::take_disk_flush_log`].
    disk_flush_log: Vec<BlockKey>,
}

impl Server {
    /// Creates a server with the given cache capacity. Each block's disk
    /// write costs [`BLOCK_SIZE`] bytes.
    pub fn new(id: ServerId, capacity_bytes: u64) -> Self {
        Server {
            id,
            cache: BlockCache::new(),
            capacity_blocks: capacity_bytes / BLOCK_SIZE,
            files: FastMap::default(),
            counters: CounterSet::new(),
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

    /// Removes and returns the disk-flush log, leaving it empty (always
    /// empty unless logging is enabled).
    pub fn take_disk_flush_log(&mut self) -> Vec<BlockKey> {
        std::mem::take(&mut self.disk_flush_log)
    }

    /// A power failure: the volatile block cache and all per-client
    /// consistency state vanish; only what reached disk survives.
    /// Returns `(lost, saved)`: the dirty cached blocks destroyed, and
    /// those the write buffer saved, each with its accumulated
    /// application bytes. Counters survive (they model the tracing
    /// daemon's stable log, and wiping them would break campaign
    /// accounting).
    ///
    /// `nvram_bytes` models a battery-backed write buffer
    /// ([`crate::Config::server_nvram_bytes`]): the most recently
    /// written `nvram_bytes` of dirty data (by each block's last write,
    /// ties by key) survive the crash — returned in `saved`, newest
    /// first, instead of `lost` — and replay to disk at reboot, so they
    /// are as durable as a disk flush. With a buffer at least as large
    /// as the dirty working set, crash loss drops to zero while the
    /// delayed-write traffic savings are untouched (the buffer only
    /// matters at crash time).
    pub fn crash(&mut self, nvram_bytes: u64) -> (CrashBlocks, CrashBlocks) {
        let mut dirty = Vec::new();
        for file in self.cache.files_with_dirty_before(SimTime::MAX) {
            for (index, d) in self.cache.clean_file(file) {
                dirty.push((d.last_write, BlockKey { file, index }, d.dirty_app_bytes));
            }
        }
        // Oldest write first, so the buffer's contents — the newest
        // writes — sit at the tail: move entries from the tail to
        // `saved` until the buffer budget runs out.
        dirty.sort_unstable_by_key(|&(written, key, _)| (written, key));
        let mut lost: CrashBlocks = dirty
            .into_iter()
            .map(|(_, key, bytes)| (key, bytes))
            .collect();
        let mut saved = Vec::new();
        let mut budget = nvram_bytes;
        while let Some(&(_, bytes)) = lost.last() {
            if nvram_bytes == 0 || bytes > budget {
                break;
            }
            budget -= bytes;
            saved.extend(lost.pop());
        }
        self.cache = BlockCache::new();
        self.files.clear();
        self.disk_flush_log.clear();
        (lost, saved)
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
    /// disk read, each of [`BLOCK_SIZE`] bytes. Returns `true` on a
    /// server-cache hit — the observability layer uses this to decide
    /// whether the RPC's modeled latency includes a disk access.
    pub fn serve_read(&mut self, key: BlockKey, now: SimTime) -> bool {
        self.counters.add(names::READ_BYTES, BLOCK_SIZE);
        if self.cache.touch(key, now) {
            self.counters.bump(names::CACHE_READ_HIT);
            true
        } else {
            self.counters.bump(names::CACHE_READ_MISS);
            self.counters.add(names::DISK_READ_BYTES, BLOCK_SIZE);
            self.cache.insert(key, now);
            self.evict_past_capacity();
            false
        }
    }

    /// Accepts a block write from a client into the server cache (the
    /// server itself uses a 30-second delayed write to disk).
    pub fn accept_write(&mut self, key: BlockKey, block_bytes: u64, now: SimTime) {
        self.counters.add(names::WRITE_BYTES, block_bytes);
        self.cache.insert_dirty(key, now, block_bytes);
        self.evict_past_capacity();
    }

    /// Evicts LRU blocks until the cache fits its capacity (dirty
    /// evictions are written to disk first).
    fn evict_past_capacity(&mut self) {
        while self.cache.len() as u64 > self.capacity_blocks {
            if let Some((evicted, entry)) = self.cache.pop_lru() {
                if entry.dirty.is_some() {
                    self.counters.add(names::DISK_WRITE_BYTES, BLOCK_SIZE);
                    if self.log_disk_flushes {
                        self.disk_flush_log.push(evicted);
                    }
                }
                self.counters.bump(names::CACHE_EVICTIONS);
            } else {
                break;
            }
        }
    }

    /// The server's delayed-write daemon: flush blocks dirty since
    /// `cutoff` to disk.
    pub fn flush_dirty_before(&mut self, cutoff: SimTime) {
        for file in self.cache.files_with_dirty_before(cutoff) {
            for (index, _) in self.cache.clean_file(file) {
                self.counters.add(names::DISK_WRITE_BYTES, BLOCK_SIZE);
                if self.log_disk_flushes {
                    self.disk_flush_log.push(BlockKey { file, index });
                }
            }
        }
    }

    /// Drops all cached blocks of `file` (deletion or truncation).
    pub fn drop_file_blocks(&mut self, file: FileId) {
        self.cache.remove_file(file);
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
        let mut srv = Server::new(ServerId(0), 1 << 20);
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
        let mut srv = Server::new(ServerId(0), 8 * 4096);
        srv.serve_read(key(1, 0), t(1));
        assert_eq!(srv.counters.get("server.cache.read.miss"), 1);
        assert_eq!(srv.counters.get("server.disk.read.bytes"), 4096);
        srv.serve_read(key(1, 0), t(2));
        assert_eq!(srv.counters.get("server.cache.read.hit"), 1);
    }

    #[test]
    fn capacity_eviction_writes_dirty_to_disk() {
        let mut srv = Server::new(ServerId(0), 2 * 4096);
        srv.accept_write(key(1, 0), 4096, t(1));
        srv.accept_write(key(1, 1), 4096, t(2));
        assert_eq!(srv.cache.len(), 2);
        srv.serve_read(key(2, 0), t(3));
        assert_eq!(srv.cache.len(), 2, "capacity enforced");
        assert_eq!(srv.counters.get("server.cache.evictions"), 1);
        // The evicted block (1,0) was dirty → disk write.
        assert_eq!(srv.counters.get("server.disk.write.bytes"), 4096);
    }

    #[test]
    fn daemon_flush() {
        let mut srv = Server::new(ServerId(0), 1 << 20);
        srv.accept_write(key(1, 0), 4096, t(0));
        srv.accept_write(key(2, 0), 4096, t(50));
        srv.flush_dirty_before(t(30));
        assert_eq!(srv.counters.get("server.disk.write.bytes"), 4096);
        assert_eq!(srv.cache.dirty_len(), 1);
    }

    #[test]
    fn crash_destroys_dirty_blocks_but_not_disk() {
        let mut srv = Server::new(ServerId(0), 1 << 20);
        srv.set_disk_flush_logging(true);
        srv.accept_write(key(1, 0), 4096, t(0));
        srv.accept_write(key(2, 0), 4096, t(50));
        // The daemon flushes the old block to disk; the young one stays
        // dirty in the volatile cache.
        srv.flush_dirty_before(t(30));
        assert_eq!(srv.take_disk_flush_log(), vec![key(1, 0)]);
        srv.file_state(FileId(2)).last_writer = Some(ClientId(3));

        let (lost, saved) = srv.crash(0);
        assert_eq!(lost, vec![(key(2, 0), 4096)], "unflushed block destroyed");
        assert!(saved.is_empty(), "no NVRAM, nothing saved");
        assert!(srv.cache.is_empty(), "volatile cache gone");
        assert!(srv.files.is_empty(), "consistency state gone");
        // A second crash right after loses nothing.
        assert_eq!(srv.crash(0), (vec![], vec![]));
    }

    #[test]
    fn nvram_buffer_saves_newest_dirty_data() {
        let mut srv = Server::new(ServerId(0), 1 << 20);
        srv.accept_write(key(1, 0), 4096, t(0));
        srv.accept_write(key(2, 0), 4096, t(50));
        srv.accept_write(key(3, 0), 4096, t(90));

        // A one-block buffer carries the newest write across the crash.
        let (lost, saved) = srv.crash(4096);
        assert_eq!(lost, vec![(key(1, 0), 4096), (key(2, 0), 4096)]);
        assert_eq!(saved, vec![(key(3, 0), 4096)], "newest dirty block saved");

        // A buffer bigger than the dirty set drops loss to zero.
        srv.accept_write(key(1, 0), 4096, t(200));
        srv.accept_write(key(2, 0), 4096, t(210));
        let (lost, saved) = srv.crash(1 << 20);
        assert!(lost.is_empty());
        assert_eq!(saved, vec![(key(2, 0), 4096), (key(1, 0), 4096)]);
    }

    #[test]
    fn disk_writes_charge_the_block_size() {
        // Clients write 100 bytes of each block; the disk writes whole
        // blocks.
        let mut srv = Server::new(ServerId(0), 2 * BLOCK_SIZE);
        srv.accept_write(key(1, 0), 100, t(1));
        srv.accept_write(key(1, 1), 100, t(2));
        // A capacity eviction writes the dirty (1,0) to disk.
        srv.serve_read(key(2, 0), t(3));
        assert_eq!(srv.counters.get("server.disk.write.bytes"), BLOCK_SIZE);
        // The daemon writes the still-dirty (1,1).
        srv.flush_dirty_before(t(40));
        assert_eq!(srv.counters.get("server.disk.write.bytes"), 2 * BLOCK_SIZE);
    }

    #[test]
    fn nvram_buffer_keeps_the_newest_write_not_the_highest_file() {
        let mut srv = Server::new(ServerId(0), 1 << 20);
        srv.accept_write(key(3, 0), 4096, t(0));
        srv.accept_write(key(1, 0), 4096, t(50));
        let (lost, saved) = srv.crash(4096);
        assert_eq!(saved, vec![(key(1, 0), 4096)], "t=50 write saved");
        assert_eq!(lost, vec![(key(3, 0), 4096)], "t=0 write lost");
    }

    #[test]
    fn drop_file_blocks() {
        let mut srv = Server::new(ServerId(0), 1 << 20);
        srv.accept_write(key(1, 0), 4096, t(0));
        srv.accept_write(key(1, 1), 4096, t(0));
        srv.accept_write(key(2, 0), 4096, t(0));
        srv.drop_file_blocks(FileId(1));
        assert_eq!(srv.cache.len(), 1);
        assert_eq!(srv.cache.dirty_len(), 1);
    }
}
