//! SpriteSan: a runtime shadow-state oracle for the cache hierarchy.
//!
//! The scorecard validates aggregate outputs against the paper; the
//! sanitizer validates the *mechanism*. When [`crate::Config::sanitize`]
//! is set, the cluster threads every cache event through a [`Sanitizer`]
//! that maintains ground truth independently of the simulated caches:
//!
//! * `truth` — the newest version of each block any application wrote;
//! * `server_ver` — the version the owning server currently holds;
//! * `held` — the version each client's cache holds for each block;
//! * `dirty_holder` — which client (if any) holds a block dirty.
//!
//! Against that state it asserts four invariants from the paper's
//! description of Sprite:
//!
//! 1. **No stale reads** under the strong policies (Sprite, modified
//!    Sprite, tokens): a cached read — hit or miss-fetch — must observe
//!    the newest written version. (Polling is exempt: stale reads are
//!    its documented trade-off, and the simulator counts them
//!    separately. Paging reads are exempt too: process faults have no
//!    open, so open-time consistency deliberately does not cover them.)
//! 2. **Single dirty holder**: at most one client caches a dirty copy
//!    of any block.
//! 3. **Write-back window**: with a 30 s delay scanned every 5 s, no
//!    block stays dirty longer than 35 s — checked after every daemon
//!    tick via the cache's dirty-age index.
//! 4. **Accounting conservation**: a client's cached-block count always
//!    equals the pages the memory manager has granted to the file
//!    cache, and (at sample points) the cache's LRU list, dirty index,
//!    per-file index, and the oracle's `held` table all agree.
//!
//! Violations never panic and never touch [`sdfs_simkit::CounterSet`]:
//! they accumulate in [`SanitizerStats`] so that a sanitized run's
//! stdout stays byte-identical to an unsanitized one.

use sdfs_simkit::{FastMap, FastSet, SimTime};
use sdfs_trace::{ClientId, FileId};

use crate::cache::BlockKey;
use crate::client::Client;
use crate::config::{Config, ConsistencyPolicy};
use crate::faults::Faults;
use crate::fs::FileTable;
use crate::metrics::SanitizerStats;
use crate::server::Server;

/// How a cached write left the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// Delayed write: the block is dirty in the client cache.
    Dirty,
    /// Write-through (polling): the cached copy is clean and the server
    /// has the data.
    Through,
}

/// The shadow-state oracle. One per cluster, behind
/// [`crate::Config::sanitize`].
#[derive(Debug)]
pub struct Sanitizer {
    /// Newest version of each block written by any application.
    truth: FastMap<BlockKey, u64>,
    /// Version the owning server holds.
    server_ver: FastMap<BlockKey, u64>,
    /// Version known to have reached the server's *disk* — the only copy
    /// a server crash cannot destroy. Fed by the server's disk-flush
    /// event log; absent means only the preloaded (version 0) content is
    /// on disk.
    disk_ver: FastMap<BlockKey, u64>,
    /// Per-client: version of each block the client caches.
    held: Vec<FastMap<BlockKey, u64>>,
    /// The single client allowed to hold a block dirty.
    dirty_holder: FastMap<BlockKey, ClientId>,
    /// Blocks ever written, per file — lets delete/truncate erase the
    /// file's shadow state without scanning every map.
    by_file: FastMap<FileId, FastSet<u64>>,
    /// Strong consistency in force (everything but polling)?
    strong: bool,
    stats: SanitizerStats,
}

impl Sanitizer {
    /// Creates the oracle for a cluster of `num_clients` under `cfg`.
    pub fn new(cfg: &Config) -> Self {
        Sanitizer {
            truth: FastMap::default(),
            server_ver: FastMap::default(),
            disk_ver: FastMap::default(),
            held: (0..cfg.num_clients).map(|_| FastMap::default()).collect(),
            dirty_holder: FastMap::default(),
            by_file: FastMap::default(),
            strong: !matches!(cfg.consistency, ConsistencyPolicy::Polling { .. }),
            stats: SanitizerStats::default(),
        }
    }

    /// The accumulated verdict.
    pub fn stats(&self) -> &SanitizerStats {
        &self.stats
    }

    /// Consumes the oracle, returning the verdict.
    pub fn into_stats(self) -> SanitizerStats {
        self.stats
    }

    fn note(&mut self, counter: fn(&mut SanitizerStats) -> &mut u64, detail: String) {
        *counter(&mut self.stats) += 1;
        if self.stats.first_violation.is_none() {
            self.stats.first_violation = Some(detail);
        }
    }

    // ------------------------------------------------------------------
    // Cache-event hooks, called by the cluster.
    // ------------------------------------------------------------------

    /// A cached read hit: client `c` observed its cached copy of `key`.
    pub fn on_read_hit(&mut self, c: ClientId, key: BlockKey, paging: bool, now: SimTime) {
        self.stats.ops_checked += 1;
        if !self.strong || paging {
            return;
        }
        let truth = self.truth.get(&key).copied().unwrap_or(0);
        let held = self.held[c.raw() as usize].get(&key).copied().unwrap_or(0);
        if held < truth {
            self.note(
                |s| &mut s.stale_reads,
                format!(
                    "stale read at {now}: client {c} hit {key:?} at version {held}, newest is {truth}"
                ),
            );
        }
    }

    /// A cache miss fetched `key` from the server; `inserted` says
    /// whether the block actually entered the client cache (the VM
    /// system can refuse a page).
    pub fn on_fetch(
        &mut self,
        c: ClientId,
        key: BlockKey,
        inserted: bool,
        paging: bool,
        now: SimTime,
    ) {
        self.stats.ops_checked += 1;
        let server = self.server_ver.get(&key).copied().unwrap_or(0);
        if inserted {
            self.held[c.raw() as usize].insert(key, server);
        }
        if !self.strong || paging {
            return;
        }
        let truth = self.truth.get(&key).copied().unwrap_or(0);
        if server < truth {
            self.note(
                |s| &mut s.stale_reads,
                format!(
                    "stale fetch at {now}: client {c} fetched {key:?} at version {server}, newest is {truth}"
                ),
            );
        }
    }

    /// Client `c` wrote `key` through its cache.
    pub fn on_cached_write(&mut self, c: ClientId, key: BlockKey, kind: WriteKind, now: SimTime) {
        self.stats.ops_checked += 1;
        let v = self.truth.entry(key).or_insert(0);
        *v += 1;
        let v = *v;
        self.by_file.entry(key.file).or_default().insert(key.index);
        self.held[c.raw() as usize].insert(key, v);
        match kind {
            WriteKind::Dirty => {
                if let Some(&prev) = self.dirty_holder.get(&key) {
                    if prev != c {
                        self.note(
                            |s| &mut s.multi_dirty,
                            format!(
                                "two dirty holders at {now}: {key:?} dirty on client {prev} while client {c} dirties it"
                            ),
                        );
                    }
                }
                self.dirty_holder.insert(key, c);
            }
            WriteKind::Through => {
                self.server_ver.insert(key, v);
            }
        }
    }

    /// A write that reached the server without a cached copy: the
    /// straight-through fallback or an uncacheable (shared) write.
    pub fn on_server_write(&mut self, key: BlockKey) {
        self.stats.ops_checked += 1;
        let v = self.truth.entry(key).or_insert(0);
        *v += 1;
        let v = *v;
        self.by_file.entry(key.file).or_default().insert(key.index);
        self.server_ver.insert(key, v);
    }

    /// Client `c` wrote a dirty block back; `reached_server` is false
    /// when the write-back was cancelled (file vanished or shrank).
    pub fn on_writeback(&mut self, c: ClientId, key: BlockKey, reached_server: bool) {
        self.stats.ops_checked += 1;
        if reached_server {
            let held = self.held[c.raw() as usize].get(&key).copied().unwrap_or(0);
            self.server_ver.insert(key, held);
        }
        if self.dirty_holder.get(&key) == Some(&c) {
            self.dirty_holder.remove(&key);
        }
    }

    /// Client `c` dropped its cached copy of `key` (invalidation,
    /// eviction, delete, truncate, crash). Dirty data, if any, was
    /// either written back first (eviction) or cancelled.
    pub fn on_drop_block(&mut self, c: ClientId, key: BlockKey) {
        self.held[c.raw() as usize].remove(&key);
        if self.dirty_holder.get(&key) == Some(&c) {
            self.dirty_holder.remove(&key);
        }
    }

    /// A crash destroyed client `c`'s dirty copy of `key`: the newest
    /// data is gone, so ground truth rolls back to what the server has.
    pub fn on_crash_lost(&mut self, c: ClientId, key: BlockKey) {
        let server = self.server_ver.get(&key).copied().unwrap_or(0);
        self.truth.insert(key, server);
        if self.dirty_holder.get(&key) == Some(&c) {
            self.dirty_holder.remove(&key);
        }
    }

    /// The server wrote its cached copy of `key` to disk (delayed-write
    /// daemon or dirty eviction): the current server version becomes
    /// crash-proof. Driven by the server's disk-flush event log, which
    /// the cluster drains after every operation and daemon tick — so in
    /// rare same-operation flush-then-overwrite interleavings this can
    /// stamp a slightly newer version than actually hit the platter.
    /// That only *under*-reports crash damage (a false negative); it can
    /// never invent a violation, because crash handling below only ever
    /// lowers `truth`.
    pub fn on_server_disk_flush(&mut self, key: BlockKey) {
        let v = self.server_ver.get(&key).copied().unwrap_or(0);
        self.disk_ver.insert(key, v);
    }

    /// A server crash destroyed its volatile (not-yet-on-disk) copy of
    /// `key`. The server restarts from the disk version. Ground truth
    /// rolls back to the newest copy that still exists anywhere: the
    /// disk, or a *dirty* client copy (a clean client copy will never be
    /// written back, so it cannot restore the data for anyone else).
    pub fn on_server_crash_lost(&mut self, key: BlockKey) {
        self.stats.ops_checked += 1;
        let disk = self.disk_ver.get(&key).copied().unwrap_or(0);
        let dirty_held = self
            .dirty_holder
            .get(&key)
            .map(|c| {
                self.held[c.raw() as usize]
                    .get(&key)
                    .copied()
                    .unwrap_or(0)
            })
            .unwrap_or(0);
        let floor = disk.max(dirty_held);
        self.server_ver.insert(key, disk);
        if let Some(t) = self.truth.get_mut(&key) {
            if *t > floor {
                *t = floor;
            }
        }
    }

    /// `file` was deleted or truncated everywhere: erase its shadow
    /// state (every cached copy was already dropped via
    /// [`Sanitizer::on_drop_block`]).
    pub fn on_file_erased(&mut self, file: FileId) {
        if let Some(indices) = self.by_file.remove(&file) {
            for index in indices {
                let key = BlockKey { file, index };
                self.truth.remove(&key);
                self.server_ver.remove(&key);
                self.disk_ver.remove(&key);
                self.dirty_holder.remove(&key);
                for held in &mut self.held {
                    held.remove(&key);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Periodic checks.
    // ------------------------------------------------------------------

    /// After a daemon tick at `now` that cleaned what was dirty before
    /// `cutoff`: no block may remain dirty past the write-back window
    /// (delay + one scan period). A dirty block whose client cannot
    /// reach its server ([`Faults::unreachable`]: the server is down or
    /// the edge is cut) is excused — the daemon queues its write-back by
    /// design — but an unreachable server must never mask a genuine
    /// violation on a reachable one, so when the oldest dirty block is
    /// excused the check falls back to a full scan of that client's
    /// overdue files.
    pub(crate) fn check_writeback_window(
        &mut self,
        clients: &[Client],
        files: &FileTable,
        faults: &Faults,
        now: SimTime,
        cutoff: SimTime,
    ) {
        self.stats.ops_checked += 1;
        for client in clients {
            let Some((since, key)) = client.cache.oldest_dirty() else {
                continue;
            };
            if since > cutoff {
                continue;
            }
            let ci = client.id.raw() as usize;
            let si = files.server_of(key.file).raw() as usize;
            let mut overdue = Some(key);
            if faults.unreachable(ci, si).is_some() {
                // The O(1) witness is excused; look for an overdue block
                // on a reachable server the slow way.
                overdue = client
                    .cache
                    .files_with_dirty_before(cutoff)
                    .into_iter()
                    .find(|&file| {
                        let si = files.server_of(file).raw() as usize;
                        faults.unreachable(ci, si).is_none()
                    })
                    .map(|file| BlockKey { file, index: 0 });
            }
            if let Some(key) = overdue {
                let c = client.id;
                self.note(
                    |s| &mut s.writeback_window,
                    format!(
                        "write-back window missed at {now}: client {c} still holds {key:?} dirty since {since}"
                    ),
                );
            }
        }
    }

    /// O(1) per-operation conservation check: the cache holds exactly
    /// the pages the memory manager granted to the file cache.
    pub fn check_page_accounting(&mut self, client: &Client, now: SimTime) {
        self.stats.ops_checked += 1;
        let cached = client.cache.len() as u64;
        let granted = client.mem.fc_pages();
        if cached != granted {
            let c = client.id;
            self.note(
                |s| &mut s.accounting,
                format!(
                    "page accounting at {now}: client {c} caches {cached} blocks but holds {granted} file-cache pages"
                ),
            );
        }
    }

    /// Deep audit, run at sample points: every client's and server's
    /// cache indexes must be mutually consistent, and the oracle's
    /// `held` table must mirror the client caches exactly.
    pub fn deep_audit(&mut self, clients: &[Client], servers: &[Server], now: SimTime) {
        self.stats.ops_checked += 1;
        for server in servers {
            if let Err(problem) = server.cache.audit() {
                let s = server.id;
                self.note(
                    |s| &mut s.accounting,
                    format!("cache index audit at {now}: server {s}: {problem}"),
                );
            }
        }
        for client in clients {
            let c = client.id;
            if let Err(problem) = client.cache.audit() {
                self.note(
                    |s| &mut s.accounting,
                    format!("cache index audit at {now}: client {c}: {problem}"),
                );
            }
            let held = &self.held[c.raw() as usize];
            if held.len() != client.cache.len() {
                let (h, l) = (held.len(), client.cache.len());
                self.note(
                    |s| &mut s.accounting,
                    format!(
                        "oracle drift at {now}: client {c} caches {l} blocks, oracle tracks {h}"
                    ),
                );
                continue;
            }
            for key in held.keys() {
                if !client.cache.contains(*key) {
                    self.note(
                        |s| &mut s.accounting,
                        format!(
                            "oracle drift at {now}: client {c} oracle holds {key:?} not in cache"
                        ),
                    );
                    break;
                }
            }
        }
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

    fn sanitizer() -> Sanitizer {
        Sanitizer::new(&Config::small())
    }

    #[test]
    fn clean_write_read_cycle_passes() {
        let mut s = sanitizer();
        let c = ClientId(0);
        s.on_cached_write(c, key(1, 0), WriteKind::Dirty, SimTime::ZERO);
        s.on_read_hit(c, key(1, 0), false, SimTime::ZERO);
        s.on_writeback(c, key(1, 0), true);
        s.on_drop_block(c, key(1, 0));
        let other = ClientId(1);
        s.on_fetch(other, key(1, 0), true, false, SimTime::ZERO);
        s.on_read_hit(other, key(1, 0), false, SimTime::ZERO);
        assert!(s.stats().is_clean(), "{:?}", s.stats());
    }

    #[test]
    fn stale_hit_detected() {
        let mut s = sanitizer();
        let (a, b) = (ClientId(0), ClientId(1));
        // b caches version 1, a writes version 2, b reads its old copy
        // without invalidation.
        s.on_cached_write(b, key(1, 0), WriteKind::Dirty, SimTime::ZERO);
        s.on_writeback(b, key(1, 0), true);
        s.on_cached_write(a, key(1, 0), WriteKind::Dirty, SimTime::ZERO);
        s.on_read_hit(b, key(1, 0), false, SimTime::ZERO);
        assert_eq!(s.stats().stale_reads, 1);
        assert!(s.stats().first_violation.is_some());
    }

    #[test]
    fn stale_fetch_detected() {
        let mut s = sanitizer();
        let (a, b) = (ClientId(0), ClientId(1));
        // a holds dirty data the server never saw; b fetches from the
        // server and misses it.
        s.on_cached_write(a, key(2, 0), WriteKind::Dirty, SimTime::ZERO);
        s.on_fetch(b, key(2, 0), true, false, SimTime::ZERO);
        assert_eq!(s.stats().stale_reads, 1);
    }

    #[test]
    fn paging_and_polling_reads_exempt() {
        let mut s = sanitizer();
        let (a, b) = (ClientId(0), ClientId(1));
        s.on_cached_write(a, key(3, 0), WriteKind::Dirty, SimTime::ZERO);
        s.on_fetch(b, key(3, 0), true, true, SimTime::ZERO); // paging
        assert!(s.stats().is_clean());

        let mut cfg = Config::small();
        cfg.consistency = ConsistencyPolicy::Polling { interval_secs: 3 };
        let mut s = Sanitizer::new(&cfg);
        s.on_cached_write(a, key(3, 0), WriteKind::Through, SimTime::ZERO);
        s.on_cached_write(a, key(3, 0), WriteKind::Through, SimTime::ZERO);
        s.on_read_hit(b, key(3, 0), false, SimTime::ZERO);
        assert!(s.stats().is_clean());
    }

    #[test]
    fn double_dirty_detected() {
        let mut s = sanitizer();
        let (a, b) = (ClientId(0), ClientId(1));
        s.on_cached_write(a, key(4, 0), WriteKind::Dirty, SimTime::ZERO);
        s.on_cached_write(b, key(4, 0), WriteKind::Dirty, SimTime::ZERO);
        assert_eq!(s.stats().multi_dirty, 1);
    }

    #[test]
    fn crash_rolls_truth_back() {
        let mut s = sanitizer();
        let (a, b) = (ClientId(0), ClientId(1));
        s.on_cached_write(a, key(5, 0), WriteKind::Dirty, SimTime::ZERO);
        s.on_writeback(a, key(5, 0), true); // server at v1
        s.on_cached_write(a, key(5, 0), WriteKind::Dirty, SimTime::ZERO); // v2 dirty
        s.on_crash_lost(a, key(5, 0));
        s.on_drop_block(a, key(5, 0));
        // b reads from the server: v1 is now the newest surviving data.
        s.on_fetch(b, key(5, 0), true, false, SimTime::ZERO);
        assert!(s.stats().is_clean(), "{:?}", s.stats());
    }

    #[test]
    fn server_crash_rolls_back_to_disk_version() {
        let mut s = sanitizer();
        let (a, b) = (ClientId(0), ClientId(1));
        // v1 reaches the disk; v2 only reaches the server's volatile cache.
        s.on_cached_write(a, key(7, 0), WriteKind::Dirty, SimTime::ZERO);
        s.on_writeback(a, key(7, 0), true);
        s.on_server_disk_flush(key(7, 0));
        s.on_cached_write(a, key(7, 0), WriteKind::Dirty, SimTime::ZERO);
        s.on_writeback(a, key(7, 0), true);
        s.on_drop_block(a, key(7, 0));
        s.on_server_crash_lost(key(7, 0));
        // v2 is gone; the disk's v1 is the newest surviving data, so a
        // fetch of it is not stale.
        s.on_fetch(b, key(7, 0), true, false, SimTime::ZERO);
        s.on_read_hit(b, key(7, 0), false, SimTime::ZERO);
        assert!(s.stats().is_clean(), "{:?}", s.stats());
    }

    #[test]
    fn dirty_client_copy_survives_server_crash() {
        let mut s = sanitizer();
        let (a, b) = (ClientId(0), ClientId(1));
        // a holds v1 dirty; the server has nothing on disk. A server
        // crash destroys nothing a cares about — a's dirty copy is still
        // the newest data and will be written back.
        s.on_cached_write(a, key(8, 0), WriteKind::Dirty, SimTime::ZERO);
        s.on_server_crash_lost(key(8, 0));
        s.on_writeback(a, key(8, 0), true);
        s.on_drop_block(a, key(8, 0));
        s.on_fetch(b, key(8, 0), true, false, SimTime::ZERO);
        assert!(s.stats().is_clean(), "{:?}", s.stats());

        // But if the server's only copy was newer than the disk and no
        // client holds it dirty, a fetch after the crash IS outdated —
        // and must NOT be flagged, because truth rolled back with it.
        s.on_server_write(key(9, 0)); // v1, server cache only
        s.on_server_crash_lost(key(9, 0));
        s.on_fetch(b, key(9, 0), true, false, SimTime::ZERO);
        assert!(s.stats().is_clean(), "{:?}", s.stats());
    }

    #[test]
    fn erased_file_forgets_versions() {
        let mut s = sanitizer();
        let a = ClientId(0);
        s.on_cached_write(a, key(6, 0), WriteKind::Dirty, SimTime::ZERO);
        s.on_drop_block(a, key(6, 0));
        s.on_file_erased(FileId(6));
        // Recreated file starts fresh; a fetch of version 0 is fine.
        s.on_fetch(a, key(6, 0), true, false, SimTime::ZERO);
        assert!(s.stats().is_clean(), "{:?}", s.stats());
    }
}
