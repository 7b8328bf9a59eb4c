//! Table 12: overhead of three consistency algorithms on write-shared
//! files.
//!
//! Section 5.6: the trace logs every read and write on files undergoing
//! concurrent write-sharing (they pass through to the server). These
//! events drive simulators for:
//!
//! * **Sprite** — uncacheable during sharing: every event is one RPC
//!   moving exactly the requested bytes (ratios 1.0 by construction).
//! * **Modified Sprite** — the file becomes cacheable again as soon as
//!   the concurrent write-sharing condition ends; small reads and writes
//!   then fetch whole cache blocks.
//! * **Token** — the file is always cacheable under read/write tokens;
//!   conflicting accesses recall tokens (write-token recalls carry the
//!   dirty data piggybacked; a write grant invalidates reader caches).
//!
//! Caches are infinite and blocks leave only through consistency
//! actions; a 30-second delayed-write policy is modelled, all per the
//! paper's simulator description.

use sdfs_simkit::{FastMap, FastSet};

use sdfs_simkit::SimTime;
use sdfs_spritefs::config::{block_span, BLOCK_SIZE, WRITEBACK_DELAY};
use sdfs_trace::{ClientId, FileId, Handle, Record, RecordKind};

use crate::consistency::write_shared;

/// The algorithm to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Sprite's cache-disable scheme.
    Sprite,
    /// Files become cacheable again when sharing ends.
    SpriteModified,
    /// Token-based (Locus/Echo/DEcorum style).
    Token,
}

/// Result of one algorithm simulation.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverheadResult {
    /// Bytes the application actually requested on shared files.
    pub app_bytes: u64,
    /// Read/write events the application issued.
    pub app_events: u64,
    /// Bytes the algorithm moved.
    pub alg_bytes: u64,
    /// RPCs the algorithm issued.
    pub alg_rpcs: u64,
}

impl OverheadResult {
    /// Algorithm bytes over application bytes.
    pub fn bytes_ratio(&self) -> f64 {
        if self.app_bytes == 0 {
            0.0
        } else {
            self.alg_bytes as f64 / self.app_bytes as f64
        }
    }

    /// Algorithm RPCs over application events.
    pub fn rpc_ratio(&self) -> f64 {
        if self.app_events == 0 {
            0.0
        } else {
            self.alg_rpcs as f64 / self.app_events as f64
        }
    }
}

/// One algorithm's cache and token state for a file. A simulator creates
/// it at the file's first shared event: before that, only the file's open
/// handles matter, and those live in the [`OpenTable`].
#[derive(Debug, Default)]
struct SimFile {
    /// Cached blocks per client.
    cached: FastMap<ClientId, FastSet<u64>>,
    /// Dirty blocks of the current writer: block → dirty since.
    dirty: FastMap<(ClientId, u64), SimTime>,
    /// Token state (token mode only).
    writer_token: Option<ClientId>,
    reader_tokens: FastSet<ClientId>,
}

impl SimFile {
    /// Writes back one dirty block per entry `flush` selects: a block of
    /// bytes each, and an RPC each unless `piggyback` folds the data into
    /// an already-counted recall.
    fn write_back(
        &mut self,
        result: &mut OverheadResult,
        piggyback: bool,
        mut flush: impl FnMut(ClientId, SimTime) -> bool,
    ) {
        self.dirty.retain(|&(client, _), &mut since| {
            if !flush(client, since) {
                return true;
            }
            result.alg_bytes += BLOCK_SIZE;
            if !piggyback {
                result.alg_rpcs += 1;
            }
            false
        });
    }

    /// Flush dirty blocks whose delay expired by `now`.
    fn flush_expired(&mut self, result: &mut OverheadResult, now: SimTime) {
        self.write_back(result, false, |_, since| {
            now.since(since) >= WRITEBACK_DELAY
        });
    }

    /// Flush every dirty block.
    fn flush_all(&mut self, result: &mut OverheadResult) {
        self.write_back(result, false, |_, _| true);
    }

    /// Flush every dirty block `client` holds.
    fn flush_client(&mut self, result: &mut OverheadResult, client: ClientId, piggyback: bool) {
        self.write_back(result, piggyback, |c, _| c == client);
    }

    fn acquire_read_token(&mut self, result: &mut OverheadResult, client: ClientId) {
        if self.reader_tokens.contains(&client) || self.writer_token == Some(client) {
            return;
        }
        if let Some(w) = self.writer_token.take() {
            // Recall the write token; the dirty data rides along.
            result.alg_rpcs += 1;
            self.flush_client(result, w, true);
            self.reader_tokens.insert(w);
        }
        self.reader_tokens.insert(client);
        result.alg_rpcs += 1; // Token acquire.
    }

    fn acquire_write_token(&mut self, result: &mut OverheadResult, client: ClientId) {
        if self.writer_token == Some(client) {
            return;
        }
        if let Some(w) = self.writer_token {
            result.alg_rpcs += 1;
            self.flush_client(result, w, true);
            self.cached.remove(&w);
        }
        for &r in &self.reader_tokens {
            if r != client {
                result.alg_rpcs += 1; // Recall read token.
                self.cached.remove(&r);
            }
        }
        self.reader_tokens.retain(|&r| r == client);
        self.writer_token = Some(client);
        result.alg_rpcs += 1; // Token acquire.
    }
}

/// One algorithm's simulator, with the cluster's block size and default
/// write-back delay ([`BLOCK_SIZE`], [`WRITEBACK_DELAY`]).
#[derive(Debug)]
struct Sim {
    alg: Algorithm,
    files: FastMap<FileId, SimFile>,
    result: OverheadResult,
}

impl Sim {
    fn new(alg: Algorithm) -> Self {
        Sim {
            alg,
            files: FastMap::default(),
            result: OverheadResult::default(),
        }
    }

    /// A file enters concurrent write-sharing: both Sprite variants flush
    /// all its dirty data and disable caching.
    fn enter_sharing(&mut self, file: FileId) {
        if self.alg == Algorithm::Token {
            return;
        }
        if let Some(st) = self.files.get_mut(&file) {
            st.flush_all(&mut self.result);
            st.cached.clear();
        }
    }

    /// A shared read or write of `len` bytes at `offset`, with the file's
    /// open handles `opens`.
    ///
    /// Shared events only appear in the trace during concurrent
    /// write-sharing episodes, so the request passes through to the server
    /// uncached under Sprite until every open closes, under modified
    /// Sprite only while the live sharing condition holds, and under
    /// tokens never.
    fn on_shared(
        &mut self,
        rec: &Record,
        file: FileId,
        offset: u64,
        len: u64,
        write: bool,
        opens: &[(Handle, ClientId, bool)],
    ) {
        let result = &mut self.result;
        result.app_bytes += len;
        result.app_events += 1;
        let st = self.files.entry(file).or_default();
        st.flush_expired(result, rec.time);
        let passthrough = match self.alg {
            Algorithm::Sprite => !opens.is_empty(),
            Algorithm::SpriteModified => write_shared(opens),
            Algorithm::Token => false,
        };
        if passthrough {
            result.alg_bytes += len;
            result.alg_rpcs += 1;
            return;
        }
        if self.alg == Algorithm::Token {
            if write {
                st.acquire_write_token(result, rec.client);
            } else {
                st.acquire_read_token(result, rec.client);
            }
        }
        let mine = st.cached.entry(rec.client).or_default();
        // A whole-block write needs no fetch of the block it overwrites.
        let whole = write && len >= BLOCK_SIZE && offset % BLOCK_SIZE == 0;
        for b in block_span(offset, len) {
            if mine.insert(b) && !whole {
                result.alg_bytes += BLOCK_SIZE;
                result.alg_rpcs += 1;
            }
            if write {
                st.dirty.insert((rec.client, b), rec.time);
            }
        }
    }

    fn finish(mut self) -> OverheadResult {
        // Flush whatever remains dirty so algorithms compare fairly.
        for st in self.files.values_mut() {
            st.flush_all(&mut self.result);
        }
        self.result
    }
}

/// Open handles per file, `(handle, client, writes)`, shared by every
/// simulator one pass drives. A file's entry goes at its last close, so
/// the table holds only live files.
#[derive(Debug, Default)]
struct OpenTable(FastMap<FileId, Vec<(Handle, ClientId, bool)>>);

impl OpenTable {
    /// Advances `sims` by one record.
    fn record(&mut self, rec: &Record, sims: &mut [Sim]) {
        let (file, offset, len, write) = match &rec.kind {
            RecordKind::Open { fd, file, mode, .. } => {
                let opens = self.0.entry(*file).or_default();
                let was_shared = write_shared(opens);
                opens.push((*fd, rec.client, mode.writes()));
                if write_shared(opens) && !was_shared {
                    for sim in sims {
                        sim.enter_sharing(*file);
                    }
                }
                return;
            }
            RecordKind::Close { fd, file, .. } => {
                if let Some(opens) = self.0.get_mut(file) {
                    if let Some(i) = opens.iter().position(|&(h, _, _)| h == *fd) {
                        opens.remove(i);
                    }
                    if opens.is_empty() {
                        self.0.remove(file);
                    }
                }
                return;
            }
            RecordKind::SharedRead { file, offset, len } => (*file, *offset, *len, false),
            RecordKind::SharedWrite { file, offset, len } => (*file, *offset, *len, true),
            _ => return,
        };
        let opens = self.0.get(&file).map_or(&[][..], Vec::as_slice);
        for sim in sims {
            sim.on_shared(rec, file, offset, len, write, opens);
        }
    }
}

/// Runs one algorithm over a trace with the paper's parameters (4-Kbyte
/// blocks, 30-second delayed writes). Only files that see shared events
/// contribute (the paper's simulator scanned exactly those): a file's
/// cache state begins at its first shared event.
pub fn simulate(records: &[Record], alg: Algorithm) -> OverheadResult {
    let mut opens = OpenTable::default();
    let mut sim = [Sim::new(alg)];
    for rec in records {
        opens.record(rec, &mut sim);
    }
    let [sim] = sim;
    sim.finish()
}

/// Table 12: all three algorithms on one trace.
#[derive(Debug, Clone, Default)]
pub struct Table12 {
    /// Sprite's scheme (ratios 1.0 by construction).
    pub sprite: OverheadResult,
    /// The modified-Sprite scheme.
    pub modified: OverheadResult,
    /// The token scheme.
    pub token: OverheadResult,
}

/// Streaming Table 12 builder: drives all three algorithm simulators in
/// one pass over the record stream, with the paper's parameters
/// (4-Kbyte blocks, 30-second delayed writes) and one open table shared
/// by the three. [`crate::fused::FusedAnalyzer`] and [`table12`] use this.
#[derive(Debug)]
pub struct Table12Builder {
    opens: OpenTable,
    /// Sprite, modified Sprite, token.
    sims: [Sim; 3],
}

impl Table12Builder {
    /// Creates a builder with the paper's parameters.
    pub fn new() -> Self {
        Table12Builder {
            opens: OpenTable::default(),
            sims: [
                Sim::new(Algorithm::Sprite),
                Sim::new(Algorithm::SpriteModified),
                Sim::new(Algorithm::Token),
            ],
        }
    }

    /// Advances all three simulations by one record.
    pub fn record(&mut self, rec: &Record) {
        self.opens.record(rec, &mut self.sims);
    }

    /// Returns the finished table.
    pub fn finish(self) -> Table12 {
        let [sprite, modified, token] = self.sims;
        Table12 {
            sprite: sprite.finish(),
            modified: modified.finish(),
            token: token.finish(),
        }
    }
}

impl Default for Table12Builder {
    fn default() -> Self {
        Table12Builder::new()
    }
}

/// Computes Table 12 with the paper's parameters (4-Kbyte blocks,
/// 30-second delayed writes).
pub fn table12(records: &[Record]) -> Table12 {
    let mut builder = Table12Builder::new();
    for rec in records {
        builder.record(rec);
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfs_trace::{OpenMode, Pid, UserId};

    fn rec(t: u64, client: u16, kind: RecordKind) -> Record {
        Record {
            time: SimTime::from_secs(t),
            client: ClientId(client),
            user: UserId(client as u32),
            pid: Pid(0),
            migrated: false,
            kind,
        }
    }

    fn open(t: u64, client: u16, fd: u64, mode: OpenMode) -> Record {
        rec(
            t,
            client,
            RecordKind::Open {
                fd: Handle(fd),
                file: FileId(7),
                mode,
                size: 65536,
                is_dir: false,
            },
        )
    }

    fn sread(t: u64, client: u16, offset: u64, len: u64) -> Record {
        rec(
            t,
            client,
            RecordKind::SharedRead {
                file: FileId(7),
                offset,
                len,
            },
        )
    }

    fn swrite(t: u64, client: u16, offset: u64, len: u64) -> Record {
        rec(
            t,
            client,
            RecordKind::SharedWrite {
                file: FileId(7),
                offset,
                len,
            },
        )
    }

    /// Two clients share a file: client 0 writes small records, client 1
    /// reads them, all while both hold the file open (CWS active).
    fn cws_trace() -> Vec<Record> {
        let mut v = vec![
            open(0, 0, 1, OpenMode::ReadWrite),
            open(0, 1, 2, OpenMode::Read),
        ];
        for i in 0..10u64 {
            v.push(swrite(1 + i * 2, 0, i * 100, 100));
            v.push(sread(2 + i * 2, 1, i * 100, 100));
        }
        v
    }

    #[test]
    fn sprite_ratios_are_unity() {
        let r = simulate(&cws_trace(), Algorithm::Sprite);
        assert_eq!(r.app_events, 20);
        assert_eq!(r.app_bytes, 2_000);
        assert!((r.bytes_ratio() - 1.0).abs() < 1e-9);
        assert!((r.rpc_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn modified_matches_sprite_during_cws() {
        // All events occur during active sharing, so modified Sprite
        // behaves identically.
        let r = simulate(&cws_trace(), Algorithm::SpriteModified);
        assert!((r.bytes_ratio() - 1.0).abs() < 1e-9);
        assert!((r.rpc_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn token_amplifies_fine_grain_alternation() {
        let r = simulate(&cws_trace(), Algorithm::Token);
        // Every alternation recalls a token and moves whole blocks for
        // 100-byte requests: far more bytes than the application asked.
        assert!(r.bytes_ratio() > 2.0, "ratio {}", r.bytes_ratio());
        assert!(r.rpc_ratio() > 1.0, "rpc ratio {}", r.rpc_ratio());
    }

    #[test]
    fn token_repeated_same_client_is_cheap() {
        let mut v = vec![open(0, 0, 1, OpenMode::ReadWrite)];
        // One client re-reads the same block many times.
        for i in 0..20u64 {
            v.push(sread(1 + i, 0, 0, 100));
        }
        let r = simulate(&v, Algorithm::Token);
        // 1 block fetch + 1 token acquire over 20 events.
        assert!(r.rpc_ratio() < 0.2, "rpc ratio {}", r.rpc_ratio());
        assert!(r.bytes_ratio() < 2.5, "bytes ratio {}", r.bytes_ratio());
    }

    #[test]
    fn delayed_write_flushes_dirty_blocks() {
        let v = vec![
            open(0, 0, 1, OpenMode::ReadWrite),
            swrite(1, 0, 0, 4096),
            // Much later read by the same client triggers expiry.
            sread(100, 0, 0, 100),
        ];
        let r = simulate(&v, Algorithm::Token);
        // Whole-block write (no fetch), then one delayed flush.
        assert!(r.alg_bytes >= 4096, "flush counted: {}", r.alg_bytes);
    }

    #[test]
    fn non_shared_files_are_ignored() {
        let v = vec![
            open(0, 0, 1, OpenMode::ReadWrite),
            rec(
                1,
                0,
                RecordKind::Close {
                    fd: Handle(1),
                    file: FileId(7),
                    offset: 0,
                    run_read: 0,
                    run_written: 1000,
                    total_read: 0,
                    total_written: 1000,
                    size: 1000,
                    opened_at: SimTime::ZERO,
                },
            ),
        ];
        let r = simulate(&v, Algorithm::Sprite);
        assert_eq!(r.app_events, 0);
        assert_eq!(r.alg_rpcs, 0);
    }

    fn close(t: u64, client: u16, fd: u64) -> Record {
        rec(
            t,
            client,
            RecordKind::Close {
                fd: Handle(fd),
                file: FileId(7),
                offset: 0,
                run_read: 0,
                run_written: 0,
                total_read: 0,
                total_written: 0,
                size: 65536,
                opened_at: SimTime::ZERO,
            },
        )
    }

    #[test]
    fn modified_sprite_flushes_dirty_blocks_when_sharing_begins() {
        let v = vec![
            open(0, 0, 1, OpenMode::ReadWrite),
            open(0, 1, 2, OpenMode::Read),
            // During sharing: passes through (100 bytes, 1 RPC).
            swrite(1, 0, 0, 100),
            close(2, 1, 2),
            // Sharing over: fetch block 0 (1 RPC) and dirty it.
            swrite(3, 0, 0, 100),
            // Sharing begins again: flush block 0 (1 RPC), drop caches.
            open(4, 1, 3, OpenMode::Read),
            close(5, 1, 3),
            // Block 0 is fetched again (1 RPC), dirtied, and flushed at
            // the end (1 RPC): two flushes of it in all, not one.
            swrite(6, 0, 0, 100),
        ];
        let r = simulate(&v, Algorithm::SpriteModified);
        assert_eq!(r.app_events, 3);
        assert_eq!(r.alg_rpcs, 5);
        assert_eq!(r.alg_bytes, 100 + 4 * BLOCK_SIZE);
    }

    #[test]
    fn table12_runs_all_three() {
        let t = table12(&cws_trace());
        assert!((t.sprite.bytes_ratio() - 1.0).abs() < 1e-9);
        assert!(t.token.app_events == t.sprite.app_events);
        assert!(t.modified.app_events == t.sprite.app_events);
    }
}
