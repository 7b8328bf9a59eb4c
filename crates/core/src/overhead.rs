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
use sdfs_spritefs::config::{BLOCK_SIZE, WRITEBACK_DELAY};
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

/// Per-file, per-algorithm cache state.
#[derive(Debug, Default)]
struct SimFile {
    /// Open handles: (handle, client, writes).
    opens: Vec<(Handle, ClientId, bool)>,
    /// Cached blocks per client.
    cached: FastMap<ClientId, FastSet<u64>>,
    /// Dirty blocks of the current writer: block → dirty since.
    dirty: FastMap<(ClientId, u64), SimTime>,
    /// Token state (token mode only).
    writer_token: Option<ClientId>,
    reader_tokens: FastSet<ClientId>,
}

/// The simulator, with the cluster's block size and default write-back
/// delay ([`BLOCK_SIZE`], [`WRITEBACK_DELAY`]).
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

    fn blocks_of(&self, offset: u64, len: u64) -> std::ops::RangeInclusive<u64> {
        let first = offset / BLOCK_SIZE;
        let last = (offset + len.max(1) - 1) / BLOCK_SIZE;
        first..=last
    }

    /// Flush dirty blocks whose delay expired by `now`.
    fn flush_expired(&mut self, file: FileId, now: SimTime) {
        let Some(st) = self.files.get_mut(&file) else {
            return;
        };
        let expired: Vec<(ClientId, u64)> = st
            .dirty
            .iter()
            .filter(|(_, &since)| now.since(since) >= WRITEBACK_DELAY)
            .map(|(&k, _)| k)
            .collect();
        for k in expired {
            st.dirty.remove(&k);
            self.result.alg_bytes += BLOCK_SIZE;
            self.result.alg_rpcs += 1;
        }
    }

    /// Flush every dirty block a client holds for `file`; `piggyback`
    /// folds the flush into an already-counted recall RPC.
    fn flush_client(&mut self, file: FileId, client: ClientId, piggyback: bool) {
        let Some(st) = self.files.get_mut(&file) else {
            return;
        };
        let mine: Vec<(ClientId, u64)> = st
            .dirty
            .keys()
            .filter(|&&(c, _)| c == client)
            .copied()
            .collect();
        for k in mine {
            st.dirty.remove(&k);
            self.result.alg_bytes += BLOCK_SIZE;
            if !piggyback {
                self.result.alg_rpcs += 1;
            }
        }
    }

    /// Drop a client's cached blocks.
    fn invalidate_client(&mut self, file: FileId, client: ClientId) {
        if let Some(st) = self.files.get_mut(&file) {
            st.cached.remove(&client);
        }
    }

    fn on_open(&mut self, rec: &Record, fd: Handle, file: FileId, writes: bool) {
        let alg = self.alg;
        let st = self.files.entry(file).or_default();
        let was_shared = write_shared(&st.opens);
        st.opens.push((fd, rec.client, writes));
        let now_shared = write_shared(&st.opens);
        if alg != Algorithm::Token && now_shared && !was_shared {
            // Entering concurrent write-sharing: flush all dirty data and
            // disable caching (both Sprite variants).
            let clients: Vec<ClientId> = st.cached.keys().copied().collect();
            let dirty_holders: Vec<ClientId> = st.dirty.keys().map(|&(c, _)| c).collect();
            for c in dirty_holders {
                self.flush_client(file, c, false);
            }
            for c in clients {
                self.invalidate_client(file, c);
            }
        }
    }

    fn on_close(&mut self, fd: Handle, file: FileId) {
        if let Some(st) = self.files.get_mut(&file) {
            if let Some(i) = st.opens.iter().position(|&(h, _, _)| h == fd) {
                st.opens.remove(i);
            }
        }
    }

    /// Whether a request on `file` must pass through to the server
    /// uncached right now.
    ///
    /// Shared events only appear in the trace during concurrent
    /// write-sharing episodes, so: under Sprite the file stays
    /// uncacheable until every open closes; under modified Sprite only
    /// while the live sharing condition holds; under tokens, never.
    fn passthrough_now(&self, file: FileId) -> bool {
        let Some(st) = self.files.get(&file) else {
            return false;
        };
        match self.alg {
            Algorithm::Sprite => !st.opens.is_empty(),
            Algorithm::SpriteModified => write_shared(&st.opens),
            Algorithm::Token => false,
        }
    }

    fn on_read(&mut self, rec: &Record, file: FileId, offset: u64, len: u64) {
        self.result.app_bytes += len;
        self.result.app_events += 1;
        self.flush_expired(file, rec.time);
        if self.passthrough_now(file) {
            self.result.alg_bytes += len;
            self.result.alg_rpcs += 1;
            return;
        }
        if self.alg == Algorithm::Token {
            self.acquire_read_token(rec.client, file);
        }
        let blocks: Vec<u64> = self.blocks_of(offset, len).collect();
        let st = self.files.entry(file).or_default();
        let mine = st.cached.entry(rec.client).or_default();
        for b in blocks {
            if mine.insert(b) {
                self.result.alg_bytes += BLOCK_SIZE;
                self.result.alg_rpcs += 1;
            }
        }
    }

    fn on_write(&mut self, rec: &Record, file: FileId, offset: u64, len: u64) {
        self.result.app_bytes += len;
        self.result.app_events += 1;
        self.flush_expired(file, rec.time);
        if self.passthrough_now(file) {
            self.result.alg_bytes += len;
            self.result.alg_rpcs += 1;
            return;
        }
        if self.alg == Algorithm::Token {
            self.acquire_write_token(rec.client, file);
        }
        let blocks: Vec<u64> = self.blocks_of(offset, len).collect();
        let st = self.files.entry(file).or_default();
        let mine = st.cached.entry(rec.client).or_default();
        for b in blocks {
            let whole = len >= BLOCK_SIZE && offset % BLOCK_SIZE == 0;
            if mine.insert(b) && !whole {
                // Partial write of an uncached block: fetch it first.
                self.result.alg_bytes += BLOCK_SIZE;
                self.result.alg_rpcs += 1;
            }
            st.dirty.insert((rec.client, b), rec.time);
        }
    }

    fn acquire_read_token(&mut self, client: ClientId, file: FileId) {
        let (writer, holds) = {
            let st = self.files.entry(file).or_default();
            (
                st.writer_token,
                st.reader_tokens.contains(&client) || st.writer_token == Some(client),
            )
        };
        if holds {
            return;
        }
        if let Some(w) = writer {
            // Recall the write token; the dirty data rides along.
            self.result.alg_rpcs += 1;
            self.flush_client(file, w, true);
            let st = self.files.entry(file).or_default();
            st.writer_token = None;
            st.reader_tokens.insert(w);
        }
        let st = self.files.entry(file).or_default();
        st.reader_tokens.insert(client);
        self.result.alg_rpcs += 1; // Token acquire.
    }

    fn acquire_write_token(&mut self, client: ClientId, file: FileId) {
        let (writer, readers): (Option<ClientId>, Vec<ClientId>) = {
            let st = self.files.entry(file).or_default();
            (st.writer_token, st.reader_tokens.iter().copied().collect())
        };
        if writer == Some(client) {
            return;
        }
        if let Some(w) = writer {
            self.result.alg_rpcs += 1;
            self.flush_client(file, w, true);
            self.invalidate_client(file, w);
        }
        for r in readers {
            if r != client {
                self.result.alg_rpcs += 1; // Recall read token.
                self.invalidate_client(file, r);
            }
        }
        let st = self.files.entry(file).or_default();
        st.reader_tokens.retain(|&r| r == client);
        st.writer_token = Some(client);
        self.result.alg_rpcs += 1; // Token acquire.
    }

    /// Advances the simulation by one record, without pre-filtering for
    /// files that see shared events.
    ///
    /// Equivalent to the gated loop in [`simulate`]: a file with no
    /// shared events only ever accumulates open/close bookkeeping —
    /// `cached` and `dirty` stay empty (only reads and writes populate
    /// them), so the entering-CWS flush/invalidate and the final flush
    /// are no-ops for it and the counters come out identical.
    fn record(&mut self, rec: &Record) {
        match &rec.kind {
            RecordKind::Open { fd, file, mode, .. } => {
                self.on_open(rec, *fd, *file, mode.writes());
            }
            RecordKind::Close { fd, file, .. } => {
                self.on_close(*fd, *file);
            }
            RecordKind::SharedRead { file, offset, len } => {
                self.on_read(rec, *file, *offset, *len);
            }
            RecordKind::SharedWrite { file, offset, len } => {
                self.on_write(rec, *file, *offset, *len);
            }
            _ => {}
        }
    }

    fn finish(mut self) -> OverheadResult {
        // Flush whatever remains dirty so algorithms compare fairly.
        let files: Vec<FileId> = self.files.keys().copied().collect();
        for file in files {
            let holders: Vec<ClientId> = self.files[&file].dirty.keys().map(|&(c, _)| c).collect();
            for c in holders {
                self.flush_client(file, c, false);
            }
        }
        self.result
    }
}

/// Runs one algorithm over a trace with the paper's parameters (4-Kbyte
/// blocks, 30-second delayed writes). Only files that ever see shared
/// events contribute (the paper's simulator scanned exactly those).
pub fn simulate(records: &[Record], alg: Algorithm) -> OverheadResult {
    // First pass: which files undergo write sharing at all?
    let mut shared_files: FastSet<FileId> = FastSet::default();
    for rec in records {
        match rec.kind {
            RecordKind::SharedRead { file, .. } | RecordKind::SharedWrite { file, .. } => {
                shared_files.insert(file);
            }
            _ => {}
        }
    }
    let mut sim = Sim::new(alg);
    for rec in records {
        match &rec.kind {
            RecordKind::Open { fd, file, mode, .. } if shared_files.contains(file) => {
                sim.on_open(rec, *fd, *file, mode.writes());
            }
            RecordKind::Close { fd, file, .. } if shared_files.contains(file) => {
                sim.on_close(*fd, *file);
            }
            RecordKind::SharedRead { file, offset, len } => {
                sim.on_read(rec, *file, *offset, *len);
            }
            RecordKind::SharedWrite { file, offset, len } => {
                sim.on_write(rec, *file, *offset, *len);
            }
            _ => {}
        }
    }
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
/// (4-Kbyte blocks, 30-second delayed writes). The fused single-pass
/// driver uses this; [`table12`] produces identical numbers via three
/// gated [`simulate`] passes.
#[derive(Debug)]
pub struct Table12Builder {
    sprite: Sim,
    modified: Sim,
    token: Sim,
}

impl Table12Builder {
    /// Creates a builder with the paper's parameters.
    pub fn new() -> Self {
        Table12Builder {
            sprite: Sim::new(Algorithm::Sprite),
            modified: Sim::new(Algorithm::SpriteModified),
            token: Sim::new(Algorithm::Token),
        }
    }

    /// Advances all three simulations by one record.
    pub fn record(&mut self, rec: &Record) {
        self.sprite.record(rec);
        self.modified.record(rec);
        self.token.record(rec);
    }

    /// Returns the finished table.
    pub fn finish(self) -> Table12 {
        Table12 {
            sprite: self.sprite.finish(),
            modified: self.modified.finish(),
            token: self.token.finish(),
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
    Table12 {
        sprite: simulate(records, Algorithm::Sprite),
        modified: simulate(records, Algorithm::SpriteModified),
        token: simulate(records, Algorithm::Token),
    }
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

    #[test]
    fn table12_runs_all_three() {
        let t = table12(&cws_trace());
        assert!((t.sprite.bytes_ratio() - 1.0).abs() < 1e-9);
        assert!(t.token.app_events == t.sprite.app_events);
        assert!(t.modified.app_events == t.sprite.app_events);
    }
}
