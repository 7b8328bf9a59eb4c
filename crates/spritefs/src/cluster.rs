//! The cluster: clients, servers, and the event loop.
//!
//! [`Cluster`] executes a time-ordered stream of application operations
//! against the simulated Sprite system. While doing so it:
//!
//! * runs the delayed-write daemon every 5 seconds (cleaning blocks dirty
//!   for 30 seconds, a file at a time),
//! * samples per-client cache sizes for Table 4,
//! * emits kernel-call trace records on the server owning each file, and
//! * maintains the per-machine counters behind Tables 5–10.
//!
//! The consistency policy is pluggable ([`ConsistencyPolicy`]): Sprite's
//! cache-disable scheme, the modified variant, a token scheme, or
//! NFS-style polling.

use sdfs_simkit::{CounterSet, SimDuration, SimTime};
use sdfs_trace::{ClientId, FileId, Handle, OpenMode, Record, RecordKind, ServerId};

use crate::cache::{BlockEntry, BlockKey, DirtyState};
use crate::client::{Client, FdState, ProcState};
use crate::config::{
    block_span, disk_time, retry_budget, retry_stall, rpc_time, Config, ConsistencyPolicy,
    BLOCK_SIZE, DAEMON_PERIOD, MAX_RETRIES, SAMPLE_PERIOD,
};
use crate::faults::{Callback, FaultEvent, Faults};
use crate::fs::FileTable;
use crate::metrics::{
    cache as mc, clean, consist, fault, implicit, mig, raw, replace, restart, srv, SanitizerStats,
};
use crate::obs::{ObsReport, SpanKind};
use crate::ops::{AppOp, OpKind};
use crate::rpc::{count_rpc, count_rpcs, RpcKind};
use crate::sanitizer::{Sanitizer, WriteKind};
use crate::server::{OpenEntry, Server};

/// Receives trace records as the cluster emits them, tagged with the
/// server that logged them (the paper gathered traces on the servers).
pub trait TraceSink {
    /// Accepts one record logged by `server`.
    fn emit(&mut self, server: ServerId, rec: Record);
}

/// A sink that keeps per-server record vectors in memory.
#[derive(Debug, Default)]
pub struct VecSink {
    /// Records per server, indexed by server id.
    pub per_server: Vec<Vec<Record>>,
}

impl VecSink {
    /// Creates a sink for `num_servers` servers.
    pub fn new(num_servers: u16) -> Self {
        VecSink {
            per_server: (0..num_servers).map(|_| Vec::new()).collect(),
        }
    }

    /// Total records across all servers.
    pub fn len(&self) -> usize {
        self.per_server.iter().map(Vec::len).sum()
    }

    /// Returns `true` when no records have been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for VecSink {
    fn emit(&mut self, server: ServerId, rec: Record) {
        let idx = server.raw() as usize;
        if idx >= self.per_server.len() {
            self.per_server.resize_with(idx + 1, Vec::new);
        }
        self.per_server[idx].push(rec);
    }
}

/// A sink that drops everything (counter-only runs).
#[derive(Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&mut self, _server: ServerId, _rec: Record) {}
}

/// Why a dirty block was cleaned (Table 9's four reasons, plus the
/// never-in-practice dirty LRU eviction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CleanReason {
    Delay,
    Fsync,
    Recall,
    Vm,
    Evict,
}

impl CleanReason {
    fn blocks_key(self) -> &'static str {
        match self {
            CleanReason::Delay => clean::DELAY_BLOCKS,
            CleanReason::Fsync => clean::FSYNC_BLOCKS,
            CleanReason::Recall => clean::RECALL_BLOCKS,
            CleanReason::Vm => clean::VM_BLOCKS,
            CleanReason::Evict => clean::EVICT_BLOCKS,
        }
    }

    fn age_key(self) -> &'static str {
        match self {
            CleanReason::Delay => clean::DELAY_AGE_US,
            CleanReason::Fsync => clean::FSYNC_AGE_US,
            CleanReason::Recall => clean::RECALL_AGE_US,
            CleanReason::Vm => clean::VM_AGE_US,
            CleanReason::Evict => clean::EVICT_AGE_US,
        }
    }
}

/// What [`Cluster::cached_read`] fetches through the client block cache.
/// It fixes the raw (Table 5) counter, the cache counter family (Table
/// 6's file or paging rows) and the RPC a miss costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fetch {
    /// File data an application reads.
    File,
    /// Code pages a process start faults in from its executable.
    Code,
    /// Initialized data a process start faults in from its executable.
    InitData,
}

/// Why a client gives up its LRU block's page (Table 8's replacement
/// causes).
#[derive(Debug, Clone, Copy)]
enum Replacement {
    /// The page will hold another file block.
    File,
    /// The page goes to the virtual-memory system.
    Vm,
}

/// What one client holds at one server ([`Cluster::stake`]).
struct Stake {
    /// Live handles on the server's files, sorted by handle.
    handles: Vec<(Handle, FileId, OpenMode)>,
    /// The server's files with blocks in the client's cache, sorted by
    /// id.
    files: Vec<FileId>,
}

impl Stake {
    /// Whether the client holds nothing at the server.
    fn is_empty(&self) -> bool {
        self.handles.is_empty() && self.files.is_empty()
    }
}

/// The simulated cluster.
///
/// # Examples
///
/// ```
/// use sdfs_simkit::SimTime;
/// use sdfs_spritefs::{AppOp, Cluster, Config, OpKind, VecSink};
/// use sdfs_trace::{ClientId, FileId, Handle, OpenMode, Pid, UserId};
///
/// let cfg = Config::small();
/// let mut cluster = Cluster::new(cfg.clone(), VecSink::new(cfg.num_servers));
/// cluster.preload(&[(FileId(0), 4096, false)]);
/// let op = |t, kind| AppOp {
///     time: SimTime::from_secs(t),
///     client: ClientId(0),
///     user: UserId(0),
///     pid: Pid(0),
///     migrated: false,
///     kind,
/// };
/// cluster.run(
///     vec![
///         op(1, OpKind::Open { fd: Handle(1), file: FileId(0), mode: OpenMode::Read }),
///         op(1, OpKind::Read { fd: Handle(1), len: 4096 }),
///         op(2, OpKind::Close { fd: Handle(1) }),
///     ],
///     SimTime::from_secs(60),
/// );
/// // One cold miss, and open/close records were logged on the server.
/// let counters = &cluster.clients()[0].metrics.counters;
/// assert_eq!(counters.get("cache.read.miss.ops"), 1);
/// assert_eq!(cluster.into_sink().len(), 2);
/// ```
pub struct Cluster<S: TraceSink> {
    cfg: Config,
    files: FileTable,
    clients: Vec<Client>,
    servers: Vec<Server>,
    sink: S,
    now: SimTime,
    next_tick: SimTime,
    next_sample: SimTime,
    /// SpriteSan shadow-state oracle ([`Config::sanitize`]). Boxed so
    /// the disabled (default) case costs one pointer.
    san: Option<Box<Sanitizer>>,
    /// Outages, partition cuts, leases and revocations: the one owner
    /// of fault state, under [`Config::faults`] or the inert default.
    faults: Faults,
    /// sdfs-obs self-measurement report, recorded as the run goes
    /// ([`Config::observe`]). Boxed so the disabled (default) case costs
    /// one pointer.
    obs: Option<Box<ObsReport>>,
}

impl<S: TraceSink> Cluster<S> {
    /// Creates a cluster from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: Config, sink: S) -> Self {
        cfg.validate().expect("invalid cluster configuration");
        let clients = (0..cfg.num_clients)
            .map(|i| Client::new(ClientId(i), cfg.client_mem(i), cfg.reserved_bytes))
            .collect();
        let mut servers: Vec<Server> = (0..cfg.num_servers)
            .map(|i| Server::new(ServerId(i), cfg.server_cache_bytes))
            .collect();
        if cfg.sanitize {
            // SpriteSan needs to know which block versions reached disk
            // (and so survive a crash); plain runs skip the bookkeeping.
            for server in &mut servers {
                server.set_disk_flush_logging(true);
            }
        }
        let next_tick = SimTime::ZERO + DAEMON_PERIOD;
        let next_sample = SimTime::ZERO + SAMPLE_PERIOD;
        let san = cfg.sanitize.then(|| Box::new(Sanitizer::new(&cfg)));
        let obs = cfg.observe.then(|| Box::new(ObsReport::new()));
        let faults = Faults::new(
            cfg.faults.as_ref(),
            cfg.num_clients as usize,
            cfg.num_servers as usize,
        );
        Cluster {
            files: FileTable::new(cfg.num_servers),
            cfg,
            clients,
            servers,
            sink,
            now: SimTime::ZERO,
            next_tick,
            next_sample,
            san,
            faults,
            obs,
        }
    }

    /// Pre-populates the namespace with files that exist before the trace
    /// begins (no trace records are emitted).
    pub fn preload(&mut self, files: &[(FileId, u64, bool)]) {
        for &(id, size, is_dir) in files {
            self.files.preload(id, is_dir, size);
        }
    }

    /// Executes an operation stream to completion, then advances internal
    /// daemons to `end` so trailing delayed writes and samples happen.
    pub fn run<I: IntoIterator<Item = AppOp>>(&mut self, ops: I, end: SimTime) {
        for op in ops {
            self.apply(&op);
        }
        self.advance_to(end);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configuration in force.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Immutable access to the clients (for analysis).
    pub fn clients(&self) -> &[Client] {
        &self.clients
    }

    /// Immutable access to the servers.
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// Immutable access to the file table.
    pub fn files(&self) -> &FileTable {
        &self.files
    }

    /// SpriteSan's verdict so far, when [`Config::sanitize`] is set.
    pub fn sanitizer_stats(&self) -> Option<&SanitizerStats> {
        self.san.as_ref().map(|s| s.stats())
    }

    /// Removes and returns SpriteSan's verdict (the oracle stops
    /// checking afterwards). `None` unless [`Config::sanitize`] was set.
    pub fn take_sanitizer_stats(&mut self) -> Option<SanitizerStats> {
        self.san.take().map(|s| s.into_stats())
    }

    /// Removes and returns the sdfs-obs report (observation stops
    /// afterwards). `None` unless [`Config::observe`] was set.
    pub fn take_obs_report(&mut self) -> Option<ObsReport> {
        self.obs.take().map(|o| *o)
    }

    /// Charges one RPC of `kind` to client `ci`: its `rpc.<kind>.*`
    /// counters and, when observing, its latency sample. Every counted
    /// RPC is charged here except the block fetches of
    /// [`Cluster::cached_read`] (file reads and code and initialized-data
    /// faults) and the write fetches and write-throughs of
    /// [`Cluster::cached_write`], which sample each message and add their
    /// counters once per call. Either way a kind's latency-sample count
    /// equals its `rpc.<kind>.msgs`.
    #[inline]
    fn charge_rpc(&mut self, ci: usize, kind: RpcKind, bytes: u64, disk_miss: bool) {
        count_rpc(self.counters(ci), kind, bytes);
        self.obs_rpc(kind, bytes, disk_miss);
    }

    /// Records one RPC's modeled latency: network time for the payload,
    /// plus a server disk access when the server cache missed. No-op
    /// unless observing.
    #[inline]
    fn obs_rpc(&mut self, kind: RpcKind, bytes: u64, disk_miss: bool) {
        if let Some(obs) = self.obs.as_deref_mut() {
            let mut lat = rpc_time(bytes);
            if disk_miss {
                lat += disk_time(bytes);
            }
            obs.rpc(kind, lat);
        }
    }

    /// Client `ci`'s kernel counters.
    #[inline]
    fn counters(&mut self, ci: usize) -> &mut CounterSet {
        &mut self.clients[ci].metrics.counters
    }

    /// Consumes the cluster, returning the sink.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Consumes the cluster, returning sink, clients, and servers (for
    /// analyses that need both traces and counters).
    pub fn into_parts(self) -> (S, Vec<Client>, Vec<Server>) {
        (self.sink, self.clients, self.servers)
    }

    /// Crashes a client workstation: every cached block vanishes, open
    /// files are forgotten, and dirty data that had not yet reached the
    /// server is *lost*. Returns the number of lost dirty bytes — the
    /// quantity Section 5.4 trades against longer write-back delays
    /// ("this would leave new data more vulnerable to client crashes").
    ///
    /// The machine reboots immediately with cold caches; the paper's
    /// Table 4 methodology screens such reboots out of the size-change
    /// statistics, so the sampler marks the next interval inactive.
    pub fn crash_client(&mut self, client: ClientId) -> u64 {
        let ci = client.raw() as usize;
        assert!(ci < self.clients.len(), "unknown client {client}");
        let mut lost = 0u64;
        for file in self.clients[ci].cache.files() {
            lost += self.discard_file(ci, file);
        }
        self.clients[ci]
            .metrics
            .counters
            .add(restart::CRASH_LOST_BYTES, lost);
        self.clients[ci].metrics.counters.bump(restart::CRASH_COUNT);
        // Server-side cleanup: the crashed client's opens disappear and
        // its consistency state is forgotten.
        for server in &mut self.servers {
            let touched: Vec<FileId> = server
                .files
                .iter()
                .filter(|(_, st)| st.involves(client))
                .map(|(&f, _)| f)
                .collect();
            for file in touched {
                let st = server.file_state(file);
                st.forget(client);
                // Re-evaluate cache disabling now that the crash ended
                // any sharing this client participated in.
                if st.uncacheable && !st.write_shared() && st.opens.is_empty() {
                    st.uncacheable = false;
                }
                server.gc_file(file);
            }
        }
        // The client reboots: fd table, process table, and VM state are
        // re-initialized.
        let mem_bytes = self.cfg.client_mem(client.raw());
        let fresh = Client::new(client, mem_bytes, self.cfg.reserved_bytes);
        let old = std::mem::replace(&mut self.clients[ci], fresh);
        // Keep the accumulated metrics (counters survive in the study's
        // collector, as the real measurement infrastructure did).
        self.clients[ci].data.metrics = old.data.metrics;
        lost
    }

    /// Total dirty bytes currently exposed to loss on `client` (what a
    /// crash right now would destroy).
    pub fn dirty_exposure(&self, client: ClientId) -> u64 {
        self.clients[client.raw() as usize].cache.dirty_app_bytes()
    }

    /// Drops client `ci`'s cached copy of `file` the way a crash does:
    /// its dirty blocks never reach the server (SpriteSan rolls their
    /// expected contents back to the server's copy) and the file is
    /// invalidated. Returns the dirty bytes lost.
    fn discard_file(&mut self, ci: usize, file: FileId) -> u64 {
        let client = self.clients[ci].id;
        let blocks = self.clients[ci].cache.remove_file(file);
        let mut lost = 0u64;
        for &(index, entry) in &blocks {
            if let Some(dirty) = entry.dirty {
                lost += dirty.dirty_app_bytes;
                if let Some(san) = self.san.as_deref_mut() {
                    san.on_crash_lost(client, BlockKey { file, index });
                }
            }
        }
        self.drop_blocks(ci, file, &blocks, false);
        lost
    }

    /// What client `ci` holds at server `si`, as Sprite's recovery
    /// protocol re-registers it: the crash rebuild, the recovery storm
    /// and both heal storms are all priced from this one query. A file
    /// belongs to `si` when the file table says so, so handles on
    /// deleted files are not counted.
    fn stake(&self, ci: usize, si: usize) -> Stake {
        let sid = self.servers[si].id;
        let on_server = |file| self.files.get(file).is_some_and(|m| m.server == sid);
        let client = &self.clients[ci];
        let mut handles: Vec<(Handle, FileId, OpenMode)> = client
            .fds
            .iter()
            .filter(|(_, f)| on_server(f.file))
            .map(|(&h, f)| (h, f.file, f.mode))
            .collect();
        handles.sort_unstable_by_key(|&(h, ..)| h);
        let mut files = client.cache.files();
        files.retain(|&file| on_server(file));
        Stake { handles, files }
    }

    // ------------------------------------------------------------------
    // Server crash and recovery.
    // ------------------------------------------------------------------

    /// Crashes a file server with no scheduled reboot (call
    /// [`Cluster::recover_server`] to bring it back). The server's
    /// volatile state vanishes: dirty server-cache blocks that had not
    /// reached disk are destroyed, and the per-file consistency state
    /// (opens, last writer, tokens) is forgotten. Data on disk
    /// survives. Returns the dirty server-cache bytes destroyed — the
    /// quantity the availability study trades against shorter
    /// server-side write-back delays.
    pub fn crash_server(&mut self, server: ServerId) -> u64 {
        self.crash_server_until(server, SimTime::MAX)
    }

    fn crash_server_until(&mut self, server: ServerId, until: SimTime) -> u64 {
        let si = server.raw() as usize;
        assert!(si < self.servers.len(), "unknown server {server}");
        if !self.faults.crash(si, self.now, until) {
            return 0;
        }
        // Stamp what reached disk before the volatile state vanishes.
        self.drain_disk_flush_logs();
        let (lost_blocks, saved_blocks) = self.servers[si].crash(self.cfg.server_nvram_bytes);
        let lost: u64 = lost_blocks.iter().map(|&(_, b)| b).sum();
        let saved: u64 = saved_blocks.iter().map(|&(_, b)| b).sum();
        if let Some(san) = self.san.as_deref_mut() {
            for &(key, _) in &lost_blocks {
                san.on_server_crash_lost(key);
            }
            // NVRAM-protected blocks survive the crash exactly as if
            // they had reached disk in time.
            for &(key, _) in &saved_blocks {
                san.on_server_disk_flush(key);
            }
        }
        let c = &mut self.servers[si].counters;
        c.bump(fault::SRV_CRASHES);
        c.add(fault::SRV_LOST_BYTES, lost);
        c.add(fault::NVRAM_SAVED_BYTES, saved);
        self.rebuild_server_state(si);
        lost
    }

    /// Rebuilds the volatile per-file consistency state a crashed
    /// server lost, from surviving client state — the information
    /// content of the Sprite recovery protocol (each client re-registers
    /// its opens, cached files, and dirty data with the reborn server).
    /// The rebuild runs eagerly at crash time so that operations issued
    /// during the outage (which the clients queue and the simulator
    /// delivers with stall accounting) compose with correct server
    /// state; the RPC *cost* of the recovery storm is charged at reboot
    /// by [`Cluster::recover_server`].
    fn rebuild_server_state(&mut self, si: usize) {
        let token_mode = matches!(self.cfg.consistency, ConsistencyPolicy::Token);
        let sprite_family = matches!(
            self.cfg.consistency,
            ConsistencyPolicy::Sprite | ConsistencyPolicy::SpriteModified
        );
        let stakes: Vec<Stake> = (0..self.clients.len())
            .map(|ci| self.stake(ci, si))
            .collect();
        for (ci, stake) in stakes.iter().enumerate() {
            let client = self.clients[ci].id;
            // Live opens come back in (client, handle) order so the
            // rebuilt open lists are deterministic.
            for &(handle, file, mode) in &stake.handles {
                self.servers[si].file_state(file).opens.push(OpenEntry {
                    client,
                    handle,
                    mode,
                });
            }
            // A client holding dirty blocks becomes the file's writer of
            // record again, so the next open by another client still
            // triggers a recall. At most one client can hold dirty
            // blocks of a file under the recall policies, so "first
            // client scanned wins" never races a real conflict.
            for &file in &stake.files {
                if !self.clients[ci].cache.has_dirty(file) {
                    continue;
                }
                let st = self.servers[si].file_state(file);
                if token_mode {
                    if st.tokens.writer.is_none() {
                        st.tokens.writer = Some(client);
                    }
                } else if st.last_writer.is_none() {
                    st.last_writer = Some(client);
                }
            }
        }
        if token_mode {
            // Read tokens: every client still caching blocks of a file
            // re-registers as a reader (unless it is the writer), client
            // by client.
            for (ci, stake) in stakes.iter().enumerate() {
                let client = self.clients[ci].id;
                for &file in &stake.files {
                    let st = self.servers[si].file_state(file);
                    if st.tokens.writer != Some(client) {
                        st.tokens.readers.insert(client);
                    }
                }
            }
        }
        if sprite_family {
            // Files that came back write-shared resume uncacheable mode.
            for st in self.servers[si].files.values_mut() {
                if st.write_shared() {
                    st.uncacheable = true;
                }
            }
        }
    }

    /// Reboots a crashed server and runs the Sprite recovery protocol:
    /// every client with state on the server (open handles, cached
    /// blocks, or dirty data) re-registers itself and reopens its live
    /// file handles — the "recovery storm". Returns the number of storm
    /// RPCs; a no-op returning 0 if the server is not down.
    pub fn recover_server(&mut self, server: ServerId) -> u64 {
        let si = server.raw() as usize;
        assert!(si < self.servers.len(), "unknown server {server}");
        let Some(downtime) = self.faults.reboot(si, self.now) else {
            return 0;
        };
        // Unit cost of one empty recovery RPC; the reborn server
        // serializes the storm, so the k-th reopen waits k+1 units.
        let storm_unit = rpc_time(0);
        let mut storm = 0u64;
        let mut reopens_total = 0u64;
        let mut reregisters = 0u64;
        for ci in 0..self.clients.len() {
            // Cached blocks alone also force re-registration: the
            // reborn server must learn who caches its files.
            let stake = self.stake(ci, si);
            if stake.is_empty() {
                continue;
            }
            let reopens = stake.handles.len() as u64;
            self.charge_rpc(ci, RpcKind::Reregister, 0, false);
            for k in 0..reopens {
                self.charge_rpc(ci, RpcKind::Reopen, 0, false);
                if let Some(obs) = self.obs.as_deref_mut() {
                    obs.reopen(storm_unit * (reopens_total + k + 1));
                }
            }
            reregisters += 1;
            reopens_total += reopens;
            storm += 1 + reopens;
        }
        let c = &mut self.servers[si].counters;
        c.bump(fault::SRV_RECOVERIES);
        c.add(fault::SRV_UNAVAIL_US, downtime.as_micros());
        c.add(fault::STORM_RPCS, storm);
        c.add(fault::STORM_REOPENS, reopens_total);
        c.add(fault::STORM_REREGISTERS, reregisters);
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.span(SpanKind::ServerOutage, downtime);
            obs.span(SpanKind::RecoveryStorm, storm_unit * storm);
        }
        storm
    }

    /// Whether `server` is currently crashed.
    pub fn server_is_down(&self, server: ServerId) -> bool {
        let si = server.raw() as usize;
        si < self.servers.len() && self.faults.is_down(si)
    }

    /// Feeds the servers' disk-flush logs to SpriteSan so it knows which
    /// block versions a crash cannot destroy. No-op when the oracle is
    /// off (the logs are only enabled under [`Config::sanitize`]).
    fn drain_disk_flush_logs(&mut self) {
        let Some(san) = self.san.as_deref_mut() else {
            return;
        };
        for server in &mut self.servers {
            for key in server.take_disk_flush_log() {
                san.on_server_disk_flush(key);
            }
        }
    }

    /// Gates one client→server RPC on the fault state: when client `ci`
    /// cannot reach server `si`, the caller stalls until the reboot or
    /// heal, for at most the retry budget (the operation itself is
    /// queued and delivered — data is not lost, time is); an RPC that
    /// gets through renews the edge's lease and may lose messages to
    /// seeded drops, costing retransmissions with exponential backoff.
    fn gate_rpc(&mut self, ci: usize, si: usize, kind: RpcKind) {
        let now = self.now;
        let counters = &mut self.clients[ci].data.metrics.counters;
        let mut obs = self.obs.as_deref_mut();
        // The stall, and the counter to bump if the RPC gave up.
        let (stall, failed) = if let Some((until, blocked)) = self.faults.unreachable(ci, si) {
            // The RPC times out and is retried until the reboot or heal,
            // or until the retry budget runs out. The operation itself
            // still executes: the cost is time, not data (DESIGN.md §15).
            let remaining = until.since(now);
            let stall = remaining.min(retry_budget());
            counters.bump(blocked.stalled);
            counters.add(blocked.stall_us, stall.as_micros());
            if let Some(obs) = obs.as_deref_mut() {
                obs.span(SpanKind::Stall, stall);
            }
            let gave_up = remaining > retry_budget();
            (stall, gave_up.then_some(blocked.failed))
        } else {
            let tries = self.faults.reached(ci, si, now);
            if tries == 0 {
                return;
            }
            let stall = retry_stall(tries);
            counters.add(fault::RETRANS_MSGS, u64::from(tries));
            counters.add(fault::STALL_US, stall.as_micros());
            (stall, (tries == MAX_RETRIES).then_some(fault::FAILED_RPCS))
        };
        if let Some(failed) = failed {
            counters.bump(failed);
        }
        if let Some(obs) = obs {
            if failed.is_some() {
                obs.exhaust(kind);
            }
            obs.retry(stall);
        }
    }

    /// One client→server RPC of `kind` from client `ci` to server `si`,
    /// carrying `bytes`: gated on the fault state ([`Cluster::gate_rpc`]),
    /// then charged ([`Cluster::charge_rpc`]).
    fn rpc(&mut self, ci: usize, si: usize, kind: RpcKind, bytes: u64, disk_miss: bool) {
        self.gate_rpc(ci, si, kind);
        self.charge_rpc(ci, kind, bytes, disk_miss);
    }

    /// Fires the next scheduled fault transition (already known due and
    /// timestamped; `self.now` has been advanced to it).
    fn fire_fault_event(&mut self) {
        match self.faults.pop_event() {
            FaultEvent::Crash { until, server } => {
                self.crash_server_until(ServerId(server), until);
            }
            FaultEvent::Reboot { server } => {
                self.recover_server(ServerId(server));
            }
            FaultEvent::PartitionStart { idx } => self.partition_start(idx),
            FaultEvent::PartitionHeal { idx } => self.partition_heal(idx),
        }
    }

    /// Cuts every edge of partition `idx`. RPCs on a cut edge stall
    /// (and can exhaust their retry budget) until the heal; consistency
    /// actions *toward* a cut client go through
    /// [`Cluster::callback`] instead.
    fn partition_start(&mut self, idx: usize) {
        for &(_, s) in self.faults.start_partition(idx) {
            self.servers[s as usize]
                .counters
                .bump(fault::PART_CUT_EDGES);
        }
    }

    /// Heals every edge of partition `idx`. A fully healed edge runs
    /// the recovery protocol selected by
    /// [`FaultPlan::conservative_recovery`](crate::FaultPlan::conservative_recovery):
    /// the conservative baseline treats the healed edge like a rebooted
    /// server (Reregister plus one Reopen per live handle), the lease
    /// protocol sends one renewal plus one [`RpcKind::Reassert`] per
    /// revoked grant.
    fn partition_heal(&mut self, idx: usize) {
        let (cut_at, healed) = self.faults.heal_partition(idx, self.now);
        let dur = self.now.since(cut_at);
        for (c, s) in healed {
            let (ci, si) = (c as usize, s as usize);
            self.servers[si]
                .counters
                .add(fault::PART_CUT_US, dur.as_micros());
            if self.faults.conservative_recovery() {
                self.conservative_heal(ci, si);
            } else {
                self.lease_heal(ci, si);
            }
        }
    }

    /// Conservative heal storm for one edge: the client cannot tell a
    /// partition from a server reboot (both look like timeouts), so it
    /// re-registers and reopens every live handle — the full
    /// crash-recovery protocol. But a heal is *worse* than a reboot for
    /// the cache: while a crashed server was down nobody could write
    /// anything, so cached blocks are trivially still valid at
    /// recovery; across a partition the server kept serving the
    /// reachable clients, so every file this client has cached may
    /// have changed behind its back and must be revalidated with its
    /// own round trip. The lease protocol exists to collapse exactly
    /// this per-file revalidation into one renewal.
    fn conservative_heal(&mut self, ci: usize, si: usize) {
        let stake = self.stake(ci, si);
        if stake.is_empty() {
            return;
        }
        // Live handles are reopened, mirroring the recovery storm; each
        // cached file with no live handle is revalidated on its own.
        let revalidations = stake
            .files
            .iter()
            .filter(|&&file| !stake.handles.iter().any(|&(_, f, _)| f == file))
            .count();
        let roundtrips = (stake.handles.len() + revalidations) as u64;
        self.charge_rpc(ci, RpcKind::Reregister, 0, false);
        for _ in 0..roundtrips {
            self.charge_rpc(ci, RpcKind::Reopen, 0, false);
        }
        let sc = &mut self.servers[si].counters;
        sc.add(fault::HEAL_REREGISTERS, 1);
        sc.add(fault::HEAL_REOPENS, roundtrips);
        sc.add(fault::HEAL_STORM_RPCS, 1 + roundtrips);
    }

    /// Lease-protocol heal storm for one edge: one lease renewal if the
    /// client has any stake on the server, plus one Reassert per
    /// revoked grant the client still holds open. Grants whose lease
    /// never lapsed need nothing (the server kept them), and revoked
    /// grants on files the client has since closed need nothing either
    /// (both sides already agree the grant is gone) — which is why this
    /// storm is strictly smaller than the conservative one.
    fn lease_heal(&mut self, ci: usize, si: usize) {
        let mut revoked = self.faults.take_revoked(ci, si);
        revoked.retain(|&file| self.clients[ci].fds.values().any(|f| f.file == file));
        if self.stake(ci, si).is_empty() && revoked.is_empty() {
            return;
        }
        self.charge_rpc(ci, RpcKind::LeaseRenew, 0, false);
        let sc = &mut self.servers[si].counters;
        sc.add(fault::HEAL_RENEWALS, 1);
        sc.add(fault::HEAL_STORM_RPCS, 1);
        for file in revoked {
            self.charge_rpc(ci, RpcKind::Reassert, 0, false);
            let sc = &mut self.servers[si].counters;
            sc.add(fault::HEAL_REASSERTS, 1);
            sc.add(fault::HEAL_STORM_RPCS, 1);
            self.reassert_file(ci, si, file);
        }
    }

    /// Re-registers client `ci`'s surviving state on `file` with server
    /// `si` after a lease revocation: live handles come back as opens
    /// (the per-file slice of [`Cluster::rebuild_server_state`]).
    /// Cached blocks were invalidated at revocation, so no reader token
    /// or writer-of-record state comes back.
    fn reassert_file(&mut self, ci: usize, si: usize, file: FileId) {
        let client = self.clients[ci].id;
        let mut opens: Vec<(Handle, OpenMode)> = self.clients[ci]
            .fds
            .iter()
            .filter(|(_, f)| f.file == file)
            .map(|(&h, f)| (h, f.mode))
            .collect();
        opens.sort_unstable_by_key(|&(h, _)| h);
        if opens.is_empty() {
            return;
        }
        let st = self.servers[si].file_state(file);
        for &(handle, mode) in &opens {
            // Handles opened *after* the revocation registered normally
            // (the overlay delivers the Open); don't double-register.
            if st.opens.iter().any(|o| o.client == client && o.handle == handle) {
                continue;
            }
            st.opens.push(OpenEntry {
                client,
                handle,
                mode,
            });
        }
        if self.cfg.consistency.is_strong() && st.write_shared() {
            // The reasserted opens may re-create write sharing.
            st.uncacheable = true;
        }
    }

    /// Sends one server→client callback of `kind` from server `si` to
    /// client `target` about `file`, on behalf of `requester`, whose
    /// open triggered it. All five such actions come through here: the
    /// Sprite recall, the token write recall, the token reader
    /// invalidate, the token read downgrade and the cache-disable
    /// invalidate. A target behind a cut edge is gated first (DESIGN.md
    /// §15): the action waits for the heal, or the target's lapsed lease
    /// is revoked instead. Returns `true` when the callback was charged
    /// to `target` and the caller should carry the action out (any wait
    /// is charged to `requester`), `false` when the lease protocol
    /// revoked the target's grant instead — the target's state is then
    /// already torn down and the caller must skip the action entirely.
    fn callback(
        &mut self,
        kind: RpcKind,
        target: usize,
        si: usize,
        requester: usize,
        file: FileId,
    ) -> bool {
        // Self-directed actions ride the requester's own RPC reply,
        // which already paid the partition stall.
        let verdict = if target == requester {
            Callback::Deliver
        } else {
            self.faults.callback(target, si, self.now)
        };
        match verdict {
            Callback::Deliver => {}
            Callback::Wait(stall) => {
                let c = &mut self.clients[requester].metrics.counters;
                c.bump(fault::PART_UNDELIVERED);
                c.add(fault::PART_STALL_US, stall.as_micros());
                if let Some(obs) = self.obs.as_deref_mut() {
                    obs.span(SpanKind::Stall, stall);
                }
            }
            Callback::Revoke(wait) => {
                let c = &mut self.clients[requester].metrics.counters;
                c.add(fault::LEASE_WAIT_US, wait.as_micros());
                if wait > SimDuration::ZERO {
                    if let Some(obs) = self.obs.as_deref_mut() {
                        obs.span(SpanKind::Stall, wait);
                    }
                }
                self.revoke_client_file(target, si, file, requester);
                return false;
            }
        }
        self.charge_rpc(target, kind, 0, false);
        true
    }

    /// Unilaterally revokes client `ci`'s grant on `file`: its lease
    /// lapsed during a partition, so the server stops waiting for it.
    /// Dirty data under the lapsed lease is lost exactly like a client
    /// crash; the client's cached copy, opens, writer-of-record, and
    /// token state are torn down. The grant is remembered per edge so
    /// the client reasserts it on heal.
    ///
    /// The revoked client keeps running behind the cut, and the server
    /// has just forgotten every open it held — so from here until the
    /// heal the server cannot see conflicts involving it. Caching on
    /// the file is therefore disabled for everyone: surviving holders
    /// are flushed and invalidated through the ordinary write-sharing
    /// machinery ([`Cluster::disable_caching`], charged to
    /// `requester`, whose conflicting action triggered the
    /// revocation), and [`Faults::file_revoked`] keeps the data
    /// path synchronous until the heal drains the revocation list.
    fn revoke_client_file(&mut self, ci: usize, si: usize, file: FileId, requester: usize) {
        let client = self.clients[ci].id;
        // Exactly as a client crash does: the server's copy is the
        // truth again.
        let lost = self.discard_file(ci, file);
        let c = &mut self.servers[si].counters;
        c.bump(fault::LEASE_EXPIRY_RECALLS);
        c.add(fault::LEASE_LOST_BYTES, lost);
        // Server side: the grant is forgotten until reasserted on heal.
        let st = self.servers[si].file_state(file);
        st.forget(client);
        let needs_disable = !st.uncacheable;
        if needs_disable {
            // Idempotence guard doubles as the recursion bound:
            // `disable_caching` marks the file uncacheable *before*
            // walking holders, so revocations it triggers in turn
            // (holders behind other lapsed cuts) skip this branch.
            self.disable_caching(file, si, requester);
        }
        self.servers[si].gc_file(file);
        self.faults.revoke(ci, si, file);
    }

    // ------------------------------------------------------------------
    // Internal time advance: daemon ticks and samples.
    // ------------------------------------------------------------------

    fn advance_to(&mut self, t: SimTime) {
        loop {
            let next_fault = self.faults.next_event_at();
            let next_daemon = self.next_tick.min(self.next_sample);
            let next = match next_fault {
                Some(f) => f.min(next_daemon),
                None => next_daemon,
            };
            if next > t {
                break;
            }
            self.now = next;
            if next_fault == Some(next) {
                // Fault transitions fire before same-instant daemon work:
                // a reboot must precede the tick that flushes to it.
                self.fire_fault_event();
            } else if self.next_tick <= self.next_sample {
                self.daemon_tick(next);
                self.next_tick = next + DAEMON_PERIOD;
            } else {
                self.take_samples(next);
                self.next_sample = next + SAMPLE_PERIOD;
            }
        }
        self.now = self.now.max(t);
    }

    /// The write-back daemon: every 5 seconds, write out all dirty blocks
    /// of any file that has had a block dirty for 30 seconds.
    fn daemon_tick(&mut self, now: SimTime) {
        let cutoff = now - self.cfg.writeback_delay;
        for ci in 0..self.clients.len() {
            self.daemon_flush(ci, cutoff);
        }
        // Servers run their own delayed write to disk (a crashed server
        // has no cache to flush).
        for si in 0..self.servers.len() {
            if !self.faults.is_down(si) {
                self.servers[si].flush_dirty_before(cutoff);
            }
        }
        self.drain_disk_flush_logs();
        if let Some(san) = self.san.as_deref_mut() {
            san.check_writeback_window(&self.clients, &self.files, &self.faults, now, cutoff);
        }
    }

    fn take_samples(&mut self, now: SimTime) {
        for ci in 0..self.clients.len() {
            // A client that has never issued an operation is idle; the
            // zero default must not look like activity at time zero.
            let last = self.clients[ci].last_activity;
            let active = last > SimTime::ZERO && now.since(last) <= SAMPLE_PERIOD;
            let bytes = self.clients[ci].cache_bytes();
            self.clients[ci].metrics.sample(now, bytes, active);
        }
        if let Some(san) = self.san.as_deref_mut() {
            san.deep_audit(&self.clients, &self.servers, now);
        }
    }

    // ------------------------------------------------------------------
    // Operation dispatch.
    // ------------------------------------------------------------------

    /// Applies one operation. Time must be non-decreasing.
    pub fn apply(&mut self, op: &AppOp) {
        debug_assert!(op.time >= self.now, "operations must arrive in order");
        self.advance_to(op.time);
        self.now = op.time;
        let ci = op.client.raw() as usize;
        assert!(ci < self.clients.len(), "unknown client {}", op.client);
        self.clients[ci].last_activity = op.time;
        match op.kind.clone() {
            OpKind::Open { fd, file, mode } => self.do_open(op, fd, file, mode),
            OpKind::Read { fd, len } => self.do_read(op, fd, len),
            OpKind::Write { fd, len } => self.do_write(op, fd, len),
            OpKind::Seek { fd, to } => self.do_seek(op, fd, to),
            OpKind::Close { fd } => self.do_close(op, fd),
            OpKind::Fsync { fd } => self.do_fsync(op, fd),
            OpKind::Create { file, is_dir } => self.do_create(op, file, is_dir),
            OpKind::Delete { file } => self.do_delete(op, file),
            OpKind::Truncate { file } => self.do_truncate(op, file),
            OpKind::ReadDir { dir, bytes } => self.do_readdir(op, dir, bytes),
            OpKind::ProcStart {
                exec,
                code_bytes,
                data_bytes,
                heap_bytes,
            } => self.do_proc_start(op, exec, code_bytes, data_bytes, heap_bytes),
            OpKind::ProcExit => self.do_proc_exit(op),
            OpKind::PageIn {
                file,
                offset,
                bytes,
            } => self.do_page(op, file, offset, bytes, true),
            OpKind::PageOut {
                file,
                offset,
                bytes,
            } => self.do_page(op, file, offset, bytes, false),
        }
        if let Some(san) = self.san.as_deref_mut() {
            san.check_page_accounting(&self.clients[ci], self.now);
        }
    }

    fn emit(&mut self, server: ServerId, op: &AppOp, kind: RecordKind) {
        self.sink.emit(
            server,
            Record {
                time: self.now,
                client: op.client,
                user: op.user,
                pid: op.pid,
                migrated: op.migrated,
                kind,
            },
        );
    }

    // ------------------------------------------------------------------
    // Open / close and consistency.
    // ------------------------------------------------------------------

    fn do_open(&mut self, op: &AppOp, fd: Handle, file: FileId, mode: OpenMode) {
        let ci = op.client.raw() as usize;
        let (meta, created) = self.files.get_or_create(file, false, self.now);
        if created {
            // Robustness: an open of an unknown file creates it (the
            // workload should always create first).
            self.clients[ci].metrics.counters.bump(implicit::CREATES);
        }
        let server_id = meta.server;
        let is_dir = meta.is_dir;
        let size = meta.size;
        let prev_version = meta.version;
        if mode.writes() && !is_dir {
            meta.version += 1;
        }
        let version = meta.version;
        let si = server_id.raw() as usize;

        self.rpc(ci, si, RpcKind::Open, 0, false);
        if !is_dir {
            self.counters(ci).bump(consist::FILE_OPENS);
            match self.cfg.consistency {
                ConsistencyPolicy::Sprite | ConsistencyPolicy::SpriteModified => {
                    self.sprite_open_consistency(op, file, prev_version, version, si);
                }
                ConsistencyPolicy::Token => {
                    self.token_open_consistency(op, file, mode, si);
                }
                ConsistencyPolicy::Polling { interval_secs } => {
                    self.polling_validate(op, file, version, interval_secs, si);
                }
            }
        }

        // Register the open with the server.
        let st = self.servers[si].file_state(file);
        st.opens.push(OpenEntry {
            client: op.client,
            handle: fd,
            mode,
        });

        // Concurrent write-sharing: detect and, under the strongly
        // consistent policies, disable caching. Sprite does so by
        // design; token mode must as well, because tokens are
        // enforced at open granularity here — once a writer and a
        // reader hold the file open together, only pass-through
        // I/O keeps every interleaving of their ops coherent
        // (found by SpriteSan under the partition fuzzer).
        if !is_dir && st.write_shared() {
            self.counters(ci).bump(consist::CWS_OPENS);
            if self.cfg.consistency.is_strong() && !self.servers[si].file_state(file).uncacheable {
                self.disable_caching(file, si, ci);
            }
        }

        self.clients[ci]
            .fds
            .insert(fd, FdState::new(file, mode, self.now, op.migrated));
        self.emit(
            server_id,
            op,
            RecordKind::Open {
                fd,
                file,
                mode,
                size,
                is_dir,
            },
        );
    }

    /// Sprite open-time consistency: version check against the client's
    /// cache and dirty-data recall from the last writer.
    fn sprite_open_consistency(
        &mut self,
        op: &AppOp,
        file: FileId,
        prev_version: u64,
        version: u64,
        si: usize,
    ) {
        let ci = op.client.raw() as usize;
        // Stale-cache check: the client compares the server's version
        // stamp with the one its cached blocks correspond to.
        if let Some(&seen) = self.clients[ci].seen_version.get(&file) {
            if seen != prev_version {
                self.invalidate_file(ci, file, true);
            }
        }
        self.clients[ci].seen_version.insert(file, version);

        // Recall: if the last writer is some other client, the server
        // retrieves its dirty data. (Like the real server, we do not
        // know whether the writer already flushed, so this is an upper
        // bound — exactly the paper's caveat for Table 10.)
        let last_writer = self.servers[si].file_state(file).last_writer;
        if let Some(w) = last_writer {
            if w != op.client {
                let wi = w.raw() as usize;
                // A writer behind a cut edge may lose its grant to
                // lease expiry instead of answering the recall.
                if self.callback(RpcKind::Recall, wi, si, ci, file) {
                    self.counters(ci).bump(consist::RECALL_OPENS);
                    self.flush_file(wi, file, CleanReason::Recall);
                    self.servers[si].file_state(file).last_writer = None;
                }
            }
        }
    }

    /// Token-mode open: acquire the needed token, recalling conflicting
    /// tokens (write-token recall flushes dirty data; a write grant
    /// invalidates reader caches).
    fn token_open_consistency(&mut self, op: &AppOp, file: FileId, mode: OpenMode, si: usize) {
        let ci = op.client.raw() as usize;
        let me = op.client;
        let writer = self.servers[si].file_state(file).tokens.writer;
        if mode.writes() {
            if writer != Some(me) {
                // The readers to recall, listed before any recall runs.
                let st = self.servers[si].file_state(file);
                let readers: Vec<ClientId> = st.tokens.readers.iter().copied().collect();
                if let Some(w) = writer {
                    // Recall the write token: the holder flushes and
                    // invalidates (unless its lease lapsed behind a cut
                    // edge, in which case the revocation did the work).
                    let wi = w.raw() as usize;
                    if self.callback(RpcKind::TokenRecall, wi, si, ci, file) {
                        self.flush_file(wi, file, CleanReason::Recall);
                        self.invalidate_file(wi, file, false);
                    }
                }
                for r in readers {
                    if r != me {
                        let ri = r.raw() as usize;
                        if self.callback(RpcKind::TokenRecall, ri, si, ci, file) {
                            self.invalidate_file(ri, file, false);
                        }
                    }
                }
                let st = self.servers[si].file_state(file);
                st.tokens.readers.clear();
                st.tokens.writer = Some(me);
                self.charge_rpc(ci, RpcKind::TokenAcquire, 0, false);
            }
        } else {
            let holds = writer == Some(me) || {
                let st = self.servers[si].file_state(file);
                st.tokens.readers.contains(&me)
            };
            if !holds {
                if let Some(w) = writer {
                    // Downgrade the writer: flush dirty, keep its blocks,
                    // writer becomes a reader (unless its lease lapsed
                    // behind a cut edge: the revocation took its token,
                    // blocks and dirty data).
                    let wi = w.raw() as usize;
                    if self.callback(RpcKind::TokenRecall, wi, si, ci, file) {
                        self.flush_file(wi, file, CleanReason::Recall);
                        let st = self.servers[si].file_state(file);
                        st.tokens.writer = None;
                        st.tokens.readers.insert(w);
                    }
                }
                let st = self.servers[si].file_state(file);
                st.tokens.readers.insert(me);
                self.charge_rpc(ci, RpcKind::TokenAcquire, 0, false);
            }
        }
    }

    /// Polling-mode revalidation: trust cached data for the interval,
    /// then check the version with the server.
    fn polling_validate(
        &mut self,
        op: &AppOp,
        file: FileId,
        version: u64,
        interval_secs: u32,
        si: usize,
    ) {
        let ci = op.client.raw() as usize;
        let interval = sdfs_simkit::SimDuration::from_secs(interval_secs as u64);
        let due = match self.clients[ci].last_validate.get(&file) {
            Some(&at) => self.now.since(at) > interval,
            None => true,
        };
        if due {
            self.rpc(ci, si, RpcKind::GetAttr, 0, false);
            let stale = self.clients[ci]
                .seen_version
                .get(&file)
                .is_some_and(|&v| v != version);
            if stale {
                self.invalidate_file(ci, file, true);
            }
            self.clients[ci].seen_version.insert(file, version);
            self.clients[ci].last_validate.insert(file, self.now);
        }
    }

    /// Disables client caching for a write-shared file: every client with
    /// an open flushes dirty data and invalidates its cache.
    /// `requester` is the client whose open triggered the disable (it
    /// absorbs any partition wait for unreachable holders).
    fn disable_caching(&mut self, file: FileId, si: usize, requester: usize) {
        let st = self.servers[si].file_state(file);
        st.uncacheable = true;
        let mut holders: Vec<ClientId> = st.opens.iter().map(|o| o.client).collect();
        holders.sort_unstable();
        holders.dedup();
        for c in holders {
            let ci = c.raw() as usize;
            if !self.callback(RpcKind::Invalidate, ci, si, requester, file) {
                continue; // Lease revoked: the holder's cache is gone.
            }
            self.flush_file(ci, file, CleanReason::Recall);
            self.invalidate_file(ci, file, false);
        }
        self.servers[si].file_state(file).last_writer = None;
    }

    fn do_close(&mut self, op: &AppOp, fd: Handle) {
        let ci = op.client.raw() as usize;
        let Some(fdst) = self.clients[ci].fds.remove(&fd) else {
            debug_assert!(false, "close of unknown fd {fd}");
            return;
        };
        let file = fdst.file;
        let Some(meta) = self.files.get(file) else {
            return; // File vanished underneath (deleted while open).
        };
        let server_id = meta.server;
        let size = meta.size;
        let si = server_id.raw() as usize;
        self.rpc(ci, si, RpcKind::Close, 0, false);
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.span(SpanKind::FileOpen, fdst.open_duration(self.now));
        }

        let st = self.servers[si].file_state(file);
        st.remove_open(fd);
        if fdst.wrote() && !st.uncacheable {
            st.last_writer = Some(op.client);
        }
        match self.cfg.consistency {
            ConsistencyPolicy::Sprite => {
                if st.uncacheable && st.opens.is_empty() {
                    st.uncacheable = false;
                }
            }
            // Token re-grants caching once the conflicting open
            // ends, like a delegation returned and re-issued — the
            // same condition Modified Sprite uses.
            ConsistencyPolicy::SpriteModified | ConsistencyPolicy::Token => {
                if st.uncacheable && !st.write_shared() {
                    st.uncacheable = false;
                }
            }
            ConsistencyPolicy::Polling { .. } => {}
        }
        self.servers[si].gc_file(file);

        self.emit(
            server_id,
            op,
            RecordKind::Close {
                fd,
                file,
                offset: fdst.offset,
                run_read: fdst.run_read,
                run_written: fdst.run_written,
                total_read: fdst.total_read,
                total_written: fdst.total_written,
                size,
                opened_at: fdst.opened_at,
            },
        );
    }

    // ------------------------------------------------------------------
    // Data path.
    // ------------------------------------------------------------------

    /// Whether data ops on `file` bypass the client cache: the file is
    /// uncacheable, or a lease revocation on it is outstanding.
    fn pass_through(&self, si: usize, file: FileId) -> bool {
        self.servers[si]
            .files
            .get(&file)
            .is_some_and(|st| st.uncacheable)
            || self.faults.file_revoked(si, file)
    }

    fn do_read(&mut self, op: &AppOp, fd: Handle, len: u64) {
        let ci = op.client.raw() as usize;
        let Some(fdst) = self.clients[ci].fds.get(&fd).cloned() else {
            debug_assert!(false, "read on unknown fd {fd}");
            return;
        };
        let file = fdst.file;
        let Some(meta) = self.files.get(file) else {
            return;
        };
        let size = meta.size;
        let server_id = meta.server;
        let si = server_id.raw() as usize;
        let eff = len.min(size.saturating_sub(fdst.offset));
        if eff == 0 {
            return;
        }
        let uncacheable = self.pass_through(si, file);

        if uncacheable {
            // Pass-through read on a write-shared file.
            let c = self.counters(ci);
            c.add(raw::SHARED_READ, eff);
            c.add(srv::SHARED_READ, eff);
            self.rpc(ci, si, RpcKind::SharedRead, eff, false);
            self.emit(
                server_id,
                op,
                RecordKind::SharedRead {
                    file,
                    offset: fdst.offset,
                    len: eff,
                },
            );
        } else {
            self.cached_read(op, si, file, fdst.offset, eff, Fetch::File);
            // Polling mode: a cache read may silently return stale data.
            if matches!(self.cfg.consistency, ConsistencyPolicy::Polling { .. }) {
                let current = self.files.get(file).map(|m| m.version).unwrap_or(0);
                let seen = self.clients[ci]
                    .seen_version
                    .get(&file)
                    .copied()
                    .unwrap_or(current);
                if seen != current {
                    let c = self.counters(ci);
                    c.bump(consist::STALE_READ_OPS);
                    c.add(consist::STALE_READ_BYTES, eff);
                }
            }
        }
        let fdst = self.clients[ci].fds.get_mut(&fd).expect("fd exists");
        fdst.offset += eff;
        fdst.run_read += eff;
        fdst.total_read += eff;
    }

    fn do_write(&mut self, op: &AppOp, fd: Handle, len: u64) {
        let ci = op.client.raw() as usize;
        let Some(fdst) = self.clients[ci].fds.get(&fd).cloned() else {
            debug_assert!(false, "write on unknown fd {fd}");
            return;
        };
        let file = fdst.file;
        let Some(meta) = self.files.get(file) else {
            return;
        };
        if len == 0 {
            return;
        }
        let old_size = meta.size;
        let server_id = meta.server;
        let si = server_id.raw() as usize;
        let offset = fdst.offset;
        let uncacheable = self.pass_through(si, file);

        // Update metadata before moving any data: a mid-write LRU
        // eviction writes the dirty block back, and the write-back sizes
        // its payload from `meta.size` — updating afterwards made such a
        // block look zero-length, cancelling its data silently (found by
        // SpriteSan as a stale read on the next client's fetch).
        let meta = self.files.get_mut(file).expect("file exists");
        let was_empty = old_size == 0;
        if offset + len > meta.size {
            meta.size = offset + len;
        }
        meta.note_write(self.now, was_empty);

        if uncacheable {
            let c = self.counters(ci);
            c.add(raw::SHARED_WRITE, len);
            c.add(srv::SHARED_WRITE, len);
            self.rpc(ci, si, RpcKind::SharedWrite, len, false);
            if let Some(san) = self.san.as_deref_mut() {
                for index in block_span(offset, len) {
                    san.on_server_write(BlockKey { file, index });
                }
            }
            self.emit(server_id, op, RecordKind::SharedWrite { file, offset, len });
        } else {
            self.cached_write(op, si, file, offset, len, old_size);
        }

        let fdst = self.clients[ci].fds.get_mut(&fd).expect("fd exists");
        fdst.offset += len;
        fdst.run_written += len;
        fdst.total_written += len;
    }

    fn do_seek(&mut self, op: &AppOp, fd: Handle, to: u64) {
        let ci = op.client.raw() as usize;
        let Some(fdst) = self.clients[ci].fds.get_mut(&fd) else {
            debug_assert!(false, "seek on unknown fd {fd}");
            return;
        };
        let file = fdst.file;
        let from = fdst.offset;
        let run_read = fdst.run_read;
        let run_written = fdst.run_written;
        fdst.offset = to;
        fdst.run_read = 0;
        fdst.run_written = 0;
        let Some(meta) = self.files.get(file) else {
            return;
        };
        let server_id = meta.server;
        self.emit(
            server_id,
            op,
            RecordKind::Reposition {
                fd,
                file,
                from,
                to,
                run_read,
                run_written,
            },
        );
    }

    fn do_fsync(&mut self, op: &AppOp, fd: Handle) {
        let ci = op.client.raw() as usize;
        let Some(fdst) = self.clients[ci].fds.get(&fd) else {
            debug_assert!(false, "fsync on unknown fd {fd}");
            return;
        };
        let file = fdst.file;
        match self.files.get(file).map(|m| m.server.raw() as usize) {
            Some(si) => self.rpc(ci, si, RpcKind::Fsync, 0, false),
            // Deleted while open: charged, but no server to gate on.
            None => self.charge_rpc(ci, RpcKind::Fsync, 0, false),
        }
        self.flush_file(ci, file, CleanReason::Fsync);
    }

    // ------------------------------------------------------------------
    // Naming operations.
    // ------------------------------------------------------------------

    fn do_create(&mut self, op: &AppOp, file: FileId, is_dir: bool) {
        let ci = op.client.raw() as usize;
        let server = self.files.server_of(file);
        // Creating over a live file is an overwrite-truncate: every
        // cached copy (dirty included) belongs to the old incarnation
        // and is dropped everywhere, exactly as in `do_truncate` —
        // otherwise a stale dirty block out-versions the reborn file
        // and resurfaces through a later write-back (found by
        // SpriteSan under the partition fuzzer).
        let si = server.raw() as usize;
        if self.files.get(file).is_some() {
            self.erase_file(si, file);
        }
        self.files.create(file, is_dir, self.now);
        self.rpc(ci, si, RpcKind::Create, 0, false);
        self.emit(server, op, RecordKind::Create { file, is_dir });
    }

    fn do_delete(&mut self, op: &AppOp, file: FileId) {
        let ci = op.client.raw() as usize;
        let Some(meta) = self.files.delete(file) else {
            debug_assert!(false, "delete of unknown file {file}");
            return;
        };
        let si = meta.server.raw() as usize;
        self.rpc(ci, si, RpcKind::Delete, 0, false);
        // Dirty data is cancelled and never written back (this is where
        // short lifetimes save write traffic).
        self.erase_file(si, file);
        self.servers[si].files.remove(&file);
        self.emit(
            meta.server,
            op,
            RecordKind::Delete {
                file,
                size: meta.size,
                is_dir: meta.is_dir,
                oldest_age: meta.oldest_age(self.now),
                newest_age: meta.newest_age(self.now),
            },
        );
    }

    fn do_truncate(&mut self, op: &AppOp, file: FileId) {
        let ci = op.client.raw() as usize;
        let Some(meta) = self.files.get_mut(file) else {
            debug_assert!(false, "truncate of unknown file {file}");
            return;
        };
        let old_size = meta.size;
        let oldest_age = meta.oldest_age(self.now);
        let newest_age = meta.newest_age(self.now);
        meta.size = 0;
        meta.version += 1;
        meta.oldest_write = self.now;
        meta.newest_write = self.now;
        let server_id = meta.server;
        let si = server_id.raw() as usize;
        self.rpc(ci, si, RpcKind::Truncate, 0, false);
        self.erase_file(si, file);
        self.emit(
            server_id,
            op,
            RecordKind::Truncate {
                file,
                old_size,
                oldest_age,
                newest_age,
            },
        );
    }

    fn do_readdir(&mut self, op: &AppOp, dir: FileId, bytes: u64) {
        let ci = op.client.raw() as usize;
        let (meta, _) = self.files.get_or_create(dir, true, self.now);
        meta.size = meta.size.max(bytes);
        let server_id = meta.server;
        let si = server_id.raw() as usize;
        let c = self.counters(ci);
        c.add(raw::DIR_READ, bytes);
        c.add(srv::DIR_READ, bytes);
        self.rpc(ci, si, RpcKind::ReadDir, bytes, false);
        self.emit(server_id, op, RecordKind::DirRead { file: dir, bytes });
    }

    // ------------------------------------------------------------------
    // Virtual memory.
    // ------------------------------------------------------------------

    /// One process start: shared-text accounting, VM page acquisition
    /// (stealing from the file cache if needed), code and
    /// initialized-data faults.
    fn do_proc_start(
        &mut self,
        op: &AppOp,
        exec: FileId,
        code_bytes: u64,
        data_bytes: u64,
        heap_bytes: u64,
    ) {
        let ci = op.client.raw() as usize;
        let (meta, created) = self.files.get_or_create(exec, false, self.now);
        if created {
            meta.size = code_bytes + data_bytes;
        }
        let si = meta.server.raw() as usize;
        let now = self.now;
        let code_pages = code_bytes.div_ceil(BLOCK_SIZE);
        // Data pages include the heap/stack the process will grow to;
        // only the initialized-data portion is faulted from the file.
        let data_pages = (data_bytes + heap_bytes).div_ceil(BLOCK_SIZE).max(1);

        // Shared program text: if another instance of this program is
        // already running here, its code pages are shared — no code
        // faults and no additional code memory.
        let client = &mut self.clients[ci];
        let sharing = {
            let entry = client.shared_text.entry(exec).or_insert((0, 0));
            entry.0 += 1;
            entry.0 > 1
        };
        let fault_code_pages = if sharing {
            0
        } else {
            // Retained code from a previous run of the same program?
            let reused = client.mem.code_hit(exec, now);
            client.shared_text.insert(exec, (1, code_pages));
            code_pages.saturating_sub(reused)
        };

        // Obtain physical pages for the process image.
        let steal = client.mem.vm_acquire(fault_code_pages + data_pages);
        for _ in 0..steal {
            if self.evict_lru(ci, Replacement::Vm) {
                self.clients[ci].mem.steal_from_fc();
            } else {
                // Nothing cached to evict: the machine is overcommitted.
                self.clients[ci].mem.force_grow(1);
            }
        }

        // Fault in code pages, then initialized data, through the file
        // cache. Sprite checks the cache on code faults (recompilation
        // can leave new code there): a hit is copied to VM and the block
        // stays cached, and a miss fetches the block from the server and
        // installs it, so a later run on this machine finds it again.
        if fault_code_pages > 0 {
            self.cached_read(op, si, exec, 0, fault_code_pages * BLOCK_SIZE, Fetch::Code);
        }
        if data_bytes > 0 {
            self.cached_read(op, si, exec, code_bytes, data_bytes, Fetch::InitData);
        }

        self.clients[ci].procs.insert(
            op.pid,
            ProcState {
                exec,
                code_pages,
                data_pages,
            },
        );
    }

    /// One process exit: release private pages, and shared code when the
    /// last instance leaves (retaining it for the paper's code-reuse
    /// effect).
    fn do_proc_exit(&mut self, op: &AppOp) {
        let now = self.now;
        let client = &mut self.clients[op.client.raw() as usize];
        let Some(proc) = client.procs.remove(&op.pid) else {
            return; // Unknown process: tolerate (migrant bookkeeping).
        };
        // Data and stack pages are always private.
        client.mem.vm_release(now, proc.data_pages);
        // Code is shared; the last instance out releases and retains it.
        let last = {
            let entry = client
                .shared_text
                .get_mut(&proc.exec)
                .expect("shared text entry exists for running process");
            entry.0 = entry.0.saturating_sub(1);
            if entry.0 == 0 {
                Some(entry.1)
            } else {
                None
            }
        };
        if let Some(code_pages) = last {
            client.shared_text.remove(&proc.exec);
            client.mem.vm_release(now, code_pages);
            client.mem.retain_code(proc.exec, code_pages, now);
        }
    }

    fn do_page(&mut self, op: &AppOp, file: FileId, offset: u64, bytes: u64, read: bool) {
        let ci = op.client.raw() as usize;
        let (meta, _) = self.files.get_or_create(file, false, self.now);
        let si = meta.server.raw() as usize;
        if read {
            let c = self.counters(ci);
            c.add(raw::PAGING_BACKING_READ, bytes);
            c.add(srv::PAGING_READ, bytes);
            let mut all_hit = true;
            for index in block_span(offset, bytes) {
                all_hit &= self.servers[si].serve_read(BlockKey { file, index }, self.now);
            }
            self.rpc(ci, si, RpcKind::PageIn, bytes, !all_hit);
        } else {
            let was_empty = meta.size == 0;
            if offset + bytes > meta.size {
                meta.size = offset + bytes;
            }
            meta.note_write(self.now, was_empty);
            let c = self.counters(ci);
            c.add(raw::PAGING_BACKING_WRITE, bytes);
            c.add(srv::PAGING_WRITE, bytes);
            self.rpc(ci, si, RpcKind::PageOut, bytes, false);
            for index in block_span(offset, bytes) {
                self.servers[si].accept_write(BlockKey { file, index }, BLOCK_SIZE, self.now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Client data path: block cache, write-back, and invalidation.
    // ------------------------------------------------------------------

    /// Reads `len` bytes at `offset` of `file` (on server `si`) through
    /// the issuing client's block cache; `fetch` names what is read. Each
    /// miss samples its RPC's latency, and the counters, being sums, are
    /// added once per call.
    fn cached_read(
        &mut self,
        op: &AppOp,
        si: usize,
        file: FileId,
        offset: u64,
        len: u64,
        fetch: Fetch,
    ) {
        let ci = op.client.raw() as usize;
        let now = self.now;
        let (raw_key, rpc) = match fetch {
            Fetch::File => (raw::FILE_READ, RpcKind::ReadBlock),
            Fetch::Code => (raw::PAGING_CODE_READ, RpcKind::PageIn),
            Fetch::InitData => (raw::PAGING_INITDATA_READ, RpcKind::ReadBlock),
        };
        let paging = fetch != Fetch::File;
        let blocks = block_span(offset, len);
        let n = blocks.end - blocks.start;
        {
            let c = self.counters(ci);
            c.add(raw_key, len);
            if paging {
                c.add(mc::PAGING_READ_OPS, n);
                if op.migrated {
                    c.add(mig::PAGING_READ_OPS, n);
                }
            } else {
                c.add(mc::READ_OPS, n);
                c.add(mc::READ_REQ_BYTES, len);
                if op.migrated {
                    c.add(mig::READ_OPS, n);
                    c.add(mig::READ_REQ_BYTES, len);
                }
            }
        }
        let mut misses = 0;
        for index in blocks {
            let key = BlockKey { file, index };
            if self.clients[ci].cache.touch(key, now) {
                if let Some(san) = self.san.as_deref_mut() {
                    san.on_read_hit(op.client, key, paging, now);
                }
                continue; // Hit.
            }
            // Miss: fetch the whole block from the server.
            self.gate_rpc(ci, si, rpc);
            misses += 1;
            let srv_hit = self.servers[si].serve_read(key, now);
            self.obs_rpc(rpc, BLOCK_SIZE, !srv_hit);
            self.insert_block(ci, key);
            if let Some(san) = self.san.as_deref_mut() {
                let inserted = self.clients[ci].cache.contains(key);
                san.on_fetch(op.client, key, inserted, paging, now);
            }
        }
        if misses == 0 {
            return;
        }
        let c = self.counters(ci);
        if paging {
            c.add(mc::PAGING_READ_MISS_OPS, misses);
            c.add(srv::PAGING_READ, misses * BLOCK_SIZE);
            if op.migrated {
                c.add(mig::PAGING_READ_MISS_OPS, misses);
            }
        } else {
            c.add(mc::READ_MISS_OPS, misses);
            c.add(mc::READ_MISS_BYTES, misses * BLOCK_SIZE);
            c.add(srv::FILE_READ, misses * BLOCK_SIZE);
            if op.migrated {
                c.add(mig::READ_MISS_OPS, misses);
                c.add(mig::READ_MISS_BYTES, misses * BLOCK_SIZE);
            }
        }
        count_rpcs(c, rpc, misses, misses * BLOCK_SIZE);
    }

    /// Writes `len` bytes at `offset` of `file` (on server `si`, `old_size`
    /// bytes long before this write) through the issuing client's cache.
    /// Under polling consistency data also goes to the server immediately
    /// and blocks stay clean (NFS-style write-through). Per-block counter
    /// deltas are summed and added once, after the loop.
    fn cached_write(
        &mut self,
        op: &AppOp,
        si: usize,
        file: FileId,
        offset: u64,
        len: u64,
        old_size: u64,
    ) {
        let ci = op.client.raw() as usize;
        let now = self.now;
        let write_through = matches!(self.cfg.consistency, ConsistencyPolicy::Polling { .. });
        let blocks = block_span(offset, len);
        let n = blocks.end - blocks.start;
        {
            let c = self.counters(ci);
            c.add(raw::FILE_WRITE, len);
            c.add(mc::WRITE_OPS, n);
            c.add(mc::WRITE_BYTES, len);
            if op.migrated {
                c.add(mig::WRITE_OPS, n);
            }
        }
        // Write fetches, and blocks (with their bytes) sent through.
        let (mut fetches, mut through, mut through_bytes) = (0, 0, 0);
        for index in blocks {
            let key = BlockKey { file, index };
            let block_start = index * BLOCK_SIZE;
            let block_end = block_start + BLOCK_SIZE;
            let wstart = offset.max(block_start);
            let wend = (offset + len).min(block_end);
            let app_bytes = wend - wstart;
            let full_block = app_bytes == BLOCK_SIZE;
            // Fast path: cached block under delayed write — probe, touch
            // and dirty in one cache lookup.
            if !write_through
                && self.clients[ci]
                    .cache
                    .mark_dirty_if_present(key, now, app_bytes)
            {
                if let Some(san) = self.san.as_deref_mut() {
                    san.on_cached_write(op.client, key, WriteKind::Dirty, now);
                }
                continue;
            }
            if !self.clients[ci].cache.contains(key) {
                // Partial write of a block with pre-existing content
                // requires a write fetch.
                if block_start < old_size && !full_block {
                    self.gate_rpc(ci, si, RpcKind::ReadBlock);
                    fetches += 1;
                    let srv_hit = self.servers[si].serve_read(key, now);
                    self.obs_rpc(RpcKind::ReadBlock, BLOCK_SIZE, !srv_hit);
                }
                self.insert_block(ci, key);
            } else {
                self.clients[ci].cache.touch(key, now);
            }
            let cached = self.clients[ci].cache.contains(key);
            if cached && !write_through {
                self.clients[ci].cache.mark_dirty(key, now, app_bytes);
                if let Some(san) = self.san.as_deref_mut() {
                    san.on_cached_write(op.client, key, WriteKind::Dirty, now);
                }
                continue;
            }
            // Straight through to the server: NFS-style polling keeps the
            // cached copy clean, and a block the VM system left no page
            // for (nothing could be evicted) has no cached copy at all.
            self.gate_rpc(ci, si, RpcKind::WriteBlock);
            self.servers[si].accept_write(key, app_bytes, now);
            self.obs_rpc(RpcKind::WriteBlock, app_bytes, false);
            through += 1;
            through_bytes += app_bytes;
            if let Some(san) = self.san.as_deref_mut() {
                if cached {
                    san.on_cached_write(op.client, key, WriteKind::Through, now);
                } else {
                    san.on_server_write(key);
                }
            }
        }
        let c = self.counters(ci);
        if fetches > 0 {
            c.add(mc::WRITE_FETCH_OPS, fetches);
            if op.migrated {
                c.add(mig::WRITE_FETCH_OPS, fetches);
            }
            c.add(srv::FILE_READ, fetches * BLOCK_SIZE);
            count_rpcs(c, RpcKind::ReadBlock, fetches, fetches * BLOCK_SIZE);
        }
        if through > 0 {
            c.add(mc::WRITEBACK_BYTES, through_bytes);
            c.add(srv::FILE_WRITE, through_bytes);
            count_rpcs(c, RpcKind::WriteBlock, through, through_bytes);
        }
    }

    /// Inserts a block into client `ci`'s cache, obtaining a physical
    /// page from the memory manager (free page, idle VM page, or LRU
    /// eviction).
    fn insert_block(&mut self, ci: usize, key: BlockKey) {
        use crate::vm::FcGrant;
        let now = self.now;
        match self.clients[ci].mem.fc_acquire(now) {
            FcGrant::FromFree | FcGrant::FromIdleVm => {
                self.clients[ci].cache.insert(key, now);
            }
            FcGrant::MustEvict => {
                if self.evict_lru(ci, Replacement::File) {
                    // Page reused in place; no memory-manager traffic.
                    self.clients[ci].cache.insert(key, now);
                }
                // If the cache was empty there is nothing to evict and
                // the block simply is not cached.
            }
        }
    }

    /// Evicts client `ci`'s LRU block for `cause`, writing it back first
    /// if dirty. Returns `false` if the cache was empty.
    fn evict_lru(&mut self, ci: usize, cause: Replacement) -> bool {
        let Some((key, entry)) = self.clients[ci].cache.pop_lru() else {
            return false;
        };
        let (blocks_key, age_key, reason) = match cause {
            Replacement::File => (
                replace::FILE_BLOCKS,
                replace::FILE_AGE_US,
                CleanReason::Evict,
            ),
            Replacement::Vm => (replace::VM_BLOCKS, replace::VM_AGE_US, CleanReason::Vm),
        };
        if let Some(before) = entry.dirty {
            self.send_block(ci, key, before, reason);
        }
        let age = self.now.since(entry.last_ref);
        let c = self.counters(ci);
        c.bump(blocks_key);
        c.add(age_key, age.as_micros());
        if let Some(san) = self.san.as_deref_mut() {
            san.on_drop_block(self.clients[ci].id, key);
        }
        true
    }

    /// Client `ci`'s half of a write-back daemon tick: flush every file
    /// with a block dirty since before `cutoff`. A file on a down server
    /// is queued instead (degraded mode) — its blocks stay dirty,
    /// extending the loss window.
    fn daemon_flush(&mut self, ci: usize, cutoff: SimTime) {
        for file in self.clients[ci].cache.files_with_dirty_before(cutoff) {
            let si = self.files.server_of(file).raw() as usize;
            // A cut edge queues the write-back just like a down server:
            // the blocks stay dirty until the reboot or heal (or until a
            // lapsed lease revokes them).
            if let Some((_, blocked)) = self.faults.unreachable(ci, si) {
                self.counters(ci).bump(blocked.queued);
                continue;
            }
            self.flush_file(ci, file, CleanReason::Delay);
        }
    }

    /// Sends one block client `ci` just cleaned (or evicted dirty) to
    /// its server, recording the cleaning reason and age: `before` is
    /// the block's dirty state just before cleaning.
    fn send_block(&mut self, ci: usize, key: BlockKey, before: DirtyState, reason: CleanReason) {
        let now = self.now;
        let id = self.clients[ci].id;
        // A file deleted (or cut short) with dirty data still cached:
        // the write is cancelled.
        let (si, bytes) = self.files.get(key.file).map_or((0, 0), |m| {
            let bytes = BLOCK_SIZE.min(m.size.saturating_sub(key.index * BLOCK_SIZE));
            (m.server.raw() as usize, bytes)
        });
        if bytes == 0 {
            self.counters(ci)
                .add(mc::CANCELLED_BYTES, before.dirty_app_bytes);
            if let Some(san) = self.san.as_deref_mut() {
                san.on_writeback(id, key, false);
            }
            return;
        }
        let c = self.counters(ci);
        c.add(mc::WRITEBACK_BYTES, bytes);
        c.add(srv::FILE_WRITE, bytes);
        c.bump(reason.blocks_key());
        c.add(reason.age_key(), now.since(before.last_write).as_micros());
        self.rpc(ci, si, RpcKind::WriteBlock, bytes, false);
        self.servers[si].accept_write(key, bytes, now);
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.writeback(before.dwell(now));
        }
        if let Some(san) = self.san.as_deref_mut() {
            san.on_writeback(id, key, true);
        }
    }

    /// Flushes every dirty block client `ci` holds for `file`.
    fn flush_file(&mut self, ci: usize, file: FileId, reason: CleanReason) {
        for (index, before) in self.clients[ci].cache.clean_file(file) {
            self.send_block(ci, BlockKey { file, index }, before, reason);
        }
    }

    /// Erases `file`'s data everywhere, for a delete, a truncate or a
    /// create over a live file: every client drops its cached blocks
    /// (dirty data is cancelled, never written back), SpriteSan forgets
    /// the file's block versions, and server `si` drops its cached
    /// blocks.
    fn erase_file(&mut self, si: usize, file: FileId) {
        for c in 0..self.clients.len() {
            self.invalidate_file(c, file, false);
        }
        if let Some(san) = self.san.as_deref_mut() {
            san.on_file_erased(file);
        }
        self.servers[si].drop_file_blocks(file);
    }

    /// Drops every cached block of `file` from client `ci`, releasing
    /// the pages. Dirty data is cancelled (never written). `stale`
    /// selects the staleness counter (consistency invalidation) over
    /// silent dropping.
    fn invalidate_file(&mut self, ci: usize, file: FileId, stale: bool) {
        let blocks = self.clients[ci].cache.remove_file(file);
        self.drop_blocks(ci, file, &blocks, stale);
    }

    /// Accounts for `blocks` of `file` that client `ci`'s cache just
    /// dropped: their dirty data is cancelled and their pages released.
    fn drop_blocks(&mut self, ci: usize, file: FileId, blocks: &[(u64, BlockEntry)], stale: bool) {
        if blocks.is_empty() {
            return;
        }
        let client = &mut self.clients[ci];
        for &(index, entry) in blocks {
            if let Some(dirty) = entry.dirty {
                client
                    .metrics
                    .counters
                    .add(mc::CANCELLED_BYTES, dirty.dirty_app_bytes);
            }
            if let Some(san) = self.san.as_deref_mut() {
                san.on_drop_block(client.id, BlockKey { file, index });
            }
        }
        let n = blocks.len() as u64;
        client.mem.fc_release(n);
        if stale {
            client.metrics.counters.add(consist::STALE_BLOCKS, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultPlan;
    use sdfs_trace::{Pid, UserId};

    fn op(t: u64, client: u16, kind: OpKind) -> AppOp {
        AppOp {
            time: SimTime::from_secs(t),
            client: ClientId(client),
            user: UserId(1),
            pid: Pid(1),
            migrated: false,
            kind,
        }
    }

    fn cluster() -> Cluster<VecSink> {
        let cfg = Config::small();
        let sink = VecSink::new(cfg.num_servers);
        Cluster::new(cfg, sink)
    }

    fn counters(cl: &Cluster<VecSink>, ci: usize) -> &sdfs_simkit::CounterSet {
        &cl.clients()[ci].metrics.counters
    }

    #[test]
    fn open_write_close_emits_records_and_delays_writeback() {
        let mut cl = cluster();
        cl.apply(&op(
            1,
            0,
            OpKind::Create {
                file: FileId(0),
                is_dir: false,
            },
        ));
        cl.apply(&op(
            2,
            0,
            OpKind::Open {
                fd: Handle(1),
                file: FileId(0),
                mode: OpenMode::Write,
            },
        ));
        cl.apply(&op(
            3,
            0,
            OpKind::Write {
                fd: Handle(1),
                len: 10_000,
            },
        ));
        cl.apply(&op(4, 0, OpKind::Close { fd: Handle(1) }));
        // Nothing written back yet: the 30-second delay has not elapsed.
        assert_eq!(counters(&cl, 0).get(mc::WRITEBACK_BYTES), 0);
        assert_eq!(cl.clients()[0].cache.dirty_len(), 3, "3 dirty 4K blocks");

        // Advance past the delay; the daemon should flush.
        cl.run(std::iter::empty(), SimTime::from_secs(60));
        let c = counters(&cl, 0);
        assert_eq!(c.get(clean::DELAY_BLOCKS), 3);
        // Write-back is whole blocks capped at file size: 2*4096 + 1808.
        assert_eq!(c.get(mc::WRITEBACK_BYTES), 10_000);
        assert_eq!(c.get(mc::WRITE_BYTES), 10_000);
        assert_eq!(cl.clients()[0].cache.dirty_len(), 0);

        // Trace records: create, open, close on server 0 or 1.
        let total: usize = cl.into_sink().len();
        assert_eq!(total, 3);
    }

    /// A block far out in a sparse file costs one cached block, not
    /// memory proportional to its index.
    #[test]
    fn far_offset_block_is_cached_and_cleaned() {
        let mut cl = cluster();
        let far = 1u64 << 50;
        let fd = Handle(1);
        cl.apply(&op(
            1,
            0,
            OpKind::Create {
                file: FileId(0),
                is_dir: false,
            },
        ));
        cl.apply(&op(
            2,
            0,
            OpKind::Open {
                fd,
                file: FileId(0),
                mode: OpenMode::ReadWrite,
            },
        ));
        cl.apply(&op(2, 0, OpKind::Seek { fd, to: far }));
        cl.apply(&op(3, 0, OpKind::Write { fd, len: 4096 }));
        cl.apply(&op(3, 0, OpKind::Seek { fd, to: far }));
        cl.apply(&op(4, 0, OpKind::Read { fd, len: 4096 }));
        cl.apply(&op(5, 0, OpKind::Close { fd }));
        cl.run(std::iter::empty(), SimTime::from_secs(60));
        let cache = &cl.clients()[0].cache;
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(BlockKey {
            file: FileId(0),
            index: far / 4096,
        }));
        assert_eq!(cache.dirty_len(), 0, "the daemon cleaned the block");
        let c = counters(&cl, 0);
        assert_eq!(
            c.get(mc::READ_MISS_OPS),
            0,
            "the read hit the written block"
        );
        assert_eq!(c.get(clean::DELAY_BLOCKS), 1);
        assert_eq!(c.get(mc::WRITEBACK_BYTES), 4096);
    }

    #[test]
    fn read_misses_then_hits() {
        let mut cl = cluster();
        cl.preload(&[(FileId(0), 8192, false)]);
        let open = |t| {
            op(
                t,
                0,
                OpKind::Open {
                    fd: Handle(t),
                    file: FileId(0),
                    mode: OpenMode::Read,
                },
            )
        };
        cl.apply(&open(1));
        cl.apply(&op(
            1,
            0,
            OpKind::Read {
                fd: Handle(1),
                len: 8192,
            },
        ));
        cl.apply(&op(1, 0, OpKind::Close { fd: Handle(1) }));
        let c = counters(&cl, 0);
        assert_eq!(c.get(mc::READ_OPS), 2);
        assert_eq!(c.get(mc::READ_MISS_OPS), 2);
        assert_eq!(c.get(srv::FILE_READ), 8192);

        cl.apply(&open(2));
        cl.apply(&op(
            2,
            0,
            OpKind::Read {
                fd: Handle(2),
                len: 8192,
            },
        ));
        cl.apply(&op(2, 0, OpKind::Close { fd: Handle(2) }));
        let c = counters(&cl, 0);
        assert_eq!(c.get(mc::READ_OPS), 4);
        assert_eq!(c.get(mc::READ_MISS_OPS), 2, "second read all hits");
    }

    #[test]
    fn delete_before_writeback_cancels_write_traffic() {
        let mut cl = cluster();
        cl.apply(&op(
            1,
            0,
            OpKind::Create {
                file: FileId(0),
                is_dir: false,
            },
        ));
        cl.apply(&op(
            1,
            0,
            OpKind::Open {
                fd: Handle(1),
                file: FileId(0),
                mode: OpenMode::Write,
            },
        ));
        cl.apply(&op(
            2,
            0,
            OpKind::Write {
                fd: Handle(1),
                len: 4096,
            },
        ));
        cl.apply(&op(3, 0, OpKind::Close { fd: Handle(1) }));
        cl.apply(&op(5, 0, OpKind::Delete { file: FileId(0) }));
        cl.run(std::iter::empty(), SimTime::from_secs(120));
        let c = counters(&cl, 0);
        assert_eq!(c.get(mc::WRITEBACK_BYTES), 0, "no server write");
        assert_eq!(c.get(mc::CANCELLED_BYTES), 4096);
        assert_eq!(c.get(srv::FILE_WRITE), 0);
    }

    #[test]
    fn fsync_flushes_immediately() {
        let mut cl = cluster();
        cl.apply(&op(
            1,
            0,
            OpKind::Create {
                file: FileId(0),
                is_dir: false,
            },
        ));
        cl.apply(&op(
            1,
            0,
            OpKind::Open {
                fd: Handle(1),
                file: FileId(0),
                mode: OpenMode::Write,
            },
        ));
        cl.apply(&op(
            2,
            0,
            OpKind::Write {
                fd: Handle(1),
                len: 100,
            },
        ));
        cl.apply(&op(2, 0, OpKind::Fsync { fd: Handle(1) }));
        let c = counters(&cl, 0);
        assert_eq!(c.get(clean::FSYNC_BLOCKS), 1);
        assert_eq!(c.get(mc::WRITEBACK_BYTES), 100);
    }

    #[test]
    fn concurrent_write_sharing_disables_caching() {
        let mut cl = cluster();
        cl.apply(&op(
            1,
            0,
            OpKind::Create {
                file: FileId(0),
                is_dir: false,
            },
        ));
        cl.apply(&op(
            1,
            0,
            OpKind::Open {
                fd: Handle(1),
                file: FileId(0),
                mode: OpenMode::Write,
            },
        ));
        cl.apply(&op(
            1,
            0,
            OpKind::Write {
                fd: Handle(1),
                len: 4096,
            },
        ));
        // A second client opens for read while client 0 writes: CWS.
        cl.apply(&op(
            2,
            1,
            OpKind::Open {
                fd: Handle(2),
                file: FileId(0),
                mode: OpenMode::Read,
            },
        ));
        assert_eq!(counters(&cl, 1).get(consist::CWS_OPENS), 1);
        // Client 0's dirty block was flushed by the disable.
        assert_eq!(counters(&cl, 0).get(clean::RECALL_BLOCKS), 1);
        // Reads and writes now pass through and emit shared records.
        cl.apply(&op(
            3,
            1,
            OpKind::Read {
                fd: Handle(2),
                len: 1000,
            },
        ));
        cl.apply(&op(
            3,
            0,
            OpKind::Write {
                fd: Handle(1),
                len: 50,
            },
        ));
        assert_eq!(counters(&cl, 1).get(raw::SHARED_READ), 1000);
        assert_eq!(counters(&cl, 0).get(raw::SHARED_WRITE), 50);
        // After both close, the file is cacheable again (Sprite policy).
        cl.apply(&op(4, 1, OpKind::Close { fd: Handle(2) }));
        cl.apply(&op(4, 0, OpKind::Close { fd: Handle(1) }));
        let sink = cl.into_sink();
        let shared: usize = sink
            .per_server
            .iter()
            .flatten()
            .filter(|r| {
                matches!(
                    r.kind,
                    RecordKind::SharedRead { .. } | RecordKind::SharedWrite { .. }
                )
            })
            .count();
        assert_eq!(shared, 2);
    }

    #[test]
    fn modified_sprite_reenables_caching_when_sharing_ends() {
        let mut cfg = Config::small();
        cfg.consistency = ConsistencyPolicy::SpriteModified;
        let mut cl = Cluster::new(cfg, VecSink::new(1));
        cl.preload(&[(FileId(0), 8192, false)]);
        // Writer on client 0, reader on client 1: CWS disables caching.
        cl.apply(&op(
            1,
            0,
            OpKind::Open {
                fd: Handle(1),
                file: FileId(0),
                mode: OpenMode::Write,
            },
        ));
        cl.apply(&op(
            2,
            1,
            OpKind::Open {
                fd: Handle(2),
                file: FileId(0),
                mode: OpenMode::Read,
            },
        ));
        cl.apply(&op(3, 1, OpKind::Read { fd: Handle(2), len: 1000 }));
        assert_eq!(counters(&cl, 1).get(raw::SHARED_READ), 1000);
        // The writer closes; under the modified policy the reader's next
        // read is cacheable again even though it still holds the file.
        cl.apply(&op(4, 0, OpKind::Close { fd: Handle(1) }));
        cl.apply(&op(5, 1, OpKind::Read { fd: Handle(2), len: 1000 }));
        assert_eq!(
            counters(&cl, 1).get(raw::SHARED_READ),
            1000,
            "no more pass-through"
        );
        assert!(counters(&cl, 1).get(mc::READ_OPS) > 0);
        cl.apply(&op(6, 1, OpKind::Close { fd: Handle(2) }));
    }

    #[test]
    fn plain_sprite_stays_uncacheable_until_all_close() {
        let mut cl = cluster();
        cl.preload(&[(FileId(0), 8192, false)]);
        cl.apply(&op(
            1,
            0,
            OpKind::Open {
                fd: Handle(1),
                file: FileId(0),
                mode: OpenMode::Write,
            },
        ));
        cl.apply(&op(
            2,
            1,
            OpKind::Open {
                fd: Handle(2),
                file: FileId(0),
                mode: OpenMode::Read,
            },
        ));
        cl.apply(&op(4, 0, OpKind::Close { fd: Handle(1) }));
        // Reader still holds the file: Sprite keeps it uncacheable.
        cl.apply(&op(5, 1, OpKind::Read { fd: Handle(2), len: 1000 }));
        assert_eq!(counters(&cl, 1).get(raw::SHARED_READ), 1000);
        cl.apply(&op(6, 1, OpKind::Close { fd: Handle(2) }));
        // All closed: a fresh open caches normally.
        cl.apply(&op(
            7,
            1,
            OpKind::Open {
                fd: Handle(3),
                file: FileId(0),
                mode: OpenMode::Read,
            },
        ));
        cl.apply(&op(7, 1, OpKind::Read { fd: Handle(3), len: 1000 }));
        assert_eq!(
            counters(&cl, 1).get(raw::SHARED_READ),
            1000,
            "caching restored after last close"
        );
    }

    #[test]
    fn recall_on_open_after_remote_write() {
        let mut cl = cluster();
        cl.apply(&op(
            1,
            0,
            OpKind::Create {
                file: FileId(0),
                is_dir: false,
            },
        ));
        cl.apply(&op(
            1,
            0,
            OpKind::Open {
                fd: Handle(1),
                file: FileId(0),
                mode: OpenMode::Write,
            },
        ));
        cl.apply(&op(
            2,
            0,
            OpKind::Write {
                fd: Handle(1),
                len: 4096,
            },
        ));
        cl.apply(&op(3, 0, OpKind::Close { fd: Handle(1) }));
        // Client 1 opens before the 30 s write-back: server recalls.
        cl.apply(&op(
            5,
            1,
            OpKind::Open {
                fd: Handle(2),
                file: FileId(0),
                mode: OpenMode::Read,
            },
        ));
        assert_eq!(counters(&cl, 1).get(consist::RECALL_OPENS), 1);
        assert_eq!(counters(&cl, 0).get(clean::RECALL_BLOCKS), 1);
        // Client 1 reads fresh data from the server.
        cl.apply(&op(
            6,
            1,
            OpKind::Read {
                fd: Handle(2),
                len: 4096,
            },
        ));
        assert_eq!(counters(&cl, 1).get(mc::READ_MISS_OPS), 1);
    }

    #[test]
    fn stale_cache_invalidated_on_reopen() {
        let mut cl = cluster();
        cl.preload(&[(FileId(0), 4096, false)]);
        // Client 1 reads and caches.
        cl.apply(&op(
            1,
            1,
            OpKind::Open {
                fd: Handle(1),
                file: FileId(0),
                mode: OpenMode::Read,
            },
        ));
        cl.apply(&op(
            1,
            1,
            OpKind::Read {
                fd: Handle(1),
                len: 4096,
            },
        ));
        cl.apply(&op(1, 1, OpKind::Close { fd: Handle(1) }));
        assert_eq!(cl.clients()[1].cache.len(), 1);
        // Client 0 rewrites the file (bumps version).
        cl.apply(&op(
            10,
            0,
            OpKind::Open {
                fd: Handle(2),
                file: FileId(0),
                mode: OpenMode::Write,
            },
        ));
        cl.apply(&op(
            10,
            0,
            OpKind::Write {
                fd: Handle(2),
                len: 4096,
            },
        ));
        cl.apply(&op(10, 0, OpKind::Close { fd: Handle(2) }));
        // Client 1 reopens: stale blocks invalidated.
        cl.apply(&op(
            50,
            1,
            OpKind::Open {
                fd: Handle(3),
                file: FileId(0),
                mode: OpenMode::Read,
            },
        ));
        assert_eq!(counters(&cl, 1).get(consist::STALE_BLOCKS), 1);
        assert_eq!(cl.clients()[1].cache.len(), 0);
    }

    #[test]
    fn proc_start_faults_code_and_data() {
        let mut cl = cluster();
        cl.preload(&[(FileId(0), 100 << 10, false)]);
        cl.apply(&op(
            1,
            0,
            OpKind::ProcStart {
                exec: FileId(0),
                code_bytes: 40 << 10,
                data_bytes: 20 << 10,
                heap_bytes: 0,
            },
        ));
        let c = counters(&cl, 0);
        assert_eq!(c.get(raw::PAGING_CODE_READ), 40 << 10);
        assert_eq!(c.get(raw::PAGING_INITDATA_READ), 20 << 10);
        assert!(c.get(mc::PAGING_READ_MISS_OPS) > 0);
        // Both code and init-data blocks linger in the file cache
        // (10 code pages + 5 init-data blocks).
        assert_eq!(cl.clients()[0].cache.len(), 15, "code + init-data blocks");
        // Exit and immediately restart: code is retained, data hits cache.
        cl.apply(&op(2, 0, OpKind::ProcExit));
        let miss_before = counters(&cl, 0).get(mc::PAGING_READ_MISS_OPS);
        cl.apply(&op(
            3,
            0,
            OpKind::ProcStart {
                exec: FileId(0),
                code_bytes: 40 << 10,
                data_bytes: 20 << 10,
                heap_bytes: 0,
            },
        ));
        let miss_after = counters(&cl, 0).get(mc::PAGING_READ_MISS_OPS);
        assert_eq!(miss_before, miss_after, "re-run has no paging misses");
    }

    /// Code-page misses travel as `page_in` and initialized-data misses
    /// as `read_block`, both counted in the paging family, with one
    /// latency sample per message; a warm restart sends neither.
    #[test]
    fn proc_start_sends_code_as_page_in_and_data_as_read_block() {
        let mut cfg = Config::small();
        cfg.observe = true;
        let mut cl = Cluster::new(cfg.clone(), VecSink::new(cfg.num_servers));
        cl.preload(&[(FileId(0), 100 << 10, false)]);
        let start = |t| {
            op(
                t,
                0,
                OpKind::ProcStart {
                    exec: FileId(0),
                    code_bytes: 40 << 10,
                    data_bytes: 20 << 10,
                    heap_bytes: 0,
                },
            )
        };
        cl.apply(&start(1));
        cl.apply(&op(2, 0, OpKind::ProcExit));
        cl.apply(&start(3));
        let c = counters(&cl, 0);
        assert_eq!(c.get(RpcKind::PageIn.msgs_key()), 10, "10 code pages");
        assert_eq!(c.get(RpcKind::PageIn.bytes_key()), 40960);
        assert_eq!(c.get(RpcKind::ReadBlock.msgs_key()), 5, "5 data blocks");
        assert_eq!(c.get(RpcKind::ReadBlock.bytes_key()), 5 * 4096);
        assert_eq!(c.get(mc::PAGING_READ_OPS), 15 + 5, "restart: data only");
        assert_eq!(c.get(mc::PAGING_READ_MISS_OPS), 15);
        assert_eq!(c.get(srv::PAGING_READ), 15 * 4096);
        assert_eq!(c.get(mc::READ_OPS), 0, "paging is not file traffic");
        let obs = cl.take_obs_report().expect("observed run");
        assert_eq!(obs.rpc_hist(RpcKind::PageIn).count(), 10);
        assert_eq!(obs.rpc_hist(RpcKind::ReadBlock).count(), 5);
    }

    #[test]
    fn backing_file_traffic_bypasses_client_cache() {
        let mut cl = cluster();
        cl.apply(&op(
            1,
            0,
            OpKind::PageOut {
                file: FileId(9),
                offset: 0,
                bytes: 8192,
            },
        ));
        cl.apply(&op(
            2,
            0,
            OpKind::PageIn {
                file: FileId(9),
                offset: 0,
                bytes: 8192,
            },
        ));
        let c = counters(&cl, 0);
        assert_eq!(c.get(raw::PAGING_BACKING_WRITE), 8192);
        assert_eq!(c.get(raw::PAGING_BACKING_READ), 8192);
        assert_eq!(cl.clients()[0].cache.len(), 0);
    }

    #[test]
    fn write_fetch_on_partial_overwrite() {
        let mut cl = cluster();
        cl.preload(&[(FileId(0), 8192, false)]);
        cl.apply(&op(
            1,
            0,
            OpKind::Open {
                fd: Handle(1),
                file: FileId(0),
                mode: OpenMode::Write,
            },
        ));
        cl.apply(&op(
            1,
            0,
            OpKind::Seek {
                fd: Handle(1),
                to: 100,
            },
        ));
        cl.apply(&op(
            1,
            0,
            OpKind::Write {
                fd: Handle(1),
                len: 50,
            },
        ));
        let c = counters(&cl, 0);
        assert_eq!(c.get(mc::WRITE_FETCH_OPS), 1);
        assert_eq!(c.get(srv::FILE_READ), 4096);
        cl.apply(&op(2, 0, OpKind::Close { fd: Handle(1) }));
    }

    #[test]
    fn truncate_resets_content_and_emits_record() {
        let mut cl = cluster();
        cl.apply(&op(
            1,
            0,
            OpKind::Create {
                file: FileId(0),
                is_dir: false,
            },
        ));
        cl.apply(&op(
            1,
            0,
            OpKind::Open {
                fd: Handle(1),
                file: FileId(0),
                mode: OpenMode::Write,
            },
        ));
        cl.apply(&op(
            2,
            0,
            OpKind::Write {
                fd: Handle(1),
                len: 5000,
            },
        ));
        cl.apply(&op(3, 0, OpKind::Close { fd: Handle(1) }));
        cl.apply(&op(10, 0, OpKind::Truncate { file: FileId(0) }));
        assert_eq!(cl.files().get(FileId(0)).expect("exists").size, 0);
        let sink = cl.into_sink();
        let trunc = sink
            .per_server
            .iter()
            .flatten()
            .find(|r| matches!(r.kind, RecordKind::Truncate { .. }))
            .expect("truncate record");
        if let RecordKind::Truncate { old_size, .. } = trunc.kind {
            assert_eq!(old_size, 5000);
        }
    }

    #[test]
    fn readdir_counts_uncacheable_traffic() {
        let mut cl = cluster();
        cl.apply(&op(
            1,
            0,
            OpKind::Create {
                file: FileId(5),
                is_dir: true,
            },
        ));
        cl.apply(&op(
            2,
            0,
            OpKind::ReadDir {
                dir: FileId(5),
                bytes: 2048,
            },
        ));
        let c = counters(&cl, 0);
        assert_eq!(c.get(raw::DIR_READ), 2048);
        assert_eq!(c.get(srv::DIR_READ), 2048);
    }

    #[test]
    fn sampling_records_cache_sizes() {
        let mut cl = cluster();
        cl.preload(&[(FileId(0), 1 << 20, false)]);
        cl.apply(&op(
            1,
            0,
            OpKind::Open {
                fd: Handle(1),
                file: FileId(0),
                mode: OpenMode::Read,
            },
        ));
        cl.apply(&op(
            1,
            0,
            OpKind::Read {
                fd: Handle(1),
                len: 1 << 20,
            },
        ));
        cl.apply(&op(2, 0, OpKind::Close { fd: Handle(1) }));
        cl.run(std::iter::empty(), SimTime::from_secs(300));
        let samples = &cl.clients()[0].metrics.samples;
        assert!(samples.len() >= 4, "samples every 60 s");
        let last = samples.last().expect("non-empty");
        assert_eq!(last.bytes, 1 << 20, "256 cached blocks");
    }

    #[test]
    fn vm_pressure_steals_cache_blocks() {
        let mut cl = cluster();
        // Fill the cache with file data.
        cl.preload(&[(FileId(0), 4 << 20, false)]);
        cl.apply(&op(
            1,
            0,
            OpKind::Open {
                fd: Handle(1),
                file: FileId(0),
                mode: OpenMode::Read,
            },
        ));
        cl.apply(&op(
            1,
            0,
            OpKind::Read {
                fd: Handle(1),
                len: 4 << 20,
            },
        ));
        cl.apply(&op(2, 0, OpKind::Close { fd: Handle(1) }));
        let cache_before = cl.clients()[0].cache.len();
        assert!(cache_before > 0);
        // Start a big process: VM must steal from the cache.
        cl.apply(&op(
            3,
            0,
            OpKind::ProcStart {
                exec: FileId(1),
                code_bytes: 1 << 20,
                data_bytes: 512 << 10,
                heap_bytes: 0,
            },
        ));
        let c = counters(&cl, 0);
        assert!(c.get(replace::VM_BLOCKS) > 0, "blocks handed to VM");
        assert!(cl.clients()[0].cache.len() < cache_before);
    }

    #[test]
    fn polling_mode_write_through_and_stale_reads() {
        let mut cfg = Config::small();
        cfg.consistency = ConsistencyPolicy::Polling { interval_secs: 60 };
        let mut cl = Cluster::new(cfg, VecSink::new(1));
        cl.preload(&[(FileId(0), 4096, false)]);
        // Client 1 reads and caches at t=1.
        cl.apply(&op(
            1,
            1,
            OpKind::Open {
                fd: Handle(1),
                file: FileId(0),
                mode: OpenMode::Read,
            },
        ));
        cl.apply(&op(
            1,
            1,
            OpKind::Read {
                fd: Handle(1),
                len: 4096,
            },
        ));
        cl.apply(&op(1, 1, OpKind::Close { fd: Handle(1) }));
        // Client 0 writes at t=5 (write-through).
        cl.apply(&op(
            5,
            0,
            OpKind::Open {
                fd: Handle(2),
                file: FileId(0),
                mode: OpenMode::Write,
            },
        ));
        cl.apply(&op(
            5,
            0,
            OpKind::Write {
                fd: Handle(2),
                len: 4096,
            },
        ));
        assert!(
            counters(&cl, 0).get(srv::FILE_WRITE) >= 4096,
            "write-through"
        );
        cl.apply(&op(5, 0, OpKind::Close { fd: Handle(2) }));
        // Client 1 rereads at t=10, inside its 60 s trust window: stale.
        cl.apply(&op(
            10,
            1,
            OpKind::Open {
                fd: Handle(3),
                file: FileId(0),
                mode: OpenMode::Read,
            },
        ));
        cl.apply(&op(
            10,
            1,
            OpKind::Read {
                fd: Handle(3),
                len: 4096,
            },
        ));
        cl.apply(&op(10, 1, OpKind::Close { fd: Handle(3) }));
        assert_eq!(counters(&cl, 1).get(consist::STALE_READ_OPS), 1);
        // Rereading after the window revalidates and is fresh.
        cl.apply(&op(
            120,
            1,
            OpKind::Open {
                fd: Handle(4),
                file: FileId(0),
                mode: OpenMode::Read,
            },
        ));
        cl.apply(&op(
            120,
            1,
            OpKind::Read {
                fd: Handle(4),
                len: 4096,
            },
        ));
        assert_eq!(counters(&cl, 1).get(consist::STALE_READ_OPS), 1, "no new");
        assert_eq!(counters(&cl, 1).get(consist::STALE_BLOCKS), 1);
    }

    #[test]
    fn token_mode_recalls_on_conflict() {
        let mut cfg = Config::small();
        cfg.consistency = ConsistencyPolicy::Token;
        let mut cl = Cluster::new(cfg, VecSink::new(1));
        cl.preload(&[(FileId(0), 8192, false)]);
        // Client 0 writes (write token) and closes; token is retained.
        cl.apply(&op(
            1,
            0,
            OpKind::Open {
                fd: Handle(1),
                file: FileId(0),
                mode: OpenMode::Write,
            },
        ));
        cl.apply(&op(
            1,
            0,
            OpKind::Write {
                fd: Handle(1),
                len: 8192,
            },
        ));
        cl.apply(&op(2, 0, OpKind::Close { fd: Handle(1) }));
        // Client 1 opens for read: the write token is recalled, dirty data
        // flushed, and client 0 downgrades to reader.
        cl.apply(&op(
            3,
            1,
            OpKind::Open {
                fd: Handle(2),
                file: FileId(0),
                mode: OpenMode::Read,
            },
        ));
        assert_eq!(counters(&cl, 0).get("rpc.token_recall.msgs"), 1);
        assert_eq!(counters(&cl, 0).get(clean::RECALL_BLOCKS), 2);
        // Client 0 keeps its blocks after a downgrade.
        assert_eq!(cl.clients()[0].cache.len(), 2);
        cl.apply(&op(
            3,
            1,
            OpKind::Read {
                fd: Handle(2),
                len: 8192,
            },
        ));
        cl.apply(&op(4, 1, OpKind::Close { fd: Handle(2) }));
        // Client 0 reopens for write: readers are invalidated.
        cl.apply(&op(
            5,
            0,
            OpKind::Open {
                fd: Handle(3),
                file: FileId(0),
                mode: OpenMode::Write,
            },
        ));
        assert_eq!(counters(&cl, 1).get("rpc.token_recall.msgs"), 1);
        assert_eq!(cl.clients()[1].cache.len(), 0, "reader invalidated");
    }

    #[test]
    fn crash_loses_dirty_data_and_reboots() {
        let mut cl = cluster();
        cl.apply(&op(
            1,
            0,
            OpKind::Create {
                file: FileId(0),
                is_dir: false,
            },
        ));
        cl.apply(&op(
            1,
            0,
            OpKind::Open {
                fd: Handle(1),
                file: FileId(0),
                mode: OpenMode::Write,
            },
        ));
        cl.apply(&op(
            2,
            0,
            OpKind::Write {
                fd: Handle(1),
                len: 10_000,
            },
        ));
        assert_eq!(cl.dirty_exposure(ClientId(0)), 10_000);
        let lost = cl.crash_client(ClientId(0));
        assert_eq!(lost, 10_000, "all unflushed bytes are lost");
        assert_eq!(cl.dirty_exposure(ClientId(0)), 0);
        assert_eq!(cl.clients()[0].cache.len(), 0, "cold cache after reboot");
        assert!(cl.clients()[0].fds.is_empty(), "fd table gone");
        assert_eq!(
            counters(&cl, 0).get("crash.lost.bytes"),
            10_000,
            "loss is recorded"
        );
        // The server no longer thinks the crashed client holds anything.
        cl.apply(&op(
            10,
            1,
            OpKind::Open {
                fd: Handle(2),
                file: FileId(0),
                mode: OpenMode::Read,
            },
        ));
        assert_eq!(
            counters(&cl, 1).get(consist::RECALL_OPENS),
            0,
            "no recall from a crashed client"
        );
    }

    #[test]
    fn crash_after_writeback_loses_nothing() {
        let mut cl = cluster();
        cl.apply(&op(
            1,
            0,
            OpKind::Create {
                file: FileId(0),
                is_dir: false,
            },
        ));
        cl.apply(&op(
            1,
            0,
            OpKind::Open {
                fd: Handle(1),
                file: FileId(0),
                mode: OpenMode::Write,
            },
        ));
        cl.apply(&op(
            2,
            0,
            OpKind::Write {
                fd: Handle(1),
                len: 10_000,
            },
        ));
        cl.apply(&op(2, 0, OpKind::Fsync { fd: Handle(1) }));
        assert_eq!(cl.crash_client(ClientId(0)), 0, "flushed data is safe");
    }

    #[test]
    fn delete_while_open_is_tolerated() {
        let mut cl = cluster();
        cl.apply(&op(
            1,
            0,
            OpKind::Create {
                file: FileId(0),
                is_dir: false,
            },
        ));
        cl.apply(&op(
            1,
            0,
            OpKind::Open {
                fd: Handle(1),
                file: FileId(0),
                mode: OpenMode::ReadWrite,
            },
        ));
        cl.apply(&op(
            2,
            0,
            OpKind::Write {
                fd: Handle(1),
                len: 5000,
            },
        ));
        cl.apply(&op(3, 1, OpKind::Delete { file: FileId(0) }));
        // Further I/O on the orphaned handle is a no-op, and the close
        // does not emit a record for the vanished file.
        cl.apply(&op(
            4,
            0,
            OpKind::Read {
                fd: Handle(1),
                len: 100,
            },
        ));
        cl.apply(&op(
            5,
            0,
            OpKind::Write {
                fd: Handle(1),
                len: 100,
            },
        ));
        cl.apply(&op(6, 0, OpKind::Close { fd: Handle(1) }));
        assert!(cl.files().get(FileId(0)).is_none());
        assert_eq!(cl.clients()[0].cache.dirty_len(), 0, "dirty data dropped");
    }

    #[test]
    fn truncate_invalidates_remote_caches() {
        let mut cl = cluster();
        cl.preload(&[(FileId(0), 8192, false)]);
        // Client 1 caches the file.
        cl.apply(&op(
            1,
            1,
            OpKind::Open {
                fd: Handle(1),
                file: FileId(0),
                mode: OpenMode::Read,
            },
        ));
        cl.apply(&op(
            1,
            1,
            OpKind::Read {
                fd: Handle(1),
                len: 8192,
            },
        ));
        cl.apply(&op(2, 1, OpKind::Close { fd: Handle(1) }));
        assert_eq!(cl.clients()[1].cache.len(), 2);
        // Client 0 truncates: client 1's blocks must go.
        cl.apply(&op(5, 0, OpKind::Truncate { file: FileId(0) }));
        assert_eq!(cl.clients()[1].cache.len(), 0);
    }

    #[test]
    fn read_past_eof_transfers_nothing() {
        let mut cl = cluster();
        cl.preload(&[(FileId(0), 100, false)]);
        cl.apply(&op(
            1,
            0,
            OpKind::Open {
                fd: Handle(1),
                file: FileId(0),
                mode: OpenMode::Read,
            },
        ));
        cl.apply(&op(
            1,
            0,
            OpKind::Seek {
                fd: Handle(1),
                to: 500,
            },
        ));
        cl.apply(&op(
            1,
            0,
            OpKind::Read {
                fd: Handle(1),
                len: 100,
            },
        ));
        cl.apply(&op(2, 0, OpKind::Close { fd: Handle(1) }));
        let sink = cl.into_sink();
        let close = sink
            .per_server
            .iter()
            .flatten()
            .find_map(|r| match &r.kind {
                RecordKind::Close { total_read, .. } => Some(*total_read),
                _ => None,
            })
            .expect("close record");
        assert_eq!(close, 0, "no bytes exist past EOF");
    }

    #[test]
    fn shared_text_accounts_concurrent_instances() {
        let mut cl = cluster();
        cl.preload(&[(FileId(0), 200 << 10, false)]);
        let start = |t, pid| AppOp {
            time: SimTime::from_secs(t),
            client: ClientId(0),
            user: UserId(1),
            pid: Pid(pid),
            migrated: false,
            kind: OpKind::ProcStart {
                exec: FileId(0),
                code_bytes: 100 << 10,
                data_bytes: 20 << 10,
                heap_bytes: 0,
            },
        };
        let exit = |t, pid| AppOp {
            time: SimTime::from_secs(t),
            client: ClientId(0),
            user: UserId(1),
            pid: Pid(pid),
            migrated: false,
            kind: OpKind::ProcExit,
        };
        cl.apply(&start(1, 1));
        let misses_one = counters(&cl, 0).get(mc::PAGING_READ_MISS_OPS);
        assert!(misses_one > 0);
        // A second concurrent instance shares the text: no new code
        // faults (only its private init data, already cached).
        cl.apply(&start(2, 2));
        let misses_two = counters(&cl, 0).get(mc::PAGING_READ_MISS_OPS);
        assert_eq!(misses_one, misses_two, "shared text avoids refaults");
        cl.apply(&exit(3, 1));
        cl.apply(&exit(4, 2));
        // Both gone: the text is retained for the next invocation.
        cl.apply(&start(5, 3));
        assert_eq!(
            counters(&cl, 0).get(mc::PAGING_READ_MISS_OPS),
            misses_two,
            "retention covers the rerun"
        );
    }

    #[test]
    fn files_spread_across_servers() {
        let mut cfg = Config::small();
        cfg.num_servers = 4;
        let mut cl = Cluster::new(cfg, VecSink::new(4));
        for i in 0..64 {
            cl.apply(&op(
                1 + i,
                0,
                OpKind::Create {
                    file: FileId(i),
                    is_dir: false,
                },
            ));
        }
        let sink = cl.into_sink();
        let with_records = sink.per_server.iter().filter(|v| !v.is_empty()).count();
        assert!(with_records >= 2, "creates land on multiple servers");
        // The first server dominates (the measured cluster's Sun 4).
        let counts: Vec<usize> = sink.per_server.iter().map(Vec::len).collect();
        assert!(
            counts[0] > counts[1],
            "server 0 holds most files: {counts:?}"
        );
    }

    #[test]
    fn sampler_marks_idle_clients_inactive() {
        let mut cl = cluster();
        cl.apply(&op(
            1,
            0,
            OpKind::Create {
                file: FileId(0),
                is_dir: false,
            },
        ));
        // Only client 0 is active; run past a few sample points.
        cl.run(std::iter::empty(), SimTime::from_secs(600));
        let samples = &cl.clients()[1].metrics.samples;
        assert!(!samples.is_empty());
        assert!(
            samples.iter().all(|s| !s.active),
            "client 1 never did anything"
        );
    }

    /// Cross-client sequential write sharing: client 1 caches a block,
    /// client 0 rewrites the file, client 1 rereads. Exercises the
    /// version-stamp invalidation and dirty-data recall paths.
    fn sharing_sequence(cl: &mut Cluster<VecSink>) {
        cache_then_rewrite(cl);
        reread(cl);
    }

    /// The first half of [`sharing_sequence`]: client 1 caches the
    /// block, then client 0 rewrites the file.
    fn cache_then_rewrite(cl: &mut Cluster<VecSink>) {
        cl.preload(&[(FileId(0), 4096, false)]);
        // Client 1 reads and caches the block.
        cl.apply(&op(
            1,
            1,
            OpKind::Open {
                fd: Handle(1),
                file: FileId(0),
                mode: OpenMode::Read,
            },
        ));
        cl.apply(&op(
            1,
            1,
            OpKind::Read {
                fd: Handle(1),
                len: 4096,
            },
        ));
        cl.apply(&op(2, 1, OpKind::Close { fd: Handle(1) }));
        // Client 0 rewrites the whole file (bumps its version).
        cl.apply(&op(
            3,
            0,
            OpKind::Open {
                fd: Handle(2),
                file: FileId(0),
                mode: OpenMode::Write,
            },
        ));
        cl.apply(&op(
            3,
            0,
            OpKind::Write {
                fd: Handle(2),
                len: 4096,
            },
        ));
        cl.apply(&op(4, 0, OpKind::Close { fd: Handle(2) }));
    }

    /// The rest of [`sharing_sequence`]: client 1 reopens and rereads the
    /// block it still has cached.
    fn reread(cl: &mut Cluster<VecSink>) {
        cl.apply(&op(
            5,
            1,
            OpKind::Open {
                fd: Handle(3),
                file: FileId(0),
                mode: OpenMode::Read,
            },
        ));
        cl.apply(&op(
            5,
            1,
            OpKind::Read {
                fd: Handle(3),
                len: 4096,
            },
        ));
        cl.apply(&op(6, 1, OpKind::Close { fd: Handle(3) }));
        // Let delayed writes settle so the write-back window check runs.
        cl.run(std::iter::empty(), SimTime::from_secs(120));
    }

    #[test]
    fn sanitizer_clean_on_sequential_write_sharing() {
        let mut cfg = Config::small();
        cfg.sanitize = true;
        let sink = VecSink::new(cfg.num_servers);
        let mut cl = Cluster::new(cfg, sink);
        sharing_sequence(&mut cl);
        let san = cl.take_sanitizer_stats().expect("sanitizer enabled");
        assert!(san.ops_checked > 0, "oracle never ran");
        assert!(san.is_clean(), "unexpected violations: {}", san.render());
    }

    #[test]
    fn sanitizer_reports_injected_stale_read() {
        // Fault injection: before client 1 reopens, mark its cached
        // copy as the rewritten version, so the open skips the
        // stale-cache invalidation Sprite performs. The reread then hits
        // the out-of-date cached block, and SpriteSan must report
        // exactly that one stale read.
        let mut cfg = Config::small();
        cfg.sanitize = true;
        let sink = VecSink::new(cfg.num_servers);
        let mut cl = Cluster::new(cfg, sink);
        cache_then_rewrite(&mut cl);
        let file = FileId(0);
        let current = cl.files.get(file).expect("preloaded").version;
        cl.clients[1].seen_version.insert(file, current);
        reread(&mut cl);
        let san = cl.take_sanitizer_stats().expect("sanitizer enabled");
        assert_eq!(san.stale_reads, 1, "verdict: {}", san.render());
        assert_eq!(san.violations(), 1, "verdict: {}", san.render());
        let first = san.first_violation.as_deref().expect("detail recorded");
        assert!(first.contains("stale"), "detail: {first}");
    }

    #[test]
    fn sanitizer_disabled_collects_nothing() {
        let mut cl = cluster();
        sharing_sequence(&mut cl);
        assert!(cl.sanitizer_stats().is_none());
        assert!(cl.take_sanitizer_stats().is_none());
    }

    /// Writes `len` bytes to a fresh file and fsyncs, so the data sits
    /// dirty in the *server* cache (clean on the client).
    fn write_and_fsync(cl: &mut Cluster<VecSink>, len: u64) {
        cl.apply(&op(
            1,
            0,
            OpKind::Create {
                file: FileId(0),
                is_dir: false,
            },
        ));
        cl.apply(&op(
            1,
            0,
            OpKind::Open {
                fd: Handle(1),
                file: FileId(0),
                mode: OpenMode::Write,
            },
        ));
        cl.apply(&op(2, 0, OpKind::Write { fd: Handle(1), len }));
        cl.apply(&op(2, 0, OpKind::Fsync { fd: Handle(1) }));
    }

    #[test]
    fn server_crash_destroys_unflushed_data_and_recovery_storms() {
        let mut cl = cluster();
        write_and_fsync(&mut cl, 10_000);
        cl.run(std::iter::empty(), SimTime::from_secs(5));
        // The fsynced bytes reached the server cache but not its disk.
        let lost = cl.crash_server(ServerId(0));
        assert_eq!(lost, 10_000, "dirty server-cache bytes are destroyed");
        assert!(cl.server_is_down(ServerId(0)));
        let sc = &cl.servers()[0].counters;
        assert_eq!(sc.get(fault::SRV_CRASHES), 1);
        assert_eq!(sc.get(fault::SRV_LOST_BYTES), 10_000);
        // A second crash without recovery is a no-op.
        assert_eq!(cl.crash_server(ServerId(0)), 0);

        cl.run(std::iter::empty(), SimTime::from_secs(40));
        let storm = cl.recover_server(ServerId(0));
        // Client 0 still holds one open fd: one re-register + one reopen.
        assert_eq!(storm, 2, "reregister + reopen");
        assert!(!cl.server_is_down(ServerId(0)));
        let sc = &cl.servers()[0].counters;
        assert_eq!(sc.get(fault::SRV_RECOVERIES), 1);
        assert_eq!(sc.get(fault::STORM_RPCS), 2);
        assert_eq!(sc.get(fault::STORM_REOPENS), 1);
        assert_eq!(sc.get(fault::STORM_REREGISTERS), 1);
        assert_eq!(
            sc.get(fault::SRV_UNAVAIL_US),
            SimDuration::from_secs(35).as_micros()
        );
        assert_eq!(counters(&cl, 0).get("rpc.reopen.msgs"), 1);
        assert_eq!(counters(&cl, 0).get("rpc.reregister.msgs"), 1);
        // Recovering an up server is a no-op.
        assert_eq!(cl.recover_server(ServerId(0)), 0);
    }

    #[test]
    fn mid_write_server_crash_and_recovery_is_sanitizer_clean() {
        let mut cfg = Config::small();
        cfg.sanitize = true;
        let sink = VecSink::new(cfg.num_servers);
        let mut cl = Cluster::new(cfg, sink);
        // Server-cache dirty data (fsynced) plus client-cache dirty data
        // (the second write), then a crash in the middle of it all.
        write_and_fsync(&mut cl, 8192);
        cl.apply(&op(
            4,
            0,
            OpKind::Write {
                fd: Handle(1),
                len: 4096,
            },
        ));
        cl.run(std::iter::empty(), SimTime::from_secs(5));
        let lost = cl.crash_server(ServerId(0));
        assert!(lost > 0, "the fsynced bytes had not reached disk");
        cl.run(std::iter::empty(), SimTime::from_secs(10));
        cl.recover_server(ServerId(0));
        // Another client reads the file after recovery: the dirty-holder
        // recall must still fire off the rebuilt server state.
        cl.apply(&op(
            12,
            1,
            OpKind::Open {
                fd: Handle(2),
                file: FileId(0),
                mode: OpenMode::Read,
            },
        ));
        cl.apply(&op(
            12,
            1,
            OpKind::Read {
                fd: Handle(2),
                len: 12_288,
            },
        ));
        cl.apply(&op(13, 1, OpKind::Close { fd: Handle(2) }));
        cl.run(std::iter::empty(), SimTime::from_secs(120));
        let san = cl.take_sanitizer_stats().expect("sanitizer enabled");
        assert!(san.ops_checked > 0, "oracle never ran");
        assert!(san.is_clean(), "unexpected violations: {}", san.render());
    }

    #[test]
    fn outage_queues_writebacks_until_recovery() {
        let mut cl = cluster();
        cl.apply(&op(
            1,
            0,
            OpKind::Create {
                file: FileId(0),
                is_dir: false,
            },
        ));
        cl.apply(&op(
            1,
            0,
            OpKind::Open {
                fd: Handle(1),
                file: FileId(0),
                mode: OpenMode::Write,
            },
        ));
        cl.apply(&op(
            2,
            0,
            OpKind::Write {
                fd: Handle(1),
                len: 4096,
            },
        ));
        cl.apply(&op(3, 0, OpKind::Close { fd: Handle(1) }));
        cl.run(std::iter::empty(), SimTime::from_secs(3));
        cl.crash_server(ServerId(0));
        // Daemon ticks past the 30s window cannot reach the dead server:
        // the write-back is queued, the block stays dirty (and exposed).
        cl.run(std::iter::empty(), SimTime::from_secs(45));
        assert!(counters(&cl, 0).get(fault::QUEUED_WRITEBACKS) > 0);
        assert_eq!(counters(&cl, 0).get(mc::WRITEBACK_BYTES), 0);
        assert_eq!(cl.dirty_exposure(ClientId(0)), 4096);
        cl.recover_server(ServerId(0));
        cl.run(std::iter::empty(), SimTime::from_secs(80));
        assert_eq!(counters(&cl, 0).get(mc::WRITEBACK_BYTES), 4096);
        assert_eq!(cl.dirty_exposure(ClientId(0)), 0);
    }

    /// Runs a small faulted day (scheduled outage + message drops) and
    /// returns every counter of every machine, canonically ordered.
    fn faulted_run() -> Vec<(&'static str, u64)> {
        let mut cfg = Config::small();
        cfg.faults = Some(FaultPlan {
            outages: vec![crate::config::ServerOutage {
                server: 0,
                at: SimTime::from_secs(30),
                down_for: SimDuration::from_secs(20),
            }],
            drop_prob: 0.05,
            ..FaultPlan::default()
        });
        let sink = VecSink::new(cfg.num_servers);
        let mut cl = Cluster::new(cfg, sink);
        sharing_sequence(&mut cl);
        let mut all: Vec<(&'static str, u64)> = Vec::new();
        for c in cl.clients() {
            all.extend(c.metrics.counters.iter());
        }
        for s in cl.servers() {
            all.extend(s.counters.iter());
        }
        all.sort_unstable();
        all
    }

    #[test]
    fn faulted_day_is_deterministic_and_accounts_faults() {
        let a = faulted_run();
        let b = faulted_run();
        assert_eq!(a, b, "same seed, same plan: identical counters");
        let total = |key: &str| -> u64 {
            a.iter()
                .filter(|&&(k, _)| k == key)
                .map(|&(_, v)| v)
                .sum()
        };
        assert!(total(fault::SRV_CRASHES) == 1, "the outage fired");
        assert!(total(fault::SRV_RECOVERIES) == 1, "the reboot fired");
        assert!(total(fault::RETRANS_MSGS) > 0, "message drops happened");
        assert!(total(fault::STALL_US) > 0, "retries cost time");
    }
}
