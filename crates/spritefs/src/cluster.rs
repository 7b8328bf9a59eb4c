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

use sdfs_simkit::{CounterSet, SimDuration, SimRng, SimTime};
use sdfs_trace::{ClientId, FileId, Handle, OpenMode, Record, RecordKind, ServerId};

use crate::cache::BlockKey;
use crate::client::{Client, FdState, ProcState};
use crate::config::{Config, ConsistencyPolicy, FaultPlan};
use crate::fs::{assign_server, FileTable};
use crate::metrics::{
    cache as mc, clean, consist, fault, mig, raw, replace, restart, srv, SanitizerStats,
};
use crate::obs::{Obs, ObsEventKind, ObsReport, SpanKind};
use crate::ops::{AppOp, OpKind};
use crate::rpc::{count_rpc, RpcKind};
use crate::sanitizer::{Sanitizer, WriteKind};
use crate::server::{CalmState, OpenEntry, Server};

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

/// What a scheduled fault transition does. `Reboot` sorts before
/// `Crash` so back-to-back outages of one server (reboot at `t`, next
/// crash also at `t`) stay well-formed; partition heals likewise sort
/// before same-instant cuts so a window that ends exactly when another
/// begins never sees both active at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum FaultEventKind {
    Reboot,
    PartitionHeal {
        /// Index into [`FaultPlan::partitions`].
        idx: usize,
    },
    Crash {
        /// Scheduled reboot time of this outage.
        until: SimTime,
    },
    PartitionStart {
        /// Index into [`FaultPlan::partitions`].
        idx: usize,
    },
}

/// One crash or reboot transition, precomputed from the
/// [`FaultPlan`] outage schedule and consumed in time order by the
/// event loop.
#[derive(Debug, Clone, Copy)]
struct FaultEvent {
    at: SimTime,
    kind: FaultEventKind,
    server: u16,
}

/// Runtime state of the fault-injection subsystem; present only when
/// [`Config::faults`] is set, so fault-free runs carry no RNG and take
/// none of these branches.
#[derive(Debug)]
pub(crate) struct FaultState {
    /// The plan in force.
    plan: FaultPlan,
    /// Seeded RNG driving per-RPC message drops (never OS entropy).
    rng: SimRng,
    /// Crash/reboot/partition transitions, sorted by (time, kind,
    /// server).
    events: Vec<FaultEvent>,
    /// Index of the next unfired event.
    next_event: usize,
    /// Cached [`FaultPlan::retry_budget`]: the longest a client stalls
    /// on an unresponsive server before giving up.
    retry_budget: SimDuration,
    /// Number of servers: the stride of the per-edge vectors below
    /// (edge index = `ci * num_servers + si`).
    num_servers: usize,
    /// Whether the plan schedules any partitions. All per-edge
    /// bookkeeping below is skipped when false, so crash-only plans
    /// behave byte-identically to before partitions existed.
    has_partitions: bool,
    /// Per-edge cut depth (overlapping partitions may cut one edge
    /// more than once; the edge heals when the depth returns to zero).
    cut: Vec<u32>,
    /// Per-edge latest scheduled heal time among the active cuts:
    /// how long an RPC issued now would have to wait.
    cut_until: Vec<SimTime>,
    /// Per-edge lease expiry: the server trusts the client's cached
    /// grants on this edge until this instant. Renewed implicitly by
    /// every RPC that reaches the server, frozen while the edge is cut.
    lease_until: Vec<SimTime>,
    /// Per-edge files whose grants the server unilaterally revoked
    /// during the current partition; the client reasserts each on heal
    /// ([`RpcKind::Reassert`]) under the lease protocol.
    revoked: Vec<Vec<FileId>>,
}

impl FaultState {
    fn new(plan: &FaultPlan, num_clients: usize, num_servers: usize) -> Self {
        let mut events: Vec<FaultEvent> = plan
            .outages
            .iter()
            .flat_map(|o| {
                [
                    FaultEvent {
                        at: o.at,
                        kind: FaultEventKind::Crash {
                            until: o.reboot_at(),
                        },
                        server: o.server,
                    },
                    FaultEvent {
                        at: o.reboot_at(),
                        kind: FaultEventKind::Reboot,
                        server: o.server,
                    },
                ]
            })
            .collect();
        for (idx, p) in plan.partitions.iter().enumerate() {
            events.push(FaultEvent {
                at: p.at,
                kind: FaultEventKind::PartitionStart { idx },
                server: 0,
            });
            events.push(FaultEvent {
                at: p.heal_at(),
                kind: FaultEventKind::PartitionHeal { idx },
                server: 0,
            });
        }
        events.sort_by_key(|e| (e.at, e.kind, e.server));
        let has_partitions = !plan.partitions.is_empty();
        let edges = if has_partitions {
            num_clients * num_servers
        } else {
            0
        };
        let lease_ttl = plan.lease_ttl;
        FaultState {
            plan: plan.clone(),
            rng: SimRng::seed_from_u64(plan.drop_seed),
            events,
            next_event: 0,
            retry_budget: plan.retry_budget(),
            num_servers,
            has_partitions,
            cut: vec![0; edges],
            cut_until: vec![SimTime::ZERO; edges],
            lease_until: vec![SimTime::ZERO + lease_ttl; edges],
            revoked: vec![Vec::new(); edges],
        }
    }

    /// The per-edge index of the (client, server) pair.
    #[inline]
    fn edge(&self, ci: u16, si: usize) -> usize {
        ci as usize * self.num_servers + si
    }

    /// Whether the client↔server edge is currently cut by a partition.
    #[inline]
    pub(crate) fn edge_cut(&self, ci: u16, si: usize) -> bool {
        self.has_partitions && self.cut[self.edge(ci, si)] > 0
    }

    /// Whether the plan schedules any partitions at all.
    #[inline]
    pub(crate) fn any_partitions(&self) -> bool {
        self.has_partitions
    }

    /// Whether any client's grant on `file` at server `si` is
    /// currently revoked (lease lapsed behind a still-open cut). The
    /// server can no longer account for that client's operations — it
    /// keeps running behind the cut and its writes land synchronously
    /// when the overlay delivers them — so the file loses caching
    /// privileges for *everyone* until the heal drains the revocation
    /// list and the grant is reasserted or abandoned.
    fn file_revoked(&self, si: usize, file: FileId) -> bool {
        if !self.has_partitions {
            return false;
        }
        self.revoked
            .iter()
            .skip(si)
            .step_by(self.num_servers)
            .any(|files| files.contains(&file))
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
    /// Count of operations applied (for sanity checks and progress).
    ops_applied: u64,
    /// Scratch buffer reused by the write-back daemon's per-client scan
    /// (and by the other whole-client dirty-file walks).
    daemon_files: Vec<FileId>,
    /// Scratch buffer reused for holder/reader client lists on the
    /// consistency paths.
    scratch_clients: Vec<ClientId>,
    /// SpriteSan shadow-state oracle ([`Config::sanitize`]). Boxed so
    /// the disabled (default) case costs one pointer.
    san: Option<Box<Sanitizer>>,
    /// Per-server "currently crashed" flags (all false in fault-free
    /// runs; also settable manually via [`Cluster::crash_server`]).
    server_down: Vec<bool>,
    /// Per-server scheduled reboot time, meaningful while down
    /// ([`SimTime::MAX`] for a manual crash with no scheduled reboot).
    down_until: Vec<SimTime>,
    /// Per-server time of the most recent crash, meaningful while down.
    crashed_at: Vec<SimTime>,
    /// Fault-injection runtime ([`Config::faults`]).
    fault: Option<FaultState>,
    /// Scratch buffer for draining server disk-flush logs to SpriteSan.
    scratch_keys: Vec<BlockKey>,
    /// sdfs-obs self-measurement collector ([`Config::observe`]). Boxed
    /// so the disabled (default) case costs one pointer.
    obs: Option<Box<Obs>>,
    /// Global conflict epoch for the control-plane fast path
    /// ([`Config::consistency_fast_path`]). Bumped by every event that
    /// can invalidate calm summaries or pass-through memos wholesale:
    /// cache disabling and re-enabling, client restarts, server crashes
    /// and recoveries, deletes, and truncates. A [`CalmState`] or an
    /// [`FdState`] memo is trusted only while its stamped epoch matches.
    conflict_epoch: u64,
    /// Fast-path decision counts. Deliberately *not* part of any
    /// [`CounterSet`]: counters are byte-compared between fast-path-on
    /// and fast-path-off runs, and these necessarily differ.
    fastpath: FastPathStats,
}

/// Hit/miss counts for the control-plane consistency fast path
/// ([`Config::consistency_fast_path`]). All zero when the fast path is
/// disabled. Kept outside the byte-compared counter sets on purpose.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastPathStats {
    /// Opens admitted by a calm summary (full consistency walk skipped).
    pub open_hits: u64,
    /// Opens that fell back to the slow path.
    pub open_misses: u64,
    /// Closes admitted by a calm summary.
    pub close_hits: u64,
    /// Closes that fell back to the slow path.
    pub close_misses: u64,
}

impl FastPathStats {
    /// Total fast-path admissions.
    pub fn hits(&self) -> u64 {
        self.open_hits + self.close_hits
    }

    /// Total slow-path fallbacks (while the fast path was enabled).
    pub fn misses(&self) -> u64 {
        self.open_misses + self.close_misses
    }

    /// Hit rate in percent (0 when no decisions were taken).
    pub fn hit_rate_pct(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            100.0 * self.hits() as f64 / total as f64
        }
    }
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
            .map(|i| {
                Client::new(
                    ClientId(i),
                    cfg.client_mem(i),
                    cfg.reserved_bytes,
                    cfg.page_size,
                    cfg.vm_preference_window,
                    cfg.code_retention,
                )
            })
            .collect();
        let mut servers: Vec<Server> = (0..cfg.num_servers)
            .map(|i| Server::new(ServerId(i), cfg.server_cache_bytes, cfg.block_size))
            .collect();
        if cfg.sanitize {
            // SpriteSan needs to know which block versions reached disk
            // (and so survive a crash); plain runs skip the bookkeeping.
            for server in &mut servers {
                server.set_disk_flush_logging(true);
            }
        }
        let next_tick = SimTime::ZERO + cfg.daemon_period;
        let next_sample = SimTime::ZERO + cfg.sample_period;
        let san = cfg.sanitize.then(|| Box::new(Sanitizer::new(&cfg)));
        let obs = cfg
            .observe
            .then(|| Box::new(Obs::with_capacity(cfg.obs_ring_capacity)));
        let fault = cfg
            .faults
            .as_ref()
            .map(|p| FaultState::new(p, cfg.num_clients as usize, cfg.num_servers as usize));
        let n = cfg.num_servers as usize;
        Cluster {
            cfg,
            files: FileTable::new(),
            clients,
            servers,
            sink,
            now: SimTime::ZERO,
            next_tick,
            next_sample,
            ops_applied: 0,
            daemon_files: Vec::new(),
            scratch_clients: Vec::new(),
            san,
            server_down: vec![false; n],
            down_until: vec![SimTime::MAX; n],
            crashed_at: vec![SimTime::ZERO; n],
            fault,
            scratch_keys: Vec::new(),
            obs,
            conflict_epoch: 0,
            fastpath: FastPathStats::default(),
        }
    }

    /// Fast-path decision counts so far (all zero when
    /// [`Config::consistency_fast_path`] is off).
    pub fn fastpath_stats(&self) -> FastPathStats {
        self.fastpath
    }

    /// Pre-populates the namespace with files that exist before the trace
    /// begins (no trace records are emitted).
    pub fn preload(&mut self, files: &[(FileId, u64, bool)]) {
        for &(id, size, is_dir) in files {
            let server = assign_server(id, self.cfg.num_servers);
            self.files.preload(id, server, is_dir, size);
        }
    }

    /// Executes an operation stream to completion, then advances internal
    /// daemons to `end` so trailing delayed writes and samples happen.
    pub fn run<I: IntoIterator<Item = AppOp>>(&mut self, ops: I, end: SimTime) {
        for op in ops {
            self.advance_to(op.time);
            self.apply(&op);
        }
        self.advance_to(end);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of operations applied so far.
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
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

    /// The live sdfs-obs collector, when [`Config::observe`] is set.
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_deref()
    }

    /// Removes and returns the sdfs-obs report (observation stops
    /// afterwards). `None` unless [`Config::observe`] was set.
    pub fn take_obs_report(&mut self) -> Option<ObsReport> {
        self.obs.take().map(|o| o.into_report())
    }

    /// Records one completed RPC with its modeled latency: network time
    /// for the payload, plus a server disk access when the server cache
    /// missed. No-op unless observing.
    #[inline]
    fn obs_rpc(&mut self, kind: RpcKind, ci: usize, si: usize, bytes: u64, disk_miss: bool) {
        if let Some(obs) = self.obs.as_deref_mut() {
            let mut lat = self.cfg.net.rpc_time(bytes);
            if disk_miss {
                lat += self.cfg.disk.access_time(bytes);
            }
            obs.rpc(kind, self.now, ci as u16, si as u16, bytes, lat);
        }
    }

    /// Records one structured event. No-op unless observing.
    #[inline]
    fn obs_event(&mut self, kind: ObsEventKind, src: u16, dst: u16, arg: u64) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.event(kind, self.now, src, dst, arg);
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
        self.restart_client(client, true)
    }

    /// Reboots a client workstation in an orderly fashion: all dirty
    /// data is flushed to the server first, then the machine restarts
    /// with cold caches and empty fd/process tables. Nothing is lost
    /// (the return value is the lost-byte count, always zero here) and
    /// the crash counters do not move — only `reboot.count` does.
    pub fn reboot_client(&mut self, client: ClientId) -> u64 {
        let ci = client.raw() as usize;
        assert!(ci < self.clients.len(), "unknown client {client}");
        let mut files = std::mem::take(&mut self.daemon_files);
        self.clients[ci]
            .cache
            .files_with_dirty_before_into(SimTime::MAX, &mut files);
        for &file in &files {
            self.flush_file(ci, file, CleanReason::Fsync);
        }
        files.clear();
        self.daemon_files = files;
        self.clients[ci].metrics.counters.bump(restart::REBOOT_COUNT);
        self.restart_client(client, false)
    }

    /// Shared crash/reboot tail: cached blocks vanish (dirty ones are
    /// *lost* if `crash`), server-side state for the machine is torn
    /// down, and the client restarts cold. Returns lost dirty bytes.
    fn restart_client(&mut self, client: ClientId, crash: bool) -> u64 {
        let ci = client.raw() as usize;
        assert!(ci < self.clients.len(), "unknown client {client}");
        // The restart tears down opens, tokens, and writer-of-record
        // state across every server and can re-enable caching: kill all
        // calm summaries and pass-through memos at once.
        self.conflict_epoch += 1;
        let mut lost = 0u64;
        let files: Vec<FileId> = {
            let cache = &self.clients[ci].cache;
            let mut v: Vec<FileId> = Vec::new();
            // Collect per-file so the removal helper can do the work.
            for file in self.files.iter().map(|(id, _)| id) {
                if !cache.blocks_of(file).is_empty() {
                    v.push(file);
                }
            }
            v
        };
        for file in files {
            for index in self.clients[ci].cache.dirty_blocks_of(file) {
                let key = BlockKey { file, index };
                if let Some(entry) = self.clients[ci].cache.get(key) {
                    lost += entry.dirty_app_bytes;
                }
                if let Some(san) = self.san.as_deref_mut() {
                    san.on_crash_lost(client, key);
                }
            }
            self.invalidate_file(ci, file, false);
        }
        if crash {
            self.clients[ci]
                .metrics
                .counters
                .add(restart::CRASH_LOST_BYTES, lost);
            self.clients[ci].metrics.counters.bump(restart::CRASH_COUNT);
        } else {
            debug_assert_eq!(lost, 0, "orderly reboot flushed everything first");
        }
        // Server-side cleanup: the crashed client's opens disappear and
        // its consistency state is forgotten.
        for server in &mut self.servers {
            let touched: Vec<FileId> = server
                .files
                .iter()
                .filter(|(_, st)| {
                    st.opens.iter().any(|o| o.client == client)
                        || st.last_writer == Some(client)
                        || st.tokens.writer == Some(client)
                        || st.tokens.readers.contains(&client)
                })
                .map(|(&f, _)| f)
                .collect();
            for file in touched {
                let st = server.file_state(file);
                st.opens.retain(|o| o.client != client);
                if st.last_writer == Some(client) {
                    st.last_writer = None;
                }
                if st.tokens.writer == Some(client) {
                    st.tokens.writer = None;
                }
                st.tokens.readers.remove(&client);
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
        let fresh = Client::new(
            client,
            mem_bytes,
            self.cfg.reserved_bytes,
            self.cfg.page_size,
            self.cfg.vm_preference_window,
            self.cfg.code_retention,
        );
        let old = std::mem::replace(&mut self.clients[ci], fresh);
        // Keep the accumulated metrics (counters survive in the study's
        // collector, as the real measurement infrastructure did).
        self.clients[ci].data.metrics = old.data.metrics;
        lost
    }

    /// Total dirty bytes currently exposed to loss on `client` (what a
    /// crash right now would destroy).
    pub fn dirty_exposure(&self, client: ClientId) -> u64 {
        let ci = client.raw() as usize;
        let cache = &self.clients[ci].cache;
        self.files
            .iter()
            .map(|(file, _)| {
                cache
                    .dirty_blocks_of(file)
                    .into_iter()
                    .filter_map(|index| cache.get(BlockKey { file, index }))
                    .map(|e| e.dirty_app_bytes)
                    .sum::<u64>()
            })
            .sum()
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
        if self.server_down[si] {
            return 0;
        }
        // The crash wipes and rebuilds per-file consistency state; no
        // calm summary or pass-through memo may survive it.
        self.conflict_epoch += 1;
        // Stamp what reached disk before the volatile state vanishes.
        self.drain_disk_flush_logs();
        let mut lost_blocks = Vec::new();
        let mut saved_blocks = Vec::new();
        let lost = self.servers[si].crash(
            &mut lost_blocks,
            self.cfg.server_nvram_bytes,
            &mut saved_blocks,
        );
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
        self.server_down[si] = true;
        self.down_until[si] = until;
        self.crashed_at[si] = self.now;
        self.obs_event(ObsEventKind::ServerCrash, 0, si as u16, lost);
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
        let sid = self.servers[si].id;
        let token_mode = matches!(self.cfg.consistency, ConsistencyPolicy::Token);
        let sprite_family = matches!(
            self.cfg.consistency,
            ConsistencyPolicy::Sprite | ConsistencyPolicy::SpriteModified
        );
        let mut opens: Vec<(Handle, FileId, OpenMode)> = Vec::new();
        let mut dirty = std::mem::take(&mut self.daemon_files);
        for ci in 0..self.clients.len() {
            let client = self.clients[ci].id;
            // Live opens come back in (client, handle) order so the
            // rebuilt open lists are deterministic.
            opens.clear();
            opens.extend(self.clients[ci].fds.iter().filter_map(|(&h, f)| {
                self.files
                    .get(f.file)
                    .filter(|m| m.server == sid)
                    .map(|_| (h, f.file, f.mode))
            }));
            opens.sort_unstable_by_key(|&(h, ..)| h);
            for &(handle, file, mode) in &opens {
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
            self.clients[ci]
                .cache
                .files_with_dirty_before_into(SimTime::MAX, &mut dirty);
            for &file in &dirty {
                if !self.files.get(file).is_some_and(|m| m.server == sid) {
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
        dirty.clear();
        self.daemon_files = dirty;
        if token_mode {
            // Read tokens: every client still caching blocks of a file
            // re-registers as a reader (unless it is the writer).
            let mut indices: Vec<u64> = Vec::new();
            for (file, meta) in self.files.iter() {
                if meta.server != sid {
                    continue;
                }
                for ci in 0..self.clients.len() {
                    self.clients[ci].cache.blocks_of_into(file, &mut indices);
                    if indices.is_empty() {
                        continue;
                    }
                    let client = self.clients[ci].id;
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
        if !self.server_down[si] {
            return 0;
        }
        // Conservative: recovery re-registration does not flip any
        // consistency state today, but bump anyway so summaries never
        // straddle a recovery storm.
        self.conflict_epoch += 1;
        self.server_down[si] = false;
        self.down_until[si] = SimTime::MAX;
        let downtime = self.now.since(self.crashed_at[si]);
        // Unit cost of one empty recovery RPC; the reborn server
        // serializes the storm, so the k-th reopen waits k+1 units.
        let storm_unit = self.cfg.net.rpc_time(0);
        let mut storm = 0u64;
        let mut reopens_total = 0u64;
        let mut reregisters = 0u64;
        let mut indices: Vec<u64> = Vec::new();
        for ci in 0..self.clients.len() {
            let mut reopens = 0u64;
            for f in self.clients[ci].fds.values() {
                if self.files.get(f.file).is_some_and(|m| m.server == server) {
                    reopens += 1;
                }
            }
            let mut involved = reopens > 0;
            if !involved {
                // Cached blocks alone also force re-registration: the
                // reborn server must learn who caches its files.
                for (file, meta) in self.files.iter() {
                    if meta.server != server {
                        continue;
                    }
                    self.clients[ci].cache.blocks_of_into(file, &mut indices);
                    if !indices.is_empty() {
                        involved = true;
                        break;
                    }
                }
            }
            if !involved {
                continue;
            }
            let c = &mut self.clients[ci].metrics.counters;
            count_rpc(c, RpcKind::Reregister, 0);
            for _ in 0..reopens {
                count_rpc(c, RpcKind::Reopen, 0);
            }
            let sc = &mut self.servers[si].counters;
            count_rpc(sc, RpcKind::Reregister, 0);
            for _ in 0..reopens {
                count_rpc(sc, RpcKind::Reopen, 0);
            }
            reregisters += 1;
            if let Some(obs) = self.obs.as_deref_mut() {
                obs.event(
                    ObsEventKind::Reregister,
                    self.now,
                    ci as u16,
                    si as u16,
                    reopens,
                );
                for k in 0..reopens {
                    obs.reopen(
                        self.now,
                        ci as u16,
                        si as u16,
                        storm_unit * (reopens_total + k + 1),
                    );
                }
            }
            reopens_total += reopens;
            storm += 1 + reopens;
        }
        let c = &mut self.servers[si].counters;
        c.bump(fault::SRV_RECOVERIES);
        c.add(fault::SRV_UNAVAIL_US, downtime.as_micros());
        c.add(fault::STORM_RPCS, storm);
        c.add(fault::STORM_REOPENS, reopens_total);
        c.add(fault::STORM_REREGISTERS, reregisters);
        self.obs_event(ObsEventKind::ServerRecover, 0, si as u16, storm);
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.span(SpanKind::ServerOutage, downtime);
            obs.span(SpanKind::RecoveryStorm, storm_unit * storm);
        }
        storm
    }

    /// Whether `server` is currently crashed.
    pub fn server_is_down(&self, server: ServerId) -> bool {
        self.server_down
            .get(server.raw() as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Feeds the servers' disk-flush logs to SpriteSan so it knows which
    /// block versions a crash cannot destroy. No-op when the oracle is
    /// off (the logs are only enabled under [`Config::sanitize`]).
    fn drain_disk_flush_logs(&mut self) {
        let Some(san) = self.san.as_deref_mut() else {
            return;
        };
        let mut keys = std::mem::take(&mut self.scratch_keys);
        for server in &mut self.servers {
            server.take_disk_flush_log(&mut keys);
        }
        for &key in &keys {
            san.on_server_disk_flush(key);
        }
        keys.clear();
        self.scratch_keys = keys;
    }

    /// Applies fault accounting to one client→server RPC: a down server
    /// stalls the caller for up to the retry budget (the operation itself
    /// is queued and delivered — data is not lost, time is), a cut edge
    /// stalls it until the heal, and an up server may still drop
    /// messages, costing seeded retransmissions with exponential backoff.
    /// No-op without a [`FaultPlan`].
    fn fault_rpc(&mut self, ci: usize, si: usize, kind: RpcKind) {
        let Some(fstate) = self.fault.as_mut() else {
            return;
        };
        let now = self.now;
        let counters = &mut self.clients[ci].data.metrics.counters;
        let mut obs = self.obs.as_deref_mut();
        if self.server_down[si] {
            let remaining = self.down_until[si].since(now);
            let stall = remaining.min(fstate.retry_budget);
            counters.bump(fault::STALLED_RPCS);
            counters.add(fault::STALL_US, stall.as_micros());
            if remaining > fstate.retry_budget {
                counters.bump(fault::FAILED_RPCS);
                if let Some(obs) = obs.as_deref_mut() {
                    obs.exhaust(kind);
                }
            }
            if let Some(obs) = obs {
                obs.span(SpanKind::Stall, stall);
                obs.retry(now, ci as u16, si as u16, 0, stall);
            }
            return;
        }
        if fstate.has_partitions {
            let e = fstate.edge(ci as u16, si);
            if fstate.cut[e] > 0 {
                // The edge is cut: the RPC times out and is retried until
                // the heal or the retry budget runs out. Like outage
                // stalls, the operation itself still executes — the cost
                // is time, not data (DESIGN.md §15).
                let remaining = fstate.cut_until[e].since(now);
                let stall = remaining.min(fstate.retry_budget);
                counters.bump(fault::PART_STALLED_RPCS);
                counters.add(fault::PART_STALL_US, stall.as_micros());
                if remaining > fstate.retry_budget {
                    counters.bump(fault::PART_FAILED_RPCS);
                    if let Some(obs) = obs.as_deref_mut() {
                        obs.exhaust(kind);
                    }
                }
                if let Some(obs) = obs {
                    obs.span(SpanKind::Stall, stall);
                    obs.retry(now, ci as u16, si as u16, 0, stall);
                }
                return;
            }
            // An RPC that reaches the server implicitly renews the
            // client's lease on this edge.
            fstate.lease_until[e] = now + fstate.plan.lease_ttl;
        }
        if fstate.plan.drop_prob > 0.0 {
            let mut tries = 0u32;
            while tries < fstate.plan.max_retries && fstate.rng.chance(fstate.plan.drop_prob) {
                tries += 1;
            }
            if tries > 0 {
                let stall = fstate.plan.retry_stall(tries);
                counters.add(fault::RETRANS_MSGS, u64::from(tries));
                counters.add(fault::STALL_US, stall.as_micros());
                if tries == fstate.plan.max_retries {
                    counters.bump(fault::FAILED_RPCS);
                    if let Some(obs) = obs.as_deref_mut() {
                        obs.exhaust(kind);
                    }
                }
                if let Some(obs) = obs {
                    obs.retry(now, ci as u16, si as u16, u64::from(tries), stall);
                }
            }
        }
    }

    /// Fires the next scheduled fault transition (already known due and
    /// timestamped; `self.now` has been advanced to it).
    fn fire_fault_event(&mut self) {
        let ev = {
            let fstate = self.fault.as_mut().expect("fault event without plan");
            let ev = fstate.events[fstate.next_event];
            fstate.next_event += 1;
            ev
        };
        match ev.kind {
            FaultEventKind::Crash { until } => {
                self.crash_server_until(ServerId(ev.server), until);
            }
            FaultEventKind::Reboot => {
                self.recover_server(ServerId(ev.server));
            }
            FaultEventKind::PartitionStart { idx } => {
                self.partition_start(idx);
            }
            FaultEventKind::PartitionHeal { idx } => {
                self.partition_heal(idx);
            }
        }
    }

    /// Cuts every edge of partition `idx`. RPCs on a cut edge stall
    /// (and can exhaust their retry budget) until the heal; consistency
    /// actions *toward* a cut client go through
    /// [`Cluster::partition_action`] instead.
    fn partition_start(&mut self, idx: usize) {
        // Any calm summary may be invalidated by lease revocations that
        // follow from this cut; force every decision onto the slow path
        // for the duration.
        self.conflict_epoch += 1;
        let (edges, heal_at) = {
            let f = self.fault.as_ref().expect("partition without plan");
            let p = &f.plan.partitions[idx];
            (p.edges.clone(), p.heal_at())
        };
        for (c, s) in edges {
            {
                let f = self.fault.as_mut().expect("plan in force");
                let e = f.edge(c, s as usize);
                f.cut[e] += 1;
                if f.cut_until[e] < heal_at {
                    f.cut_until[e] = heal_at;
                }
            }
            self.servers[s as usize]
                .counters
                .bump(fault::PART_CUT_EDGES);
            self.obs_event(ObsEventKind::PartitionCut, c, s, heal_at.as_micros());
        }
    }

    /// Heals every edge of partition `idx`. A fully healed edge runs
    /// the recovery protocol selected by
    /// [`FaultPlan::conservative_recovery`]: the conservative baseline
    /// treats the healed edge like a rebooted server (Reregister plus
    /// one Reopen per live handle), the lease protocol sends one
    /// renewal plus one [`RpcKind::Reassert`] per revoked grant.
    fn partition_heal(&mut self, idx: usize) {
        self.conflict_epoch += 1;
        let (edges, cut_at) = {
            let f = self.fault.as_ref().expect("partition without plan");
            let p = &f.plan.partitions[idx];
            (p.edges.clone(), p.at)
        };
        for (c, s) in edges {
            let (healed, conservative) = {
                let f = self.fault.as_mut().expect("plan in force");
                let e = f.edge(c, s as usize);
                f.cut[e] -= 1;
                // The lease clock restarts from the heal: the client
                // talks to the server again from this instant on.
                if f.cut[e] == 0 {
                    f.lease_until[e] = self.now + f.plan.lease_ttl;
                }
                (f.cut[e] == 0, f.plan.conservative_recovery)
            };
            if !healed {
                continue; // Still cut by an overlapping partition.
            }
            let dur = self.now.since(cut_at);
            self.servers[s as usize]
                .counters
                .add(fault::PART_CUT_US, dur.as_micros());
            self.obs_event(ObsEventKind::PartitionHeal, c, s, dur.as_micros());
            if conservative {
                self.conservative_heal(c as usize, s as usize);
            } else {
                self.lease_heal(c as usize, s as usize);
            }
        }
    }

    /// Client `ci`'s stake on server `si` at heal time: live handles
    /// (which a conservative heal reopens, mirroring the
    /// [`Cluster::recover_server`] rule), cached files with no live
    /// handle (which a conservative heal must revalidate one by one —
    /// see [`Cluster::conservative_heal`]), and whether the client has
    /// any stake at all.
    fn edge_stake(&self, ci: usize, si: usize) -> (u64, u64, bool) {
        let sid = self.servers[si].id;
        let mut reopens = 0u64;
        for f in self.clients[ci].fds.values() {
            if self.files.get(f.file).is_some_and(|m| m.server == sid) {
                reopens += 1;
            }
        }
        let mut revalidations = 0u64;
        let mut indices: Vec<u64> = Vec::new();
        for (file, meta) in self.files.iter() {
            if meta.server != sid {
                continue;
            }
            if self.clients[ci].fds.values().any(|f| f.file == file) {
                continue; // counted as a reopen above
            }
            self.clients[ci].cache.blocks_of_into(file, &mut indices);
            if !indices.is_empty() {
                revalidations += 1;
            }
        }
        (reopens, revalidations, reopens > 0 || revalidations > 0)
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
        let (reopens, revalidations, involved) = self.edge_stake(ci, si);
        if !involved {
            return;
        }
        let roundtrips = reopens + revalidations;
        let c = &mut self.clients[ci].metrics.counters;
        count_rpc(c, RpcKind::Reregister, 0);
        for _ in 0..roundtrips {
            count_rpc(c, RpcKind::Reopen, 0);
        }
        let sc = &mut self.servers[si].counters;
        count_rpc(sc, RpcKind::Reregister, 0);
        for _ in 0..roundtrips {
            count_rpc(sc, RpcKind::Reopen, 0);
        }
        sc.add(fault::HEAL_REREGISTERS, 1);
        sc.add(fault::HEAL_REOPENS, roundtrips);
        sc.add(fault::HEAL_STORM_RPCS, 1 + roundtrips);
        self.obs_event(ObsEventKind::Reregister, ci as u16, si as u16, roundtrips);
    }

    /// Lease-protocol heal storm for one edge: one lease renewal if the
    /// client has any stake on the server, plus one Reassert per
    /// revoked grant the client still holds open. Grants whose lease
    /// never lapsed need nothing (the server kept them), and revoked
    /// grants on files the client has since closed need nothing either
    /// (both sides already agree the grant is gone) — which is why this
    /// storm is strictly smaller than the conservative one.
    fn lease_heal(&mut self, ci: usize, si: usize) {
        let mut revoked: Vec<FileId> = {
            let f = self.fault.as_mut().expect("plan in force");
            let e = f.edge(ci as u16, si);
            std::mem::take(&mut f.revoked[e])
        };
        revoked.retain(|&file| self.clients[ci].fds.values().any(|f| f.file == file));
        let (_, _, involved) = self.edge_stake(ci, si);
        if !involved && revoked.is_empty() {
            return;
        }
        count_rpc(&mut self.clients[ci].metrics.counters, RpcKind::LeaseRenew, 0);
        count_rpc(&mut self.servers[si].counters, RpcKind::LeaseRenew, 0);
        {
            let sc = &mut self.servers[si].counters;
            sc.add(fault::HEAL_RENEWALS, 1);
            sc.add(fault::HEAL_STORM_RPCS, 1);
        }
        self.obs_rpc(RpcKind::LeaseRenew, ci, si, 0, false);
        for file in revoked {
            count_rpc(&mut self.clients[ci].metrics.counters, RpcKind::Reassert, 0);
            count_rpc(&mut self.servers[si].counters, RpcKind::Reassert, 0);
            {
                let sc = &mut self.servers[si].counters;
                sc.add(fault::HEAL_REASSERTS, 1);
                sc.add(fault::HEAL_STORM_RPCS, 1);
            }
            self.obs_rpc(RpcKind::Reassert, ci, si, 0, false);
            self.obs_event(ObsEventKind::Reassert, ci as u16, si as u16, file.raw());
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
        let strong = matches!(
            self.cfg.consistency,
            ConsistencyPolicy::Sprite | ConsistencyPolicy::SpriteModified | ConsistencyPolicy::Token
        );
        if strong && st.write_shared() {
            // The reasserted opens may re-create write sharing.
            st.uncacheable = true;
        }
    }

    /// Gate for a server→client consistency action (recall, token
    /// recall, cache-disable invalidate) whose target may be behind a
    /// cut edge. Returns `true` when the action should proceed as
    /// usual (charging any wait to the requesting client), `false`
    /// when the lease protocol revoked the target's grant instead — in
    /// that case the target's state is already torn down and the
    /// caller must skip the action entirely.
    fn partition_action(
        &mut self,
        target: usize,
        si: usize,
        requester: usize,
        file: FileId,
    ) -> bool {
        if target == requester {
            // Self-directed actions ride the requester's own RPC reply,
            // which already paid the partition stall.
            return true;
        }
        let now = self.now;
        enum Verdict {
            Deliver,
            Wait(SimDuration),
            Revoke(SimDuration),
        }
        let verdict = {
            let Some(f) = self.fault.as_ref() else {
                return true;
            };
            if !f.has_partitions {
                return true;
            }
            let e = f.edge(target as u16, si);
            if f.cut[e] == 0 {
                Verdict::Deliver
            } else if f.plan.conservative_recovery || f.lease_until[e] >= f.cut_until[e] {
                // Conservative baseline, or a lease that outlives the
                // cut: the action is queued for the heal and the
                // requester waits, bounded by its retry budget.
                // Semantics are unchanged — the simulator models the
                // eventual delivery by executing the action now and
                // charging the wait.
                Verdict::Wait(f.cut_until[e].since(now).min(f.retry_budget))
            } else {
                // Lease protocol and the target's lease lapses before
                // the heal: wait out whatever remains of the lease,
                // then revoke the grant unilaterally.
                Verdict::Revoke(f.lease_until[e].since(now).min(f.retry_budget))
            }
        };
        match verdict {
            Verdict::Deliver => true,
            Verdict::Wait(stall) => {
                let c = &mut self.clients[requester].metrics.counters;
                c.bump(fault::PART_UNDELIVERED);
                c.add(fault::PART_STALL_US, stall.as_micros());
                if let Some(obs) = self.obs.as_deref_mut() {
                    obs.span(SpanKind::Stall, stall);
                }
                true
            }
            Verdict::Revoke(wait) => {
                let c = &mut self.clients[requester].metrics.counters;
                c.add(fault::LEASE_WAIT_US, wait.as_micros());
                if wait > SimDuration::ZERO {
                    if let Some(obs) = self.obs.as_deref_mut() {
                        obs.span(SpanKind::Stall, wait);
                    }
                }
                self.revoke_client_file(target, si, file, requester);
                false
            }
        }
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
    /// revocation), and [`FaultState::file_revoked`] keeps the data
    /// path synchronous until the heal drains the revocation list.
    fn revoke_client_file(&mut self, ci: usize, si: usize, file: FileId, requester: usize) {
        self.conflict_epoch += 1;
        let client = self.clients[ci].id;
        // Roll the oracle back before dropping the blocks, exactly as
        // a client crash does — the server's copy is the truth again.
        let mut lost = 0u64;
        for index in self.clients[ci].cache.dirty_blocks_of(file) {
            let key = BlockKey { file, index };
            if let Some(entry) = self.clients[ci].cache.get(key) {
                lost += entry.dirty_app_bytes;
            }
            if let Some(san) = self.san.as_deref_mut() {
                san.on_crash_lost(client, key);
            }
        }
        self.invalidate_file(ci, file, false);
        {
            let c = &mut self.servers[si].counters;
            c.bump(fault::LEASE_EXPIRY_RECALLS);
            c.add(fault::LEASE_LOST_BYTES, lost);
        }
        // Server side: the grant is forgotten until reasserted on heal.
        let st = self.servers[si].file_state(file);
        st.opens.retain(|o| o.client != client);
        if st.last_writer == Some(client) {
            st.last_writer = None;
        }
        if st.tokens.writer == Some(client) {
            st.tokens.writer = None;
        }
        st.tokens.readers.remove(&client);
        let needs_disable = !st.uncacheable;
        if needs_disable {
            // Idempotence guard doubles as the recursion bound:
            // `disable_caching` marks the file uncacheable *before*
            // walking holders, so revocations it triggers in turn
            // (holders behind other lapsed cuts) skip this branch.
            self.disable_caching(file, si, requester);
        }
        self.servers[si].gc_file(file);
        self.obs_event(ObsEventKind::LeaseRevoke, ci as u16, si as u16, file.raw());
        let f = self.fault.as_mut().expect("revocation requires a plan");
        let e = f.edge(ci as u16, si);
        if !f.revoked[e].contains(&file) {
            f.revoked[e].push(file);
        }
    }

    /// Time of the next scheduled crash/reboot, if any remain.
    fn next_fault_time(&self) -> Option<SimTime> {
        self.fault
            .as_ref()
            .and_then(|f| f.events.get(f.next_event))
            .map(|e| e.at)
    }

    // ------------------------------------------------------------------
    // Internal time advance: daemon ticks and samples.
    // ------------------------------------------------------------------

    fn advance_to(&mut self, t: SimTime) {
        loop {
            let next_fault = self.next_fault_time();
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
                self.next_tick = next + self.cfg.daemon_period;
            } else {
                self.take_samples(next);
                self.next_sample = next + self.cfg.sample_period;
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
        let block_size = self.cfg.block_size;
        for si in 0..self.servers.len() {
            if !self.server_down[si] {
                self.servers[si].flush_dirty_before(cutoff, block_size);
            }
        }
        self.drain_disk_flush_logs();
        if let Some(san) = self.san.as_deref_mut() {
            san.check_writeback_window(
                &self.clients,
                &self.files,
                &self.server_down,
                self.fault.as_ref(),
                &self.cfg,
                now,
            );
        }
    }

    fn take_samples(&mut self, now: SimTime) {
        let period = self.cfg.sample_period;
        for ci in 0..self.clients.len() {
            // A client that has never issued an operation is idle; the
            // zero default must not look like activity at time zero.
            let last = self.clients[ci].last_activity;
            let active = last > SimTime::ZERO && now.since(last) <= period;
            let bytes = self.clients[ci].cache_bytes(self.cfg.page_size);
            self.clients[ci].metrics.sample(now, bytes, active);
        }
        if let Some(san) = self.san.as_deref_mut() {
            san.deep_audit(&self.clients, now);
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
        self.ops_applied += 1;
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
        if self.files.get(file).is_none() {
            // Robustness: treat an open of an unknown file as creating it
            // (the workload should always create first).
            let server = assign_server(file, self.cfg.num_servers);
            self.files.create(file, server, false, self.now);
            self.counters(ci).bump("implicit.creates");
        }
        let meta = self.files.get_mut(file).expect("file exists");
        let server_id = meta.server;
        let is_dir = meta.is_dir;
        let size = meta.size;
        let prev_version = meta.version;
        if mode.writes() && !is_dir {
            meta.version += 1;
        }
        let version = meta.version;
        let si = server_id.raw() as usize;

        self.fault_rpc(ci, si, RpcKind::Open);
        count_rpc(self.counters(ci), RpcKind::Open, 0);
        count_rpc(&mut self.servers[si].counters, RpcKind::Open, 0);
        self.obs_rpc(RpcKind::Open, ci, si, 0, false);
        if !is_dir {
            self.counters(ci).bump(consist::FILE_OPENS);
        }

        // Control-plane fast path: a calm file (sole client, no remote
        // dirty data, version as expected, policy bookkeeping current)
        // admits the open with an O(1) decision — the slow walk below
        // would provably dispatch nothing and change no counter. See
        // DESIGN.md §13 for the invariant and its proof obligations.
        let use_fast = self.cfg.consistency_fast_path;
        let mut fast = false;
        if use_fast && !is_dir {
            if let Some(st) = self.servers[si].files.get_mut(&file) {
                let calm = st.calm;
                if calm.live && calm.epoch == self.conflict_epoch && calm.client == op.client {
                    let ok = match self.cfg.consistency {
                        // The client's cache tracks the pre-open version:
                        // no invalidate, and any last writer is itself.
                        ConsistencyPolicy::Sprite | ConsistencyPolicy::SpriteModified => {
                            calm.seen_version == prev_version
                        }
                        // Already holding the needed token: the slow
                        // path would do nothing at all.
                        ConsistencyPolicy::Token => {
                            if mode.writes() {
                                calm.holds_write
                            } else {
                                calm.holds_write || calm.holds_read
                            }
                        }
                        // Inside the trust interval: no GetAttr due.
                        ConsistencyPolicy::Polling { interval_secs } => {
                            self.now.since(calm.last_validate)
                                <= SimDuration::from_secs(interval_secs as u64)
                        }
                    };
                    if ok {
                        st.opens.push(OpenEntry {
                            client: op.client,
                            handle: fd,
                            mode,
                        });
                        if mode.writes() {
                            st.calm.seen_version = version;
                        }
                        fast = true;
                    }
                }
            }
            if fast {
                self.fastpath.open_hits += 1;
                // Mirror the slow path's unconditional version-stamp
                // insert. For calm files freshly established by
                // `refresh_calm` this rewrites the same value; for a
                // calm summary set up at create time it records the
                // first stamp, exactly as the slow walk would have.
                if matches!(
                    self.cfg.consistency,
                    ConsistencyPolicy::Sprite | ConsistencyPolicy::SpriteModified
                ) {
                    self.clients[ci].seen_version.insert(file, version);
                }
            } else {
                self.fastpath.open_misses += 1;
            }
        }

        let mut pass_through = false;
        if !fast {
            if !is_dir {
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
                let strong = matches!(
                    self.cfg.consistency,
                    ConsistencyPolicy::Sprite
                        | ConsistencyPolicy::SpriteModified
                        | ConsistencyPolicy::Token
                );
                if strong && !self.servers[si].file_state(file).uncacheable {
                    self.disable_caching(file, si, ci);
                }
            }

            if use_fast && !is_dir {
                pass_through = self.refresh_calm(file, si, version);
            }
        }

        let mut fdst = FdState::new(file, mode, self.now, op.migrated);
        if use_fast {
            // Memoize the pass-through flag for the data path (a calm
            // admission implies cacheable).
            fdst.pass_epoch = self.conflict_epoch;
            fdst.pass_through = pass_through;
        }
        self.clients[ci].fds.insert(fd, fdst);
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
            // `fault_skip_invalidate` is the sanitizer's fault-injection
            // hook: dropping this invalidation must surface as a stale
            // read.
            if seen != prev_version && !self.cfg.fault_skip_invalidate {
                self.invalidate_file(ci, file, true);
                self.obs_event(ObsEventKind::Invalidate, ci as u16, si as u16, file.raw());
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
                if self.partition_action(wi, si, ci, file) {
                    self.counters(ci).bump(consist::RECALL_OPENS);
                    count_rpc(&mut self.servers[si].counters, RpcKind::Recall, 0);
                    count_rpc(self.counters(wi), RpcKind::Recall, 0);
                    self.obs_rpc(RpcKind::Recall, wi, si, 0, false);
                    self.obs_event(ObsEventKind::Recall, wi as u16, si as u16, file.raw());
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
        let mut readers = std::mem::take(&mut self.scratch_clients);
        readers.clear();
        let writer = {
            let st = self.servers[si].file_state(file);
            readers.extend(st.tokens.readers.iter().copied());
            st.tokens.writer
        };
        if mode.writes() {
            let already = writer == Some(me);
            if !already {
                if let Some(w) = writer {
                    // Recall the write token: the holder flushes and
                    // invalidates (unless its lease lapsed behind a cut
                    // edge, in which case the revocation did the work).
                    let wi = w.raw() as usize;
                    if self.partition_action(wi, si, ci, file) {
                        count_rpc(self.counters(wi), RpcKind::TokenRecall, 0);
                        self.flush_file(wi, file, CleanReason::Recall);
                        self.invalidate_file(wi, file, false);
                        self.obs_rpc(RpcKind::TokenRecall, wi, si, 0, false);
                        self.obs_event(ObsEventKind::Recall, wi as u16, si as u16, file.raw());
                    }
                }
                for &r in &readers {
                    if r != me {
                        let ri = r.raw() as usize;
                        if self.partition_action(ri, si, ci, file) {
                            count_rpc(self.counters(ri), RpcKind::TokenRecall, 0);
                            self.invalidate_file(ri, file, false);
                            self.obs_rpc(RpcKind::TokenRecall, ri, si, 0, false);
                            self.obs_event(
                                ObsEventKind::Invalidate,
                                ri as u16,
                                si as u16,
                                file.raw(),
                            );
                        }
                    }
                }
                let st = self.servers[si].file_state(file);
                st.tokens.readers.clear();
                st.tokens.writer = Some(me);
                count_rpc(self.counters(ci), RpcKind::TokenAcquire, 0);
                self.obs_rpc(RpcKind::TokenAcquire, ci, si, 0, false);
            }
        } else {
            let holds = writer == Some(me) || {
                let st = self.servers[si].file_state(file);
                st.tokens.readers.contains(&me)
            };
            if !holds {
                if let Some(w) = writer {
                    // Downgrade the writer: flush dirty, keep its blocks,
                    // writer becomes a reader.
                    let wi = w.raw() as usize;
                    count_rpc(self.counters(wi), RpcKind::TokenRecall, 0);
                    self.flush_file(wi, file, CleanReason::Recall);
                    let st = self.servers[si].file_state(file);
                    st.tokens.writer = None;
                    st.tokens.readers.insert(w);
                    self.obs_rpc(RpcKind::TokenRecall, wi, si, 0, false);
                    self.obs_event(ObsEventKind::Recall, wi as u16, si as u16, file.raw());
                }
                let st = self.servers[si].file_state(file);
                st.tokens.readers.insert(me);
                count_rpc(self.counters(ci), RpcKind::TokenAcquire, 0);
                self.obs_rpc(RpcKind::TokenAcquire, ci, si, 0, false);
            }
        }
        self.scratch_clients = readers;
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
            self.fault_rpc(ci, si, RpcKind::GetAttr);
            count_rpc(self.counters(ci), RpcKind::GetAttr, 0);
            count_rpc(&mut self.servers[si].counters, RpcKind::GetAttr, 0);
            self.obs_rpc(RpcKind::GetAttr, ci, si, 0, false);
            let stale = self.clients[ci]
                .seen_version
                .get(&file)
                .is_some_and(|&v| v != version);
            if stale {
                self.invalidate_file(ci, file, true);
                self.obs_event(ObsEventKind::Invalidate, ci as u16, si as u16, file.raw());
            }
            self.clients[ci].seen_version.insert(file, version);
            self.clients[ci].last_validate.insert(file, self.now);
        }
    }

    /// Recomputes a file's calm summary from its actual server state at
    /// the end of a slow-path open or close (`version` is the file's
    /// current version stamp). Returns the file's `uncacheable` flag so
    /// the open path can memoize it without a second lookup.
    ///
    /// The summary is established only when *every* piece of per-file
    /// consistency state — opens, writer of record, token holders —
    /// belongs to one client, caching is enabled, and that client's own
    /// policy bookkeeping is current (version seen under Sprite, poll
    /// time recorded under polling). Anything else leaves the summary
    /// dead and the file on the slow path.
    fn refresh_calm(&mut self, file: FileId, si: usize, version: u64) -> bool {
        let epoch = self.conflict_epoch;
        let Some(st) = self.servers[si].files.get_mut(&file) else {
            return false; // GC'd: quiescent, nothing to summarize.
        };
        st.calm.live = false;
        let mut owner: Option<ClientId> = None;
        let mut sole = |c: ClientId| match owner {
            None => {
                owner = Some(c);
                true
            }
            Some(o) => o == c,
        };
        let mut one_client = true;
        for o in &st.opens {
            one_client &= sole(o.client);
        }
        if let Some(w) = st.last_writer {
            one_client &= sole(w);
        }
        if let Some(w) = st.tokens.writer {
            one_client &= sole(w);
        }
        for &r in st.tokens.readers.iter() {
            one_client &= sole(r);
        }
        let uncacheable = st.uncacheable;
        let (Some(owner), true, false) = (owner, one_client, uncacheable) else {
            return uncacheable;
        };
        let holds_write = st.tokens.writer == Some(owner);
        let holds_read = st.tokens.readers.contains(&owner);
        let oi = owner.raw() as usize;
        let mut last_validate = SimTime::ZERO;
        match self.cfg.consistency {
            ConsistencyPolicy::Sprite | ConsistencyPolicy::SpriteModified => {
                if self.clients[oi].seen_version.get(&file) != Some(&version) {
                    return false;
                }
            }
            ConsistencyPolicy::Token => {}
            ConsistencyPolicy::Polling { .. } => {
                match self.clients[oi].last_validate.get(&file) {
                    Some(&at) => last_validate = at,
                    None => return false,
                }
            }
        }
        st.calm = CalmState {
            live: true,
            epoch,
            client: owner,
            seen_version: version,
            holds_write,
            holds_read,
            last_validate,
        };
        false
    }

    /// Disables client caching for a write-shared file: every client with
    /// an open flushes dirty data and invalidates its cache.
    /// `requester` is the client whose open triggered the disable (it
    /// absorbs any partition wait for unreachable holders).
    fn disable_caching(&mut self, file: FileId, si: usize, requester: usize) {
        // The flip invalidates every open handle's pass-through memo.
        self.conflict_epoch += 1;
        let mut holders = std::mem::take(&mut self.scratch_clients);
        holders.clear();
        {
            let st = self.servers[si].file_state(file);
            st.uncacheable = true;
            holders.extend(st.opens.iter().map(|o| o.client));
            holders.sort_unstable();
            holders.dedup();
        }
        for &c in &holders {
            let ci = c.raw() as usize;
            if !self.partition_action(ci, si, requester, file) {
                continue; // Lease revoked: the holder's cache is gone.
            }
            count_rpc(self.counters(ci), RpcKind::Invalidate, 0);
            self.flush_file(ci, file, CleanReason::Recall);
            self.invalidate_file(ci, file, false);
            self.obs_rpc(RpcKind::Invalidate, ci, si, 0, false);
            self.obs_event(ObsEventKind::Invalidate, ci as u16, si as u16, file.raw());
        }
        self.scratch_clients = holders;
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
        let version = meta.version;
        let si = server_id.raw() as usize;
        self.fault_rpc(ci, si, RpcKind::Close);
        count_rpc(self.counters(ci), RpcKind::Close, 0);
        count_rpc(&mut self.servers[si].counters, RpcKind::Close, 0);
        self.obs_rpc(RpcKind::Close, ci, si, 0, false);
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.span(SpanKind::FileOpen, fdst.open_duration(self.now));
        }

        // Fast path: calm ⇒ sole opener and cacheable, so the policy
        // re-evaluation below is a no-op. Skipping `gc_file` on purpose
        // keeps the (possibly quiescent) entry and its live summary
        // around for the client's next open — quiescent entries are
        // behaviorally identical to absent ones everywhere they are
        // read, so the retained entry cannot change a byte.
        let use_fast = self.cfg.consistency_fast_path;
        let mut fast = false;
        if use_fast {
            if let Some(st) = self.servers[si].files.get_mut(&file) {
                let calm = st.calm;
                if calm.live && calm.epoch == self.conflict_epoch && calm.client == op.client {
                    st.remove_open(fd);
                    if fdst.wrote() {
                        st.last_writer = Some(op.client);
                    }
                    fast = true;
                }
            }
            if fast {
                self.fastpath.close_hits += 1;
            } else {
                self.fastpath.close_misses += 1;
            }
        }
        if !fast {
            let mut re_enabled = false;
            let st = self.servers[si].file_state(file);
            st.remove_open(fd);
            let was_uncacheable = st.uncacheable;
            if fdst.wrote() && !was_uncacheable {
                st.last_writer = Some(op.client);
            }
            match self.cfg.consistency {
                ConsistencyPolicy::Sprite => {
                    if st.uncacheable && st.opens.is_empty() {
                        st.uncacheable = false;
                        re_enabled = true;
                    }
                }
                // Token re-grants caching once the conflicting open
                // ends, like a delegation returned and re-issued — the
                // same condition Modified Sprite uses.
                ConsistencyPolicy::SpriteModified | ConsistencyPolicy::Token => {
                    if st.uncacheable && !st.write_shared() {
                        st.uncacheable = false;
                        re_enabled = true;
                    }
                }
                ConsistencyPolicy::Polling { .. } => {}
            }
            if re_enabled {
                // Open handles may hold a pass-through memo for this
                // file; the re-enable flip must invalidate them.
                self.conflict_epoch += 1;
            }
            self.servers[si].gc_file(file);
            if use_fast {
                self.refresh_calm(file, si, version);
            }
        }

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

    /// Whether data ops on `fd` bypass the client cache (the file is
    /// uncacheable, or a lease revocation on it is outstanding). With
    /// the fast path on, the answer is memoized on the [`FdState`] and
    /// trusted while the conflict epoch is unchanged — every
    /// `uncacheable` flip, lease revocation, partition cut, and heal
    /// bumps the epoch — saving one server file-state lookup on the
    /// hottest ops in the simulator.
    fn fd_pass_through(&mut self, ci: usize, fd: Handle, fdst: &FdState, file: FileId, si: usize) -> bool {
        if self.cfg.consistency_fast_path && fdst.pass_epoch == self.conflict_epoch {
            return fdst.pass_through;
        }
        let uncacheable = self.servers[si]
            .files
            .get(&file)
            .is_some_and(|st| st.uncacheable)
            || self
                .fault
                .as_ref()
                .is_some_and(|f| f.file_revoked(si, file));
        if self.cfg.consistency_fast_path {
            if let Some(f) = self.clients[ci].fds.get_mut(&fd) {
                f.pass_epoch = self.conflict_epoch;
                f.pass_through = uncacheable;
            }
        }
        uncacheable
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
        let uncacheable = self.fd_pass_through(ci, fd, &fdst, file, si);

        if uncacheable {
            // Pass-through read on a write-shared file.
            self.fault_rpc(ci, si, RpcKind::SharedRead);
            let c = self.counters(ci);
            c.add(raw::SHARED_READ, eff);
            c.add(srv::SHARED_READ, eff);
            count_rpc(c, RpcKind::SharedRead, eff);
            count_rpc(&mut self.servers[si].counters, RpcKind::SharedRead, eff);
            self.obs_rpc(RpcKind::SharedRead, ci, si, eff, false);
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
            self.counters(ci).add(raw::FILE_READ, eff);
            self.cached_read(op, si, file, fdst.offset, eff, false);
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
        let uncacheable = self.fd_pass_through(ci, fd, &fdst, file, si);

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
            self.fault_rpc(ci, si, RpcKind::SharedWrite);
            let c = self.counters(ci);
            c.add(raw::SHARED_WRITE, len);
            c.add(srv::SHARED_WRITE, len);
            count_rpc(c, RpcKind::SharedWrite, len);
            count_rpc(&mut self.servers[si].counters, RpcKind::SharedWrite, len);
            self.obs_rpc(RpcKind::SharedWrite, ci, si, len, false);
            if let Some(san) = self.san.as_deref_mut() {
                let bs = self.cfg.block_size;
                for index in offset / bs..=(offset + len - 1) / bs {
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
        count_rpc(self.counters(ci), RpcKind::Fsync, 0);
        if let Some(meta) = self.files.get(file) {
            let si = meta.server.raw() as usize;
            self.fault_rpc(ci, si, RpcKind::Fsync);
            self.obs_rpc(RpcKind::Fsync, ci, si, 0, false);
        }
        self.flush_file(ci, file, CleanReason::Fsync);
    }

    // ------------------------------------------------------------------
    // Naming operations.
    // ------------------------------------------------------------------

    fn do_create(&mut self, op: &AppOp, file: FileId, is_dir: bool) {
        let ci = op.client.raw() as usize;
        let server = assign_server(file, self.cfg.num_servers);
        // Creating over a live file is an overwrite-truncate: every
        // cached copy (dirty included) belongs to the old incarnation
        // and is dropped everywhere, exactly as in `do_truncate` —
        // otherwise a stale dirty block out-versions the reborn file
        // and resurfaces through a later write-back (found by
        // SpriteSan under the partition fuzzer).
        let overwrite = self.files.get(file).is_some();
        if overwrite {
            let si = server.raw() as usize;
            if let Some(st) = self.servers[si].files.get_mut(&file) {
                st.calm.live = false;
            }
            for c in 0..self.clients.len() {
                self.invalidate_file(c, file, false);
            }
            if let Some(san) = self.san.as_deref_mut() {
                san.on_file_erased(file);
            }
            self.servers[si].drop_file_blocks(file);
        }
        self.files.create(file, server, is_dir, self.now);
        self.fault_rpc(ci, server.raw() as usize, RpcKind::Create);
        count_rpc(self.counters(ci), RpcKind::Create, 0);
        count_rpc(
            &mut self.servers[server.raw() as usize].counters,
            RpcKind::Create,
            0,
        );
        self.obs_rpc(RpcKind::Create, ci, server.raw() as usize, 0, false);
        // Fast path: a fresh file is calm by construction — no opens, no
        // last writer, no cached copy, no version stamp on any client —
        // so the creating client's first open can take the O(1) decision
        // without ever running the slow walk. Only the Sprite policies
        // qualify: polling must still pay its first GetAttr and token
        // mode its first acquire, so their first opens stay slow.
        // An overwrite-create does NOT qualify: other clients may still
        // hold open handles on the reborn file (their `st.opens` entries
        // survive the truncate), so the first open must run the slow
        // walk to detect write sharing.
        if self.cfg.consistency_fast_path
            && !is_dir
            && !overwrite
            && matches!(
                self.cfg.consistency,
                ConsistencyPolicy::Sprite | ConsistencyPolicy::SpriteModified
            )
        {
            let epoch = self.conflict_epoch;
            // A freshly created file always carries version stamp 1
            // (`FileMeta::new`); asserting instead of re-reading keeps
            // the create path to a single map touch.
            let version = 1;
            debug_assert_eq!(self.files.get(file).map(|m| m.version), Some(version));
            let st = self.servers[server.raw() as usize].file_state(file);
            st.calm = CalmState {
                live: true,
                epoch,
                client: op.client,
                seen_version: version,
                holds_write: false,
                holds_read: false,
                last_validate: SimTime::ZERO,
            };
        }
        self.emit(server, op, RecordKind::Create { file, is_dir });
    }

    fn do_delete(&mut self, op: &AppOp, file: FileId) {
        let ci = op.client.raw() as usize;
        let Some(meta) = self.files.delete(file) else {
            debug_assert!(false, "delete of unknown file {file}");
            return;
        };
        let si = meta.server.raw() as usize;
        self.fault_rpc(ci, si, RpcKind::Delete);
        count_rpc(self.counters(ci), RpcKind::Delete, 0);
        count_rpc(&mut self.servers[si].counters, RpcKind::Delete, 0);
        self.obs_rpc(RpcKind::Delete, ci, si, 0, false);
        // Drop the file's blocks everywhere; dirty data is cancelled and
        // never written back (this is where short lifetimes save write
        // traffic).
        for c in 0..self.clients.len() {
            self.invalidate_file(c, file, false);
        }
        if let Some(san) = self.san.as_deref_mut() {
            san.on_file_erased(file);
        }
        self.servers[si].drop_file_blocks(file);
        // The entry (and any calm summary in it) dies with the file. An
        // open fd's pass-through memo only goes stale if the entry was
        // uncacheable (memo true, but a lookup of the absent entry says
        // false), so only that rare case pays a global epoch bump —
        // deletes of ordinary cacheable files, the overwhelmingly common
        // case in this workload, leave every other summary alive.
        if let Some(st) = self.servers[si].files.remove(&file) {
            if st.uncacheable {
                self.conflict_epoch += 1;
            }
        }
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
        // Version jumped and every cached copy is dropped: this file's
        // calm summary must die. `uncacheable` is untouched, so open
        // fds' pass-through memos stay valid and no other file's
        // summary is disturbed.
        if let Some(st) = self.servers[si].files.get_mut(&file) {
            st.calm.live = false;
        }
        self.fault_rpc(ci, si, RpcKind::Truncate);
        count_rpc(self.counters(ci), RpcKind::Truncate, 0);
        count_rpc(&mut self.servers[si].counters, RpcKind::Truncate, 0);
        self.obs_rpc(RpcKind::Truncate, ci, si, 0, false);
        for c in 0..self.clients.len() {
            self.invalidate_file(c, file, false);
        }
        if let Some(san) = self.san.as_deref_mut() {
            san.on_file_erased(file);
        }
        self.servers[si].drop_file_blocks(file);
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
        if self.files.get(dir).is_none() {
            let server = assign_server(dir, self.cfg.num_servers);
            self.files.create(dir, server, true, self.now);
        }
        let meta = self.files.get_mut(dir).expect("dir exists");
        meta.size = meta.size.max(bytes);
        let server_id = meta.server;
        let si = server_id.raw() as usize;
        self.fault_rpc(ci, si, RpcKind::ReadDir);
        let c = self.counters(ci);
        c.add(raw::DIR_READ, bytes);
        c.add(srv::DIR_READ, bytes);
        count_rpc(c, RpcKind::ReadDir, bytes);
        count_rpc(&mut self.servers[si].counters, RpcKind::ReadDir, bytes);
        self.obs_rpc(RpcKind::ReadDir, ci, si, bytes, false);
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
        if self.files.get(exec).is_none() {
            let server = assign_server(exec, self.cfg.num_servers);
            self.files.create(exec, server, false, self.now);
            if let Some(m) = self.files.get_mut(exec) {
                m.size = code_bytes + data_bytes;
            }
        }
        let meta = self.files.get(exec).expect("exec exists");
        let si = meta.server.raw() as usize;
        let now = self.now;
        let ps = self.cfg.page_size;
        let code_pages = code_bytes.div_ceil(ps);
        // Data pages include the heap/stack the process will grow to;
        // only the initialized-data portion is faulted from the file.
        let data_pages = (data_bytes + heap_bytes).div_ceil(ps).max(1);

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
            if self.evict_lru(ci, replace::VM_BLOCKS, replace::VM_AGE_US) {
                self.clients[ci].mem.steal_from_fc();
            } else {
                // Nothing cached to evict: the machine is overcommitted.
                self.clients[ci].mem.force_grow(1);
            }
        }

        // Fault in code pages. Sprite checks the file cache on code
        // faults (recompilation can leave new code there) but does not
        // *install* code blocks in the file cache on a miss; a cached
        // code block is released after its contents are copied to VM.
        let code_fault_bytes = fault_code_pages * ps;
        if code_fault_bytes > 0 {
            self.counters(ci)
                .add(raw::PAGING_CODE_READ, code_fault_bytes);
            for index in 0..fault_code_pages {
                let key = BlockKey { file: exec, index };
                {
                    let c = self.counters(ci);
                    c.bump(mc::PAGING_READ_OPS);
                    if op.migrated {
                        c.bump(mig::PAGING_READ_OPS);
                    }
                }
                if self.clients[ci].cache.touch(key, now) {
                    // Copy to VM; the block stays cached so a future
                    // invocation on this machine can find it again.
                    if let Some(san) = self.san.as_deref_mut() {
                        san.on_read_hit(op.client, key, true, now);
                    }
                    continue;
                }
                self.fault_rpc(ci, si, RpcKind::PageIn);
                {
                    let c = self.counters(ci);
                    c.bump(mc::PAGING_READ_MISS_OPS);
                    c.add(srv::PAGING_READ, ps);
                    count_rpc(c, RpcKind::PageIn, ps);
                    if op.migrated {
                        c.bump(mig::PAGING_READ_MISS_OPS);
                    }
                }
                let srv_hit = self.servers[si].serve_read(key, ps, now);
                self.obs_rpc(RpcKind::PageIn, ci, si, ps, !srv_hit);
                self.insert_block(ci, key);
                if let Some(san) = self.san.as_deref_mut() {
                    let inserted = self.clients[ci].cache.contains(key);
                    san.on_fetch(op.client, key, inserted, true, now);
                }
            }
        }

        // Fault in initialized data through the file cache (blocks stay
        // cached so a re-run finds clean copies).
        if data_bytes > 0 {
            self.counters(ci).add(raw::PAGING_INITDATA_READ, data_bytes);
            self.cached_read(op, si, exec, code_bytes, data_bytes, true);
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
        if self.files.get(file).is_none() {
            let server = assign_server(file, self.cfg.num_servers);
            self.files.create(file, server, false, self.now);
        }
        let meta = self.files.get_mut(file).expect("backing file exists");
        let si = meta.server.raw() as usize;
        let bs = self.cfg.block_size;
        if read {
            self.fault_rpc(ci, si, RpcKind::PageIn);
            let c = self.counters(ci);
            c.add(raw::PAGING_BACKING_READ, bytes);
            c.add(srv::PAGING_READ, bytes);
            count_rpc(c, RpcKind::PageIn, bytes);
            count_rpc(&mut self.servers[si].counters, RpcKind::PageIn, bytes);
            let mut all_hit = true;
            for index in offset / bs..=(offset + bytes.max(1) - 1) / bs {
                all_hit &= self.servers[si].serve_read(BlockKey { file, index }, bs, self.now);
            }
            self.obs_rpc(RpcKind::PageIn, ci, si, bytes, !all_hit);
        } else {
            let was_empty = meta.size == 0;
            if offset + bytes > meta.size {
                meta.size = offset + bytes;
            }
            meta.note_write(self.now, was_empty);
            self.fault_rpc(ci, si, RpcKind::PageOut);
            let c = self.counters(ci);
            c.add(raw::PAGING_BACKING_WRITE, bytes);
            c.add(srv::PAGING_WRITE, bytes);
            count_rpc(c, RpcKind::PageOut, bytes);
            count_rpc(&mut self.servers[si].counters, RpcKind::PageOut, bytes);
            self.obs_rpc(RpcKind::PageOut, ci, si, bytes, false);
            for index in offset / bs..=(offset + bytes.max(1) - 1) / bs {
                self.servers[si].accept_write(BlockKey { file, index }, bs, self.now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Client data path: block cache, write-back, and invalidation.
    // ------------------------------------------------------------------

    /// Reads `len` bytes at `offset` of `file` (on server `si`) through
    /// the issuing client's block cache. `paging` selects the paging
    /// counter family (code and initialized-data faults).
    fn cached_read(
        &mut self,
        op: &AppOp,
        si: usize,
        file: FileId,
        offset: u64,
        len: u64,
        paging: bool,
    ) {
        let ci = op.client.raw() as usize;
        let now = self.now;
        let bs = self.cfg.block_size;
        let first = offset / bs;
        let last = (offset + len - 1) / bs;
        {
            let c = self.counters(ci);
            if paging {
                c.add(mc::PAGING_READ_OPS, last - first + 1);
                if op.migrated {
                    c.add(mig::PAGING_READ_OPS, last - first + 1);
                }
            } else {
                c.add(mc::READ_OPS, last - first + 1);
                c.add(mc::READ_REQ_BYTES, len);
                if op.migrated {
                    c.add(mig::READ_OPS, last - first + 1);
                    c.add(mig::READ_REQ_BYTES, len);
                }
            }
        }
        for index in first..=last {
            let key = BlockKey { file, index };
            if self.clients[ci].cache.touch(key, now) {
                if let Some(san) = self.san.as_deref_mut() {
                    san.on_read_hit(op.client, key, paging, now);
                }
                self.obs_event(ObsEventKind::CacheHit, ci as u16, si as u16, file.raw());
                continue; // Hit.
            }
            // Miss: fetch the whole block from the server.
            self.fault_rpc(ci, si, RpcKind::ReadBlock);
            {
                let c = self.counters(ci);
                if paging {
                    c.bump(mc::PAGING_READ_MISS_OPS);
                    c.add(srv::PAGING_READ, bs);
                    if op.migrated {
                        c.bump(mig::PAGING_READ_MISS_OPS);
                    }
                } else {
                    c.bump(mc::READ_MISS_OPS);
                    c.add(mc::READ_MISS_BYTES, bs);
                    c.add(srv::FILE_READ, bs);
                    if op.migrated {
                        c.bump(mig::READ_MISS_OPS);
                        c.add(mig::READ_MISS_BYTES, bs);
                    }
                }
                count_rpc(c, RpcKind::ReadBlock, bs);
            }
            let srv_hit = self.servers[si].serve_read(key, bs, now);
            self.obs_event(ObsEventKind::CacheMiss, ci as u16, si as u16, file.raw());
            self.obs_rpc(RpcKind::ReadBlock, ci, si, bs, !srv_hit);
            self.insert_block(ci, key);
            if let Some(san) = self.san.as_deref_mut() {
                let inserted = self.clients[ci].cache.contains(key);
                san.on_fetch(op.client, key, inserted, paging, now);
            }
        }
    }

    /// Writes `len` bytes at `offset` of `file` (on server `si`, `old_size`
    /// bytes long before this write) through the issuing client's cache.
    /// Under polling consistency data also goes to the server immediately
    /// and blocks stay clean (NFS-style write-through).
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
        let bs = self.cfg.block_size;
        let write_through = matches!(self.cfg.consistency, ConsistencyPolicy::Polling { .. });
        let first = offset / bs;
        let last = (offset + len - 1) / bs;
        {
            let c = self.counters(ci);
            c.add(raw::FILE_WRITE, len);
            c.add(mc::WRITE_OPS, last - first + 1);
            c.add(mc::WRITE_BYTES, len);
            if op.migrated {
                c.add(mig::WRITE_OPS, last - first + 1);
            }
        }
        for index in first..=last {
            let key = BlockKey { file, index };
            let block_start = index * bs;
            let block_end = block_start + bs;
            let wstart = offset.max(block_start);
            let wend = (offset + len).min(block_end);
            let app_bytes = wend - wstart;
            let full_block = app_bytes == bs;
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
                    self.fault_rpc(ci, si, RpcKind::ReadBlock);
                    {
                        let c = self.counters(ci);
                        c.bump(mc::WRITE_FETCH_OPS);
                        if op.migrated {
                            c.bump(mig::WRITE_FETCH_OPS);
                        }
                        c.add(srv::FILE_READ, bs);
                        count_rpc(c, RpcKind::ReadBlock, bs);
                    }
                    let srv_hit = self.servers[si].serve_read(key, bs, now);
                    self.obs_rpc(RpcKind::ReadBlock, ci, si, bs, !srv_hit);
                }
                self.insert_block(ci, key);
            } else {
                self.clients[ci].cache.touch(key, now);
            }
            if !self.clients[ci].cache.contains(key) {
                // The VM system holds every physical page and nothing
                // could be evicted: this write goes straight through.
                self.write_block_through(ci, si, key, app_bytes);
                if let Some(san) = self.san.as_deref_mut() {
                    san.on_server_write(key);
                }
            } else if write_through {
                // NFS-style: data goes straight through; the cached copy
                // stays clean, so no cleaning bookkeeping is needed.
                self.write_block_through(ci, si, key, app_bytes);
                if let Some(san) = self.san.as_deref_mut() {
                    san.on_cached_write(op.client, key, WriteKind::Through, now);
                }
            } else {
                self.clients[ci].cache.mark_dirty(key, now, app_bytes);
                if let Some(san) = self.san.as_deref_mut() {
                    san.on_cached_write(op.client, key, WriteKind::Dirty, now);
                }
            }
        }
    }

    /// Sends `app_bytes` of block `key` from client `ci` straight to
    /// server `si`, bypassing the delayed-write path.
    fn write_block_through(&mut self, ci: usize, si: usize, key: BlockKey, app_bytes: u64) {
        self.fault_rpc(ci, si, RpcKind::WriteBlock);
        let c = self.counters(ci);
        c.add(mc::WRITEBACK_BYTES, app_bytes);
        c.add(srv::FILE_WRITE, app_bytes);
        count_rpc(c, RpcKind::WriteBlock, app_bytes);
        self.servers[si].accept_write(key, app_bytes, self.now);
        self.obs_rpc(RpcKind::WriteBlock, ci, si, app_bytes, false);
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
                if self.evict_lru(ci, replace::FILE_BLOCKS, replace::FILE_AGE_US) {
                    // Page reused in place; no memory-manager traffic.
                    self.clients[ci].cache.insert(key, now);
                }
                // If the cache was empty there is nothing to evict and
                // the block simply is not cached.
            }
        }
    }

    /// Evicts client `ci`'s LRU block, writing it back first if dirty.
    /// Returns `false` if the cache was empty.
    fn evict_lru(&mut self, ci: usize, blocks_key: &'static str, age_key: &'static str) -> bool {
        let Some((key, entry)) = self.clients[ci]
            .cache
            .peek_lru()
            .map(|(k, e)| (k, e.clone()))
        else {
            return false;
        };
        if entry.dirty {
            let reason = if blocks_key == replace::VM_BLOCKS {
                CleanReason::Vm
            } else {
                CleanReason::Evict
            };
            self.writeback_block(ci, key, reason);
        }
        let age = self.now.since(entry.last_ref);
        let c = self.counters(ci);
        c.bump(blocks_key);
        c.add(age_key, age.as_micros());
        self.clients[ci].cache.remove(key);
        self.obs_event(ObsEventKind::CacheEvict, ci as u16, 0, age.as_micros());
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
        let any_down = self.server_down.iter().any(|&d| d);
        let any_cut = self.fault.as_ref().is_some_and(|f| f.has_partitions);
        let mut files = std::mem::take(&mut self.daemon_files);
        self.clients[ci]
            .cache
            .files_with_dirty_before_into(cutoff, &mut files);
        for &file in &files {
            if any_down || any_cut {
                let si = assign_server(file, self.cfg.num_servers).raw() as usize;
                // A cut edge queues the write-back just like a down
                // server: the blocks stay dirty until the heal (or until
                // a lapsed lease revokes them).
                let queued = if self.server_down[si] {
                    Some(fault::QUEUED_WRITEBACKS)
                } else if self
                    .fault
                    .as_ref()
                    .is_some_and(|f| f.edge_cut(ci as u16, si))
                {
                    Some(fault::PART_QUEUED_WRITEBACKS)
                } else {
                    None
                };
                if let Some(counter) = queued {
                    self.counters(ci).bump(counter);
                    self.obs_event(
                        ObsEventKind::QueuedWriteBack,
                        ci as u16,
                        si as u16,
                        file.raw(),
                    );
                    continue;
                }
            }
            self.flush_file(ci, file, CleanReason::Delay);
        }
        files.clear();
        self.daemon_files = files;
    }

    /// Writes one dirty block of client `ci` back to its server,
    /// recording the cleaning reason and age.
    fn writeback_block(&mut self, ci: usize, key: BlockKey, reason: CleanReason) {
        let now = self.now;
        let Some(before) = self.clients[ci].cache.clean(key) else {
            return;
        };
        let id = self.clients[ci].id;
        let bs = self.cfg.block_size;
        // A file deleted (or cut short) with dirty data still cached:
        // the write is cancelled.
        let bytes = self
            .files
            .get(key.file)
            .map_or(0, |m| bs.min(m.size.saturating_sub(key.index * bs)));
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
        count_rpc(c, RpcKind::WriteBlock, bytes);
        c.bump(reason.blocks_key());
        c.add(reason.age_key(), now.since(before.last_write).as_micros());
        let si = assign_server(key.file, self.cfg.num_servers).raw() as usize;
        self.fault_rpc(ci, si, RpcKind::WriteBlock);
        self.servers[si].accept_write(key, bytes, now);
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.writeback(now, ci as u16, si as u16, before.dwell(now));
        }
        self.obs_rpc(RpcKind::WriteBlock, ci, si, bytes, false);
        if let Some(san) = self.san.as_deref_mut() {
            san.on_writeback(id, key, true);
        }
    }

    /// Flushes every dirty block client `ci` holds for `file`.
    fn flush_file(&mut self, ci: usize, file: FileId, reason: CleanReason) {
        let mut blocks = std::mem::take(&mut self.clients[ci].scratch_blocks);
        self.clients[ci]
            .cache
            .dirty_blocks_of_into(file, &mut blocks);
        for &index in &blocks {
            self.writeback_block(ci, BlockKey { file, index }, reason);
        }
        self.clients[ci].scratch_blocks = blocks;
    }

    /// Drops every cached block of `file` from client `ci`, releasing
    /// the pages. Dirty data is cancelled (never written). `stale`
    /// selects the staleness counter (consistency invalidation) over
    /// silent dropping.
    fn invalidate_file(&mut self, ci: usize, file: FileId, stale: bool) {
        let client = &mut self.clients[ci];
        let mut indices = std::mem::take(&mut client.scratch_blocks);
        client.cache.blocks_of_into(file, &mut indices);
        let n = indices.len() as u64;
        for &index in &indices {
            let key = BlockKey { file, index };
            if let Some(entry) = client.cache.remove(key) {
                if entry.dirty {
                    client
                        .metrics
                        .counters
                        .add(mc::CANCELLED_BYTES, entry.dirty_app_bytes);
                }
                if let Some(san) = self.san.as_deref_mut() {
                    san.on_drop_block(client.id, key);
                }
            }
        }
        client.scratch_blocks = indices;
        if n == 0 {
            return;
        }
        client.mem.fc_release(n);
        if stale {
            client.metrics.counters.add(consist::STALE_BLOCKS, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn ops_applied_counts() {
        let mut cl = cluster();
        assert_eq!(cl.ops_applied(), 0);
        cl.apply(&op(
            1,
            0,
            OpKind::Create {
                file: FileId(0),
                is_dir: false,
            },
        ));
        assert_eq!(cl.ops_applied(), 1);
    }

    /// Cross-client sequential write sharing: client 1 caches a block,
    /// client 0 rewrites the file, client 1 rereads. Exercises the
    /// version-stamp invalidation and dirty-data recall paths.
    fn sharing_sequence(cl: &mut Cluster<VecSink>) {
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
        // Client 1 reopens and rereads the block it still has cached.
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
        // Fault injection: drop the stale-cache invalidation that Sprite
        // performs on open. The reread then hits the out-of-date cached
        // block, and SpriteSan must report exactly that one stale read.
        let mut cfg = Config::small();
        cfg.sanitize = true;
        cfg.fault_skip_invalidate = true;
        let sink = VecSink::new(cfg.num_servers);
        let mut cl = Cluster::new(cfg, sink);
        sharing_sequence(&mut cl);
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

    #[test]
    fn reboot_client_flushes_then_restarts_cold() {
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
        let lost = cl.reboot_client(ClientId(0));
        assert_eq!(lost, 0, "an orderly reboot loses nothing");
        let c = counters(&cl, 0);
        assert_eq!(c.get(mc::WRITEBACK_BYTES), 10_000, "flushed on the way down");
        assert_eq!(c.get(restart::REBOOT_COUNT), 1);
        assert_eq!(c.get(restart::CRASH_COUNT), 0);
        assert_eq!(c.get(restart::CRASH_LOST_BYTES), 0);
        assert_eq!(cl.clients()[0].cache.len(), 0, "cold cache");
        assert!(cl.clients()[0].fds.is_empty(), "fd table gone");
        assert_eq!(cl.dirty_exposure(ClientId(0)), 0);
    }
}
