//! Counter vocabulary and per-machine metric state.
//!
//! The measured system kept ~50 kernel counters per machine, sampled for
//! two weeks by a user-level daemon. This module fixes the counter *names*
//! (so the analysis crate and the simulator cannot drift apart) and holds
//! the per-client metric state: a [`CounterSet`] plus the periodic cache
//! size samples behind Table 4.

use sdfs_simkit::{CounterSet, SimTime};

/// Counter names for raw (pre-cache) traffic presented by applications to
/// the client operating system — the measurement point of Table 5.
pub mod raw {
    /// Cacheable file bytes read by applications.
    pub const FILE_READ: &str = "raw.file.read.bytes";
    /// Cacheable file bytes written by applications.
    pub const FILE_WRITE: &str = "raw.file.write.bytes";
    /// Code-page bytes faulted from executables.
    pub const PAGING_CODE_READ: &str = "raw.paging.code.read.bytes";
    /// Initialized-data bytes faulted from executables.
    pub const PAGING_INITDATA_READ: &str = "raw.paging.initdata.read.bytes";
    /// Bytes paged in from backing files (uncacheable on clients).
    pub const PAGING_BACKING_READ: &str = "raw.paging.backing.read.bytes";
    /// Bytes paged out to backing files.
    pub const PAGING_BACKING_WRITE: &str = "raw.paging.backing.write.bytes";
    /// Pass-through reads on write-shared files.
    pub const SHARED_READ: &str = "raw.shared.read.bytes";
    /// Pass-through writes on write-shared files.
    pub const SHARED_WRITE: &str = "raw.shared.write.bytes";
    /// Directory bytes read (directories are not cached on clients).
    pub const DIR_READ: &str = "raw.dir.read.bytes";
}

/// Counter names for client cache effectiveness — the measurement point
/// of Table 6.
pub mod cache {
    /// Block-granularity cache read operations.
    pub const READ_OPS: &str = "cache.read.ops";
    /// Cache read operations that missed.
    pub const READ_MISS_OPS: &str = "cache.read.miss.ops";
    /// Application bytes requested through the cache.
    pub const READ_REQ_BYTES: &str = "cache.read.req.bytes";
    /// Bytes fetched from the server to satisfy read misses.
    pub const READ_MISS_BYTES: &str = "cache.read.miss.bytes";
    /// Block-granularity cache write operations.
    pub const WRITE_OPS: &str = "cache.write.ops";
    /// Application bytes written into the cache.
    pub const WRITE_BYTES: &str = "cache.write.bytes";
    /// Cache writes that required fetching the block first (partial
    /// write of a non-resident block).
    pub const WRITE_FETCH_OPS: &str = "cache.write.fetch.ops";
    /// Bytes written back to the server. Each cleaned block is sent
    /// whole up to end of file, never past it, so bytes the application
    /// did not rewrite in that dirty episode go again — why the paper's
    /// write-back ratio can exceed 100%.
    pub const WRITEBACK_BYTES: &str = "cache.writeback.bytes";
    /// Dirty bytes discarded before write-back (deleted/truncated data).
    pub const CANCELLED_BYTES: &str = "cache.cancelled.bytes";
    /// Paging (code + initialized data) cache read operations.
    pub const PAGING_READ_OPS: &str = "cache.paging.read.ops";
    /// Paging cache read operations that missed.
    pub const PAGING_READ_MISS_OPS: &str = "cache.paging.read.miss.ops";
}

/// Migrated-process variants of the Table 6 counters (the paper's
/// "Client Migrated" column).
pub mod mig {
    /// Cache read operations from migrated processes.
    pub const READ_OPS: &str = "mig.cache.read.ops";
    /// Missed cache reads from migrated processes.
    pub const READ_MISS_OPS: &str = "mig.cache.read.miss.ops";
    /// Application bytes requested by migrated processes.
    pub const READ_REQ_BYTES: &str = "mig.cache.read.req.bytes";
    /// Miss bytes fetched for migrated processes.
    pub const READ_MISS_BYTES: &str = "mig.cache.read.miss.bytes";
    /// Write fetches from migrated processes.
    pub const WRITE_FETCH_OPS: &str = "mig.cache.write.fetch.ops";
    /// Cache write operations from migrated processes.
    pub const WRITE_OPS: &str = "mig.cache.write.ops";
    /// Paging reads from migrated processes.
    pub const PAGING_READ_OPS: &str = "mig.cache.paging.read.ops";
    /// Missed paging reads from migrated processes.
    pub const PAGING_READ_MISS_OPS: &str = "mig.cache.paging.read.miss.ops";
}

/// Counter names for traffic actually sent from this client to servers —
/// the measurement point of Table 7.
pub mod srv {
    /// File bytes fetched from servers (read misses + write fetches).
    pub const FILE_READ: &str = "srv.file.read.bytes";
    /// File bytes written back to servers.
    pub const FILE_WRITE: &str = "srv.file.write.bytes";
    /// Paging bytes read from servers (code/init-data misses + backing
    /// page-ins).
    pub const PAGING_READ: &str = "srv.paging.read.bytes";
    /// Paging bytes written to servers (backing page-outs).
    pub const PAGING_WRITE: &str = "srv.paging.write.bytes";
    /// Write-shared pass-through read bytes.
    pub const SHARED_READ: &str = "srv.shared.read.bytes";
    /// Write-shared pass-through write bytes.
    pub const SHARED_WRITE: &str = "srv.shared.write.bytes";
    /// Directory bytes read from servers.
    pub const DIR_READ: &str = "srv.dir.read.bytes";
    /// The prefix every name above shares: summing it gives a client's
    /// total server traffic.
    pub const PREFIX: &str = "srv.";
}

/// Counter names kept by each file server for its own cache and disk.
pub mod server {
    /// Block bytes served to client reads.
    pub const READ_BYTES: &str = "server.read.bytes";
    /// Client block reads that hit in the server cache.
    pub const CACHE_READ_HIT: &str = "server.cache.read.hit";
    /// Client block reads that missed the server cache.
    pub const CACHE_READ_MISS: &str = "server.cache.read.miss";
    /// Bytes read from disk to fill server-cache misses.
    pub const DISK_READ_BYTES: &str = "server.disk.read.bytes";
    /// Block bytes written back by clients into the server cache.
    pub const WRITE_BYTES: &str = "server.write.bytes";
    /// Dirty server-cache bytes written to disk (delayed write or
    /// eviction).
    pub const DISK_WRITE_BYTES: &str = "server.disk.write.bytes";
    /// Blocks evicted from the server cache.
    pub const CACHE_EVICTIONS: &str = "server.cache.evictions";
}

/// Counter names for cache block replacement — Table 8.
pub mod replace {
    /// Blocks replaced to hold another file block.
    pub const FILE_BLOCKS: &str = "replace.file.blocks";
    /// Blocks whose page was handed to the virtual memory system.
    pub const VM_BLOCKS: &str = "replace.vm.blocks";
    /// Sum of (now − last reference) in microseconds for file
    /// replacements.
    pub const FILE_AGE_US: &str = "replace.file.age_us";
    /// Sum of replacement ages for VM handoffs.
    pub const VM_AGE_US: &str = "replace.vm.age_us";
}

/// Counter names for dirty-block cleaning — Table 9.
pub mod clean {
    /// Blocks cleaned by the 30-second delayed-write policy.
    pub const DELAY_BLOCKS: &str = "clean.delay.blocks";
    /// Blocks cleaned because an application called `fsync`.
    pub const FSYNC_BLOCKS: &str = "clean.fsync.blocks";
    /// Blocks cleaned because the server recalled them for another
    /// client's access.
    pub const RECALL_BLOCKS: &str = "clean.recall.blocks";
    /// Blocks cleaned because their page was given to the VM system.
    pub const VM_BLOCKS: &str = "clean.vm.blocks";
    /// Blocks cleaned by LRU eviction while still dirty (rare).
    pub const EVICT_BLOCKS: &str = "clean.evict.blocks";
    /// Age sums (microseconds since last write) for each reason.
    pub const DELAY_AGE_US: &str = "clean.delay.age_us";
    /// Age sum for fsync cleanings.
    pub const FSYNC_AGE_US: &str = "clean.fsync.age_us";
    /// Age sum for recall cleanings.
    pub const RECALL_AGE_US: &str = "clean.recall.age_us";
    /// Age sum for VM handoff cleanings.
    pub const VM_AGE_US: &str = "clean.vm.age_us";
    /// Age sum for dirty LRU evictions.
    pub const EVICT_AGE_US: &str = "clean.evict.age_us";
}

/// Counter names for consistency actions — Table 10 and the polling
/// ablation.
pub mod consist {
    /// File opens (the denominator of Table 10).
    pub const FILE_OPENS: &str = "consist.file.opens";
    /// Opens under concurrent write-sharing.
    pub const CWS_OPENS: &str = "consist.cws.opens";
    /// Opens that required the server to recall dirty data.
    pub const RECALL_OPENS: &str = "consist.recall.opens";
    /// Cached blocks invalidated as stale at open time.
    pub const STALE_BLOCKS: &str = "consist.stale.blocks";
    /// Reads that returned stale data (polling mode only).
    pub const STALE_READ_OPS: &str = "consist.stale.read.ops";
    /// Stale bytes served (polling mode only).
    pub const STALE_READ_BYTES: &str = "consist.stale.read.bytes";
}

/// Counter names for the fault-injection and recovery subsystem — the
/// availability study (server crashes, degraded operation, and the
/// Sprite-style recovery storm).
pub mod fault {
    /// Microseconds of client stall attributed to RPC timeouts/retries.
    pub const STALL_US: &str = "fault.stall.us";
    /// RPCs that stalled because the target server was down.
    pub const STALLED_RPCS: &str = "fault.stalled.rpcs";
    /// Retransmitted messages caused by seeded message drops.
    pub const RETRANS_MSGS: &str = "fault.retrans.msgs";
    /// RPCs abandoned after exhausting the retry budget.
    pub const FAILED_RPCS: &str = "fault.failed.rpcs";
    /// Write-backs the daemon deferred because the file's server was down.
    pub const QUEUED_WRITEBACKS: &str = "fault.queued.writebacks";
    /// Server crash events (counted on the server).
    pub const SRV_CRASHES: &str = "fault.server.crashes";
    /// Server reboot/recovery events (counted on the server).
    pub const SRV_RECOVERIES: &str = "fault.server.recoveries";
    /// Dirty server-cache bytes destroyed by a crash before reaching disk.
    pub const SRV_LOST_BYTES: &str = "fault.server.lost.bytes";
    /// Microseconds of server unavailability (crash to reboot).
    pub const SRV_UNAVAIL_US: &str = "fault.server.unavail.us";
    /// Recovery-storm RPCs (re-registrations + reopens) at reboot.
    pub const STORM_RPCS: &str = "fault.recovery.storm.rpcs";
    /// Client reopen RPCs issued during recovery storms.
    pub const STORM_REOPENS: &str = "fault.recovery.reopen.rpcs";
    /// Client re-registration RPCs issued during recovery storms.
    pub const STORM_REREGISTERS: &str = "fault.recovery.reregister.rpcs";
    /// RPCs that stalled because the client↔server edge was cut by a
    /// network partition (the server itself was up).
    pub const PART_STALLED_RPCS: &str = "fault.partition.stalled.rpcs";
    /// Microseconds of client stall attributed to cut edges.
    pub const PART_STALL_US: &str = "fault.partition.stall.us";
    /// RPCs abandoned on a cut edge after exhausting the retry budget.
    pub const PART_FAILED_RPCS: &str = "fault.partition.failed.rpcs";
    /// Write-backs the daemon deferred because the edge was cut.
    pub const PART_QUEUED_WRITEBACKS: &str = "fault.partition.queued.writebacks";
    /// Edge-cut events (counted on the server end of each cut edge).
    pub const PART_CUT_EDGES: &str = "fault.partition.cut.edges";
    /// Microseconds of cut-edge unavailability, summed over edges
    /// (counted on the server at heal time).
    pub const PART_CUT_US: &str = "fault.partition.cut.us";
    /// Consistency actions (recalls, invalidations, token recalls) the
    /// server could not deliver across a cut edge.
    pub const PART_UNDELIVERED: &str = "fault.partition.undelivered";
    /// Grants the server unilaterally revoked after a client's lease
    /// lapsed during a partition (one per file per client).
    pub const LEASE_EXPIRY_RECALLS: &str = "fault.lease.expiry.recalls";
    /// Dirty client bytes discarded when a lapsed lease revoked the
    /// writer's grant (the partition-era analogue of crash loss).
    pub const LEASE_LOST_BYTES: &str = "fault.lease.lost.bytes";
    /// Microseconds openers spent waiting for an unreachable holder's
    /// lease to lapse before the server could revoke and proceed.
    pub const LEASE_WAIT_US: &str = "fault.lease.wait.us";
    /// Total RPCs in heal storms (lease renews + reasserts under the
    /// lease protocol; reregisters + reopens under the conservative
    /// baseline). Counted on the server.
    pub const HEAL_STORM_RPCS: &str = "fault.heal.storm.rpcs";
    /// Lease-renew RPCs issued when a partition healed.
    pub const HEAL_RENEWALS: &str = "fault.heal.renew.rpcs";
    /// Reassert RPCs issued at heal for revoked grants.
    pub const HEAL_REASSERTS: &str = "fault.heal.reassert.rpcs";
    /// Conservative-baseline reregister RPCs issued at heal.
    pub const HEAL_REREGISTERS: &str = "fault.heal.reregister.rpcs";
    /// Conservative-baseline reopen RPCs issued at heal.
    pub const HEAL_REOPENS: &str = "fault.heal.reopen.rpcs";
    /// Dirty server-cache bytes the battery-backed NVRAM buffer carried
    /// across a crash (they reach disk at reboot instead of vanishing).
    pub const NVRAM_SAVED_BYTES: &str = "fault.nvram.saved.bytes";
}

/// Counter name for opens of files the workload never created.
pub mod implicit {
    /// Opens of an unknown file, which the simulator treats as creating
    /// it (the workload should always create first).
    pub const CREATES: &str = "implicit.creates";
}

/// Counter names for client crashes.
pub mod restart {
    /// Dirty client-cache bytes destroyed by a client crash.
    pub const CRASH_LOST_BYTES: &str = "crash.lost.bytes";
    /// Client crash events.
    pub const CRASH_COUNT: &str = "crash.count";
}

/// Self-measurement bookkeeping names used by the sdfs-obs layer.
///
/// Like the sanitizer, obs state is kept out of the per-machine
/// [`sdfs_simkit::CounterSet`]s so an observed run stays byte-identical
/// to a plain one; these names key the obs report's rendered summary and
/// JSON export instead.
pub mod obs {
    /// Closed file-open spans (open → close of one handle).
    pub const SPAN_FILE_OPEN: &str = "obs.span.file.open";
    /// Closed RPC-stall spans (client blocked on a down server).
    pub const SPAN_STALL: &str = "obs.span.stall";
    /// Closed server-outage spans (crash → recovery).
    pub const SPAN_SERVER_OUTAGE: &str = "obs.span.server.outage";
    /// Closed recovery-storm spans (reregister/reopen burst).
    pub const SPAN_RECOVERY_STORM: &str = "obs.span.recovery.storm";
    /// RPC latency samples recorded across all kinds.
    pub const RPC_SAMPLES: &str = "obs.rpc.latency.samples";
    /// Retry/backoff wait samples.
    pub const RETRY_SAMPLES: &str = "obs.retry.wait.samples";
    /// Write-back queue dwell samples.
    pub const DWELL_SAMPLES: &str = "obs.writeback.dwell.samples";
    /// Recovery-storm reopen latency samples.
    pub const REOPEN_SAMPLES: &str = "obs.reopen.latency.samples";
    /// RPCs that exhausted their retry budget, totalled across kinds
    /// (the per-kind breakdown lives in the obs report).
    pub const EXHAUSTED_RPCS: &str = "obs.retry.exhausted.rpcs";
}

/// The sanitizer section: SpriteSan's verdict for one cluster run.
///
/// Kept out of [`sdfs_simkit::CounterSet`] on purpose — sanitizer
/// bookkeeping must never perturb the counters behind the published
/// tables, so a sanitized run stays byte-identical to a plain one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SanitizerStats {
    /// Checks performed (hooks fired), for "did it actually run".
    pub ops_checked: u64,
    /// Reads that observed stale data under a strong policy.
    pub stale_reads: u64,
    /// Blocks found dirty on two clients at once.
    pub multi_dirty: u64,
    /// Blocks still dirty past the delay-plus-scan write-back window.
    pub writeback_window: u64,
    /// LRU / dirty-index / page-grant conservation failures.
    pub accounting: u64,
    /// Human-readable description of the first violation seen.
    pub first_violation: Option<String>,
}

impl SanitizerStats {
    /// Total violations across all invariants.
    pub fn violations(&self) -> u64 {
        self.stale_reads + self.multi_dirty + self.writeback_window + self.accounting
    }

    /// `true` when every check passed.
    pub fn is_clean(&self) -> bool {
        self.violations() == 0
    }

    /// Folds another run's verdict into this one (campaigns run many
    /// clusters).
    pub fn merge(&mut self, other: &SanitizerStats) {
        self.ops_checked += other.ops_checked;
        self.stale_reads += other.stale_reads;
        self.multi_dirty += other.multi_dirty;
        self.writeback_window += other.writeback_window;
        self.accounting += other.accounting;
        if self.first_violation.is_none() {
            self.first_violation = other.first_violation.clone();
        }
    }

    /// One-line summary for reports.
    pub fn render(&self) -> String {
        if self.is_clean() {
            format!("sanitizer: clean ({} checks)", self.ops_checked)
        } else {
            format!(
                "sanitizer: {} violation(s) in {} checks \
                 (stale reads {}, multi-dirty {}, write-back window {}, accounting {}){}",
                self.violations(),
                self.ops_checked,
                self.stale_reads,
                self.multi_dirty,
                self.writeback_window,
                self.accounting,
                self.first_violation
                    .as_deref()
                    .map(|d| format!("\n  first: {d}"))
                    .unwrap_or_default(),
            )
        }
    }
}

/// One periodic observation of a client's cache size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeSample {
    /// When the sample was taken.
    pub time: SimTime,
    /// File cache size in bytes.
    pub bytes: u64,
    /// Whether the machine saw user activity during the preceding sample
    /// period (Table 4 screens idle intervals out).
    pub active: bool,
}

/// Metric state for one machine.
#[derive(Debug, Default)]
pub struct MachineMetrics {
    /// The kernel counters.
    pub counters: CounterSet,
    /// Periodic cache-size samples.
    pub samples: Vec<SizeSample>,
}

impl MachineMetrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        MachineMetrics::default()
    }

    /// Records a cache-size sample.
    pub fn sample(&mut self, time: SimTime, bytes: u64, active: bool) {
        self.samples.push(SizeSample {
            time,
            bytes,
            active,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling() {
        let mut m = MachineMetrics::new();
        m.sample(SimTime::from_secs(60), 7 << 20, true);
        m.sample(SimTime::from_secs(120), 8 << 20, false);
        assert_eq!(m.samples.len(), 2);
        assert_eq!(m.samples[0].bytes, 7 << 20);
        assert!(!m.samples[1].active);
    }

    /// Every name constant this module exports, plus the per-kind RPC
    /// counter keys derived in `rpc.rs` — the full key vocabulary that
    /// can ever land in a machine's flat sorted counter vec.
    fn all_counter_names() -> Vec<&'static str> {
        let mut names = vec![
            raw::FILE_READ,
            raw::FILE_WRITE,
            raw::PAGING_CODE_READ,
            raw::PAGING_INITDATA_READ,
            raw::PAGING_BACKING_READ,
            raw::PAGING_BACKING_WRITE,
            raw::SHARED_READ,
            raw::SHARED_WRITE,
            raw::DIR_READ,
            cache::READ_OPS,
            cache::READ_MISS_OPS,
            cache::READ_REQ_BYTES,
            cache::READ_MISS_BYTES,
            cache::WRITE_OPS,
            cache::WRITE_BYTES,
            cache::WRITE_FETCH_OPS,
            cache::WRITEBACK_BYTES,
            cache::CANCELLED_BYTES,
            cache::PAGING_READ_OPS,
            cache::PAGING_READ_MISS_OPS,
            mig::READ_OPS,
            mig::READ_MISS_OPS,
            mig::READ_REQ_BYTES,
            mig::READ_MISS_BYTES,
            mig::WRITE_FETCH_OPS,
            mig::WRITE_OPS,
            mig::PAGING_READ_OPS,
            mig::PAGING_READ_MISS_OPS,
            srv::FILE_READ,
            srv::FILE_WRITE,
            srv::PAGING_READ,
            srv::PAGING_WRITE,
            srv::SHARED_READ,
            srv::SHARED_WRITE,
            srv::DIR_READ,
            server::READ_BYTES,
            server::CACHE_READ_HIT,
            server::CACHE_READ_MISS,
            server::DISK_READ_BYTES,
            server::WRITE_BYTES,
            server::DISK_WRITE_BYTES,
            server::CACHE_EVICTIONS,
            replace::FILE_BLOCKS,
            replace::VM_BLOCKS,
            replace::FILE_AGE_US,
            replace::VM_AGE_US,
            clean::DELAY_BLOCKS,
            clean::FSYNC_BLOCKS,
            clean::RECALL_BLOCKS,
            clean::VM_BLOCKS,
            clean::EVICT_BLOCKS,
            clean::DELAY_AGE_US,
            clean::FSYNC_AGE_US,
            clean::RECALL_AGE_US,
            clean::VM_AGE_US,
            clean::EVICT_AGE_US,
            consist::FILE_OPENS,
            consist::CWS_OPENS,
            consist::RECALL_OPENS,
            consist::STALE_BLOCKS,
            consist::STALE_READ_OPS,
            consist::STALE_READ_BYTES,
            fault::STALL_US,
            fault::STALLED_RPCS,
            fault::RETRANS_MSGS,
            fault::FAILED_RPCS,
            fault::QUEUED_WRITEBACKS,
            fault::SRV_CRASHES,
            fault::SRV_RECOVERIES,
            fault::SRV_LOST_BYTES,
            fault::SRV_UNAVAIL_US,
            fault::STORM_RPCS,
            fault::STORM_REOPENS,
            fault::STORM_REREGISTERS,
            fault::PART_STALLED_RPCS,
            fault::PART_STALL_US,
            fault::PART_FAILED_RPCS,
            fault::PART_QUEUED_WRITEBACKS,
            fault::PART_CUT_EDGES,
            fault::PART_CUT_US,
            fault::PART_UNDELIVERED,
            fault::LEASE_EXPIRY_RECALLS,
            fault::LEASE_LOST_BYTES,
            fault::LEASE_WAIT_US,
            fault::HEAL_STORM_RPCS,
            fault::HEAL_RENEWALS,
            fault::HEAL_REASSERTS,
            fault::HEAL_REREGISTERS,
            fault::HEAL_REOPENS,
            fault::NVRAM_SAVED_BYTES,
            implicit::CREATES,
            restart::CRASH_LOST_BYTES,
            restart::CRASH_COUNT,
            obs::SPAN_FILE_OPEN,
            obs::SPAN_STALL,
            obs::SPAN_SERVER_OUTAGE,
            obs::SPAN_RECOVERY_STORM,
            obs::RPC_SAMPLES,
            obs::RETRY_SAMPLES,
            obs::DWELL_SAMPLES,
            obs::REOPEN_SAMPLES,
            obs::EXHAUSTED_RPCS,
        ];
        for k in crate::rpc::RpcKind::ALL {
            names.push(k.msgs_key());
            names.push(k.bytes_key());
        }
        names
    }

    /// The counter-name grammar: dot-separated lowercase segments, with
    /// underscores allowed inside a segment (`clean.delay.age_us`,
    /// `rpc.read_block.msgs`). Formally `[a-z0-9]+([._][a-z0-9]+)*` —
    /// no empty segments, no leading/trailing/doubled separators, no
    /// uppercase, whitespace, or other punctuation.
    fn well_formed(name: &str) -> bool {
        let mut after_sep = true;
        for c in name.chars() {
            match c {
                'a'..='z' | '0'..='9' => after_sep = false,
                '.' | '_' => {
                    if after_sep {
                        return false;
                    }
                    after_sep = true;
                }
                _ => return false,
            }
        }
        !after_sep && !name.is_empty()
    }

    #[test]
    fn counter_names_are_unique() {
        use sdfs_simkit::FastSet;
        let names = all_counter_names();
        let mut set: FastSet<&str> = FastSet::default();
        for n in &names {
            assert!(set.insert(n), "duplicate counter name {n:?}");
        }
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn counter_names_follow_grammar() {
        for n in all_counter_names() {
            assert!(well_formed(n), "counter name {n:?} breaks the grammar");
        }
        // The checker itself rejects the shapes the grammar forbids.
        for bad in [
            "", ".", "a.", ".a", "a..b", "a._b", "A.b", "a b", "a-b", "a.B", "_a", "a_",
        ] {
            assert!(!well_formed(bad), "{bad:?} should be rejected");
        }
        for good in ["a", "a.b", "clean.delay.age_us", "rpc.read_block.msgs"] {
            assert!(well_formed(good), "{good:?} should be accepted");
        }
    }
}
