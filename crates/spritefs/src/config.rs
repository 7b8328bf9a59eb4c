//! Cluster configuration.
//!
//! Defaults reproduce the measured environment of Section 2: about 40
//! diskless workstations with 24–32 Mbytes of memory, four file servers
//! with the main one holding 128 Mbytes, 4-Kbyte blocks, a 30-second
//! delayed-write policy scanned every 5 seconds, and a 20-minute virtual
//! memory preference window.

use sdfs_simkit::{SimDuration, SimTime};

/// Which cache-consistency mechanism the cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsistencyPolicy {
    /// Sprite's mechanism: version stamps on open, recall of dirty data
    /// from the last writer, and cache disabling during concurrent
    /// write-sharing. A disabled file stays uncacheable until every
    /// client has closed it.
    Sprite,
    /// Like [`ConsistencyPolicy::Sprite`], but a file becomes cacheable
    /// again as soon as enough closes have happened to end the concurrent
    /// write-sharing (the first alternative in Section 5.6).
    SpriteModified,
    /// A token-based scheme in the style of Locus/Echo/DEcorum: a file is
    /// always cacheable somewhere; conflicting opens trigger token
    /// recalls (the second alternative in Section 5.6).
    Token,
    /// NFS-style polling: cached data is trusted for a fixed interval;
    /// writes go through to the server almost immediately; stale reads
    /// are possible (the weak scheme simulated in Section 5.5).
    Polling {
        /// How long cached data is trusted before revalidation, in
        /// seconds (the paper simulates 3 and 60).
        interval_secs: u32,
    },
}

/// Latency model for the network between clients and servers.
///
/// The simulator does not feed latency back into the workload timing (the
/// workload generator owns timestamps), but the constants are used to
/// report latency estimates and mirror the paper's Section 5.3 argument
/// (a 4-Kbyte page fetch takes 6–7 ms over the Ethernet; a local disk
/// takes 20–30 ms).
#[derive(Debug, Clone, Copy)]
pub struct NetModel {
    /// Fixed cost per RPC, in microseconds.
    pub per_rpc_us: u64,
    /// Per-byte transfer cost, in nanoseconds per byte.
    pub per_byte_ns: u64,
}

impl NetModel {
    /// Time to move `bytes` in one RPC.
    pub fn rpc_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_micros(self.per_rpc_us + bytes * self.per_byte_ns / 1000)
    }
}

/// Latency model for a server disk.
#[derive(Debug, Clone, Copy)]
pub struct DiskModel {
    /// Average positioning time per access, in microseconds.
    pub access_us: u64,
    /// Per-byte transfer cost, in nanoseconds per byte.
    pub per_byte_ns: u64,
}

impl DiskModel {
    /// Time to service one access of `bytes`.
    pub fn access_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_micros(self.access_us + bytes * self.per_byte_ns / 1000)
    }
}

/// One scheduled server outage: the server crashes at `at` and reboots
/// `down_for` later. The crash destroys the server's volatile state
/// (block cache, per-client consistency and open bookkeeping); disk
/// contents survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerOutage {
    /// Index of the server that fails (`< num_servers`).
    pub server: u16,
    /// When the crash happens.
    pub at: SimTime,
    /// How long the server stays down before rebooting.
    pub down_for: SimDuration,
}

impl ServerOutage {
    /// When the server reboots and recovery begins.
    pub fn reboot_at(&self) -> SimTime {
        self.at + self.down_for
    }
}

/// One scheduled network partition: a set of client↔server edges is cut
/// at `at` and heals `heal_after` later. Both endpoints stay alive — the
/// server keeps serving reachable clients, the cut clients keep running
/// against their caches — but RPCs on a cut edge time out, and
/// consistency actions (recalls, invalidations) aimed across the cut
/// cannot be delivered until the heal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// When the edges are cut.
    pub at: SimTime,
    /// How long the partition lasts before the network heals.
    pub heal_after: SimDuration,
    /// The `(client, server)` edges cut by this partition.
    pub edges: Vec<(u16, u16)>,
}

impl Partition {
    /// When the partition heals and the cut edges reconnect.
    pub fn heal_at(&self) -> SimTime {
        self.at + self.heal_after
    }
}

/// A deterministic fault-injection plan.
///
/// Everything here is driven by the simulation clock and a seeded
/// [`sdfs_simkit::SimRng`] — never wall-clock time or OS entropy — so a
/// faulted run is exactly as reproducible as a fault-free one. With
/// [`Config::faults`] set to `None` (the default) no fault code runs and
/// the simulation output is byte-identical to a build without this
/// subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Scheduled server crashes and reboots. Outages of the same server
    /// must be chronological and must not overlap.
    pub outages: Vec<ServerOutage>,
    /// Scheduled network partitions (edges cut, both ends alive).
    pub partitions: Vec<Partition>,
    /// Probability that any single client→server RPC transmission is
    /// dropped and must be retransmitted after a timeout. `0.0` disables
    /// the drop machinery (and its RNG draws) entirely.
    pub drop_prob: f64,
    /// Seed for the per-RPC drop RNG.
    pub drop_seed: u64,
    /// How long a client waits for a reply before retransmitting.
    pub rpc_timeout: SimDuration,
    /// Base of the exponential backoff added before retry `k`
    /// (`retry_backoff * 2^k`).
    pub retry_backoff: SimDuration,
    /// Retransmissions attempted before the client declares the server
    /// unreachable and queues the operation for recovery.
    pub max_retries: u32,
    /// Lease TTL for cached-state grants. Every successful RPC on a
    /// client↔server edge implicitly renews the edge's lease; once a
    /// partition has kept the edge silent past the TTL, the server may
    /// unilaterally revoke the client's grants (and the client — whose
    /// clock agrees — discards them). Only consulted while a partition
    /// plan is active.
    pub lease_ttl: SimDuration,
    /// Run the pre-lease conservative recovery protocol instead: the
    /// server keeps state for unreachable clients and, on heal,
    /// re-validates everything with a crash-style Reregister/Reopen
    /// storm. Kept as the comparison baseline for the lease protocol.
    pub conservative_recovery: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            outages: Vec::new(),
            partitions: Vec::new(),
            drop_prob: 0.0,
            drop_seed: 0x5350_5249_5445_4653, // "SPRITEFS"
            rpc_timeout: SimDuration::from_secs(1),
            retry_backoff: SimDuration::from_secs(1),
            max_retries: 5,
            lease_ttl: SimDuration::from_secs(60),
            conservative_recovery: false,
        }
    }
}

impl FaultPlan {
    /// Total time a client spends before giving up on an unreachable
    /// server: every timeout plus the exponential backoff between tries.
    /// This bounds the stall charged to any one RPC during an outage.
    pub fn retry_budget(&self) -> SimDuration {
        let mut budget = SimDuration::ZERO;
        for k in 0..self.max_retries {
            budget += self.rpc_timeout + self.retry_backoff * (1u64 << k.min(16));
        }
        budget
    }

    /// Stall incurred by `retries` retransmissions of one RPC.
    pub fn retry_stall(&self, retries: u32) -> SimDuration {
        let mut stall = SimDuration::ZERO;
        for k in 0..retries.min(self.max_retries) {
            stall += self.rpc_timeout + self.retry_backoff * (1u64 << k.min(16));
        }
        stall
    }
}

/// Full cluster configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// File cache block size in bytes (Sprite used 4 Kbytes).
    pub block_size: u64,
    /// Virtual memory page size in bytes (also 4 Kbytes).
    pub page_size: u64,
    /// Number of diskless client workstations.
    pub num_clients: u16,
    /// Number of file servers.
    pub num_servers: u16,
    /// Physical memory per client, in bytes. Clients alternate between
    /// this and `client_mem_alt_bytes` to model the 24–32 Mbyte mix.
    pub client_mem_bytes: u64,
    /// Alternate client memory size (every third machine).
    pub client_mem_alt_bytes: u64,
    /// Memory reserved for the kernel and other fixed uses per client.
    pub reserved_bytes: u64,
    /// Server cache size in bytes (the main Sun 4 server had 128 Mbytes).
    pub server_cache_bytes: u64,
    /// Age at which dirty data is written back (30 seconds in Sprite).
    pub writeback_delay: SimDuration,
    /// Period of the write-back daemon scan (5 seconds in Sprite).
    pub daemon_period: SimDuration,
    /// How long a VM page must sit unreferenced before the file cache may
    /// claim it (20 minutes in Sprite).
    pub vm_preference_window: SimDuration,
    /// How long code pages of an exited program remain usable by a new
    /// invocation before the memory is reclaimed.
    pub code_retention: SimDuration,
    /// The consistency mechanism in force.
    pub consistency: ConsistencyPolicy,
    /// How often per-client cache sizes are sampled for Table 4.
    pub sample_period: SimDuration,
    /// Network latency model.
    pub net: NetModel,
    /// Server disk latency model.
    pub disk: DiskModel,
    /// Run the SpriteSan shadow-state sanitizer alongside the
    /// simulation. Adds a ground-truth oracle checked on every operation;
    /// results are unchanged (violations are reported out of band).
    pub sanitize: bool,
    /// Run the sdfs-obs self-measurement layer alongside the
    /// simulation: sim-time spans, structured events, and per-RPC-kind
    /// latency histograms. Off by default; when off, output is
    /// byte-identical to builds that predate the layer.
    pub observe: bool,
    /// Capacity of the sdfs-obs structured event ring. Only the newest
    /// `obs_ring_capacity` events are retained; earlier ones are counted
    /// as dropped in the report. Irrelevant unless `observe` is set.
    pub obs_ring_capacity: usize,
    /// Fault injection for sanitizer tests: skip the cache invalidation
    /// that Sprite consistency performs when an open detects a stale
    /// cached version. Never enable outside tests.
    pub fault_skip_invalidate: bool,
    /// Deterministic fault-injection plan (server crash/reboot schedule,
    /// network partitions, and per-RPC message drops). `None` — the
    /// default — runs the cluster fault-free with byte-identical output
    /// to builds that predate the fault subsystem.
    pub faults: Option<FaultPlan>,
    /// Size of a battery-backed (NVRAM) server write buffer, in bytes.
    /// On a crash, the newest-dirty-first `server_nvram_bytes` of
    /// not-yet-on-disk data survive as if flushed — Section 5.4's
    /// proposed fix for delayed-write loss. `0` (the default) disables
    /// the buffer; delayed-write traffic savings are unaffected either
    /// way because the buffer only matters at crash time.
    pub server_nvram_bytes: u64,
    /// Control-plane consistency fast path: epoch-guarded per-file
    /// "calm" summaries let opens and closes of unshared files take an
    /// O(1) decision instead of the full consistency walk. Pure
    /// optimization — every output byte (trace records, counters,
    /// sanitizer verdict, obs report) is identical with it off; the
    /// slow path stays alive as the oracle and `verify.sh` cmp-gates
    /// the two against each other.
    pub consistency_fast_path: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            block_size: 4096,
            page_size: 4096,
            num_clients: 36,
            num_servers: 4,
            client_mem_bytes: 24 << 20,
            client_mem_alt_bytes: 32 << 20,
            reserved_bytes: 6 << 20,
            server_cache_bytes: 128 << 20,
            writeback_delay: SimDuration::from_secs(30),
            daemon_period: SimDuration::from_secs(5),
            vm_preference_window: SimDuration::from_mins(20),
            code_retention: SimDuration::from_mins(180),
            consistency: ConsistencyPolicy::Sprite,
            sample_period: SimDuration::from_secs(60),
            net: NetModel {
                // ~1.5 ms per RPC plus 10 Mbit/s Ethernet ≈ 0.8 µs/byte;
                // yields ~6.5 ms for a 4-Kbyte block, matching Section 5.3.
                per_rpc_us: 1_500,
                per_byte_ns: 1_200,
            },
            disk: DiskModel {
                // 1991-era disk: ~20 ms positioning, ~1.5 Mbyte/s media.
                access_us: 20_000,
                per_byte_ns: 650,
            },
            sanitize: false,
            observe: false,
            obs_ring_capacity: crate::obs::RING_CAPACITY,
            fault_skip_invalidate: false,
            faults: None,
            server_nvram_bytes: 0,
            consistency_fast_path: true,
        }
    }
}

impl Config {
    /// A reduced cluster for unit tests: 4 clients, 1 server, small
    /// memories, same policies.
    pub fn small() -> Self {
        Config {
            num_clients: 4,
            num_servers: 1,
            client_mem_bytes: 2 << 20,
            client_mem_alt_bytes: 2 << 20,
            reserved_bytes: 512 << 10,
            server_cache_bytes: 8 << 20,
            ..Config::default()
        }
    }

    /// Physical memory of client `index`, alternating sizes across the
    /// cluster to model the 24–32 Mbyte machine mix.
    pub fn client_mem(&self, index: u16) -> u64 {
        if index % 3 == 2 {
            self.client_mem_alt_bytes
        } else {
            self.client_mem_bytes
        }
    }

    /// Number of whole blocks in `bytes`.
    pub fn blocks_in(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.block_size)
    }

    /// Validates internal consistency, returning a description of the
    /// first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.block_size == 0 || !self.block_size.is_power_of_two() {
            return Err(format!(
                "block_size {} must be a power of two",
                self.block_size
            ));
        }
        if self.page_size != self.block_size {
            return Err("page_size must equal block_size (pages trade 1:1)".into());
        }
        if self.num_clients == 0 {
            return Err("need at least one client".into());
        }
        if self.num_servers == 0 {
            return Err("need at least one server".into());
        }
        if self.reserved_bytes >= self.client_mem_bytes
            || self.reserved_bytes >= self.client_mem_alt_bytes
        {
            return Err("reserved_bytes exceeds client memory".into());
        }
        if self.daemon_period > self.writeback_delay {
            return Err("daemon_period should not exceed writeback_delay".into());
        }
        if let Some(plan) = &self.faults {
            if !(0.0..1.0).contains(&plan.drop_prob) {
                return Err(format!("drop_prob {} must be in [0, 1)", plan.drop_prob));
            }
            if plan.drop_prob > 0.0 && plan.max_retries == 0 {
                return Err("drop_prob > 0 requires max_retries >= 1".into());
            }
            // Outages of one server must be listed chronologically and
            // must not overlap: the fault scheduler fires them in plan
            // order, so an out-of-order (or overlapping) pair would make
            // behavior depend on event order rather than the plan.
            let mut last_window: Vec<Option<(SimTime, SimTime)>> =
                vec![None; self.num_servers as usize];
            for o in &plan.outages {
                if o.server >= self.num_servers {
                    return Err(format!(
                        "outage targets server {} of {}",
                        o.server, self.num_servers
                    ));
                }
                if o.down_for == SimDuration::ZERO {
                    return Err("outage down_for must be nonzero".into());
                }
                let slot = &mut last_window[o.server as usize];
                if let Some((prev_at, prev_end)) = *slot {
                    if o.at < prev_at {
                        return Err(format!(
                            "server {} outages out of order: {} listed after {}",
                            o.server, o.at, prev_at
                        ));
                    }
                    if o.at < prev_end {
                        return Err(format!("server {} has overlapping outages", o.server));
                    }
                }
                *slot = Some((o.at, o.reboot_at()));
            }
            for p in &plan.partitions {
                if p.heal_after == SimDuration::ZERO {
                    return Err("partition heal_after must be nonzero".into());
                }
                if p.edges.is_empty() {
                    return Err("partition cuts no edges".into());
                }
                for &(c, s) in &p.edges {
                    if c >= self.num_clients {
                        return Err(format!(
                            "partition cuts client {} of {}",
                            c, self.num_clients
                        ));
                    }
                    if s >= self.num_servers {
                        return Err(format!(
                            "partition cuts server {} of {}",
                            s, self.num_servers
                        ));
                    }
                }
            }
            if !plan.partitions.is_empty() && plan.lease_ttl == SimDuration::ZERO {
                return Err("partitions require a nonzero lease_ttl".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        Config::default().validate().expect("default config valid");
        Config::small().validate().expect("small config valid");
    }

    #[test]
    fn defaults_match_paper() {
        let c = Config::default();
        assert_eq!(c.block_size, 4096);
        assert_eq!(c.writeback_delay, SimDuration::from_secs(30));
        assert_eq!(c.daemon_period, SimDuration::from_secs(5));
        assert_eq!(c.vm_preference_window, SimDuration::from_mins(20));
        assert_eq!(c.server_cache_bytes, 128 << 20);
        assert_eq!(c.consistency, ConsistencyPolicy::Sprite);
    }

    #[test]
    fn memory_mix() {
        let c = Config::default();
        assert_eq!(c.client_mem(0), 24 << 20);
        assert_eq!(c.client_mem(1), 24 << 20);
        assert_eq!(c.client_mem(2), 32 << 20);
    }

    #[test]
    fn block_math() {
        let c = Config::default();
        assert_eq!(c.blocks_in(0), 0);
        assert_eq!(c.blocks_in(1), 1);
        assert_eq!(c.blocks_in(4096), 1);
        assert_eq!(c.blocks_in(4097), 2);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = Config {
            block_size: 1000,
            ..Config::default()
        };
        assert!(c.validate().is_err());

        let c = Config {
            num_clients: 0,
            ..Config::default()
        };
        assert!(c.validate().is_err());

        let c = Config {
            reserved_bytes: Config::default().client_mem_bytes,
            ..Config::default()
        };
        assert!(c.validate().is_err());

        let c = Config {
            daemon_period: SimDuration::from_secs(60),
            ..Config::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn fault_plan_validation() {
        let outage = |server, at, down| ServerOutage {
            server,
            at: SimTime::from_secs(at),
            down_for: SimDuration::from_secs(down),
        };
        // A sane plan validates.
        let c = Config {
            faults: Some(FaultPlan {
                outages: vec![outage(0, 100, 60), outage(0, 300, 60), outage(3, 120, 30)],
                drop_prob: 0.01,
                ..FaultPlan::default()
            }),
            ..Config::default()
        };
        c.validate().expect("plan valid");

        // Out-of-range server.
        let c = Config {
            faults: Some(FaultPlan {
                outages: vec![outage(4, 100, 60)],
                ..FaultPlan::default()
            }),
            ..Config::default()
        };
        assert!(c.validate().is_err());

        // Overlapping outages of one server.
        let c = Config {
            faults: Some(FaultPlan {
                outages: vec![outage(1, 100, 60), outage(1, 130, 10)],
                ..FaultPlan::default()
            }),
            ..Config::default()
        };
        assert!(c.validate().is_err());

        // Out-of-order outages of one server: non-overlapping, but the
        // later window is listed first. Previously accepted silently.
        let c = Config {
            faults: Some(FaultPlan {
                outages: vec![outage(1, 300, 60), outage(1, 100, 60)],
                ..FaultPlan::default()
            }),
            ..Config::default()
        };
        let err = c.validate().expect_err("out-of-order outages rejected");
        assert!(err.contains("out of order"), "{err}");

        // Back-to-back windows (reboot exactly at the next crash) are fine.
        let c = Config {
            faults: Some(FaultPlan {
                outages: vec![outage(1, 100, 60), outage(1, 160, 60)],
                ..FaultPlan::default()
            }),
            ..Config::default()
        };
        c.validate().expect("touching windows valid");

        // Bad drop probability.
        let c = Config {
            faults: Some(FaultPlan {
                drop_prob: 1.5,
                ..FaultPlan::default()
            }),
            ..Config::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn partition_plan_validation() {
        let part = |at, heal, edges: Vec<(u16, u16)>| Partition {
            at: SimTime::from_secs(at),
            heal_after: SimDuration::from_secs(heal),
            edges,
        };
        // A sane partition plan validates.
        let c = Config {
            faults: Some(FaultPlan {
                partitions: vec![part(100, 300, vec![(0, 0), (5, 1)])],
                ..FaultPlan::default()
            }),
            ..Config::default()
        };
        c.validate().expect("partition plan valid");

        // Edge endpoints out of range.
        for bad in [vec![(99, 0)], vec![(0, 9)]] {
            let c = Config {
                faults: Some(FaultPlan {
                    partitions: vec![part(100, 300, bad)],
                    ..FaultPlan::default()
                }),
                ..Config::default()
            };
            assert!(c.validate().is_err());
        }

        // Zero-length partitions and empty edge sets are rejected.
        let c = Config {
            faults: Some(FaultPlan {
                partitions: vec![part(100, 0, vec![(0, 0)])],
                ..FaultPlan::default()
            }),
            ..Config::default()
        };
        assert!(c.validate().is_err());
        let c = Config {
            faults: Some(FaultPlan {
                partitions: vec![part(100, 300, vec![])],
                ..FaultPlan::default()
            }),
            ..Config::default()
        };
        assert!(c.validate().is_err());

        // Partitions demand a usable lease TTL.
        let c = Config {
            faults: Some(FaultPlan {
                partitions: vec![part(100, 300, vec![(0, 0)])],
                lease_ttl: SimDuration::ZERO,
                ..FaultPlan::default()
            }),
            ..Config::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn retry_budget_is_monotone_and_bounds_stall() {
        let plan = FaultPlan::default();
        let mut prev = SimDuration::ZERO;
        for k in 0..=plan.max_retries {
            let s = plan.retry_stall(k);
            assert!(s >= prev, "stall not monotone at retry {k}");
            prev = s;
        }
        assert_eq!(plan.retry_stall(plan.max_retries), plan.retry_budget());
        // Asking past the cap clamps to the budget.
        assert_eq!(plan.retry_stall(plan.max_retries + 7), plan.retry_budget());
    }

    #[test]
    fn latency_models() {
        let c = Config::default();
        let fetch = c.net.rpc_time(4096);
        // Section 5.3: a 4-Kbyte page fetch takes about 6 to 7 ms.
        let ms = fetch.as_secs_f64() * 1e3;
        assert!((6.0..7.5).contains(&ms), "block fetch {ms} ms");
        let disk = c.disk.access_time(4096);
        let dms = disk.as_secs_f64() * 1e3;
        assert!((20.0..30.0).contains(&dms), "disk access {dms} ms");
    }
}
