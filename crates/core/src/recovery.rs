//! Availability under server failure: the crash/recovery study.
//!
//! The paper's Sprite cluster ran diskless clients against a handful of
//! file servers; when a server crashed, its volatile state (cache and
//! per-client consistency records) was gone but its disk survived, and
//! the Sprite recovery protocol had every client re-register its open
//! files with the reborn server — a burst of traffic proportional to
//! the amount of distributed state ("recovery storm"). This module
//! measures that behaviour on the simulated cluster with a
//! deterministic [`FaultPlan`]: unavailability seconds, data destroyed
//! at the crash, degraded-mode stalls and queued write-backs, and the
//! size of the storm versus cluster size and write-back delay.

use sdfs_simkit::{SimDuration, SimTime};
use sdfs_spritefs::metrics::fault;
use sdfs_spritefs::{FaultPlan, ObsReport, Partition, SanitizerStats, ServerOutage};

use crate::study::{simulate_day, DayTotals, StudyConfig};

/// The canned mid-day outage used by `repro faults` and the scorecard:
/// server 0 (the hot server, holding ~70% of files) crashes at 1 PM —
/// the heart of the diurnal activity peak, when open files and dirty
/// write-back traffic are at their daily maximum — and stays down five
/// minutes, with 1% message loss on every RPC for the whole day.
pub fn default_plan() -> FaultPlan {
    FaultPlan {
        outages: vec![ServerOutage {
            server: 0,
            at: SimTime::from_secs(46_800),
            down_for: SimDuration::from_secs(300),
        }],
        drop_prob: 0.01,
        ..FaultPlan::default()
    }
}

/// Everything measured from one faulted day.
#[derive(Debug, Clone)]
pub struct OutageOutcome {
    /// Scheduled downtime across all outages, seconds.
    pub scheduled_down_secs: u64,
    /// Measured server unavailability, seconds (from the recovery
    /// counters; equals the schedule when every reboot fires).
    pub unavail_secs: f64,
    /// Dirty server-cache bytes destroyed by the crash(es).
    pub lost_bytes: u64,
    /// Dirty bytes the battery-backed NVRAM buffer preserved at the
    /// crash(es) — zero unless `server_nvram_bytes` is configured.
    pub saved_bytes: u64,
    /// RPCs that stalled against a down server.
    pub stalled_rpcs: u64,
    /// Total client time lost to stalls (timeouts, backoff, waiting out
    /// the outage), seconds.
    pub stall_secs: f64,
    /// Delayed write-backs the daemon queued because the server was down.
    pub queued_writebacks: u64,
    /// Messages retransmitted due to (seeded) drops.
    pub retrans_msgs: u64,
    /// RPCs that exhausted their retry budget.
    pub failed_rpcs: u64,
    /// Total recovery-storm RPCs at reboot.
    pub storm_rpcs: u64,
    /// Reopen RPCs within the storm.
    pub storm_reopens: u64,
    /// Re-register RPCs within the storm.
    pub storm_reregisters: u64,
    /// SpriteSan's verdict, when the day ran sanitized.
    pub sanitizer: Option<SanitizerStats>,
    /// The self-measurement report, when the day ran observed — the
    /// recovery-storm reopen latencies and outage spans live here.
    pub obs: Option<ObsReport>,
}

/// Simulates one generated day of `base` under `plan`.
fn fault_day(base: &StudyConfig, plan: &FaultPlan, sanitize: bool, observe: bool) -> DayTotals {
    let mut cfg = base.clone();
    cfg.cluster.faults = Some(plan.clone());
    cfg.cluster.sanitize = sanitize;
    cfg.cluster.observe = observe;
    simulate_day(&cfg)
}

/// Runs one generated day under `plan` and harvests the availability
/// counters.
pub fn run_outage_day(
    base: &StudyConfig,
    plan: &FaultPlan,
    sanitize: bool,
    observe: bool,
) -> OutageOutcome {
    let day = fault_day(base, plan, sanitize, observe);
    let (c, s) = (&day.clients, &day.servers);
    OutageOutcome {
        scheduled_down_secs: plan.outages.iter().map(|x| x.down_for.as_secs()).sum(),
        unavail_secs: s.get(fault::SRV_UNAVAIL_US) as f64 / 1e6,
        lost_bytes: s.get(fault::SRV_LOST_BYTES),
        saved_bytes: s.get(fault::NVRAM_SAVED_BYTES),
        stalled_rpcs: c.get(fault::STALLED_RPCS),
        stall_secs: c.get(fault::STALL_US) as f64 / 1e6,
        queued_writebacks: c.get(fault::QUEUED_WRITEBACKS),
        retrans_msgs: c.get(fault::RETRANS_MSGS),
        failed_rpcs: c.get(fault::FAILED_RPCS),
        storm_rpcs: s.get(fault::STORM_RPCS),
        storm_reopens: s.get(fault::STORM_REOPENS),
        storm_reregisters: s.get(fault::STORM_REREGISTERS),
        sanitizer: day.sanitizer,
        obs: day.obs,
    }
}

/// One row of the loss-vs-delay sweep.
#[derive(Debug, Clone)]
pub struct LossVsDelay {
    /// Write-back delay simulated, seconds (clients and servers both).
    pub delay_secs: u64,
    /// Dirty server-cache bytes the crash destroyed.
    pub lost_bytes: u64,
    /// Storm size at recovery (roughly constant: it tracks open state,
    /// not dirty data).
    pub storm_rpcs: u64,
}

/// Sweeps the write-back delay and measures what the *server* crash
/// destroys — the server-side mirror of the client crash-exposure
/// ablation: a longer delay keeps more dirty blocks in the server's
/// volatile cache, so the same outage costs more data.
pub fn loss_vs_writeback_delay(
    base: &StudyConfig,
    plan: &FaultPlan,
    delays_secs: &[u64],
) -> Vec<LossVsDelay> {
    delays_secs
        .iter()
        .map(|&delay| {
            let mut cfg = base.clone();
            cfg.cluster.writeback_delay = SimDuration::from_secs(delay);
            let o = run_outage_day(&cfg, plan, false, false);
            LossVsDelay {
                delay_secs: delay,
                lost_bytes: o.lost_bytes,
                storm_rpcs: o.storm_rpcs,
            }
        })
        .collect()
}

/// One row of the storm-vs-cluster-size sweep.
#[derive(Debug, Clone)]
pub struct StormVsCluster {
    /// Number of client workstations.
    pub clients: u16,
    /// Recovery-storm RPCs at reboot.
    pub storm_rpcs: u64,
    /// Re-register RPCs within the storm.
    pub reregisters: u64,
    /// Reopen RPCs within the storm.
    pub reopens: u64,
}

/// Measures how the recovery storm grows with the cluster: more clients
/// hold more open handles and cached files on the crashed server, so
/// the reboot burst scales with cluster size — the paper's scalability
/// concern (Section 7) applied to recovery traffic.
pub fn storm_vs_cluster_size(
    base: &StudyConfig,
    plan: &FaultPlan,
    sizes: &[u16],
) -> Vec<StormVsCluster> {
    sizes
        .iter()
        .map(|&n| {
            let mut cfg = base.clone();
            cfg.cluster.num_clients = n;
            cfg.workload.num_clients = n;
            let o = run_outage_day(&cfg, plan, false, false);
            StormVsCluster {
                clients: n,
                storm_rpcs: o.storm_rpcs,
                reregisters: o.storm_reregisters,
                reopens: o.storm_reopens,
            }
        })
        .collect()
}

/// Renders the availability report as text.
pub fn render_availability(
    plan: &FaultPlan,
    outcome: &OutageOutcome,
    loss: &[LossVsDelay],
    storm: &[StormVsCluster],
) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "Availability under server failure (deterministic fault plan):");
    for o in &plan.outages {
        let _ = writeln!(
            s,
            "  scheduled outage: server {} down {} s at t={} s",
            o.server,
            o.down_for.as_secs(),
            o.at.as_secs(),
        );
    }
    let _ = writeln!(
        s,
        "  message drop probability: {:.2}% per RPC",
        100.0 * plan.drop_prob
    );
    let _ = writeln!(s, "server unavailability seconds: {:.1}", outcome.unavail_secs);
    let _ = writeln!(
        s,
        "data lost at server crash: {} bytes ({})",
        outcome.lost_bytes,
        crate::report::fmt_bytes(outcome.lost_bytes as f64)
    );
    let _ = writeln!(
        s,
        "recovery storm RPCs: {} ({} reregisters + {} reopens)",
        outcome.storm_rpcs, outcome.storm_reregisters, outcome.storm_reopens
    );
    let _ = writeln!(
        s,
        "stalled RPCs: {} (stall seconds: {:.1})",
        outcome.stalled_rpcs, outcome.stall_secs
    );
    let _ = writeln!(s, "queued write-backs: {}", outcome.queued_writebacks);
    let _ = writeln!(
        s,
        "retransmitted messages: {} (failed RPCs: {})",
        outcome.retrans_msgs, outcome.failed_rpcs
    );
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "Bytes lost vs write-back delay (same outage, server granularity):"
    );
    let _ = writeln!(s, "{:>8} {:>16} {:>12}", "delay", "lost bytes", "storm RPCs");
    for r in loss {
        let _ = writeln!(
            s,
            "{:>7}s {:>16} {:>12}",
            r.delay_secs,
            crate::report::fmt_bytes(r.lost_bytes as f64),
            r.storm_rpcs,
        );
    }
    let _ = writeln!(s);
    let _ = writeln!(s, "Recovery storm vs cluster size:");
    let _ = writeln!(
        s,
        "{:>8} {:>12} {:>12} {:>12}",
        "clients", "storm RPCs", "reregisters", "reopens"
    );
    for r in storm {
        let _ = writeln!(
            s,
            "{:>8} {:>12} {:>12} {:>12}",
            r.clients, r.storm_rpcs, r.reregisters, r.reopens
        );
    }
    let _ = writeln!(
        s,
        "(disk contents survive every crash; what is lost is the volatile\n\
         server cache — the server-side face of the Section 5.4 trade-off)"
    );
    s
}

/// A fixed-scale availability probe for the scorecard: one quick-config
/// day under [`default_plan`], sanitized. Deliberately independent of
/// the study's own scale so `repro check` gets the same deterministic
/// numbers at paper scale and quick scale.
#[derive(Debug, Clone)]
pub struct RecoveryProbe {
    /// Recovery-storm RPCs at the reboot.
    pub storm_rpcs: u64,
    /// Dirty server-cache bytes the crash destroyed.
    pub lost_bytes: u64,
    /// SpriteSan violations observed across the crash/recovery cycle.
    pub violations: u64,
}

/// Runs the scorecard probe (see [`RecoveryProbe`]).
pub fn availability_probe() -> RecoveryProbe {
    let mut cfg = StudyConfig::quick();
    cfg.workload.activity_scale = 0.2;
    let o = run_outage_day(&cfg, &default_plan(), true, false);
    RecoveryProbe {
        storm_rpcs: o.storm_rpcs,
        lost_bytes: o.lost_bytes,
        violations: o.sanitizer.as_ref().map(|s| s.violations()).unwrap_or(0),
    }
}

/// The canned mid-day partition used by `repro faults` and the
/// scorecard: at 1 PM the network splits and the lower half of the
/// client workstations lose their routes to server 0 (the hot server)
/// for ten minutes. Nothing crashes and no messages drop — both sides
/// stay alive, which is exactly what distinguishes a partition from the
/// outage in [`default_plan`]. Ten minutes is far past the default 60 s
/// lease TTL, so under the lease protocol the server revokes the cut
/// clients' grants mid-partition.
pub fn partition_plan(num_clients: u16) -> FaultPlan {
    partition_plan_for(
        num_clients,
        SimDuration::from_secs(600),
        SimDuration::from_secs(60),
        false,
    )
}

/// A partition plan with explicit cut duration, lease TTL, and recovery
/// protocol — the building block of the duration × TTL sweep.
pub fn partition_plan_for(
    num_clients: u16,
    cut_for: SimDuration,
    lease_ttl: SimDuration,
    conservative: bool,
) -> FaultPlan {
    let edges = (0..num_clients / 2).map(|c| (c, 0)).collect();
    FaultPlan {
        partitions: vec![Partition {
            at: SimTime::from_secs(46_800),
            heal_after: cut_for,
            edges,
        }],
        lease_ttl,
        conservative_recovery: conservative,
        ..FaultPlan::default()
    }
}

/// Everything measured from one partitioned day.
#[derive(Debug, Clone)]
pub struct PartitionOutcome {
    /// Scheduled cut time across all partitions, seconds (per
    /// partition, not per edge).
    pub scheduled_cut_secs: u64,
    /// Measured cut time summed over every edge, seconds.
    pub cut_edge_secs: f64,
    /// RPCs that stalled against a cut edge.
    pub stalled_rpcs: u64,
    /// Client time lost to partition stalls, seconds.
    pub stall_secs: f64,
    /// RPCs whose retry budget could not outlast the partition.
    pub failed_rpcs: u64,
    /// Write-backs the daemon queued because the edge was cut.
    pub queued_writebacks: u64,
    /// Consistency actions (recalls, invalidations) that could not be
    /// delivered across the cut and were waited out.
    pub undelivered_actions: u64,
    /// Grants the server unilaterally revoked after the lease lapsed.
    pub lease_recalls: u64,
    /// Dirty client-cache bytes destroyed by lease revocations.
    pub lease_lost_bytes: u64,
    /// Time conflicting opens spent waiting for a lease to lapse,
    /// seconds.
    pub lease_wait_secs: f64,
    /// Total heal-storm RPCs when the partitions healed.
    pub heal_storm_rpcs: u64,
    /// LeaseRenew RPCs within the heal storm (lease protocol).
    pub heal_renewals: u64,
    /// Reassert RPCs within the heal storm (lease protocol).
    pub heal_reasserts: u64,
    /// Reregister RPCs within the heal storm (conservative protocol).
    pub heal_reregisters: u64,
    /// Reopen RPCs within the heal storm (conservative protocol).
    pub heal_reopens: u64,
    /// SpriteSan's verdict, when the day ran sanitized.
    pub sanitizer: Option<SanitizerStats>,
    /// The self-measurement report, when the day ran observed.
    pub obs: Option<ObsReport>,
}

/// Runs one generated day under a partition plan and harvests the
/// partition and lease counters.
pub fn run_partition_day(
    base: &StudyConfig,
    plan: &FaultPlan,
    sanitize: bool,
    observe: bool,
) -> PartitionOutcome {
    let day = fault_day(base, plan, sanitize, observe);
    let (c, s) = (&day.clients, &day.servers);
    PartitionOutcome {
        scheduled_cut_secs: plan.partitions.iter().map(|p| p.heal_after.as_secs()).sum(),
        cut_edge_secs: s.get(fault::PART_CUT_US) as f64 / 1e6,
        stalled_rpcs: c.get(fault::PART_STALLED_RPCS),
        stall_secs: c.get(fault::PART_STALL_US) as f64 / 1e6,
        failed_rpcs: c.get(fault::PART_FAILED_RPCS),
        queued_writebacks: c.get(fault::PART_QUEUED_WRITEBACKS),
        undelivered_actions: c.get(fault::PART_UNDELIVERED),
        lease_recalls: s.get(fault::LEASE_EXPIRY_RECALLS),
        lease_lost_bytes: s.get(fault::LEASE_LOST_BYTES),
        lease_wait_secs: c.get(fault::LEASE_WAIT_US) as f64 / 1e6,
        heal_storm_rpcs: s.get(fault::HEAL_STORM_RPCS),
        heal_renewals: s.get(fault::HEAL_RENEWALS),
        heal_reasserts: s.get(fault::HEAL_REASSERTS),
        heal_reregisters: s.get(fault::HEAL_REREGISTERS),
        heal_reopens: s.get(fault::HEAL_REOPENS),
        sanitizer: day.sanitizer,
        obs: day.obs,
    }
}

/// One row of the partition-duration × lease-TTL sweep: the same cut
/// run under both heal protocols.
#[derive(Debug, Clone)]
pub struct LeaseVsConservative {
    /// Partition duration, seconds.
    pub cut_secs: u64,
    /// Lease TTL, seconds.
    pub ttl_secs: u64,
    /// Heal-storm RPCs under the lease protocol.
    pub lease_storm_rpcs: u64,
    /// Heal-storm RPCs under conservative Reregister/Reopen recovery.
    pub conservative_storm_rpcs: u64,
    /// Lease-expiry revocations during the cut (lease protocol only).
    pub lease_recalls: u64,
    /// Dirty bytes those revocations destroyed.
    pub lease_lost_bytes: u64,
    /// Time conflicting opens spent waiting for cut clients' leases to
    /// lapse, seconds — the price a *longer* TTL charges the reachable
    /// side of the partition.
    pub lease_wait_secs: f64,
}

/// Sweeps partition duration against lease TTL and, for every cell,
/// runs the day twice — once per heal protocol — to measure what the
/// lease buys: the conservative server re-validates *all* distributed
/// state on the healed edges (a crash-style storm), while the lease
/// server needs one renewal per edge plus one reassert per grant it
/// actually revoked. The price of the smaller storm is the dirty data
/// destroyed by mid-cut revocations, which grows as the TTL shrinks.
pub fn lease_ttl_sweep(
    base: &StudyConfig,
    cuts_secs: &[u64],
    ttls_secs: &[u64],
) -> Vec<LeaseVsConservative> {
    let mut rows = Vec::new();
    for &cut in cuts_secs {
        for &ttl in ttls_secs {
            let n = base.cluster.num_clients;
            let mk = |conservative| {
                partition_plan_for(
                    n,
                    SimDuration::from_secs(cut),
                    SimDuration::from_secs(ttl),
                    conservative,
                )
            };
            let lease = run_partition_day(base, &mk(false), false, false);
            let cons = run_partition_day(base, &mk(true), false, false);
            rows.push(LeaseVsConservative {
                cut_secs: cut,
                ttl_secs: ttl,
                lease_storm_rpcs: lease.heal_storm_rpcs,
                conservative_storm_rpcs: cons.heal_storm_rpcs,
                lease_recalls: lease.lease_recalls,
                lease_lost_bytes: lease.lease_lost_bytes,
                lease_wait_secs: lease.lease_wait_secs,
            });
        }
    }
    rows
}

/// Renders the partition/lease report as text.
pub fn render_partition(
    plan: &FaultPlan,
    lease: &PartitionOutcome,
    conservative: &PartitionOutcome,
    sweep: &[LeaseVsConservative],
) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "Availability under network partition (both ends alive):");
    for p in &plan.partitions {
        let _ = writeln!(
            s,
            "  scheduled partition: {} edges cut {} s at t={} s",
            p.edges.len(),
            p.heal_after.as_secs(),
            p.at.as_secs(),
        );
    }
    let _ = writeln!(
        s,
        "  lease TTL: {} s (conservative baseline keeps state forever)",
        plan.lease_ttl.as_secs()
    );
    let _ = writeln!(
        s,
        "{:>28} {:>12} {:>12}",
        "", "lease", "conservative"
    );
    let pair = |s: &mut String, label: &str, a: u64, b: u64| {
        let _ = writeln!(s, "{:>28} {:>12} {:>12}", label, a, b);
    };
    pair(&mut s, "stalled RPCs", lease.stalled_rpcs, conservative.stalled_rpcs);
    let _ = writeln!(
        s,
        "{:>28} {:>12.1} {:>12.1}",
        "stall seconds", lease.stall_secs, conservative.stall_secs
    );
    pair(&mut s, "queued write-backs", lease.queued_writebacks, conservative.queued_writebacks);
    pair(
        &mut s,
        "undelivered actions",
        lease.undelivered_actions,
        conservative.undelivered_actions,
    );
    pair(&mut s, "lease-expiry recalls", lease.lease_recalls, conservative.lease_recalls);
    pair(&mut s, "lease-lost bytes", lease.lease_lost_bytes, conservative.lease_lost_bytes);
    pair(&mut s, "heal-storm RPCs", lease.heal_storm_rpcs, conservative.heal_storm_rpcs);
    let _ = writeln!(
        s,
        "  lease storm: {} renewals + {} reasserts; conservative storm: {} reregisters + {} reopens",
        lease.heal_renewals,
        lease.heal_reasserts,
        conservative.heal_reregisters,
        conservative.heal_reopens,
    );
    let _ = writeln!(s);
    let _ = writeln!(s, "Heal-storm RPCs vs partition duration and lease TTL:");
    let _ = writeln!(
        s,
        "{:>8} {:>8} {:>12} {:>14} {:>10} {:>12} {:>10}",
        "cut", "TTL", "lease storm", "conserv storm", "recalls", "lost bytes", "wait s"
    );
    for r in sweep {
        let _ = writeln!(
            s,
            "{:>7}s {:>7}s {:>12} {:>14} {:>10} {:>12} {:>10.1}",
            r.cut_secs,
            r.ttl_secs,
            r.lease_storm_rpcs,
            r.conservative_storm_rpcs,
            r.lease_recalls,
            crate::report::fmt_bytes(r.lease_lost_bytes as f64),
            r.lease_wait_secs,
        );
    }
    let _ = writeln!(
        s,
        "(unlike the crash above, nothing reboots here — but a heal is worse\n\
         than a reboot for the cut client's cache: the server kept serving the\n\
         other side, so without a lease every cached file needs its own\n\
         revalidation round trip; a TTL outlasting the cut avoids revocation\n\
         entirely at the price of making conflicting opens wait out the lease)"
    );
    s
}

/// One row of the NVRAM write-buffer ablation.
#[derive(Debug, Clone)]
pub struct NvramRow {
    /// Battery-backed buffer size, bytes.
    pub nvram_bytes: u64,
    /// Dirty server-cache bytes the crash destroyed.
    pub lost_bytes: u64,
    /// Dirty bytes the buffer preserved across the crash.
    pub saved_bytes: u64,
}

/// Sweeps the server NVRAM write-buffer size under the same mid-day
/// crash: Section 5.4's proposed fix for delayed-write loss. The most
/// recently written `nvram_bytes` of unflushed data survive the
/// crash as if flushed, so lost bytes fall monotonically to zero as
/// the buffer grows past the server's dirty exposure — with zero
/// effect on write-back traffic, because the buffer only matters at
/// crash time.
pub fn nvram_ablation(base: &StudyConfig, plan: &FaultPlan, sizes: &[u64]) -> Vec<NvramRow> {
    sizes
        .iter()
        .map(|&nvram| {
            let mut cfg = base.clone();
            cfg.cluster.server_nvram_bytes = nvram;
            let o = run_outage_day(&cfg, plan, false, false);
            NvramRow {
                nvram_bytes: nvram,
                lost_bytes: o.lost_bytes,
                saved_bytes: o.saved_bytes,
            }
        })
        .collect()
}

/// Renders the NVRAM ablation as text.
pub fn render_nvram(rows: &[NvramRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "NVRAM write-buffer ablation (same outage):");
    let _ = writeln!(s, "{:>12} {:>14} {:>14}", "buffer", "lost bytes", "saved bytes");
    for r in rows {
        let _ = writeln!(
            s,
            "{:>12} {:>14} {:>14}",
            crate::report::fmt_bytes(r.nvram_bytes as f64),
            crate::report::fmt_bytes(r.lost_bytes as f64),
            crate::report::fmt_bytes(r.saved_bytes as f64),
        );
    }
    let _ = writeln!(
        s,
        "(a buffer sized past the dirty exposure drives crash loss to zero\n\
         while leaving every traffic counter untouched — Section 5.4's\n\
         argument that NVRAM decouples durability from write-back policy)"
    );
    s
}

/// A fixed-scale partition probe for the scorecard: one quick-config
/// day under [`partition_plan`], run sanitized under the lease protocol
/// and unsanitized under the conservative baseline.
#[derive(Debug, Clone)]
pub struct PartitionProbe {
    /// Heal-storm RPCs under the lease protocol.
    pub lease_storm_rpcs: u64,
    /// Heal-storm RPCs under the conservative baseline.
    pub conservative_storm_rpcs: u64,
    /// Lease-expiry revocations during the cut.
    pub lease_recalls: u64,
    /// SpriteSan violations across the partition/heal cycle.
    pub violations: u64,
}

/// Runs the scorecard partition probe (see [`PartitionProbe`]).
pub fn partition_probe() -> PartitionProbe {
    let mut cfg = StudyConfig::quick();
    cfg.workload.activity_scale = 0.2;
    let n = cfg.cluster.num_clients;
    let lease = run_partition_day(&cfg, &partition_plan(n), true, false);
    let mut cons_plan = partition_plan(n);
    cons_plan.conservative_recovery = true;
    let cons = run_partition_day(&cfg, &cons_plan, false, false);
    PartitionProbe {
        lease_storm_rpcs: lease.heal_storm_rpcs,
        conservative_storm_rpcs: cons.heal_storm_rpcs,
        lease_recalls: lease.lease_recalls,
        violations: lease.sanitizer.as_ref().map(|s| s.violations()).unwrap_or(0),
    }
}

/// A fixed-scale NVRAM probe for the scorecard: the bytes the
/// [`availability_probe`]'s crash destroys when the server has a buffer
/// sized past any plausible dirty exposure (1 GiB). The same crash with
/// no buffer is the availability probe's own `lost_bytes`.
pub fn nvram_probe() -> u64 {
    let mut cfg = StudyConfig::quick();
    cfg.workload.activity_scale = 0.2;
    nvram_ablation(&cfg, &default_plan(), &[1 << 30])[0].lost_bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> StudyConfig {
        let mut cfg = StudyConfig::quick();
        cfg.workload.activity_scale = 0.2;
        cfg
    }

    #[test]
    fn outage_day_measures_crash_and_storm() {
        let o = run_outage_day(&tiny(), &default_plan(), true, false);
        assert!(o.unavail_secs >= 299.0, "outage measured: {}", o.unavail_secs);
        assert!(o.lost_bytes > 0, "the crash destroyed dirty server data");
        assert!(o.storm_rpcs > 0, "clients re-registered at reboot");
        assert_eq!(
            o.storm_rpcs,
            o.storm_reopens + o.storm_reregisters,
            "storm decomposes exactly"
        );
        assert!(o.retrans_msgs > 0, "1% drops over a day retransmit");
        let san = o.sanitizer.expect("sanitized run");
        assert!(san.ops_checked > 0);
        assert!(
            san.is_clean(),
            "oracle must stay clean across the failure: {}",
            san.render()
        );
    }

    #[test]
    fn observed_outage_reports_storm_latencies() {
        use sdfs_spritefs::SpanKind;
        let o = run_outage_day(&tiny(), &default_plan(), false, true);
        let obs = o.obs.expect("observed run yields a report");
        // Every storm reopen was timed, and the reborn server's
        // serialization makes later reopens strictly slower than p50.
        assert_eq!(obs.reopen_latency.count(), o.storm_reopens);
        assert!(obs.reopen_latency.max() >= obs.reopen_latency.p50());
        assert!(obs.span(SpanKind::ServerOutage).count >= 1);
        assert!(obs.span(SpanKind::RecoveryStorm).count >= 1);
        assert!(obs.span(SpanKind::Stall).count > 0, "stalled RPCs timed");
        // Each storm RPC also carries one RPC latency sample, so the
        // latency table and the plain counters agree on the storm size.
        use sdfs_spritefs::rpc::RpcKind;
        let samples = |kind| obs.rpc_hist(kind).count();
        assert_eq!(samples(RpcKind::Reopen), o.storm_reopens);
        assert_eq!(samples(RpcKind::Reregister), o.storm_reregisters);
    }

    #[test]
    fn longer_server_delay_loses_more_at_the_crash() {
        let rows = loss_vs_writeback_delay(&tiny(), &default_plan(), &[5, 600]);
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].lost_bytes >= rows[0].lost_bytes,
            "600 s delay ({}) must lose at least as much as 5 s ({})",
            rows[1].lost_bytes,
            rows[0].lost_bytes
        );
        assert!(rows[1].lost_bytes > 0);
    }

    #[test]
    fn partition_day_stalls_revokes_and_heals_clean() {
        let cfg = tiny();
        let o = run_partition_day(&cfg, &partition_plan(cfg.cluster.num_clients), true, false);
        assert!(o.cut_edge_secs > 0.0, "edges were cut: {}", o.cut_edge_secs);
        assert!(o.stalled_rpcs > 0, "RPCs stalled against the cut");
        assert!(
            o.lease_recalls > 0,
            "a 600 s cut against a 60 s TTL revokes grants"
        );
        assert!(o.heal_storm_rpcs > 0, "the heal reasserted state");
        assert_eq!(
            o.heal_storm_rpcs,
            o.heal_renewals + o.heal_reasserts,
            "lease storm decomposes exactly"
        );
        assert_eq!(o.heal_reregisters, 0, "lease mode never reregisters");
        let san = o.sanitizer.expect("sanitized run");
        assert!(
            san.is_clean(),
            "oracle stays clean across the partition: {}",
            san.render()
        );
    }

    #[test]
    fn conservative_heal_storms_harder_than_lease() {
        let cfg = tiny();
        let rows = lease_ttl_sweep(&cfg, &[600], &[60]);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(
            r.lease_storm_rpcs < r.conservative_storm_rpcs,
            "lease heal ({}) must beat the conservative storm ({})",
            r.lease_storm_rpcs,
            r.conservative_storm_rpcs
        );
        assert!(r.lease_recalls > 0);
        let lease = run_partition_day(
            &cfg,
            &partition_plan_for(
                cfg.cluster.num_clients,
                SimDuration::from_secs(600),
                SimDuration::from_secs(60),
                false,
            ),
            false,
            false,
        );
        let cons = run_partition_day(
            &cfg,
            &partition_plan_for(
                cfg.cluster.num_clients,
                SimDuration::from_secs(600),
                SimDuration::from_secs(60),
                true,
            ),
            false,
            false,
        );
        assert_eq!(cons.lease_recalls, 0, "conservative mode never revokes");
        assert_eq!(cons.lease_lost_bytes, 0);
        let render = render_partition(
            &partition_plan(cfg.cluster.num_clients),
            &lease,
            &cons,
            &rows,
        );
        assert!(render.contains("heal-storm RPCs"));
        assert!(render.contains("lease TTL"));
    }

    #[test]
    fn nvram_buffer_drives_crash_loss_to_zero() {
        let rows = nvram_ablation(&tiny(), &default_plan(), &[0, 1 << 30]);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].lost_bytes > 0, "no buffer loses dirty data");
        assert_eq!(rows[0].saved_bytes, 0);
        assert_eq!(
            rows[1].lost_bytes, 0,
            "a 1 GiB buffer preserves everything"
        );
        assert_eq!(
            rows[1].saved_bytes, rows[0].lost_bytes,
            "what the buffer saves is exactly what was lost without it"
        );
        let render = render_nvram(&rows);
        assert!(render.contains("NVRAM"));
    }

    #[test]
    fn storm_grows_with_cluster_size() {
        let rows = storm_vs_cluster_size(&tiny(), &default_plan(), &[2, 8]);
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].storm_rpcs >= rows[0].storm_rpcs,
            "8 clients ({}) must storm at least as hard as 2 ({})",
            rows[1].storm_rpcs,
            rows[0].storm_rpcs
        );
        let render = render_availability(
            &default_plan(),
            &run_outage_day(&tiny(), &default_plan(), false, false),
            &[],
            &rows,
        );
        assert!(render.contains("recovery storm RPCs:"));
        assert!(render.contains("cluster size"));
    }
}
