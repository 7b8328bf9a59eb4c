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

/// The scorecard's fault-study scale: a quick-config day at 0.2 of the
/// usual activity, under SpriteSan. It is fixed whatever scale the
/// surrounding study ran at, so `repro check` reads the same
/// deterministic numbers at paper scale and at quick scale.
pub fn probe_config() -> StudyConfig {
    let mut cfg = StudyConfig::quick();
    cfg.workload.activity_scale = 0.2;
    cfg.cluster.sanitize = true;
    cfg
}

/// Everything measured from one faulted day.
#[derive(Debug, Clone)]
pub struct OutageOutcome {
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

impl Outcome for OutageOutcome {
    fn unchecked(&self) -> Self {
        OutageOutcome {
            sanitizer: None,
            obs: None,
            ..self.clone()
        }
    }
}

/// Simulates one generated day of `base` under `plan`, with SpriteSan
/// and the observer as `base.cluster` sets them.
fn fault_day(base: &StudyConfig, plan: &FaultPlan) -> DayTotals {
    let mut cfg = base.clone();
    cfg.cluster.faults = Some(plan.clone());
    simulate_day(&cfg)
}

/// A simulated day's outcome that can stand in for the same day run
/// unchecked: SpriteSan and the observer only watch a day, so a checked
/// day counts exactly what the unchecked one does.
trait Outcome {
    /// This outcome with its checks dropped.
    fn unchecked(&self) -> Self;
}

/// Runs `day` once per value of `values` on a copy of `base` with
/// SpriteSan and the observer off, and pairs each value with its
/// outcome. This is the one place that decides sweep days run
/// unchecked: the headline days already take both checks through the
/// same fault paths, and checking every sweep day too would make
/// `repro --sanitize faults` about five times slower (DESIGN §10).
///
/// A value for which `is_headline` holds configures exactly the
/// headline day, so its row reuses `headline` (without its checks)
/// instead of simulating that day again.
fn sweep<V: Copy, O: Outcome>(
    base: &StudyConfig,
    values: &[V],
    headline: &O,
    is_headline: impl Fn(V) -> bool,
    day: impl Fn(StudyConfig, V) -> O,
) -> Vec<(V, O)> {
    let mut unchecked = base.clone();
    unchecked.cluster.sanitize = false;
    unchecked.cluster.observe = false;
    values
        .iter()
        .map(|&v| {
            let outcome = if is_headline(v) {
                headline.unchecked()
            } else {
                day(unchecked.clone(), v)
            };
            (v, outcome)
        })
        .collect()
}

/// Runs one generated day under `plan` and harvests the availability
/// counters.
pub fn run_outage_day(base: &StudyConfig, plan: &FaultPlan) -> OutageOutcome {
    let day = fault_day(base, plan);
    let (c, s) = (&day.clients, &day.servers);
    OutageOutcome {
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

/// Sweeps the write-back delay (seconds, clients and servers both) and
/// measures what the *server* crash destroys — the server-side mirror
/// of the client crash-exposure ablation: a longer delay keeps more
/// dirty blocks in the server's volatile cache, so the same outage
/// costs more data. The storm stays roughly constant: it tracks open
/// state, not dirty data.
///
/// `headline` is [`run_outage_day`]`(base, plan)`: the row at `base`'s
/// own delay reuses it.
pub fn loss_vs_writeback_delay(
    base: &StudyConfig,
    plan: &FaultPlan,
    delays_secs: &[u64],
    headline: &OutageOutcome,
) -> Vec<(u64, OutageOutcome)> {
    let own = |delay| SimDuration::from_secs(delay) == base.cluster.writeback_delay;
    sweep(base, delays_secs, headline, own, |mut cfg, delay| {
        cfg.cluster.writeback_delay = SimDuration::from_secs(delay);
        run_outage_day(&cfg, plan)
    })
}

/// Measures how the recovery storm grows with the number of client
/// workstations: more clients hold more open handles and cached files
/// on the crashed server, so the reboot burst scales with cluster size
/// — the paper's scalability concern (Section 7) applied to recovery
/// traffic.
///
/// `headline` is [`run_outage_day`]`(base, plan)`: the row at `base`'s
/// own cluster size reuses it.
pub fn storm_vs_cluster_size(
    base: &StudyConfig,
    plan: &FaultPlan,
    sizes: &[u16],
    headline: &OutageOutcome,
) -> Vec<(u16, OutageOutcome)> {
    let own = |n| n == base.cluster.num_clients && n == base.workload.num_clients;
    sweep(base, sizes, headline, own, |mut cfg, n| {
        cfg.cluster.num_clients = n;
        cfg.workload.num_clients = n;
        run_outage_day(&cfg, plan)
    })
}

/// Renders the availability report as text.
pub fn render_availability(
    plan: &FaultPlan,
    outcome: &OutageOutcome,
    loss: &[(u64, OutageOutcome)],
    storm: &[(u16, OutageOutcome)],
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
    for (delay, o) in loss {
        let _ = writeln!(
            s,
            "{:>7}s {:>16} {:>12}",
            delay,
            crate::report::fmt_bytes(o.lost_bytes as f64),
            o.storm_rpcs,
        );
    }
    let _ = writeln!(s);
    let _ = writeln!(s, "Recovery storm vs cluster size:");
    let _ = writeln!(
        s,
        "{:>8} {:>12} {:>12} {:>12}",
        "clients", "storm RPCs", "reregisters", "reopens"
    );
    for (clients, o) in storm {
        let _ = writeln!(
            s,
            "{:>8} {:>12} {:>12} {:>12}",
            clients, o.storm_rpcs, o.storm_reregisters, o.storm_reopens
        );
    }
    let _ = writeln!(
        s,
        "(disk contents survive every crash; what is lost is the volatile\n\
         server cache — the server-side face of the Section 5.4 trade-off)"
    );
    s
}

/// The canned mid-day partition used by `repro faults` and the
/// scorecard: at 1 PM the network splits and the lower half of the
/// client workstations lose their routes to server 0 (the hot server)
/// for ten minutes. Nothing crashes and no messages drop — both sides
/// stay alive, which is exactly what distinguishes a partition from the
/// outage in [`default_plan`]. Ten minutes is far past the default 60 s
/// lease TTL, so under the lease protocol the server revokes the cut
/// clients' grants mid-partition; `conservative` heals by the
/// conservative Reregister/Reopen protocol instead.
pub fn partition_plan(num_clients: u16, conservative: bool) -> FaultPlan {
    let (cut, ttl) = PARTITION_CELL;
    partition_plan_for(
        num_clients,
        SimDuration::from_secs(cut),
        SimDuration::from_secs(ttl),
        conservative,
    )
}

/// [`partition_plan`]'s `(cut, TTL)` in seconds: the cell of
/// [`lease_ttl_sweep`] that repeats the headline partition days.
const PARTITION_CELL: (u64, u64) = (600, 60);

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
    /// Measured cut time summed over every edge, seconds.
    pub cut_edge_secs: f64,
    /// RPCs that stalled against a cut edge.
    pub stalled_rpcs: u64,
    /// Client time lost to partition stalls, seconds.
    pub stall_secs: f64,
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
    /// seconds — the price a *longer* TTL charges the reachable side of
    /// the partition.
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

impl Outcome for PartitionOutcome {
    fn unchecked(&self) -> Self {
        PartitionOutcome {
            sanitizer: None,
            obs: None,
            ..self.clone()
        }
    }
}

impl Outcome for [PartitionOutcome; 2] {
    fn unchecked(&self) -> Self {
        self.each_ref().map(Outcome::unchecked)
    }
}

/// Runs one generated day under a partition plan and harvests the
/// partition and lease counters.
pub fn run_partition_day(base: &StudyConfig, plan: &FaultPlan) -> PartitionOutcome {
    let day = fault_day(base, plan);
    let (c, s) = (&day.clients, &day.servers);
    PartitionOutcome {
        cut_edge_secs: s.get(fault::PART_CUT_US) as f64 / 1e6,
        stalled_rpcs: c.get(fault::PART_STALLED_RPCS),
        stall_secs: c.get(fault::PART_STALL_US) as f64 / 1e6,
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

/// Sweeps partition duration against lease TTL (seconds) and, for every
/// `(cut, ttl)` cell, runs the day twice — under the lease protocol,
/// then the conservative one — to measure what the lease buys: the
/// conservative server re-validates *all* distributed state on the
/// healed edges (a crash-style storm), while the lease server needs one
/// renewal per edge plus one reassert per grant it actually revoked.
/// The price of the smaller storm is the dirty data destroyed by
/// mid-cut revocations, which grows as the TTL shrinks.
///
/// `headline` is [`run_partition_day`] on `base` under
/// [`partition_plan`], lease then conservative: the (600 s, 60 s) cell
/// reuses it.
pub fn lease_ttl_sweep(
    base: &StudyConfig,
    cuts_secs: &[u64],
    ttls_secs: &[u64],
    headline: &[PartitionOutcome; 2],
) -> Vec<((u64, u64), [PartitionOutcome; 2])> {
    let cells: Vec<(u64, u64)> = cuts_secs
        .iter()
        .flat_map(|&cut| ttls_secs.iter().map(move |&ttl| (cut, ttl)))
        .collect();
    let own = |cell| cell == PARTITION_CELL;
    sweep(base, &cells, headline, own, |cfg, (cut, ttl)| {
        [false, true].map(|conservative| {
            let plan = partition_plan_for(
                cfg.cluster.num_clients,
                SimDuration::from_secs(cut),
                SimDuration::from_secs(ttl),
                conservative,
            );
            run_partition_day(&cfg, &plan)
        })
    })
}

/// Renders the partition/lease report as text.
pub fn render_partition(
    plan: &FaultPlan,
    lease: &PartitionOutcome,
    conservative: &PartitionOutcome,
    sweep: &[((u64, u64), [PartitionOutcome; 2])],
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
    for ((cut, ttl), [lease, conservative]) in sweep {
        let _ = writeln!(
            s,
            "{:>7}s {:>7}s {:>12} {:>14} {:>10} {:>12} {:>10.1}",
            cut,
            ttl,
            lease.heal_storm_rpcs,
            conservative.heal_storm_rpcs,
            lease.lease_recalls,
            crate::report::fmt_bytes(lease.lease_lost_bytes as f64),
            lease.lease_wait_secs,
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

/// Sweeps the server NVRAM write-buffer size (bytes) under the same
/// mid-day crash: Section 5.4's proposed fix for delayed-write loss.
/// The most recently written `nvram_bytes` of unflushed data survive
/// the crash as if flushed, so lost bytes fall monotonically to zero as
/// the buffer grows past the server's dirty exposure — with zero effect
/// on write-back traffic, because the buffer only matters at crash
/// time.
///
/// `headline` is [`run_outage_day`]`(base, plan)`: the row at `base`'s
/// own buffer size reuses it.
pub fn nvram_ablation(
    base: &StudyConfig,
    plan: &FaultPlan,
    sizes: &[u64],
    headline: &OutageOutcome,
) -> Vec<(u64, OutageOutcome)> {
    let own = |nvram| nvram == base.cluster.server_nvram_bytes;
    sweep(base, sizes, headline, own, |mut cfg, nvram| {
        cfg.cluster.server_nvram_bytes = nvram;
        run_outage_day(&cfg, plan)
    })
}

/// Renders the NVRAM ablation as text.
pub fn render_nvram(rows: &[(u64, OutageOutcome)]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "NVRAM write-buffer ablation (same outage):");
    let _ = writeln!(s, "{:>12} {:>14} {:>14}", "buffer", "lost bytes", "saved bytes");
    for (nvram, o) in rows {
        let _ = writeln!(
            s,
            "{:>12} {:>14} {:>14}",
            crate::report::fmt_bytes(*nvram as f64),
            crate::report::fmt_bytes(o.lost_bytes as f64),
            crate::report::fmt_bytes(o.saved_bytes as f64),
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

#[cfg(test)]
mod tests {
    use super::*;

    /// [`probe_config`] without SpriteSan, for the tests that read only
    /// counters.
    fn unchecked() -> StudyConfig {
        let mut cfg = probe_config();
        cfg.cluster.sanitize = false;
        cfg
    }

    #[test]
    fn outage_day_measures_crash_and_storm() {
        let o = run_outage_day(&probe_config(), &default_plan());
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
        let mut cfg = unchecked();
        cfg.cluster.observe = true;
        let o = run_outage_day(&cfg, &default_plan());
        let obs = o.obs.expect("observed run yields a report");
        // Every storm reopen was timed, and the reborn server's
        // serialization makes later reopens strictly slower than p50.
        assert_eq!(obs.reopen_latency.count(), o.storm_reopens);
        assert!(obs.reopen_latency.max() >= obs.reopen_latency.p50());
        assert!(obs.span_hist(SpanKind::ServerOutage).count() >= 1);
        assert!(obs.span_hist(SpanKind::RecoveryStorm).count() >= 1);
        assert!(
            obs.span_hist(SpanKind::Stall).count() > 0,
            "stalled RPCs timed"
        );
        // Each storm RPC also carries one RPC latency sample, so the
        // latency table and the plain counters agree on the storm size.
        use sdfs_spritefs::rpc::RpcKind;
        let samples = |kind| obs.rpc_hist(kind).count();
        assert_eq!(samples(RpcKind::Reopen), o.storm_reopens);
        assert_eq!(samples(RpcKind::Reregister), o.storm_reregisters);
    }

    /// A base that asks for both checks keeps them on the outage day and
    /// both partition days, and every sweep day runs without them.
    #[test]
    fn sweeps_run_unchecked_and_headline_days_checked() {
        let mut cfg = probe_config();
        cfg.cluster.observe = true;
        let plan = default_plan();
        let n = cfg.cluster.num_clients;
        let outage = run_outage_day(&cfg, &plan);
        let partitions = [false, true].map(|c| run_partition_day(&cfg, &partition_plan(n, c)));
        let headline_checks = partitions.iter().map(|o| (&o.sanitizer, &o.obs));
        for (sanitizer, obs) in headline_checks.chain([(&outage.sanitizer, &outage.obs)]) {
            assert!(sanitizer.as_ref().is_some_and(|s| s.is_clean()));
            assert!(obs.is_some());
        }
        // The 30 s row and the (600 s, 60 s) cell reuse the headline
        // days; the other rows simulate their own.
        fn only<V>(mut rows: Vec<(V, OutageOutcome)>) -> OutageOutcome {
            rows.remove(0).1
        }
        let swept_outages = [
            only(loss_vs_writeback_delay(&cfg, &plan, &[30], &outage)),
            only(storm_vs_cluster_size(&cfg, &plan, &[4], &outage)),
            only(nvram_ablation(&cfg, &plan, &[1 << 20], &outage)),
        ];
        let swept_partitions = lease_ttl_sweep(&cfg, &[120, 600], &[60], &partitions)
            .into_iter()
            .flat_map(|(_, pair)| pair);
        let outage_checks = swept_outages.iter().map(|o| (&o.sanitizer, &o.obs));
        let swept_partitions: Vec<_> = swept_partitions.collect();
        let partition_checks = swept_partitions.iter().map(|o| (&o.sanitizer, &o.obs));
        for (sanitizer, obs) in outage_checks.chain(partition_checks) {
            assert!(
                sanitizer.is_none() && obs.is_none(),
                "a sweep day ran checked"
            );
        }
    }

    /// SpriteSan and the observer only watch: an outage day and both
    /// partition days, run with both checks on, count exactly what the
    /// same days count unchecked. A sweep row that repeats a headline
    /// day reuses the headline's outcome on the strength of this.
    #[test]
    fn checked_day_counts_what_the_unchecked_day_counts() {
        let mut checked = probe_config();
        checked.cluster.observe = true;
        let n = checked.cluster.num_clients;
        for plan in [
            default_plan(),
            partition_plan(n, false),
            partition_plan(n, true),
        ] {
            let watched = fault_day(&checked, &plan);
            let plain = fault_day(&unchecked(), &plan);
            assert!(watched.sanitizer.is_some_and(|s| s.is_clean()));
            assert!(watched.obs.is_some());
            assert!(plain.sanitizer.is_none() && plain.obs.is_none());
            assert_eq!(watched.clients, plain.clients, "client counters");
            assert_eq!(watched.servers, plain.servers, "server counters");
        }
    }

    #[test]
    fn longer_server_delay_loses_more_at_the_crash() {
        let (cfg, plan) = (unchecked(), default_plan());
        let headline = run_outage_day(&cfg, &plan);
        let rows = loss_vs_writeback_delay(&cfg, &plan, &[5, 600], &headline);
        assert_eq!(rows.len(), 2);
        let (short, long) = (&rows[0].1, &rows[1].1);
        assert!(
            long.lost_bytes >= short.lost_bytes,
            "600 s delay ({}) must lose at least as much as 5 s ({})",
            long.lost_bytes,
            short.lost_bytes
        );
        assert!(long.lost_bytes > 0);
    }

    #[test]
    fn partition_day_stalls_revokes_and_heals_clean() {
        let cfg = probe_config();
        let o = run_partition_day(&cfg, &partition_plan(cfg.cluster.num_clients, false));
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
        let cfg = unchecked();
        let n = cfg.cluster.num_clients;
        let headline = [false, true].map(|c| run_partition_day(&cfg, &partition_plan(n, c)));
        let rows = lease_ttl_sweep(&cfg, &[600], &[60], &headline);
        assert_eq!(rows.len(), 1);
        let ((cut, ttl), [lease, cons]) = &rows[0];
        assert_eq!((*cut, *ttl), (600, 60));
        assert!(
            lease.heal_storm_rpcs < cons.heal_storm_rpcs,
            "lease heal ({}) must beat the conservative storm ({})",
            lease.heal_storm_rpcs,
            cons.heal_storm_rpcs
        );
        assert!(lease.lease_recalls > 0);
        assert_eq!(cons.lease_recalls, 0, "conservative mode never revokes");
        assert_eq!(cons.lease_lost_bytes, 0);
        let render = render_partition(
            &partition_plan(cfg.cluster.num_clients, false),
            lease,
            cons,
            &rows,
        );
        assert!(render.contains("heal-storm RPCs"));
        assert!(render.contains("lease TTL"));
    }

    #[test]
    fn nvram_buffer_drives_crash_loss_to_zero() {
        let (cfg, plan) = (unchecked(), default_plan());
        let headline = run_outage_day(&cfg, &plan);
        let rows = nvram_ablation(&cfg, &plan, &[0, 1 << 30], &headline);
        assert_eq!(rows.len(), 2);
        let (bare, buffered) = (&rows[0].1, &rows[1].1);
        assert!(bare.lost_bytes > 0, "no buffer loses dirty data");
        assert_eq!(bare.saved_bytes, 0);
        assert_eq!(
            buffered.lost_bytes, 0,
            "a 1 GiB buffer preserves everything"
        );
        assert_eq!(
            buffered.saved_bytes, bare.lost_bytes,
            "what the buffer saves is exactly what was lost without it"
        );
        let render = render_nvram(&rows);
        assert!(render.contains("NVRAM"));
    }

    #[test]
    fn storm_grows_with_cluster_size() {
        let (cfg, plan) = (unchecked(), default_plan());
        let headline = run_outage_day(&cfg, &plan);
        let rows = storm_vs_cluster_size(&cfg, &plan, &[2, 8], &headline);
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].1.storm_rpcs >= rows[0].1.storm_rpcs,
            "8 clients ({}) must storm at least as hard as 2 ({})",
            rows[1].1.storm_rpcs,
            rows[0].1.storm_rpcs
        );
        let render = render_availability(&plan, &headline, &[], &rows);
        assert!(render.contains("recovery storm RPCs:"));
        assert!(render.contains("cluster size"));
    }
}
