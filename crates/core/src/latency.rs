//! Section 5.3's latency and saturation arguments, computed from the
//! cluster's hardware models and the measured traffic.
//!
//! The paper argues against local disks for paging: fetching a 4-Kbyte
//! page from a server's cache over the Ethernet takes 6–7 ms — already
//! far below a local disk's 20–30 ms — and the whole cluster's paging
//! load is a few percent of the network, so saturation is not a concern
//! either. This module reproduces those numbers from our own models and
//! counters.

use sdfs_simkit::CounterSet;
use sdfs_spritefs::config::{disk_time, rpc_time, BLOCK_SIZE};
use sdfs_spritefs::metrics::srv;

/// The latency/saturation summary of Section 5.3.
#[derive(Debug, Clone)]
pub struct LatencyReport {
    /// Time to fetch one 4-Kbyte page from a server's cache, ms.
    pub network_fetch_ms: f64,
    /// Time to read one 4-Kbyte page from a local disk, ms.
    pub local_disk_ms: f64,
    /// Cluster-wide paging traffic, bytes per second.
    pub paging_bytes_per_sec: f64,
    /// Share of a 10 Mbit/s Ethernet that paging consumes.
    pub ethernet_utilization: f64,
    /// Cluster-wide total server traffic, bytes per second.
    pub server_bytes_per_sec: f64,
    /// Share of the Ethernet all server traffic consumes.
    pub ethernet_utilization_total: f64,
}

/// Raw bandwidth of the measured cluster's Ethernet (10 Mbit/s).
pub const ETHERNET_BYTES_PER_SEC: f64 = 10_000_000.0 / 8.0;

/// Computes the report from the cluster's latency models and a counter
/// campaign of `campaign_secs` simulated seconds.
pub fn latency_report(totals: &CounterSet, campaign_secs: f64) -> LatencyReport {
    let network_fetch_ms = rpc_time(BLOCK_SIZE).as_secs_f64() * 1e3;
    let local_disk_ms = disk_time(BLOCK_SIZE).as_secs_f64() * 1e3;
    let paging_bytes = (totals.get(srv::PAGING_READ) + totals.get(srv::PAGING_WRITE)) as f64;
    let server_bytes = [
        srv::FILE_READ,
        srv::FILE_WRITE,
        srv::PAGING_READ,
        srv::PAGING_WRITE,
        srv::SHARED_READ,
        srv::SHARED_WRITE,
        srv::DIR_READ,
    ]
    .iter()
    .map(|k| totals.get(k) as f64)
    .sum::<f64>();
    let secs = campaign_secs.max(1.0);
    let paging_rate = paging_bytes / secs;
    let server_rate = server_bytes / secs;
    LatencyReport {
        network_fetch_ms,
        local_disk_ms,
        paging_bytes_per_sec: paging_rate,
        ethernet_utilization: paging_rate / ETHERNET_BYTES_PER_SEC,
        server_bytes_per_sec: server_rate,
        ethernet_utilization_total: server_rate / ETHERNET_BYTES_PER_SEC,
    }
}

impl LatencyReport {
    /// The paper's core claim: paging over the network from a server
    /// cache beats a local disk.
    pub fn network_beats_local_disk(&self) -> bool {
        self.network_fetch_ms < self.local_disk_ms
    }

    /// Renders the Section 5.3 argument as text.
    pub fn render(&self) -> String {
        format!(
            "Section 5.3 latency analysis:\n\
             \x20 4-KB page from server cache over Ethernet: {:.1} ms \
             [paper: 6-7 ms]\n\
             \x20 4-KB page from a local disk:               {:.1} ms \
             [paper: 20-30 ms]\n\
             \x20 network paging {} local disk\n\
             \x20 cluster paging traffic: {:.1} KB/s = {:.1}% of the \
             Ethernet [paper: ~42 KB/s, ~4%]\n\
             \x20 all server traffic:     {:.1} KB/s = {:.1}% of the \
             Ethernet",
            self.network_fetch_ms,
            self.local_disk_ms,
            if self.network_beats_local_disk() {
                "BEATS"
            } else {
                "LOSES TO"
            },
            self.paging_bytes_per_sec / 1e3,
            100.0 * self.ethernet_utilization,
            self.server_bytes_per_sec / 1e3,
            100.0 * self.ethernet_utilization_total,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_hold_for_default_config() {
        let mut c = CounterSet::new();
        // 42 KB/s of paging for a day.
        let day = 86_400.0;
        c.add(srv::PAGING_READ, (42_000.0 * day * 0.6) as u64);
        c.add(srv::PAGING_WRITE, (42_000.0 * day * 0.4) as u64);
        let r = latency_report(&c, day);
        assert!(
            (6.0..7.5).contains(&r.network_fetch_ms),
            "{}",
            r.network_fetch_ms
        );
        assert!((20.0..30.0).contains(&r.local_disk_ms));
        assert!(r.network_beats_local_disk());
        // ~42 KB/s is about 3-4% of a 10 Mbit/s Ethernet.
        assert!(
            (0.03..0.05).contains(&r.ethernet_utilization),
            "{}",
            r.ethernet_utilization
        );
    }

    #[test]
    fn empty_counters_are_safe() {
        let r = latency_report(&CounterSet::new(), 0.0);
        assert_eq!(r.paging_bytes_per_sec, 0.0);
        assert!(!r.render().is_empty());
    }
}
