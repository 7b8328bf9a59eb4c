//! Tables 4–9: cache behaviour from the kernel counters.
//!
//! These analyses consume the per-machine counters and cache-size samples
//! the simulated cluster maintains (mirroring the ~50 counters the real
//! study sampled for two weeks). Standard deviations are computed the way
//! the paper's table captions describe: per-machine daily averages
//! relative to the overall long-term average, which is why the study
//! snapshots counters at day boundaries.

use sdfs_simkit::{CounterSet, SimDuration, Summary};
use sdfs_spritefs::metrics::{cache as mc, clean, mig, raw, replace, server, srv, MachineMetrics};

/// Table 4: client cache sizes and their variation over time.
#[derive(Debug, Clone, Default)]
pub struct Table4 {
    /// Cache size over active samples, bytes.
    pub size: Summary,
    /// Size changes (max − min) within 15-minute windows, bytes.
    pub change_15min: Summary,
    /// Size changes within 60-minute windows, bytes.
    pub change_60min: Summary,
}

fn window_changes(metrics: &MachineMetrics, width: SimDuration, out: &mut Summary) {
    use sdfs_simkit::FastMap;
    let mut windows: FastMap<u64, (u64, u64, bool)> = FastMap::default();
    for s in &metrics.samples {
        let w = s.time.interval_index(width);
        let e = windows.entry(w).or_insert((u64::MAX, 0, false));
        e.0 = e.0.min(s.bytes);
        e.1 = e.1.max(s.bytes);
        e.2 |= s.active;
    }
    for (_, (lo, hi, active)) in windows {
        // Screen: only windows where the machine saw user activity, as
        // the paper did.
        if active && hi >= lo {
            out.add((hi - lo) as f64);
        }
    }
}

/// Computes Table 4 from per-client metrics.
pub fn table4(clients: &[MachineMetrics]) -> Table4 {
    let mut t = Table4::default();
    for m in clients {
        for s in &m.samples {
            if s.active {
                t.size.add(s.bytes as f64);
            }
        }
        window_changes(m, SimDuration::from_mins(15), &mut t.change_15min);
        window_changes(m, SimDuration::from_mins(60), &mut t.change_60min);
    }
    t
}

/// The raw-traffic byte breakdown behind Table 5.
#[derive(Debug, Clone, Copy, Default)]
pub struct RawTraffic {
    /// Cacheable file reads.
    pub file_read: u64,
    /// Cacheable file writes.
    pub file_write: u64,
    /// Cacheable paging reads (code + initialized data).
    pub paging_cached_read: u64,
    /// Backing-file page-ins (uncacheable).
    pub paging_backing_read: u64,
    /// Backing-file page-outs (uncacheable).
    pub paging_backing_write: u64,
    /// Write-shared pass-through reads.
    pub shared_read: u64,
    /// Write-shared pass-through writes.
    pub shared_write: u64,
    /// Directory reads (uncacheable).
    pub dir_read: u64,
}

impl RawTraffic {
    /// Extracts the breakdown from a counter set.
    pub fn from_counters(c: &CounterSet) -> Self {
        RawTraffic {
            file_read: c.get(raw::FILE_READ),
            file_write: c.get(raw::FILE_WRITE),
            paging_cached_read: c.get(raw::PAGING_CODE_READ) + c.get(raw::PAGING_INITDATA_READ),
            paging_backing_read: c.get(raw::PAGING_BACKING_READ),
            paging_backing_write: c.get(raw::PAGING_BACKING_WRITE),
            shared_read: c.get(raw::SHARED_READ),
            shared_write: c.get(raw::SHARED_WRITE),
            dir_read: c.get(raw::DIR_READ),
        }
    }

    /// Total raw bytes.
    pub fn total(&self) -> u64 {
        self.file_read
            + self.file_write
            + self.paging_cached_read
            + self.paging_backing_read
            + self.paging_backing_write
            + self.shared_read
            + self.shared_write
            + self.dir_read
    }

    /// All read bytes.
    pub fn reads(&self) -> u64 {
        self.file_read
            + self.paging_cached_read
            + self.paging_backing_read
            + self.shared_read
            + self.dir_read
    }

    /// All write bytes.
    pub fn writes(&self) -> u64 {
        self.file_write + self.paging_backing_write + self.shared_write
    }

    /// All paging bytes (cached and uncacheable).
    pub fn paging(&self) -> u64 {
        self.paging_cached_read + self.paging_backing_read + self.paging_backing_write
    }

    /// Fraction of raw traffic that cannot be cached on clients.
    pub fn uncacheable_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        (self.paging_backing_read
            + self.paging_backing_write
            + self.shared_read
            + self.shared_write
            + self.dir_read) as f64
            / t as f64
    }
}

/// One percentage cell with its machine-day deviation.
#[derive(Debug, Clone, Copy, Default)]
pub struct PctCell {
    /// Percentage of total traffic.
    pub pct: f64,
    /// Standard deviation of per-machine-day percentages.
    pub std: f64,
}

/// Table 5: sources and types of raw client traffic.
#[derive(Debug, Clone, Default)]
pub struct Table5 {
    /// Cacheable file traffic (read%, write%).
    pub files: (PctCell, PctCell),
    /// Cacheable paging traffic (read% only; code and initialized data
    /// are never written through this path).
    pub paging_cached: PctCell,
    /// Uncacheable backing-file paging (read%, write%).
    pub paging_backing: (PctCell, PctCell),
    /// Write-shared pass-through traffic (read%, write%).
    pub shared: (PctCell, PctCell),
    /// Directory reads.
    pub dirs: PctCell,
    /// Total read and write percentages.
    pub total: (f64, f64),
    /// Paging share of all raw traffic (the paper's ~35%).
    pub paging_fraction: f64,
    /// Uncacheable share of all raw traffic (the paper's ~20%).
    pub uncacheable_fraction: f64,
}

fn pct(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        100.0 * n as f64 / d as f64
    }
}

/// Computes a cell's deviation across machine-day deltas.
fn cell_std(per_day: &[Vec<CounterSet>], f: impl Fn(&RawTraffic) -> u64) -> f64 {
    let mut s = Summary::new();
    for day in per_day {
        for c in day {
            let t = RawTraffic::from_counters(c);
            let total = t.total();
            if total > 0 {
                s.add(pct(f(&t), total));
            }
        }
    }
    s.stddev()
}

/// Computes Table 5.
pub fn table5(total: &CounterSet, per_day: &[Vec<CounterSet>]) -> Table5 {
    let t = RawTraffic::from_counters(total);
    let all = t.total();
    let cell = |n: u64, f: &dyn Fn(&RawTraffic) -> u64| PctCell {
        pct: pct(n, all),
        std: cell_std(per_day, f),
    };
    Table5 {
        files: (
            cell(t.file_read, &|t| t.file_read),
            cell(t.file_write, &|t| t.file_write),
        ),
        paging_cached: cell(t.paging_cached_read, &|t| t.paging_cached_read),
        paging_backing: (
            cell(t.paging_backing_read, &|t| t.paging_backing_read),
            cell(t.paging_backing_write, &|t| t.paging_backing_write),
        ),
        shared: (
            cell(t.shared_read, &|t| t.shared_read),
            cell(t.shared_write, &|t| t.shared_write),
        ),
        dirs: cell(t.dir_read, &|t| t.dir_read),
        total: (pct(t.reads(), all), pct(t.writes(), all)),
        paging_fraction: pct(t.paging(), all) / 100.0,
        uncacheable_fraction: t.uncacheable_fraction(),
    }
}

/// Table 6: client cache effectiveness, with the migrated-process
/// column.
#[derive(Debug, Clone, Default)]
pub struct Table6 {
    /// Percent of cache read operations that missed (all / migrated).
    pub read_miss_pct: (PctCell, PctCell),
    /// Bytes fetched from servers over bytes read by applications.
    pub read_miss_traffic_pct: (PctCell, PctCell),
    /// Bytes written to servers over bytes written to the cache. It can
    /// exceed 100%: a cleaned block is sent whole up to end of file, so
    /// bytes the application did not rewrite in that dirty episode are
    /// sent again (nothing is padded past end of file).
    pub writeback_pct: PctCell,
    /// Percent of cache writes that required fetching the block first.
    pub write_fetch_pct: (PctCell, PctCell),
    /// Percent of paging (code/init-data) cache reads that missed.
    pub paging_miss_pct: (PctCell, PctCell),
}

fn ratio_pct(c: &CounterSet, num: &str, den: &str) -> f64 {
    100.0 * c.ratio(num, den)
}

fn ratio_std(per_day: &[Vec<CounterSet>], num: &'static str, den: &'static str) -> f64 {
    let mut s = Summary::new();
    for day in per_day {
        for c in day {
            if c.get(den) > 0 {
                s.add(ratio_pct(c, num, den));
            }
        }
    }
    s.stddev()
}

/// Computes Table 6.
pub fn table6(total: &CounterSet, per_day: &[Vec<CounterSet>]) -> Table6 {
    let cell = |num: &'static str, den: &'static str| PctCell {
        pct: ratio_pct(total, num, den),
        std: ratio_std(per_day, num, den),
    };
    Table6 {
        read_miss_pct: (
            cell(mc::READ_MISS_OPS, mc::READ_OPS),
            cell(mig::READ_MISS_OPS, mig::READ_OPS),
        ),
        read_miss_traffic_pct: (
            cell(mc::READ_MISS_BYTES, mc::READ_REQ_BYTES),
            cell(mig::READ_MISS_BYTES, mig::READ_REQ_BYTES),
        ),
        writeback_pct: cell(mc::WRITEBACK_BYTES, mc::WRITE_BYTES),
        write_fetch_pct: (
            cell(mc::WRITE_FETCH_OPS, mc::WRITE_OPS),
            cell(mig::WRITE_FETCH_OPS, mig::WRITE_OPS),
        ),
        paging_miss_pct: (
            cell(mc::PAGING_READ_MISS_OPS, mc::PAGING_READ_OPS),
            cell(mig::PAGING_READ_MISS_OPS, mig::PAGING_READ_OPS),
        ),
    }
}

/// The server-traffic byte breakdown behind Table 7.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerTraffic {
    /// File bytes read from servers.
    pub file_read: u64,
    /// File bytes written to servers.
    pub file_write: u64,
    /// Paging bytes read.
    pub paging_read: u64,
    /// Paging bytes written.
    pub paging_write: u64,
    /// Write-shared pass-through reads.
    pub shared_read: u64,
    /// Write-shared pass-through writes.
    pub shared_write: u64,
    /// Directory bytes.
    pub dir_read: u64,
}

impl ServerTraffic {
    /// Extracts the breakdown from a counter set.
    pub fn from_counters(c: &CounterSet) -> Self {
        ServerTraffic {
            file_read: c.get(srv::FILE_READ),
            file_write: c.get(srv::FILE_WRITE),
            paging_read: c.get(srv::PAGING_READ),
            paging_write: c.get(srv::PAGING_WRITE),
            shared_read: c.get(srv::SHARED_READ),
            shared_write: c.get(srv::SHARED_WRITE),
            dir_read: c.get(srv::DIR_READ),
        }
    }

    /// Total bytes between clients and servers.
    pub fn total(&self) -> u64 {
        self.file_read
            + self.file_write
            + self.paging_read
            + self.paging_write
            + self.shared_read
            + self.shared_write
            + self.dir_read
    }
}

/// Table 7: traffic between clients and servers after cache filtering.
#[derive(Debug, Clone, Default)]
pub struct Table7 {
    /// File traffic (read%, write%).
    pub files: (PctCell, PctCell),
    /// Paging traffic (read%, write%).
    pub paging: (PctCell, PctCell),
    /// Write-shared traffic (read%, write%).
    pub shared: (PctCell, PctCell),
    /// Directory reads.
    pub dirs: PctCell,
    /// Non-paging read:write ratio (the paper's ~2:1).
    pub nonpaging_read_write_ratio: f64,
    /// Paging share of server traffic (~35% in the paper).
    pub paging_fraction: f64,
    /// Server bytes over raw bytes: the cache filter ratio (~50%).
    pub server_over_raw: f64,
}

/// Computes Table 7. Needs the raw totals to report the overall filter
/// ratio.
pub fn table7(total: &CounterSet, per_day: &[Vec<CounterSet>]) -> Table7 {
    let t = ServerTraffic::from_counters(total);
    let all = t.total();
    let std = |f: &'static dyn Fn(&ServerTraffic) -> u64| {
        let mut s = Summary::new();
        for day in per_day {
            for c in day {
                let st = ServerTraffic::from_counters(c);
                if st.total() > 0 {
                    s.add(pct(f(&st), st.total()));
                }
            }
        }
        s.stddev()
    };
    let raw_total = RawTraffic::from_counters(total).total();
    let nonpaging_reads = t.file_read + t.shared_read + t.dir_read;
    let nonpaging_writes = t.file_write + t.shared_write;
    Table7 {
        files: (
            PctCell {
                pct: pct(t.file_read, all),
                std: std(&|t| t.file_read),
            },
            PctCell {
                pct: pct(t.file_write, all),
                std: std(&|t| t.file_write),
            },
        ),
        paging: (
            PctCell {
                pct: pct(t.paging_read, all),
                std: std(&|t| t.paging_read),
            },
            PctCell {
                pct: pct(t.paging_write, all),
                std: std(&|t| t.paging_write),
            },
        ),
        shared: (
            PctCell {
                pct: pct(t.shared_read, all),
                std: std(&|t| t.shared_read),
            },
            PctCell {
                pct: pct(t.shared_write, all),
                std: std(&|t| t.shared_write),
            },
        ),
        dirs: PctCell {
            pct: pct(t.dir_read, all),
            std: std(&|t| t.dir_read),
        },
        nonpaging_read_write_ratio: if nonpaging_writes == 0 {
            0.0
        } else {
            nonpaging_reads as f64 / nonpaging_writes as f64
        },
        paging_fraction: pct(t.paging_read + t.paging_write, all) / 100.0,
        server_over_raw: if raw_total == 0 {
            0.0
        } else {
            all as f64 / raw_total as f64
        },
    }
}

/// Server-side cache effectiveness (the paper's note under Table 7: the
/// server's own cache further reduces what its disks see).
#[derive(Debug, Clone, Default)]
pub struct ServerCacheStats {
    /// Block reads served from the server cache.
    pub read_hits: u64,
    /// Block reads that went to disk.
    pub read_misses: u64,
    /// Bytes read from disks.
    pub disk_read_bytes: u64,
    /// Bytes written to disks.
    pub disk_write_bytes: u64,
    /// Bytes clients requested from servers.
    pub served_read_bytes: u64,
}

impl ServerCacheStats {
    /// Fraction of server block reads absorbed by the server cache.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.read_hits + self.read_misses;
        if total == 0 {
            0.0
        } else {
            self.read_hits as f64 / total as f64
        }
    }

    /// Disk read bytes over client-requested read bytes: how much of the
    /// read traffic actually reaches the spindles.
    pub fn disk_over_served(&self) -> f64 {
        if self.served_read_bytes == 0 {
            0.0
        } else {
            self.disk_read_bytes as f64 / self.served_read_bytes as f64
        }
    }
}

/// Aggregates server-cache statistics across servers.
pub fn server_cache_stats(servers: &[CounterSet]) -> ServerCacheStats {
    let mut out = ServerCacheStats::default();
    for c in servers {
        out.read_hits += c.get(server::CACHE_READ_HIT);
        out.read_misses += c.get(server::CACHE_READ_MISS);
        out.disk_read_bytes += c.get(server::DISK_READ_BYTES);
        out.disk_write_bytes += c.get(server::DISK_WRITE_BYTES);
        out.served_read_bytes += c.get(server::READ_BYTES);
    }
    out
}

/// Table 8: cache block replacement.
#[derive(Debug, Clone, Default)]
pub struct Table8 {
    /// Percent of replacements that made room for another file block.
    pub file_pct: f64,
    /// Percent handed to the virtual memory system.
    pub vm_pct: f64,
    /// Average minutes since last reference, for file replacements.
    pub file_age_mins: f64,
    /// Average minutes since last reference, for VM handoffs.
    pub vm_age_mins: f64,
}

/// Computes Table 8.
pub fn table8(total: &CounterSet) -> Table8 {
    let fb = total.get(replace::FILE_BLOCKS);
    let vb = total.get(replace::VM_BLOCKS);
    let sum = fb + vb;
    let age = |age_us: u64, blocks: u64| {
        if blocks == 0 {
            0.0
        } else {
            age_us as f64 / blocks as f64 / 60e6
        }
    };
    Table8 {
        file_pct: pct(fb, sum),
        vm_pct: pct(vb, sum),
        file_age_mins: age(total.get(replace::FILE_AGE_US), fb),
        vm_age_mins: age(total.get(replace::VM_AGE_US), vb),
    }
}

/// One row of Table 9.
#[derive(Debug, Clone, Copy, Default)]
pub struct CleanRow {
    /// Percent of blocks cleaned for this reason.
    pub blocks_pct: f64,
    /// Average seconds between last write and write-back.
    pub age_secs: f64,
}

/// Table 9: why dirty blocks were cleaned.
#[derive(Debug, Clone, Default)]
pub struct Table9 {
    /// The 30-second delayed-write policy.
    pub delay: CleanRow,
    /// Application-requested write-through (`fsync`).
    pub fsync: CleanRow,
    /// Server recall for another client's access.
    pub recall: CleanRow,
    /// Page handed to the virtual memory system.
    pub vm: CleanRow,
    /// Dirty LRU eviction (should be ~0; the paper folds this away).
    pub evict: CleanRow,
}

/// Computes Table 9.
pub fn table9(total: &CounterSet) -> Table9 {
    let rows = [
        (clean::DELAY_BLOCKS, clean::DELAY_AGE_US),
        (clean::FSYNC_BLOCKS, clean::FSYNC_AGE_US),
        (clean::RECALL_BLOCKS, clean::RECALL_AGE_US),
        (clean::VM_BLOCKS, clean::VM_AGE_US),
        (clean::EVICT_BLOCKS, clean::EVICT_AGE_US),
    ];
    let sum: u64 = rows.iter().map(|(b, _)| total.get(b)).sum();
    let mk = |blocks_key: &str, age_key: &str| {
        let b = total.get(blocks_key);
        CleanRow {
            blocks_pct: pct(b, sum),
            age_secs: if b == 0 {
                0.0
            } else {
                total.get(age_key) as f64 / b as f64 / 1e6
            },
        }
    };
    Table9 {
        delay: mk(clean::DELAY_BLOCKS, clean::DELAY_AGE_US),
        fsync: mk(clean::FSYNC_BLOCKS, clean::FSYNC_AGE_US),
        recall: mk(clean::RECALL_BLOCKS, clean::RECALL_AGE_US),
        vm: mk(clean::VM_BLOCKS, clean::VM_AGE_US),
        evict: mk(clean::EVICT_BLOCKS, clean::EVICT_AGE_US),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfs_simkit::SimTime;

    #[test]
    fn raw_traffic_math() {
        let mut c = CounterSet::new();
        c.add(raw::FILE_READ, 400);
        c.add(raw::FILE_WRITE, 100);
        c.add(raw::PAGING_CODE_READ, 150);
        c.add(raw::PAGING_BACKING_READ, 100);
        c.add(raw::PAGING_BACKING_WRITE, 100);
        c.add(raw::SHARED_READ, 10);
        c.add(raw::DIR_READ, 140);
        let t = RawTraffic::from_counters(&c);
        assert_eq!(t.total(), 1000);
        assert_eq!(t.reads(), 800);
        assert_eq!(t.writes(), 200);
        assert_eq!(t.paging(), 350);
        assert!((t.uncacheable_fraction() - 0.35).abs() < 1e-9);
    }

    #[test]
    fn table5_percentages() {
        let mut c = CounterSet::new();
        c.add(raw::FILE_READ, 500);
        c.add(raw::FILE_WRITE, 500);
        let t = table5(&c, &[]);
        assert!((t.files.0.pct - 50.0).abs() < 1e-9);
        assert!((t.total.0 - 50.0).abs() < 1e-9);
        assert!((t.total.1 - 50.0).abs() < 1e-9);
    }

    #[test]
    fn table6_ratios() {
        let mut c = CounterSet::new();
        c.add(mc::READ_OPS, 100);
        c.add(mc::READ_MISS_OPS, 40);
        c.add(mc::WRITE_BYTES, 1000);
        c.add(mc::WRITEBACK_BYTES, 900);
        c.add(mc::WRITE_OPS, 50);
        c.add(mc::WRITE_FETCH_OPS, 1);
        let t = table6(&c, &[]);
        assert!((t.read_miss_pct.0.pct - 40.0).abs() < 1e-9);
        assert!((t.writeback_pct.pct - 90.0).abs() < 1e-9);
        assert!((t.write_fetch_pct.0.pct - 2.0).abs() < 1e-9);
    }

    #[test]
    fn table7_ratios() {
        let mut c = CounterSet::new();
        c.add(srv::FILE_READ, 400);
        c.add(srv::FILE_WRITE, 200);
        c.add(srv::PAGING_READ, 250);
        c.add(srv::PAGING_WRITE, 150);
        c.add(raw::FILE_READ, 2000);
        let t = table7(&c, &[]);
        assert!((t.files.0.pct - 40.0).abs() < 1e-9);
        assert!((t.paging_fraction - 0.4).abs() < 1e-9);
        assert!((t.nonpaging_read_write_ratio - 2.0).abs() < 1e-9);
        assert!((t.server_over_raw - 0.5).abs() < 1e-9);
    }

    #[test]
    fn table8_ages() {
        let mut c = CounterSet::new();
        c.add(replace::FILE_BLOCKS, 80);
        c.add(replace::VM_BLOCKS, 20);
        c.add(replace::FILE_AGE_US, 80 * 60_000_000);
        c.add(replace::VM_AGE_US, 20 * 120_000_000);
        let t = table8(&c);
        assert!((t.file_pct - 80.0).abs() < 1e-9);
        assert!((t.vm_pct - 20.0).abs() < 1e-9);
        assert!((t.file_age_mins - 1.0).abs() < 1e-9);
        assert!((t.vm_age_mins - 2.0).abs() < 1e-9);
    }

    #[test]
    fn table9_rows() {
        let mut c = CounterSet::new();
        c.add(clean::DELAY_BLOCKS, 75);
        c.add(clean::DELAY_AGE_US, 75 * 40_000_000);
        c.add(clean::FSYNC_BLOCKS, 15);
        c.add(clean::RECALL_BLOCKS, 10);
        let t = table9(&c);
        assert!((t.delay.blocks_pct - 75.0).abs() < 1e-9);
        assert!((t.delay.age_secs - 40.0).abs() < 1e-9);
        assert!((t.fsync.blocks_pct - 15.0).abs() < 1e-9);
        assert_eq!(t.vm.blocks_pct, 0.0);
    }

    #[test]
    fn table4_changes() {
        let mut m = MachineMetrics::new();
        // Samples within one 15-minute window: min 4 MB, max 6 MB.
        m.sample(SimTime::from_secs(60), 4 << 20, true);
        m.sample(SimTime::from_secs(120), 6 << 20, true);
        m.sample(SimTime::from_secs(180), 5 << 20, true);
        // Another window, inactive: screened out.
        m.sample(SimTime::from_secs(2000), 1 << 20, false);
        let t = table4(&[m]);
        assert_eq!(t.size.count(), 3);
        assert!((t.change_15min.mean() - (2 << 20) as f64).abs() < 1.0);
        assert_eq!(t.change_15min.count(), 1, "inactive window screened");
    }

    #[test]
    fn server_cache_stats_aggregate() {
        let mut a = CounterSet::new();
        a.add("server.cache.read.hit", 80);
        a.add("server.cache.read.miss", 20);
        a.add("server.disk.read.bytes", 20 * 4096);
        a.add("server.read.bytes", 100 * 4096);
        let mut b = CounterSet::new();
        b.add("server.cache.read.hit", 20);
        b.add("server.cache.read.miss", 80);
        let st = server_cache_stats(&[a, b]);
        assert!((st.hit_ratio() - 0.5).abs() < 1e-9);
        assert!((st.disk_over_served() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn per_day_deltas_drive_standard_deviations() {
        // Two machine-days with different miss ratios must produce a
        // nonzero deviation; identical days must produce zero.
        let mut day1 = CounterSet::new();
        day1.add(mc::READ_OPS, 100);
        day1.add(mc::READ_MISS_OPS, 10);
        let mut day2 = CounterSet::new();
        day2.add(mc::READ_OPS, 100);
        day2.add(mc::READ_MISS_OPS, 90);
        let mut total = CounterSet::new();
        total.merge(&day1);
        total.merge(&day2);
        let varied = table6(&total, &[vec![day1.clone()], vec![day2]]);
        assert!(varied.read_miss_pct.0.std > 10.0);
        let uniform = table6(&total, &[vec![day1.clone()], vec![day1]]);
        assert_eq!(uniform.read_miss_pct.0.std, 0.0);
    }

    #[test]
    fn table5_std_uses_machine_day_percentages() {
        let mut a = CounterSet::new();
        a.add(raw::FILE_READ, 90);
        a.add(raw::FILE_WRITE, 10);
        let mut b = CounterSet::new();
        b.add(raw::FILE_READ, 10);
        b.add(raw::FILE_WRITE, 90);
        let mut total = CounterSet::new();
        total.merge(&a);
        total.merge(&b);
        let t = table5(&total, &[vec![a, b]]);
        // 90% and 10% around a 50% mean: std = 40.
        assert!((t.files.0.std - 40.0).abs() < 1e-9, "{}", t.files.0.std);
        assert!((t.files.0.pct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_counters_are_safe() {
        let c = CounterSet::new();
        let _ = table5(&c, &[]);
        let _ = table6(&c, &[]);
        let _ = table7(&c, &[]);
        let _ = table8(&c);
        let _ = table9(&c);
        let _ = table4(&[]);
    }
}
