//! Table 2: user activity over 10-minute and 10-second intervals.
//!
//! The trace is divided into fixed intervals; a user is *active* in an
//! interval if any of their records falls in it. Throughput attributes an
//! access's bytes at the trace event that reports them (close and
//! reposition boundaries, and individual shared reads/writes) — the same
//! timing resolution the original traces had.

use sdfs_simkit::FastMap;

use sdfs_simkit::{SimDuration, SimTime, Summary};
use sdfs_trace::{Record, RecordKind, UserId};

/// Activity statistics for one interval width and one population.
#[derive(Debug, Clone, Default)]
pub struct ActivityStats {
    /// Interval width used.
    pub width: SimDuration,
    /// Mean and deviation of the number of active users per interval
    /// (all intervals in the trace duration, including idle ones).
    pub active_users: Summary,
    /// Maximum number of simultaneously active users in any interval.
    pub max_active_users: u64,
    /// Mean and deviation of per-user throughput, over user-intervals,
    /// in bytes/second.
    pub throughput_per_user: Summary,
    /// Highest single user-interval throughput, bytes/second.
    pub peak_user_throughput: f64,
    /// Highest whole-cluster throughput in one interval, bytes/second.
    pub peak_total_throughput: f64,
}

/// Table 2: both interval widths for all users and for users with
/// migrated processes.
#[derive(Debug, Clone)]
pub struct UserActivity {
    /// All users, 10-minute intervals.
    pub ten_min_all: ActivityStats,
    /// Migrated activity only, 10-minute intervals.
    pub ten_min_migrated: ActivityStats,
    /// All users, 10-second intervals.
    pub ten_sec_all: ActivityStats,
    /// Migrated activity only, 10-second intervals.
    pub ten_sec_migrated: ActivityStats,
}

/// Bytes a record contributes to throughput at its own timestamp.
fn record_bytes(rec: &Record) -> u64 {
    match &rec.kind {
        // Close carries the final run; earlier runs were already counted
        // at their reposition boundaries. Shared (pass-through) reads and
        // writes are excluded here because they are also accumulated into
        // the handle totals and reported at the boundaries.
        RecordKind::Close {
            run_read,
            run_written,
            ..
        } => run_read + run_written,
        RecordKind::Reposition {
            run_read,
            run_written,
            ..
        } => run_read + run_written,
        _ => 0,
    }
}

/// Streaming accumulator for one interval width and one population.
///
/// Feed every record via [`ActivityAccumulator::record`], then call
/// [`ActivityAccumulator::finish`]. [`analyze_activity`] and the fused
/// single-pass driver share this code, so both produce the same numbers.
#[derive(Debug)]
pub struct ActivityAccumulator {
    width: SimDuration,
    migrated_only: bool,
    /// Bytes per (interval, user), with an entry (possibly zero bytes)
    /// for every user active in an interval.
    user_interval_bytes: FastMap<(u64, UserId), u64>,
    end: SimTime,
}

impl ActivityAccumulator {
    /// Creates an accumulator for one interval width; with
    /// `migrated_only`, only records from migrated processes count —
    /// both for activity and for bytes (the paper's second column).
    pub fn new(width: SimDuration, migrated_only: bool) -> Self {
        ActivityAccumulator {
            width,
            migrated_only,
            user_interval_bytes: FastMap::default(),
            end: SimTime::ZERO,
        }
    }

    /// Accumulates one record.
    pub fn record(&mut self, rec: &Record) {
        self.end = self.end.max(rec.time);
        if self.migrated_only && !rec.migrated {
            return;
        }
        let idx = rec.time.interval_index(self.width);
        *self.user_interval_bytes.entry((idx, rec.user)).or_insert(0) += record_bytes(rec);
    }

    /// Finalizes the statistics. User-interval entries are walked in
    /// sorted key order so the floating-point summaries are bit-identical
    /// across runs regardless of hash-map iteration order.
    pub fn finish(self) -> ActivityStats {
        let n_intervals = self.end.interval_index(self.width) + 1;
        let secs = self.width.as_secs_f64();

        let mut entries: Vec<((u64, UserId), u64)> = self.user_interval_bytes.into_iter().collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        let mut active_users = Summary::new();
        let mut max_active = 0u64;
        let mut throughput = Summary::new();
        let mut peak_user = 0.0f64;
        let mut peak_total = 0.0f64;
        let mut rest = entries.as_slice();
        for idx in 0..n_intervals {
            let n = rest.iter().take_while(|&&((i, _), _)| i == idx).count();
            let (here, tail) = rest.split_at(n);
            rest = tail;
            active_users.add(n as f64);
            max_active = max_active.max(n as u64);
            let mut total = 0u64;
            for &(_, bytes) in here.iter().filter(|&&(_, bytes)| bytes > 0) {
                let rate = bytes as f64 / secs;
                throughput.add(rate);
                peak_user = peak_user.max(rate);
                total += bytes;
            }
            peak_total = peak_total.max(total as f64 / secs);
        }

        ActivityStats {
            width: self.width,
            active_users,
            max_active_users: max_active,
            throughput_per_user: throughput,
            peak_user_throughput: peak_user,
            peak_total_throughput: peak_total,
        }
    }
}

/// Computes activity statistics for one interval width.
///
/// With `migrated_only`, only records from migrated processes count —
/// both for activity and for bytes (the paper's second column).
pub fn analyze_activity<'a>(
    records: impl IntoIterator<Item = &'a Record>,
    width: SimDuration,
    migrated_only: bool,
) -> ActivityStats {
    let mut acc = ActivityAccumulator::new(width, migrated_only);
    for rec in records {
        acc.record(rec);
    }
    acc.finish()
}

/// Streaming accumulator for the full Table 2: all four
/// width × population combinations in one pass.
#[derive(Debug)]
pub struct Table2Accumulator {
    ten_min_all: ActivityAccumulator,
    ten_min_migrated: ActivityAccumulator,
    ten_sec_all: ActivityAccumulator,
    ten_sec_migrated: ActivityAccumulator,
}

impl Table2Accumulator {
    /// Creates the four accumulators.
    pub fn new() -> Self {
        let ten_min = SimDuration::from_mins(10);
        let ten_sec = SimDuration::from_secs(10);
        Table2Accumulator {
            ten_min_all: ActivityAccumulator::new(ten_min, false),
            ten_min_migrated: ActivityAccumulator::new(ten_min, true),
            ten_sec_all: ActivityAccumulator::new(ten_sec, false),
            ten_sec_migrated: ActivityAccumulator::new(ten_sec, true),
        }
    }

    /// Accumulates one record into all four views.
    pub fn record(&mut self, rec: &Record) {
        self.ten_min_all.record(rec);
        self.ten_min_migrated.record(rec);
        self.ten_sec_all.record(rec);
        self.ten_sec_migrated.record(rec);
    }

    /// Finalizes Table 2.
    pub fn finish(self) -> UserActivity {
        UserActivity {
            ten_min_all: self.ten_min_all.finish(),
            ten_min_migrated: self.ten_min_migrated.finish(),
            ten_sec_all: self.ten_sec_all.finish(),
            ten_sec_migrated: self.ten_sec_migrated.finish(),
        }
    }
}

impl Default for Table2Accumulator {
    fn default() -> Self {
        Table2Accumulator::new()
    }
}

/// Computes the full Table 2.
pub fn table2(records: &[Record]) -> UserActivity {
    let mut acc = Table2Accumulator::new();
    for rec in records {
        acc.record(rec);
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfs_trace::{ClientId, FileId, Handle, Pid};

    fn close_rec(t: u64, user: u32, bytes: u64, migrated: bool) -> Record {
        Record {
            time: SimTime::from_secs(t),
            client: ClientId(0),
            user: UserId(user),
            pid: Pid(0),
            migrated,
            kind: RecordKind::Close {
                fd: Handle(t),
                file: FileId(1),
                offset: bytes,
                run_read: bytes,
                run_written: 0,
                total_read: bytes,
                total_written: 0,
                size: bytes,
                opened_at: SimTime::from_secs(t.saturating_sub(1)),
            },
        }
    }

    #[test]
    fn counts_active_users_per_interval() {
        let records = vec![
            close_rec(5, 1, 1000, false),
            close_rec(7, 2, 1000, false),
            close_rec(15, 1, 2000, false),
        ];
        let stats = analyze_activity(&records, SimDuration::from_secs(10), false);
        // Two intervals: [0,10) has users {1,2}, [10,20) has {1}.
        assert_eq!(stats.max_active_users, 2);
        assert!((stats.active_users.mean() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn throughput_per_user() {
        let records = vec![close_rec(5, 1, 10_000, false)];
        let stats = analyze_activity(&records, SimDuration::from_secs(10), false);
        assert!((stats.throughput_per_user.mean() - 1_000.0).abs() < 1e-9);
        assert!((stats.peak_user_throughput - 1_000.0).abs() < 1e-9);
        assert!((stats.peak_total_throughput - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn peak_total_sums_users() {
        let records = vec![
            close_rec(5, 1, 10_000, false),
            close_rec(6, 2, 30_000, false),
        ];
        let stats = analyze_activity(&records, SimDuration::from_secs(10), false);
        assert!((stats.peak_total_throughput - 4_000.0).abs() < 1e-9);
        assert!((stats.peak_user_throughput - 3_000.0).abs() < 1e-9);
    }

    #[test]
    fn migrated_filter() {
        let records = vec![
            close_rec(5, 1, 10_000, false),
            close_rec(6, 2, 20_000, true),
        ];
        let stats = analyze_activity(&records, SimDuration::from_secs(10), true);
        assert_eq!(stats.max_active_users, 1);
        assert!((stats.peak_user_throughput - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn idle_intervals_drag_the_mean() {
        // One event at t=95: ten intervals of 10 s, only the last active.
        let records = vec![close_rec(95, 1, 1000, false)];
        let stats = analyze_activity(&records, SimDuration::from_secs(10), false);
        assert!((stats.active_users.mean() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn reposition_boundaries_attribute_bytes() {
        // A long random access reports each run at its seek boundary, so
        // bytes land in the interval where the run completed.
        let mut records = vec![Record {
            time: SimTime::from_secs(5),
            client: ClientId(0),
            user: UserId(1),
            pid: Pid(0),
            migrated: false,
            kind: RecordKind::Reposition {
                fd: Handle(1),
                file: FileId(1),
                from: 100,
                to: 900,
                run_read: 5_000,
                run_written: 0,
            },
        }];
        records.push(close_rec(25, 1, 3_000, false));
        let stats = analyze_activity(&records, SimDuration::from_secs(10), false);
        // Interval 0 carries the 5 000-byte run; interval 2 the close.
        assert!((stats.peak_user_throughput - 500.0).abs() < 1e-9);
        assert_eq!(stats.max_active_users, 1);
        assert_eq!(stats.active_users.count(), 3, "three intervals");
    }

    #[test]
    fn shared_records_mark_activity_without_bytes() {
        // Pass-through reads count as activity (the user appears in the
        // interval) but their bytes are reported via the handle totals at
        // the boundaries, so no double counting happens here.
        let records = vec![Record {
            time: SimTime::from_secs(5),
            client: ClientId(0),
            user: UserId(9),
            pid: Pid(0),
            migrated: false,
            kind: RecordKind::SharedRead {
                file: FileId(1),
                offset: 0,
                len: 1_000,
            },
        }];
        let stats = analyze_activity(&records, SimDuration::from_secs(10), false);
        assert_eq!(stats.max_active_users, 1);
        assert_eq!(stats.peak_total_throughput, 0.0);
    }

    #[test]
    fn table2_shape() {
        let records = vec![close_rec(5, 1, 1000, false)];
        let t = table2(&records);
        assert_eq!(t.ten_min_all.width, SimDuration::from_mins(10));
        assert_eq!(t.ten_sec_all.width, SimDuration::from_secs(10));
    }
}
