//! Randomized tests for the analysis layer: byte conservation in access
//! reconstruction, CDF sanity in the figures, monotonicity of the
//! polling simulation, and agreement of the Table 2 and Table 11
//! analyzers with plain reference models. Cases are generated with the
//! workspace's seeded `SimRng` so the suite is hermetic and reproducible
//! offline.

use sdfs_core::access::reconstruct;
use sdfs_core::activity::{analyze_activity, ActivityStats};
use sdfs_core::figures::{file_sizes, open_times, run_lengths};
use sdfs_core::staleness::{simulate_polling, PollingOutcome};
use sdfs_simkit::{FastSet, SimDuration, SimRng, SimTime, Summary};
use sdfs_trace::{ClientId, FileId, Handle, OpenMode, Pid, Record, RecordKind, UserId};

const CASES: usize = 128;

/// Generates a structurally valid trace: opens matched with closes and
/// interleaved repositions on a handful of files and clients.
fn valid_trace(rng: &mut SimRng) -> Vec<Record> {
    let n = rng.below(40) as usize;
    let mut records = Vec::new();
    let mut t = 0u64;
    for i in 0..n {
        let client = rng.below(4) as u16;
        let file = rng.below(6);
        let run1 = rng.below(100_000);
        let run2 = rng.below(100_000);
        let writes = rng.chance(0.5);
        let dur = rng.range(1, 500);
        t += 10;
        let fd = Handle(i as u64);
        let open_t = SimTime::from_secs(t);
        let close_t = SimTime::from_secs(t + dur);
        let mk = |time, kind| Record {
            time,
            client: ClientId(client),
            user: UserId(client as u32),
            pid: Pid(1),
            migrated: false,
            kind,
        };
        records.push(mk(
            open_t,
            RecordKind::Open {
                fd,
                file: FileId(file),
                mode: if writes {
                    OpenMode::ReadWrite
                } else {
                    OpenMode::Read
                },
                size: run1 + run2,
                is_dir: false,
            },
        ));
        let (r1, w1) = if writes { (0, run1) } else { (run1, 0) };
        let (r2, w2) = if writes { (0, run2) } else { (run2, 0) };
        if run2 > 0 {
            records.push(mk(
                SimTime::from_secs(t + dur / 2),
                RecordKind::Reposition {
                    fd,
                    file: FileId(file),
                    from: run1,
                    to: 0,
                    run_read: r1,
                    run_written: w1,
                },
            ));
            records.push(mk(
                close_t,
                RecordKind::Close {
                    fd,
                    file: FileId(file),
                    offset: run2,
                    run_read: r2,
                    run_written: w2,
                    total_read: r1 + r2,
                    total_written: w1 + w2,
                    size: run1 + run2,
                    opened_at: open_t,
                },
            ));
        } else {
            records.push(mk(
                close_t,
                RecordKind::Close {
                    fd,
                    file: FileId(file),
                    offset: run1,
                    run_read: r1,
                    run_written: w1,
                    total_read: r1,
                    total_written: w1,
                    size: run1 + run2,
                    opened_at: open_t,
                },
            ));
        }
    }
    records.sort_by_key(|r| r.time);
    records
}

/// Reconstruction conserves bytes: sum of run bytes equals the close
/// totals for every access.
#[test]
fn reconstruction_conserves_bytes() {
    let mut rng = SimRng::seed_from_u64(0x434f_5245_0001);
    for _ in 0..CASES {
        let records = valid_trace(&mut rng);
        let accesses = reconstruct(&records);
        for a in &accesses {
            let runs: u64 = a.runs.iter().map(|r| r.len()).sum();
            assert_eq!(runs, a.total_read + a.total_written);
        }
        let opens = records
            .iter()
            .filter(|r| matches!(r.kind, RecordKind::Open { .. }))
            .count();
        assert_eq!(accesses.len(), opens);
    }
}

/// Figure builders never produce weights exceeding their inputs and
/// their CDFs stay in [0, 1].
#[test]
fn figure_cdfs_are_sane() {
    let mut rng = SimRng::seed_from_u64(0x434f_5245_0002);
    for _ in 0..CASES {
        let records = valid_trace(&mut rng);
        let accesses = reconstruct(&records);
        let rl = run_lengths(&accesses);
        let fs = file_sizes(&accesses);
        let ot = open_times(&accesses);
        for x in [1.0, 1e3, 1e6, 1e9] {
            for f in [
                rl.by_runs.fraction_below(x),
                rl.by_bytes.fraction_below(x),
                fs.by_accesses.fraction_below(x),
                fs.by_bytes.fraction_below(x),
                ot.fraction_below(x),
            ] {
                assert!((0.0..=1.0 + 1e-12).contains(&f));
            }
        }
        // Total byte weight equals the bytes moved.
        let total: u64 = accesses.iter().map(|a| a.total_read + a.total_written).sum();
        assert!((rl.by_bytes.total_weight() - total as f64).abs() < 1e-6);
    }
}

/// Polling errors are monotone in the interval: trusting cached data
/// longer can never produce fewer stale opens.
#[test]
fn polling_errors_monotone_in_interval() {
    let mut rng = SimRng::seed_from_u64(0x434f_5245_0003);
    for _ in 0..CASES {
        let records = valid_trace(&mut rng);
        let short = simulate_polling(&records, SimDuration::from_secs(3));
        let long = simulate_polling(&records, SimDuration::from_secs(300));
        assert!(
            short.errors <= long.errors,
            "3 s errors {} must not exceed 300 s errors {}",
            short.errors,
            long.errors
        );
        assert!(short.file_opens == long.file_opens);
    }
}

/// The polling simulation never reports more erroneous opens than opens.
#[test]
fn polling_errors_bounded() {
    let mut rng = SimRng::seed_from_u64(0x434f_5245_0004);
    for _ in 0..CASES {
        let records = valid_trace(&mut rng);
        let secs = rng.range(1, 600);
        let out = simulate_polling(&records, SimDuration::from_secs(secs));
        assert!(out.opens_with_error <= out.file_opens);
        assert!(out.errors <= out.stale_events.max(out.errors));
        assert!(out.users_affected.len() <= out.total_users);
    }
}

/// Generates traces with every record kind the Table 2 and Table 11
/// analyzers branch on: opens (a few of directories) and closes with and
/// without written bytes, repositions, shared reads and writes, deletes
/// and truncates, from migrated and local processes. 2–4 clients work
/// on 3–6 files, so (client, file) pairs repeat, and timestamps repeat,
/// step by seconds, or jump by minutes across 10-minute intervals.
fn mixed_trace(rng: &mut SimRng) -> Vec<Record> {
    let clients = rng.range(2, 5);
    let files = rng.range(3, 7);
    let n = rng.range(10, 150);
    let mut records = Vec::new();
    let mut open: Vec<(Handle, ClientId, FileId, bool)> = Vec::new();
    let mut t = 0u64;
    for i in 0..n {
        t += match rng.below(10) {
            0 | 1 => 0,
            2..=5 => rng.range(1, 5),
            6..=8 => rng.range(1, 90),
            _ => rng.range(300, 900),
        };
        let mut client = ClientId(rng.below(clients) as u16);
        let file = FileId(rng.below(files));
        let kind = match rng.below(20) {
            0..=5 => {
                let fd = Handle(i);
                let mode = *rng.pick(&[OpenMode::Read, OpenMode::Write, OpenMode::ReadWrite]);
                let is_dir = rng.chance(0.05);
                if !is_dir {
                    open.push((fd, client, file, mode.writes()));
                }
                RecordKind::Open {
                    fd,
                    file,
                    mode,
                    size: rng.below(10_000),
                    is_dir,
                }
            }
            6..=9 if !open.is_empty() => {
                let (fd, c, file, writes) = open.swap_remove(rng.below(open.len() as u64) as usize);
                client = c;
                let written = if writes && rng.chance(0.7) {
                    rng.range(1, 5_000)
                } else {
                    0
                };
                let read = rng.below(5_000);
                RecordKind::Close {
                    fd,
                    file,
                    offset: read + written,
                    run_read: read,
                    run_written: written,
                    total_read: read,
                    total_written: written,
                    size: read + written,
                    opened_at: SimTime::from_secs(t.saturating_sub(1)),
                }
            }
            10 if !open.is_empty() => {
                let (fd, c, file, _) = open[rng.below(open.len() as u64) as usize];
                client = c;
                RecordKind::Reposition {
                    fd,
                    file,
                    from: 100,
                    to: 0,
                    run_read: rng.below(3_000),
                    run_written: 0,
                }
            }
            11..=13 => RecordKind::SharedRead {
                file,
                offset: 0,
                len: rng.range(1, 2_000),
            },
            14..=16 => RecordKind::SharedWrite {
                file,
                offset: 0,
                len: rng.range(1, 2_000),
            },
            17 | 18 => RecordKind::Delete {
                file,
                size: 100,
                is_dir: false,
                oldest_age: SimDuration::from_secs(5),
                newest_age: SimDuration::from_secs(1),
            },
            _ => RecordKind::Truncate {
                file,
                old_size: 100,
                oldest_age: SimDuration::from_secs(5),
                newest_age: SimDuration::from_secs(1),
            },
        };
        records.push(Record {
            time: SimTime::from_secs(t),
            client,
            user: UserId(rng.below(clients + 1) as u32),
            pid: Pid(1),
            migrated: rng.chance(0.3),
            kind,
        });
    }
    records
}

/// The Table 11 polling simulation and the Table 2 accumulator in their
/// plainest form: client views keyed by (client, file) and cleared by a
/// scan on delete, the write-through marks in a set beside them, and
/// active users as per-interval lists deduplicated at the end.
mod reference {
    use super::*;
    use sdfs_simkit::FastMap;

    #[derive(Clone, Copy, Default)]
    struct View {
        cached_version: u64,
        last_check: SimTime,
        has_cache: bool,
        flagged_version: u64,
    }

    #[derive(Default)]
    struct Polling {
        interval: SimDuration,
        versions: FastMap<FileId, u64>,
        views: FastMap<(ClientId, FileId), View>,
        users: FastSet<UserId>,
        affected: FastSet<UserId>,
        open_error: FastMap<(ClientId, FileId), bool>,
        stale_events: u64,
        shared_writer: FastSet<(ClientId, FileId)>,
        file_opens: u64,
        opens_with_error: u64,
        migrated_opens: u64,
        migrated_opens_with_error: u64,
        end: SimTime,
        start: Option<SimTime>,
    }

    impl Polling {
        fn read_access(
            &mut self,
            client: ClientId,
            file: FileId,
            user: UserId,
            now: SimTime,
        ) -> bool {
            let current = self.versions.get(&file).copied().unwrap_or(0);
            let v = self.views.entry((client, file)).or_default();
            if !v.has_cache {
                v.has_cache = true;
                v.cached_version = current;
                v.last_check = now;
                return false;
            }
            if now.since(v.last_check) > self.interval {
                v.last_check = now;
                v.cached_version = current;
                return false;
            }
            if v.cached_version != current && v.flagged_version != current {
                v.flagged_version = current;
                self.stale_events += 1;
                self.affected.insert(user);
                return true;
            }
            false
        }

        fn write(&mut self, client: ClientId, file: FileId, now: SimTime) {
            let v = self.versions.entry(file).or_insert(0);
            *v += 1;
            let current = *v;
            let view = self.views.entry((client, file)).or_default();
            view.has_cache = true;
            view.cached_version = current;
            view.last_check = now;
        }

        fn record(&mut self, rec: &Record) {
            self.users.insert(rec.user);
            self.end = self.end.max(rec.time);
            if self.start.is_none() {
                self.start = Some(rec.time);
            }
            match &rec.kind {
                RecordKind::Open {
                    file, mode, is_dir, ..
                } => {
                    if *is_dir {
                        return;
                    }
                    self.file_opens += 1;
                    if rec.migrated {
                        self.migrated_opens += 1;
                    }
                    let erroneous =
                        mode.reads() && self.read_access(rec.client, *file, rec.user, rec.time);
                    self.open_error.insert((rec.client, *file), erroneous);
                }
                RecordKind::SharedRead { file, .. } => {
                    let err = self.read_access(rec.client, *file, rec.user, rec.time);
                    if let Some(flag) = self.open_error.get_mut(&(rec.client, *file)) {
                        *flag |= err;
                    }
                }
                RecordKind::SharedWrite { file, .. } => {
                    self.write(rec.client, *file, rec.time);
                    self.shared_writer.insert((rec.client, *file));
                }
                RecordKind::Close {
                    file,
                    total_written,
                    ..
                } => {
                    let wrote_through = self.shared_writer.remove(&(rec.client, *file));
                    if *total_written > 0 && !wrote_through {
                        self.write(rec.client, *file, rec.time);
                    }
                    if self.open_error.remove(&(rec.client, *file)) == Some(true) {
                        self.opens_with_error += 1;
                        if rec.migrated {
                            self.migrated_opens_with_error += 1;
                        }
                    }
                }
                RecordKind::Delete { file, .. } | RecordKind::Truncate { file, .. } => {
                    self.versions.remove(file);
                    self.views.retain(|&(_, f), _| f != *file);
                    self.shared_writer.retain(|&(_, f)| f != *file);
                }
                _ => {}
            }
        }
    }

    pub fn polling(records: &[Record], interval: SimDuration) -> PollingOutcome {
        let mut sim = Polling {
            interval,
            ..Polling::default()
        };
        for rec in records {
            sim.record(rec);
        }
        let hours = (sim.end - sim.start.unwrap_or(SimTime::ZERO))
            .as_hours_f64()
            .max(1e-9);
        PollingOutcome {
            interval,
            errors: sim.opens_with_error,
            stale_events: sim.stale_events,
            errors_per_hour: sim.opens_with_error as f64 / hours,
            users_affected: sim.affected,
            total_users: sim.users.len(),
            users_seen: sim.users,
            file_opens: sim.file_opens,
            opens_with_error: sim.opens_with_error,
            migrated_opens: sim.migrated_opens,
            migrated_opens_with_error: sim.migrated_opens_with_error,
        }
    }

    pub fn activity(records: &[Record], width: SimDuration, migrated_only: bool) -> ActivityStats {
        let mut per_interval_users: FastMap<u64, Vec<UserId>> = FastMap::default();
        let mut user_interval_bytes: FastMap<(u64, UserId), u64> = FastMap::default();
        let mut end = SimTime::ZERO;
        for rec in records {
            end = end.max(rec.time);
            if migrated_only && !rec.migrated {
                continue;
            }
            let idx = rec.time.interval_index(width);
            per_interval_users.entry(idx).or_default().push(rec.user);
            let bytes = match rec.kind {
                RecordKind::Close {
                    run_read,
                    run_written,
                    ..
                }
                | RecordKind::Reposition {
                    run_read,
                    run_written,
                    ..
                } => run_read + run_written,
                _ => 0,
            };
            if bytes > 0 {
                *user_interval_bytes.entry((idx, rec.user)).or_insert(0) += bytes;
            }
        }
        let secs = width.as_secs_f64();
        let mut active_users = Summary::new();
        let mut max_active = 0u64;
        for idx in 0..end.interval_index(width) + 1 {
            let count = per_interval_users.get(&idx).map_or(0, |users| {
                let mut u = users.clone();
                u.sort_unstable();
                u.dedup();
                u.len() as u64
            });
            active_users.add(count as f64);
            max_active = max_active.max(count);
        }
        let mut entries: Vec<((u64, UserId), u64)> = user_interval_bytes.into_iter().collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        let mut throughput = Summary::new();
        let mut peak_user = 0.0f64;
        let mut interval_totals: FastMap<u64, u64> = FastMap::default();
        for &((idx, _), bytes) in &entries {
            let rate = bytes as f64 / secs;
            throughput.add(rate);
            peak_user = peak_user.max(rate);
            *interval_totals.entry(idx).or_insert(0) += bytes;
        }
        ActivityStats {
            width,
            active_users,
            max_active_users: max_active,
            throughput_per_user: throughput,
            peak_user_throughput: peak_user,
            peak_total_throughput: interval_totals
                .values()
                .map(|&b| b as f64 / secs)
                .fold(0.0, f64::max),
        }
    }
}

fn sorted(users: &FastSet<UserId>) -> Vec<UserId> {
    let mut v: Vec<UserId> = users.iter().copied().collect();
    v.sort_unstable();
    v
}

/// Every field of a polling outcome: floats by bits, user sets sorted.
fn polling_fields(o: &PollingOutcome) -> (SimDuration, [u64; 8], [Vec<UserId>; 2]) {
    (
        o.interval,
        [
            o.errors,
            o.stale_events,
            o.errors_per_hour.to_bits(),
            o.total_users as u64,
            o.file_opens,
            o.opens_with_error,
            o.migrated_opens,
            o.migrated_opens_with_error,
        ],
        [sorted(&o.users_affected), sorted(&o.users_seen)],
    )
}

fn summary_bits(s: &Summary) -> [u64; 5] {
    [
        s.count(),
        s.mean().to_bits(),
        s.stddev().to_bits(),
        s.min().to_bits(),
        s.max().to_bits(),
    ]
}

/// Every field of an activity result, floats by bits.
fn activity_fields(a: &ActivityStats) -> (SimDuration, [u64; 5], u64, [u64; 5], u64, u64) {
    (
        a.width,
        summary_bits(&a.active_users),
        a.max_active_users,
        summary_bits(&a.throughput_per_user),
        a.peak_user_throughput.to_bits(),
        a.peak_total_throughput.to_bits(),
    )
}

/// Table 11's polling simulation and Table 2's activity accumulator
/// agree, field for field, with the reference models on traces full of
/// deletes, truncates and shared reads and writes.
#[test]
fn polling_and_activity_match_reference_models() {
    let mut rng = SimRng::seed_from_u64(0x434f_5245_0005);
    for case in 0..CASES {
        let records = mixed_trace(&mut rng);
        let random = SimDuration::from_secs(rng.range(1, 120));
        for interval in [
            SimDuration::from_secs(3),
            SimDuration::from_secs(60),
            random,
        ] {
            assert_eq!(
                polling_fields(&simulate_polling(&records, interval)),
                polling_fields(&reference::polling(&records, interval)),
                "case {case}, interval {interval:?}"
            );
        }
        for width in [SimDuration::from_secs(10), SimDuration::from_mins(10)] {
            for migrated_only in [false, true] {
                assert_eq!(
                    activity_fields(&analyze_activity(&records, width, migrated_only)),
                    activity_fields(&reference::activity(&records, width, migrated_only)),
                    "case {case}, width {width:?}, migrated only {migrated_only}"
                );
            }
        }
    }
}
