//! Table 11: stale-data errors under an NFS-style polling scheme.
//!
//! Section 5.5 of the paper: "clients refresh their caches by checking
//! the server for newer data at intervals of 60 seconds or 3 seconds";
//! new data is written through to the server almost immediately; an
//! *error* is a potential use of stale cache data. The simulation is
//! trace-driven: file versions advance when the trace shows writes
//! (closes with written bytes and pass-through shared writes); reads
//! occur at read-mode opens and at shared-read events.

use sdfs_simkit::{FastMap, FastSet};

use sdfs_simkit::{SimDuration, SimTime};
use sdfs_trace::{ClientId, FileId, Record, RecordKind, UserId};

/// Outcome of one polling simulation.
#[derive(Debug, Clone)]
pub struct PollingOutcome {
    /// The refresh interval simulated.
    pub interval: SimDuration,
    /// Potential stale-data errors: opens during which stale cache data
    /// was used (the paper's unit — its errors-per-hour and
    /// percent-of-opens rows are consistent at open granularity).
    pub errors: u64,
    /// Raw stale read events (several can occur within one open).
    pub stale_events: u64,
    /// Errors per hour of trace time.
    pub errors_per_hour: f64,
    /// Users who suffered at least one error.
    pub users_affected: FastSet<UserId>,
    /// All users seen in the trace.
    pub total_users: usize,
    /// The identities of every user seen (for cross-trace unions).
    pub users_seen: FastSet<UserId>,
    /// File opens examined.
    pub file_opens: u64,
    /// Opens during which an error occurred.
    pub opens_with_error: u64,
    /// Migrated-process file opens.
    pub migrated_opens: u64,
    /// Migrated opens during which an error occurred.
    pub migrated_opens_with_error: u64,
}

impl PollingOutcome {
    /// Percent of users affected.
    pub fn users_affected_pct(&self) -> f64 {
        if self.total_users == 0 {
            0.0
        } else {
            100.0 * self.users_affected.len() as f64 / self.total_users as f64
        }
    }

    /// Percent of file opens with an error.
    pub fn opens_with_error_pct(&self) -> f64 {
        if self.file_opens == 0 {
            0.0
        } else {
            100.0 * self.opens_with_error as f64 / self.file_opens as f64
        }
    }

    /// Percent of migrated opens with an error.
    pub fn migrated_opens_with_error_pct(&self) -> f64 {
        if self.migrated_opens == 0 {
            0.0
        } else {
            100.0 * self.migrated_opens_with_error as f64 / self.migrated_opens as f64
        }
    }
}

/// One client's cached copy of a file.
#[derive(Debug, Clone, Copy)]
struct ClientView {
    client: ClientId,
    cached_version: u64,
    last_check: SimTime,
    /// The newest server version this client has already been charged an
    /// error for; repeated reads of the same stale content count once.
    flagged_version: u64,
    /// The client wrote through shared events since its last close of
    /// the file, so that close must not bump the version again.
    wrote_through: bool,
}

/// The server's version of one file and every client view of it. A
/// delete or truncate drops the whole entry, so its cost never depends
/// on how many views the rest of the trace has created.
#[derive(Debug, Default)]
struct FileViews {
    version: u64,
    views: Vec<ClientView>,
}

impl FileViews {
    fn view(&mut self, client: ClientId) -> Option<&mut ClientView> {
        self.views.iter_mut().find(|v| v.client == client)
    }

    /// Makes `client`'s copy current at `now`: a first fetch, or a write
    /// through to the server, which leaves the writer's cache current.
    fn refresh(&mut self, client: ClientId, now: SimTime) -> &mut ClientView {
        let i = match self.views.iter().position(|v| v.client == client) {
            Some(i) => i,
            None => {
                self.views.push(ClientView {
                    client,
                    cached_version: 0,
                    last_check: now,
                    flagged_version: 0,
                    wrote_through: false,
                });
                self.views.len() - 1
            }
        };
        let v = &mut self.views[i];
        v.cached_version = self.version;
        v.last_check = now;
        v
    }
}

/// Streaming polling-scheme simulator: feed records in time order, then
/// call [`PollingSim::finish`]. [`simulate_polling`] and the fused
/// single-pass driver share this state machine.
#[derive(Debug)]
pub struct PollingSim {
    interval: SimDuration,
    files: FastMap<FileId, FileViews>,
    users: FastSet<UserId>,
    affected: FastSet<UserId>,
    // Open currently erroneous, keyed by (client, file): counts opens
    // during which any stale use happened.
    open_error: FastMap<(ClientId, FileId), bool>,
    stale_events: u64,
    file_opens: u64,
    opens_with_error: u64,
    migrated_opens: u64,
    migrated_opens_with_error: u64,
    end: SimTime,
    start: Option<SimTime>,
}

impl PollingSim {
    /// Creates a simulator for the given refresh interval.
    pub fn new(interval: SimDuration) -> Self {
        PollingSim {
            interval,
            files: FastMap::default(),
            users: FastSet::default(),
            affected: FastSet::default(),
            open_error: FastMap::default(),
            stale_events: 0,
            file_opens: 0,
            opens_with_error: 0,
            migrated_opens: 0,
            migrated_opens_with_error: 0,
            end: SimTime::ZERO,
            start: None,
        }
    }

    fn read_access(&mut self, client: ClientId, file: FileId, user: UserId, now: SimTime) -> bool {
        let f = self.files.entry(file).or_default();
        let current = f.version;
        let Some(v) = f.view(client) else {
            // First contact: fetch fresh data.
            f.refresh(client, now);
            return false;
        };
        if now.since(v.last_check) > self.interval {
            // Poll the server: refresh if changed.
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

    /// Advances the simulation by one record.
    pub fn record(&mut self, rec: &Record) {
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
                let mut erroneous = false;
                if mode.reads() {
                    erroneous = self.read_access(rec.client, *file, rec.user, rec.time);
                }
                self.open_error.insert((rec.client, *file), erroneous);
            }
            RecordKind::SharedRead { file, .. } => {
                let err = self.read_access(rec.client, *file, rec.user, rec.time);
                if err {
                    if let Some(flag) = self.open_error.get_mut(&(rec.client, *file)) {
                        *flag = true;
                    }
                }
            }
            RecordKind::SharedWrite { file, .. } => {
                let f = self.files.entry(*file).or_default();
                f.version += 1;
                // Write-through: the writer's cache matches the server.
                f.refresh(rec.client, rec.time).wrote_through = true;
            }
            RecordKind::Close {
                file,
                total_written,
                ..
            } => {
                let wrote_through = self
                    .files
                    .get_mut(file)
                    .and_then(|f| f.view(rec.client))
                    .is_some_and(|v| std::mem::take(&mut v.wrote_through));
                if *total_written > 0 && !wrote_through {
                    let f = self.files.entry(*file).or_default();
                    f.version += 1;
                    f.refresh(rec.client, rec.time);
                }
                if let Some(err) = self.open_error.remove(&(rec.client, *file)) {
                    if err {
                        self.opens_with_error += 1;
                        if rec.migrated {
                            self.migrated_opens_with_error += 1;
                        }
                    }
                }
            }
            RecordKind::Delete { file, .. } | RecordKind::Truncate { file, .. } => {
                self.files.remove(file);
            }
            _ => {}
        }
    }

    /// Returns the finished outcome.
    pub fn finish(self) -> PollingOutcome {
        let hours = (self.end - self.start.unwrap_or(SimTime::ZERO))
            .as_hours_f64()
            .max(1e-9);
        PollingOutcome {
            interval: self.interval,
            errors: self.opens_with_error,
            stale_events: self.stale_events,
            errors_per_hour: self.opens_with_error as f64 / hours,
            users_affected: self.affected,
            total_users: self.users.len(),
            users_seen: self.users,
            file_opens: self.file_opens,
            opens_with_error: self.opens_with_error,
            migrated_opens: self.migrated_opens,
            migrated_opens_with_error: self.migrated_opens_with_error,
        }
    }
}

/// Simulates the polling consistency scheme over one trace.
pub fn simulate_polling(records: &[Record], interval: SimDuration) -> PollingOutcome {
    let mut sim = PollingSim::new(interval);
    for rec in records {
        sim.record(rec);
    }
    sim.finish()
}

/// Table 11: the two intervals the paper simulates.
#[derive(Debug, Clone)]
pub struct Table11 {
    /// 60-second refresh interval.
    pub sixty: PollingOutcome,
    /// 3-second refresh interval.
    pub three: PollingOutcome,
}

/// Computes Table 11 for one trace.
pub fn table11(records: &[Record]) -> Table11 {
    Table11 {
        sixty: simulate_polling(records, SimDuration::from_secs(60)),
        three: simulate_polling(records, SimDuration::from_secs(3)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfs_trace::{Handle, OpenMode, Pid};

    fn rec(t: u64, client: u16, kind: RecordKind) -> Record {
        Record {
            time: SimTime::from_secs(t),
            client: ClientId(client),
            user: UserId(client as u32),
            pid: Pid(0),
            migrated: false,
            kind,
        }
    }

    fn open(t: u64, client: u16, fd: u64, file: u64, mode: OpenMode) -> Record {
        rec(
            t,
            client,
            RecordKind::Open {
                fd: Handle(fd),
                file: FileId(file),
                mode,
                size: 100,
                is_dir: false,
            },
        )
    }

    fn close(t: u64, client: u16, fd: u64, file: u64, written: u64) -> Record {
        rec(
            t,
            client,
            RecordKind::Close {
                fd: Handle(fd),
                file: FileId(file),
                offset: 0,
                run_read: 100,
                run_written: written,
                total_read: 100,
                total_written: written,
                size: 100,
                opened_at: SimTime::from_secs(t.saturating_sub(1)),
            },
        )
    }

    fn delete(t: u64, client: u16, file: u64) -> Record {
        rec(
            t,
            client,
            RecordKind::Delete {
                file: FileId(file),
                size: 100,
                is_dir: false,
                oldest_age: SimDuration::from_secs(1),
                newest_age: SimDuration::from_secs(1),
            },
        )
    }

    /// Client 1 caches at t=0; client 0 writes at t=10; client 1 rereads
    /// at t=20 — stale under a 60 s interval, fresh under 3 s.
    fn scenario() -> Vec<Record> {
        vec![
            open(0, 1, 1, 7, OpenMode::Read),
            close(1, 1, 1, 7, 0),
            open(9, 0, 2, 7, OpenMode::Write),
            close(10, 0, 2, 7, 100),
            open(20, 1, 3, 7, OpenMode::Read),
            close(21, 1, 3, 7, 0),
        ]
    }

    #[test]
    fn long_interval_sees_stale_data() {
        let out = simulate_polling(&scenario(), SimDuration::from_secs(60));
        assert_eq!(out.errors, 1);
        assert_eq!(out.opens_with_error, 1);
        assert!(out.users_affected.contains(&UserId(1)));
    }

    #[test]
    fn short_interval_revalidates() {
        let out = simulate_polling(&scenario(), SimDuration::from_secs(3));
        assert_eq!(out.errors, 0);
        assert_eq!(out.opens_with_error, 0);
    }

    #[test]
    fn writer_does_not_err_on_own_data() {
        let records = vec![
            open(0, 0, 1, 7, OpenMode::Write),
            close(1, 0, 1, 7, 100),
            open(2, 0, 2, 7, OpenMode::Read),
            close(3, 0, 2, 7, 0),
        ];
        let out = simulate_polling(&records, SimDuration::from_secs(60));
        assert_eq!(out.errors, 0);
    }

    #[test]
    fn shared_events_drive_fine_grain_errors() {
        let records = vec![
            open(0, 1, 1, 7, OpenMode::Read),
            rec(
                1,
                1,
                RecordKind::SharedRead {
                    file: FileId(7),
                    offset: 0,
                    len: 100,
                },
            ),
            rec(
                2,
                0,
                RecordKind::SharedWrite {
                    file: FileId(7),
                    offset: 0,
                    len: 50,
                },
            ),
            rec(
                3,
                1,
                RecordKind::SharedRead {
                    file: FileId(7),
                    offset: 0,
                    len: 100,
                },
            ),
            close(4, 1, 1, 7, 0),
        ];
        let out = simulate_polling(&records, SimDuration::from_secs(60));
        assert_eq!(out.errors, 1, "second shared read is stale");
        assert_eq!(out.opens_with_error, 1);
    }

    #[test]
    fn delete_clears_versions() {
        let mut records = scenario();
        records.insert(2, delete(5, 0, 7));
        // After deletion everything resets; the rewrite and reread start
        // from scratch, so no stale use.
        let out = simulate_polling(&records, SimDuration::from_secs(60));
        assert_eq!(out.errors, 0);
    }

    #[test]
    fn delete_clears_the_write_through_mark() {
        // Client 0 writes through before the delete; its later close
        // with written bytes is a fresh write to the new file, so client
        // 1's reread within 60 s is stale. A mark surviving the delete
        // would swallow that write and report no error.
        let records = vec![
            open(0, 0, 1, 7, OpenMode::Write),
            rec(
                1,
                0,
                RecordKind::SharedWrite {
                    file: FileId(7),
                    offset: 0,
                    len: 50,
                },
            ),
            delete(2, 0, 7),
            open(3, 1, 2, 7, OpenMode::Read),
            close(4, 1, 2, 7, 0),
            close(5, 0, 1, 7, 100),
            open(10, 1, 3, 7, OpenMode::Read),
            close(11, 1, 3, 7, 0),
        ];
        let out = simulate_polling(&records, SimDuration::from_secs(60));
        assert_eq!(out.errors, 1);
    }

    #[test]
    fn delete_leaves_other_files_views() {
        // Client 1's stale copy of file 7 outlives a delete of file 8,
        // which both clients had cached.
        let records = vec![
            open(0, 1, 1, 7, OpenMode::Read),
            open(0, 0, 4, 8, OpenMode::Read),
            open(0, 1, 5, 8, OpenMode::Read),
            close(1, 1, 1, 7, 0),
            close(1, 0, 4, 8, 0),
            close(1, 1, 5, 8, 0),
            open(9, 0, 2, 7, OpenMode::Write),
            close(10, 0, 2, 7, 100),
            delete(15, 0, 8),
            open(20, 1, 3, 7, OpenMode::Read),
            close(21, 1, 3, 7, 0),
        ];
        let out = simulate_polling(&records, SimDuration::from_secs(60));
        assert_eq!(out.errors, 1);
    }

    #[test]
    fn percentages() {
        let out = simulate_polling(&scenario(), SimDuration::from_secs(60));
        assert!((out.opens_with_error_pct() - 100.0 / 3.0).abs() < 1e-9);
        assert!((out.users_affected_pct() - 50.0).abs() < 1e-9);
        assert!(out.errors_per_hour > 0.0);
    }
}
