//! Table 10: frequency of consistency actions, measured from the trace.
//!
//! The paper reports two rates as a percent of file (non-directory)
//! opens: opens under concurrent write-sharing, and opens for which the
//! server must recall dirty data from another client. Like the real
//! Sprite server, the recall count is an upper bound: the server does not
//! know whether the last writer already flushed its dirty data, so every
//! open whose last writer is a different client counts.

use sdfs_simkit::FastMap;

use sdfs_trace::{ClientId, FileId, Handle, Record, RecordKind};

/// Table 10.
#[derive(Debug, Clone, Default)]
pub struct Table10 {
    /// Total file opens (directories excluded).
    pub file_opens: u64,
    /// Opens that resulted in concurrent write-sharing.
    pub cws_opens: u64,
    /// Opens that required a dirty-data recall.
    pub recall_opens: u64,
}

impl Table10 {
    /// Concurrent write-sharing opens as a percent of file opens.
    pub fn cws_pct(&self) -> f64 {
        if self.file_opens == 0 {
            0.0
        } else {
            100.0 * self.cws_opens as f64 / self.file_opens as f64
        }
    }

    /// Recall opens as a percent of file opens.
    pub fn recall_pct(&self) -> f64 {
        if self.file_opens == 0 {
            0.0
        } else {
            100.0 * self.recall_opens as f64 / self.file_opens as f64
        }
    }
}

#[derive(Debug, Default)]
struct FileState {
    opens: Vec<(Handle, ClientId, bool)>,
    last_writer: Option<ClientId>,
}

/// Whether a file's open handles `(handle, client, writes)` are in
/// concurrent write-sharing: some handle writes, and the handles span at
/// least two clients.
pub(crate) fn write_shared(opens: &[(Handle, ClientId, bool)]) -> bool {
    let Some(&(_, first, _)) = opens.first() else {
        return false;
    };
    opens.iter().any(|&(_, _, w)| w) && opens.iter().any(|&(_, c, _)| c != first)
}

/// Streaming Table 10 builder: feed records in time order, then call
/// [`Table10Builder::finish`]. [`table10`] and the fused single-pass
/// driver share this state machine.
#[derive(Debug, Default)]
pub struct Table10Builder {
    t: Table10,
    files: FastMap<FileId, FileState>,
}

impl Table10Builder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Table10Builder::default()
    }

    /// Advances the state machine by one record.
    pub fn record(&mut self, rec: &Record) {
        match &rec.kind {
            RecordKind::Open {
                fd,
                file,
                mode,
                is_dir,
                ..
            } => {
                if *is_dir {
                    return;
                }
                self.t.file_opens += 1;
                let st = self.files.entry(*file).or_default();
                if let Some(w) = st.last_writer {
                    if w != rec.client {
                        self.t.recall_opens += 1;
                        // After the recall, the server holds current data.
                        st.last_writer = None;
                    }
                }
                st.opens.push((*fd, rec.client, mode.writes()));
                if write_shared(&st.opens) {
                    self.t.cws_opens += 1;
                }
            }
            RecordKind::Close {
                fd,
                file,
                total_written,
                ..
            } => {
                if let Some(st) = self.files.get_mut(file) {
                    if let Some(i) = st.opens.iter().position(|&(h, _, _)| h == *fd) {
                        st.opens.remove(i);
                    }
                    if *total_written > 0 {
                        st.last_writer = Some(rec.client);
                    }
                }
            }
            RecordKind::Delete { file, .. } | RecordKind::Truncate { file, .. } => {
                self.files.remove(file);
            }
            _ => {}
        }
    }

    /// Returns the finished table.
    pub fn finish(self) -> Table10 {
        self.t
    }
}

/// Computes Table 10 from a time-ordered record stream.
pub fn table10(records: &[Record]) -> Table10 {
    let mut b = Table10Builder::new();
    for rec in records {
        b.record(rec);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfs_simkit::SimTime;
    use sdfs_trace::{OpenMode, Pid, UserId};

    fn open(t: u64, client: u16, fd: u64, file: u64, mode: OpenMode) -> Record {
        Record {
            time: SimTime::from_secs(t),
            client: ClientId(client),
            user: UserId(client as u32),
            pid: Pid(0),
            migrated: false,
            kind: RecordKind::Open {
                fd: Handle(fd),
                file: FileId(file),
                mode,
                size: 100,
                is_dir: false,
            },
        }
    }

    fn close(t: u64, client: u16, fd: u64, file: u64, written: u64) -> Record {
        Record {
            time: SimTime::from_secs(t),
            client: ClientId(client),
            user: UserId(client as u32),
            pid: Pid(0),
            migrated: false,
            kind: RecordKind::Close {
                fd: Handle(fd),
                file: FileId(file),
                offset: 0,
                run_read: 0,
                run_written: written,
                total_read: 0,
                total_written: written,
                size: 100,
                opened_at: SimTime::from_secs(t.saturating_sub(1)),
            },
        }
    }

    #[test]
    fn recall_after_remote_write() {
        let records = vec![
            open(1, 0, 1, 7, OpenMode::Write),
            close(2, 0, 1, 7, 50),
            open(3, 1, 2, 7, OpenMode::Read), // recall from client 0
            close(4, 1, 2, 7, 0),
            open(5, 1, 3, 7, OpenMode::Read), // no recall: data at server
            close(6, 1, 3, 7, 0),
        ];
        let t = table10(&records);
        assert_eq!(t.file_opens, 3);
        assert_eq!(t.recall_opens, 1);
        assert_eq!(t.cws_opens, 0);
    }

    #[test]
    fn same_client_reopen_is_not_recall() {
        let records = vec![
            open(1, 0, 1, 7, OpenMode::Write),
            close(2, 0, 1, 7, 50),
            open(3, 0, 2, 7, OpenMode::Read),
            close(4, 0, 2, 7, 0),
        ];
        let t = table10(&records);
        assert_eq!(t.recall_opens, 0);
    }

    #[test]
    fn cws_detection() {
        let records = vec![
            open(1, 0, 1, 7, OpenMode::Write),
            open(2, 1, 2, 7, OpenMode::Read), // CWS: 2 clients, 1 writer
            open(3, 2, 3, 7, OpenMode::Read), // still CWS
            close(4, 0, 1, 7, 10),
            open(5, 2, 4, 7, OpenMode::Read), // no writer anymore
        ];
        let t = table10(&records);
        assert_eq!(t.cws_opens, 2);
        assert_eq!(t.file_opens, 4);
        assert!((t.cws_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn same_machine_double_open_is_not_cws() {
        let records = vec![
            open(1, 0, 1, 7, OpenMode::Write),
            open(2, 0, 2, 7, OpenMode::Read),
        ];
        let t = table10(&records);
        assert_eq!(t.cws_opens, 0);
    }

    #[test]
    fn delete_clears_state() {
        let mut records = vec![open(1, 0, 1, 7, OpenMode::Write), close(2, 0, 1, 7, 50)];
        records.push(Record {
            time: SimTime::from_secs(3),
            client: ClientId(0),
            user: UserId(0),
            pid: Pid(0),
            migrated: false,
            kind: RecordKind::Delete {
                file: FileId(7),
                size: 100,
                is_dir: false,
                oldest_age: sdfs_simkit::SimDuration::from_secs(1),
                newest_age: sdfs_simkit::SimDuration::from_secs(1),
            },
        });
        records.push(open(4, 1, 2, 7, OpenMode::Read));
        let t = table10(&records);
        assert_eq!(t.recall_opens, 0, "deleted file cannot trigger recall");
    }

    #[test]
    fn empty_percentages() {
        let t = Table10::default();
        assert_eq!(t.cws_pct(), 0.0);
        assert_eq!(t.recall_pct(), 0.0);
    }
}
