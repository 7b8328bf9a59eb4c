//! Merging per-server trace streams and scrubbing artifacts.
//!
//! Section 3 of the paper: each of the four servers logged to its own set
//! of trace files; the analysis merged them into one time-ordered list and
//! removed records caused by the tracing itself and by the nightly tape
//! backup. [`merge_sources`] is the k-way merge, yielding records as
//! they are taken, and [`merge_vecs`] collects it; [`Scrub`] is the
//! filter.

use sdfs_simkit::{FastSet, MergeSorted};

use crate::ids::UserId;
use crate::record::Record;

/// Merges per-source record vectors, each itself time-ordered, into one
/// time-ordered stream: simkit's merge over the vectors' own iterators,
/// so no record is copied before it is yielded. Ties break by source
/// index, then input order. Each vector is freed when the stream is
/// dropped.
pub fn merge_sources(sources: Vec<Vec<Record>>) -> impl ExactSizeIterator<Item = Record> {
    MergeSorted::new(sources.into_iter().map(Vec::into_iter), |r| r.time)
}

/// [`merge_sources`], collected into one vector.
pub fn merge_vecs(sources: Vec<Vec<Record>>) -> Vec<Record> {
    merge_sources(sources).collect()
}

/// Removes records that are artifacts of measurement or maintenance: the
/// user that writes the trace files and the user that runs the nightly
/// backup, exactly as the paper's merge step did.
#[derive(Debug, Clone, Default)]
pub struct Scrub {
    excluded_users: FastSet<UserId>,
}

impl Scrub {
    /// Creates an empty scrubber (passes everything).
    pub fn new() -> Self {
        Scrub::default()
    }

    /// Excludes all records attributed to `user`.
    pub fn exclude_user(mut self, user: UserId) -> Self {
        self.excluded_users.insert(user);
        self
    }

    /// Returns `true` if the record survives scrubbing.
    pub fn keep(&self, rec: &Record) -> bool {
        !self.excluded_users.contains(&rec.user)
    }

    /// Filters a stream.
    pub fn filter<'a, I>(&'a self, records: I) -> impl Iterator<Item = Record> + 'a
    where
        I: IntoIterator<Item = Record> + 'a,
    {
        records.into_iter().filter(move |r| self.keep(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientId, FileId, Pid};
    use crate::record::RecordKind;
    use sdfs_simkit::SimTime;

    fn rec(t: u64, user: u32) -> Record {
        Record {
            time: SimTime::from_secs(t),
            client: ClientId(0),
            user: UserId(user),
            pid: Pid(0),
            migrated: false,
            kind: RecordKind::Create {
                file: FileId(t),
                is_dir: false,
            },
        }
    }

    #[test]
    fn merge_orders_by_time() {
        let a = vec![rec(1, 0), rec(4, 0), rec(9, 0)];
        let b = vec![rec(2, 0), rec(3, 0)];
        let c = vec![rec(5, 0)];
        let merged = merge_vecs(vec![a, b, c]);
        let times: Vec<u64> = merged.iter().map(|r| r.time.as_secs()).collect();
        assert_eq!(times, vec![1, 2, 3, 4, 5, 9]);
    }

    #[test]
    fn merge_tie_breaks_by_source() {
        let a = vec![rec(5, 1)];
        let b = vec![rec(5, 2)];
        let merged = merge_vecs(vec![a, b]);
        assert_eq!(merged[0].user, UserId(1));
        assert_eq!(merged[1].user, UserId(2));
    }

    #[test]
    fn merge_empty_sources() {
        assert!(merge_vecs(vec![]).is_empty());
        assert!(merge_vecs(vec![vec![], vec![]]).is_empty());
        let merged = merge_vecs(vec![vec![], vec![rec(1, 0)]]);
        assert_eq!(merged.len(), 1);
    }

    #[test]
    fn scrub_excludes_users() {
        let scrub = Scrub::new().exclude_user(UserId(99));
        let records = vec![rec(1, 1), rec(2, 99), rec(3, 2), rec(4, 99)];
        let kept: Vec<Record> = scrub.filter(records).collect();
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().all(|r| r.user != UserId(99)));
    }

    #[test]
    fn scrub_default_keeps_everything() {
        let scrub = Scrub::new();
        assert!(scrub.keep(&rec(1, 5)));
    }
}
