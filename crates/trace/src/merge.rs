//! Merging per-server trace streams and scrubbing artifacts.
//!
//! Section 3 of the paper: each of the four servers logged to its own set
//! of trace files; the analysis merged them into one time-ordered list and
//! removed records caused by the tracing itself and by the nightly tape
//! backup. [`merge`] is the k-way merge; [`Scrub`] is the filter.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use sdfs_simkit::{merge_sorted_by, FastSet};

use crate::ids::UserId;
use crate::record::Record;
use crate::Result;

struct HeapItem {
    rec: Record,
    source: usize,
    seq: u64,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by (time, source, seq): invert for BinaryHeap.
        other
            .rec
            .time
            .cmp(&self.rec.time)
            .then_with(|| other.source.cmp(&self.source))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A k-way merge of per-server record streams into one time-ordered
/// stream. Each input must itself be time-ordered (trace writers enforce
/// that); ties break deterministically by source index, then input order.
pub struct Merge<I: Iterator<Item = Result<Record>>> {
    sources: Vec<I>,
    heap: BinaryHeap<HeapItem>,
    seq: u64,
    failed: bool,
}

impl<I: Iterator<Item = Result<Record>>> Merge<I> {
    /// Creates a merge over the given streams.
    pub fn new(sources: Vec<I>) -> Result<Self> {
        let mut m = Merge {
            sources,
            heap: BinaryHeap::new(),
            seq: 0,
            failed: false,
        };
        for i in 0..m.sources.len() {
            m.refill(i)?;
        }
        Ok(m)
    }

    fn refill(&mut self, source: usize) -> Result<()> {
        if let Some(next) = self.sources[source].next() {
            let rec = next?;
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(HeapItem { rec, source, seq });
        }
        Ok(())
    }
}

impl<I: Iterator<Item = Result<Record>>> Iterator for Merge<I> {
    type Item = Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let item = self.heap.pop()?;
        if let Err(e) = self.refill(item.source) {
            self.failed = true;
            return Some(Err(e));
        }
        Some(Ok(item.rec))
    }
}

/// Merges already-materialized record vectors (convenience for tests and
/// in-memory pipelines), in the same order as [`Merge`]: by time, ties
/// by source index, then input order.
pub fn merge_vecs(sources: Vec<Vec<Record>>) -> Vec<Record> {
    merge_sorted_by(sources, |r| r.time)
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
