//! Deterministic k-way merge of sorted streams.
//!
//! Each trace server logs its own time-ordered stream; the analysis
//! reads them as one stream whose order must be exact and reproducible.
//! This is a plain binary-heap merge keyed by a caller-provided sort
//! key, with the stream index as the tie-break, so the result is a
//! total order even if keys collide.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Merges `streams` — each individually sorted by `key` — into one
/// sorted vector. Ties between streams order by stream index, making
/// the merge deterministic regardless of how the streams were produced.
pub fn merge_sorted_by<T, K: Ord, F: Fn(&T) -> K>(streams: Vec<Vec<T>>, key: F) -> Vec<T> {
    if streams.len() == 1 {
        return streams.into_iter().next().expect("one stream");
    }
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut iters: Vec<std::vec::IntoIter<T>> = streams.into_iter().map(Vec::into_iter).collect();
    let mut heads: Vec<Option<T>> = Vec::with_capacity(iters.len());
    let mut heap: BinaryHeap<Reverse<(K, usize)>> = BinaryHeap::with_capacity(iters.len());
    for (i, it) in iters.iter_mut().enumerate() {
        let head = it.next();
        if let Some(h) = &head {
            heap.push(Reverse((key(h), i)));
        }
        heads.push(head);
    }
    while let Some(Reverse((_, i))) = heap.pop() {
        let item = heads[i].take().expect("heap entry has a buffered head");
        out.push(item);
        if let Some(next) = iters[i].next() {
            heap.push(Reverse((key(&next), i)));
            heads[i] = Some(next);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_disjoint_sorted_streams() {
        let streams = vec![vec![1u64, 4, 7], vec![2, 5], vec![0, 3, 6, 8]];
        assert_eq!(
            merge_sorted_by(streams, |&x| x),
            vec![0, 1, 2, 3, 4, 5, 6, 7, 8]
        );
    }

    #[test]
    fn ties_break_by_stream_index() {
        let streams = vec![vec![(1u64, "b")], vec![(0, "a"), (1, "c")]];
        let merged = merge_sorted_by(streams, |&(k, _)| k);
        assert_eq!(merged, vec![(0, "a"), (1, "b"), (1, "c")]);
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(merge_sorted_by(Vec::<Vec<u64>>::new(), |&x| x), vec![]);
        assert_eq!(merge_sorted_by(vec![vec![3u64, 9]], |&x| x), vec![3, 9]);
        assert_eq!(
            merge_sorted_by(vec![vec![], vec![1u64], vec![]], |&x| x),
            vec![1]
        );
    }
}
