//! Deterministic k-way merge of sorted streams.
//!
//! Each trace server logs its own time-ordered stream, and each user's
//! day is generated on its own; the study reads each set as one stream
//! whose order must be exact and reproducible. [`MergeSorted`] is the
//! one merge: a binary heap of stream heads keyed by a caller-provided
//! sort key, with the stream index as the tie-break, so the result is a
//! total order even if keys collide.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// A lazy merge of streams laid end to end in one buffer, each sorted
/// by `key`.
///
/// The heap holds each unfinished stream's head as `(key, stream)`: a
/// key tie across streams goes to the earlier stream, and one within a
/// stream to the earlier position. The streams lie in the buffer in
/// stream order, so the merge yields exactly the order a stable sort of
/// the whole buffer by `key` gives. Items are cloned out of the buffer,
/// which is held until the merge is dropped: one allocation for every
/// stream, however many there are.
#[derive(Debug, Clone)]
pub struct MergeSorted<T, K> {
    items: Vec<T>,
    /// Per stream: the index of its next item, and its end.
    cursors: Vec<(usize, usize)>,
    /// The head of every unfinished stream, as `(key, stream)`.
    heads: BinaryHeap<Reverse<(K, usize)>>,
    key: fn(&T) -> K,
    /// Items not yet taken.
    left: usize,
}

impl<T, K: Ord> MergeSorted<T, K> {
    /// Readies the merge of `items`, where stream `s` starts at
    /// `starts[s]` and ends where the next starts (the last at the end
    /// of `items`). Each stream must already be sorted by `key`.
    ///
    /// # Panics
    ///
    /// Panics unless `starts` rises from 0 and stays within `items`
    /// (an empty `starts` needs an empty `items`).
    pub fn new(items: Vec<T>, starts: &[usize], key: fn(&T) -> K) -> Self {
        assert!(
            starts.first().map_or(items.is_empty(), |&s| s == 0)
                && starts.windows(2).all(|w| w[0] <= w[1])
                && starts.last().map_or(true, |&s| s <= items.len()),
            "stream starts must rise from 0 within the buffer"
        );
        let ends = starts.iter().skip(1).copied().chain([items.len()]);
        let cursors: Vec<(usize, usize)> = starts.iter().copied().zip(ends).collect();
        let heads = cursors
            .iter()
            .enumerate()
            .filter(|(_, &(start, end))| start < end)
            .map(|(s, &(start, _))| Reverse((key(&items[start]), s)))
            .collect();
        MergeSorted {
            left: items.len(),
            items,
            cursors,
            heads,
            key,
        }
    }
}

impl<T: Clone, K: Ord> Iterator for MergeSorted<T, K> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let mut head = self.heads.peek_mut()?;
        let Reverse((_, s)) = *head;
        let cursor = &mut self.cursors[s];
        let item = self.items[cursor.0].clone();
        cursor.0 += 1;
        if cursor.0 < cursor.1 {
            // The stream's next item replaces its head in place.
            *head = Reverse(((self.key)(&self.items[cursor.0]), s));
        } else {
            PeekMut::pop(head);
        }
        self.left -= 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<T: Clone, K: Ord> ExactSizeIterator for MergeSorted<T, K> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_disjoint_sorted_streams() {
        let items = vec![1u64, 4, 7, 2, 5, 0, 3, 6, 8];
        let merged: Vec<u64> = MergeSorted::new(items, &[0, 3, 5], |&x| x).collect();
        assert_eq!(merged, vec![0, 1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn ties_break_by_stream_index() {
        let items = vec![(1u64, "b"), (0, "a"), (1, "c")];
        let merged: Vec<_> = MergeSorted::new(items, &[0, 1], |&(k, _)| k).collect();
        assert_eq!(merged, vec![(0, "a"), (1, "b"), (1, "c")]);
    }

    #[test]
    fn handles_empty_and_single() {
        let none: Vec<u64> = MergeSorted::new(Vec::new(), &[], |&x: &u64| x).collect();
        assert!(none.is_empty());
        let one: Vec<u64> = MergeSorted::new(vec![3u64, 9], &[0], |&x| x).collect();
        assert_eq!(one, vec![3, 9]);
        let sparse: Vec<u64> = MergeSorted::new(vec![1u64], &[0, 0, 1], |&x| x).collect();
        assert_eq!(sparse, vec![1]);
    }

    #[test]
    #[should_panic(expected = "stream starts must rise from 0")]
    fn rejects_items_outside_every_stream() {
        let _ = MergeSorted::new(vec![1u64, 2], &[1], |&x| x);
    }

    /// `len()` is exact after every `next`, and a clone taken mid-stream
    /// yields the same remainder as the original.
    #[test]
    fn length_is_exact_and_a_clone_resumes_where_it_was_taken() {
        let items: Vec<u64> = vec![2, 4, 4, 9, 1, 4, 7, 0, 3];
        let total = items.len();
        let mut merge = MergeSorted::new(items, &[0, 4, 7], |&x| x);
        let mut taken = Vec::new();
        let mut rest = Vec::new();
        while taken.len() < total {
            assert_eq!(merge.len(), total - taken.len());
            if taken.len() == 4 {
                rest = merge.clone().collect();
            }
            taken.push(merge.next().expect("an item is left"));
        }
        assert_eq!((merge.len(), merge.next()), (0, None));
        assert_eq!(taken, [0, 1, 2, 3, 4, 4, 4, 7, 9]);
        assert_eq!(rest, taken[4..]);
    }
}
