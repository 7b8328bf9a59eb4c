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

/// A lazy merge of streams, each an iterator sorted by `key`.
///
/// The heap holds each unfinished stream's head as `(key, stream)`: a
/// key tie across streams goes to the stream given first, and one within
/// a stream to the earlier item. So the merge yields exactly the order a
/// stable sort by `key` of every stream laid end to end gives. A stream
/// is read one item ahead of what the merge has yielded: its head waits
/// in the merge, and the rest stays in the stream, however it is stored.
/// `len()` is exact, because each stream's is.
#[derive(Debug, Clone)]
pub struct MergeSorted<S: Iterator, K> {
    /// Every stream that was not empty, in the order given, with the
    /// item it yields next (`None` once it is done).
    streams: Vec<(Option<S::Item>, S)>,
    /// The head of every unfinished stream, as `(key, stream)`.
    heads: BinaryHeap<Reverse<(K, usize)>>,
    key: fn(&S::Item) -> K,
    /// Items not yet taken.
    left: usize,
}

impl<S: ExactSizeIterator, K: Ord> MergeSorted<S, K> {
    /// Readies the merge of `streams`, each already sorted by `key`.
    pub fn new(streams: impl IntoIterator<Item = S>, key: fn(&S::Item) -> K) -> Self {
        let mut left = 0;
        let streams: Vec<_> = streams
            .into_iter()
            .filter_map(|mut stream| {
                left += stream.len();
                Some((Some(stream.next()?), stream))
            })
            .collect();
        let heads = streams
            .iter()
            .enumerate()
            .filter_map(|(s, (head, _))| Some(Reverse((key(head.as_ref()?), s))))
            .collect();
        MergeSorted {
            streams,
            heads,
            key,
            left,
        }
    }
}

impl<S: Iterator, K: Ord> Iterator for MergeSorted<S, K> {
    type Item = S::Item;

    fn next(&mut self) -> Option<S::Item> {
        let mut top = self.heads.peek_mut()?;
        let Reverse((_, s)) = *top;
        let (head, stream) = &mut self.streams[s];
        let item = match stream.next() {
            Some(next) => {
                // The stream's next item replaces its head in place.
                *top = Reverse(((self.key)(&next), s));
                head.replace(next)
            }
            None => {
                PeekMut::pop(top);
                head.take()
            }
        };
        self.left -= 1;
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<S: Iterator, K: Ord> ExactSizeIterator for MergeSorted<S, K> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// `items` cut into streams at `starts`.
    fn streams<'a, T: Clone>(
        items: &'a [T],
        starts: &[usize],
    ) -> Vec<std::iter::Cloned<std::slice::Iter<'a, T>>> {
        let ends = starts.iter().skip(1).copied().chain([items.len()]);
        starts
            .iter()
            .zip(ends)
            .map(|(&start, end)| items[start..end].iter().cloned())
            .collect()
    }

    #[test]
    fn merges_disjoint_sorted_streams() {
        let items = [1u64, 4, 7, 2, 5, 0, 3, 6, 8];
        let merged: Vec<u64> = MergeSorted::new(streams(&items, &[0, 3, 5]), |&x| x).collect();
        assert_eq!(merged, vec![0, 1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn ties_break_by_stream_index() {
        let items = [(1u64, "b"), (0, "a"), (1, "c")];
        let merged: Vec<_> = MergeSorted::new(streams(&items, &[0, 1]), |&(k, _)| k).collect();
        assert_eq!(merged, vec![(0, "a"), (1, "b"), (1, "c")]);
    }

    #[test]
    fn handles_empty_and_single() {
        let none: Vec<u64> = MergeSorted::new(streams(&[], &[]), |&x: &u64| x).collect();
        assert!(none.is_empty());
        let one: Vec<u64> = MergeSorted::new(streams(&[3u64, 9], &[0]), |&x| x).collect();
        assert_eq!(one, vec![3, 9]);
        let sparse: Vec<u64> = MergeSorted::new(streams(&[1u64], &[0, 0, 1]), |&x| x).collect();
        assert_eq!(sparse, vec![1]);
    }

    /// A stream may be any exact-size iterator, not only a vector's.
    #[test]
    fn merges_borrowed_and_computed_streams() {
        let evens = [0u64, 2, 4, 6];
        let merged: Vec<u64> = MergeSorted::new([evens.iter(), [1u64, 3].iter()], |&&x| x)
            .copied()
            .collect();
        assert_eq!(merged, [0, 1, 2, 3, 4, 6]);
        let multiples = |k: u32| (0..3).map(move |x| k * x);
        let merged: Vec<u32> = MergeSorted::new([multiples(2), multiples(3)], |&x| x).collect();
        assert_eq!(merged, [0, 0, 2, 3, 4, 6]);
    }

    /// `len()` is exact after every `next`, and a clone taken mid-stream
    /// yields the same remainder as the original.
    #[test]
    fn length_is_exact_and_a_clone_resumes_where_it_was_taken() {
        let items: [u64; 9] = [2, 4, 4, 9, 1, 4, 7, 0, 3];
        let total = items.len();
        let mut merge = MergeSorted::new(streams(&items, &[0, 4, 7]), |&x| x);
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
