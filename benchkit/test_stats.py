"""Unit tests for BenchKit's statistics helpers.

Run from the repository root with ``python3 -m unittest discover benchkit``.
"""

import statistics
import unittest

from stats import median, quartiles, spread, tail_percentile


class MedianTest(unittest.TestCase):
    def test_odd_and_even_counts(self):
        self.assertEqual(median([3, 1, 2]), 2)
        self.assertEqual(median([4, 1, 3, 2]), 2.5)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            median([])


class QuartileTest(unittest.TestCase):
    def test_matches_the_standard_library(self):
        values = [0.91, 1.04, 1.21, 0.98, 1.13, 1.02, 1.35, 0.99, 1.07, 1.01]
        self.assertEqual(quartiles(values), tuple(statistics.quantiles(values, n=4)))

    def test_known_values(self):
        # Exclusive method: positions (n+1)p, interpolated.
        self.assertEqual(quartiles([1, 2, 3, 4, 5, 6, 7]), (2, 4, 6))
        self.assertEqual(quartiles([5]), (5, 5, 5))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(spread([1, 2, 3, 4, 5, 6, 7]), 1.0)
        self.assertEqual(spread([2.0]), 0.0)


class TailPercentileTest(unittest.TestCase):
    def test_needs_more_than_ten_samples(self):
        self.assertIsNone(tail_percentile(list(range(10))))

    def test_eleven_samples_give_the_smallest(self):
        self.assertEqual(tail_percentile(list(range(11, 0, -1))), (100.0 / 11, 1))

    def test_exactly_ten_samples_lie_beyond(self):
        values = list(range(100))
        pct, value = tail_percentile(values)
        self.assertEqual((pct, value), (90.0, 89))
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_custom_tail_size(self):
        self.assertEqual(tail_percentile([1, 2, 3, 4], beyond=1), (75.0, 3))


if __name__ == "__main__":
    unittest.main()
