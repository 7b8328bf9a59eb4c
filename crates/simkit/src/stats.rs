//! Streaming statistics used to build the paper's tables and figures.
//!
//! * [`Summary`] — Welford's online mean/variance, the workhorse behind
//!   every "value (standard deviation)" cell in the paper's tables.
//! * [`LogHistogram`] — integer log-bucketed histograms for the
//!   observability layer's simulated latencies.
//! * [`WeightedCdf`] — an exact weighted cumulative distribution, used for
//!   the figures (each figure in the paper is a CDF weighted either by
//!   count or by bytes).

use std::fmt;

/// Online mean and standard deviation (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another summary into this one (parallel Welford).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation, or 0 when fewer than two samples.
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Smallest observation, or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation, or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} ({:.2})", self.mean(), self.stddev())
    }
}

/// Buffered samples at which a fresh [`WeightedCdf`] first sorts its
/// buffer and merges equal values.
pub const CDF_MERGE_AT: usize = 1024;

/// An exact weighted cumulative distribution.
///
/// Collects `(value, weight)` pairs, then answers quantile and
/// fraction-below queries. Each of the paper's figures is one of these:
/// Figure 1 is run length weighted by runs and by bytes, Figure 2 is file
/// size by files and bytes, and so on.
///
/// Samples with bit-identical values are merged into one entry that
/// carries their summed weight. The buffer is sorted and merged each time
/// it reaches a threshold (first [`CDF_MERGE_AT`]); when that frees less
/// than half of it, the threshold doubles, so a distribution of mostly
/// distinct values is not re-sorted for every few samples added.
///
/// Queries take `&self` and read a finished distribution: call
/// [`WeightedCdf::seal`] after the last sample. A query panics on an
/// unsealed CDF, one whose buffer holds samples not yet sorted.
///
/// Merging is exact when every partial sum of the weights is exact in
/// `f64`, so that the order of the additions cannot change a bit. That
/// holds when all weights are integers, or integer multiples of one
/// power of two, and their total stays below 2^53 such units. Every
/// figure weight is a count, a byte count or a byte count / 16, so the
/// figures' fractions and quantiles are bit-identical to those of the
/// unmerged samples, stably sorted and summed left to right.
///
/// # Examples
///
/// ```
/// use sdfs_simkit::WeightedCdf;
///
/// let mut sizes = WeightedCdf::new();
/// sizes.add_weighted(1_000.0, 1_000.0); // a 1 KB file, weighted by bytes
/// sizes.add_weighted(1_000_000.0, 1_000_000.0); // a 1 MB file
/// sizes.seal();
/// // Almost all *bytes* belong to the big file:
/// assert!(sizes.fraction_below(10_000.0) < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct WeightedCdf {
    /// `(value, weight)` entries. When `sorted` is set they are in value
    /// order, no two with the same value.
    samples: Vec<(f64, f64)>,
    sorted: bool,
    total_weight: f64,
    /// Samples added, each counted once however many were merged.
    count: usize,
    /// Buffer length at which `add_weighted` sorts and merges.
    merge_at: usize,
}

impl Default for WeightedCdf {
    fn default() -> Self {
        WeightedCdf {
            samples: Vec::new(),
            sorted: true,
            total_weight: 0.0,
            count: 0,
            merge_at: CDF_MERGE_AT,
        }
    }
}

impl WeightedCdf {
    /// Creates an empty CDF.
    pub fn new() -> Self {
        WeightedCdf::default()
    }

    /// Adds a sample with weight 1.
    pub fn add(&mut self, value: f64) {
        self.add_weighted(value, 1.0);
    }

    /// Adds a sample with the given non-negative weight.
    pub fn add_weighted(&mut self, value: f64, weight: f64) {
        debug_assert!(weight >= 0.0, "negative weight");
        if weight > 0.0 {
            self.samples.push((value, weight));
            self.total_weight += weight;
            self.count += 1;
            self.sorted = false;
            if self.samples.len() >= self.merge_at {
                self.ensure_sorted();
                if self.samples.len() > self.merge_at / 2 {
                    self.merge_at *= 2;
                }
            }
        }
    }

    /// Sorts by value (stably) and merges each run of equal values into
    /// one entry with the run's summed weight.
    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN value in CDF"));
            self.samples.dedup_by(|next, kept| {
                let same = next.0.to_bits() == kept.0.to_bits();
                if same {
                    kept.1 += next.1;
                }
                same
            });
            self.sorted = true;
        }
    }

    /// Sorts and merges the samples and releases the buffer's spare
    /// capacity: what a finished distribution keeps, and what every
    /// query needs.
    pub fn seal(&mut self) {
        self.ensure_sorted();
        self.samples.shrink_to_fit();
    }

    /// Number of samples added (merging equal values does not lower it).
    pub fn len(&self) -> usize {
        self.count
    }

    /// Returns `true` when no samples have been added.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Total weight.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Returns the fraction of total weight with value `<= x`.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is unsealed.
    pub fn fraction_below(&self, x: f64) -> f64 {
        assert!(self.sorted, "CDF queried before it was sealed");
        if self.samples.is_empty() {
            return 0.0;
        }
        let idx = self.samples.partition_point(|&(v, _)| v <= x);
        let below: f64 = self.samples[..idx].iter().map(|&(_, w)| w).sum();
        below / self.total_weight
    }

    /// Returns the smallest value `v` such that at least fraction `q` of
    /// the weight lies at or below `v`.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or unsealed, or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.sorted, "CDF queried before it was sealed");
        assert!(!self.samples.is_empty(), "quantile of empty CDF");
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        let target = q * self.total_weight;
        let mut acc = 0.0;
        for &(v, w) in &self.samples {
            acc += w;
            if acc >= target {
                return v;
            }
        }
        self.samples.last().expect("non-empty").0
    }

    /// Evaluates the CDF at each of the given points, returning
    /// `(x, fraction_below)` pairs — the series a figure plots.
    pub fn curve(&self, points: &[f64]) -> Vec<(f64, f64)> {
        points
            .iter()
            .map(|&x| (x, self.fraction_below(x)))
            .collect()
    }
}

/// Standard logarithmic x-axis points from `lo` to `hi` with `per_decade`
/// points per decade; used to tabulate figure curves.
pub fn log_points(lo: f64, hi: f64, per_decade: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo && per_decade > 0, "invalid log points");
    let mut v = Vec::new();
    let step = 10f64.powf(1.0 / per_decade as f64);
    let mut x = lo;
    while x <= hi * 1.0000001 {
        v.push(x);
        x *= step;
    }
    v
}

/// Sub-bucket resolution of [`LogHistogram`]: each power of two is split
/// into `2^LOG_HIST_SUB_BITS` linear sub-buckets.
pub const LOG_HIST_SUB_BITS: u32 = 4;

const LOG_HIST_SUB: u64 = 1 << LOG_HIST_SUB_BITS;

/// Total bucket count of a [`LogHistogram`]: `LOG_HIST_SUB` exact buckets
/// for values below `LOG_HIST_SUB`, then `LOG_HIST_SUB` sub-buckets per
/// remaining power of two up to `u64::MAX`.
pub const LOG_HIST_BUCKETS: usize = (64 - LOG_HIST_SUB_BITS as usize + 1) * LOG_HIST_SUB as usize;

/// An integer log-bucketed histogram (HDR-style) for latency-like `u64`
/// values — the observability layer records simulated microseconds.
///
/// Values below `LOG_HIST_SUB` (`2^`[`LOG_HIST_SUB_BITS`]) land in exact
/// unit buckets; above that, each power of two is split into
/// `LOG_HIST_SUB` linear sub-buckets, bounding the relative quantile
/// error at `1/LOG_HIST_SUB` (~6%). All
/// state is integer counters, so [`LogHistogram::merge`] is exact
/// (bucket-wise addition) and every reported quantile is a pure function
/// of the recorded multiset: identical across runs, merge orders, and
/// split points. The exact `min`/`max` are tracked on the side and
/// quantiles are clamped into `[min, max]`, so single-valued histograms
/// report that value exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Maps a value to its bucket index. Monotone and contiguous: bucket
/// upper bounds strictly increase with the index.
fn log_bucket_of(v: u64) -> usize {
    if v < LOG_HIST_SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - LOG_HIST_SUB_BITS;
    let top = v >> shift; // in [LOG_HIST_SUB, 2 * LOG_HIST_SUB)
    ((shift as u64 + 1) * LOG_HIST_SUB + (top - LOG_HIST_SUB)) as usize
}

/// Largest value that maps to bucket `idx` (inverse of [`log_bucket_of`]).
///
/// Top-octave overflow: for the very last bucket (`LOG_HIST_BUCKETS -
/// 1`, the top sub-bucket of the 2^63 octave) the nominal upper bound
/// `(top + 1) << shift` is exactly 2^64, which wraps to 0 — the
/// `wrapping_sub(1)` then yields `u64::MAX`, the correct inclusive
/// bound. So `u64::MAX` is representable (no observation is ever
/// dropped or panics), it just shares its bucket with the rest of the
/// top sub-bucket and relies on the exact `max` clamp in
/// [`LogHistogram::quantile`] for exact reporting when it is the
/// largest observation.
fn log_bucket_upper(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < LOG_HIST_SUB {
        return idx;
    }
    let shift = idx / LOG_HIST_SUB - 1;
    let top = LOG_HIST_SUB + idx % LOG_HIST_SUB;
    // ((top + 1) << shift) - 1, saturating at the top bucket.
    ((top + 1) << shift).wrapping_sub(1)
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram (allocates its bucket array up front;
    /// recording never allocates).
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; LOG_HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical observations.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[log_bucket_of(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether anything has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of recorded values, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact minimum recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// holding the observation of rank `ceil(q * count)`, clamped into
    /// `[min, max]`. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return log_bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (`quantile(0.50)`).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one. Exact: equivalent to
    /// having recorded both observation streams into one histogram.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn summary_merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Summary::new();
        for &x in &data {
            whole.add(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &data[..37] {
            a.add(x);
        }
        for &x in &data[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.stddev() - whole.stddev()).abs() < 1e-9);
    }

    #[test]
    fn summary_merge_into_empty() {
        let mut a = Summary::new();
        let mut b = Summary::new();
        b.add(3.0);
        b.add(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_cdf_quantiles() {
        let mut c = WeightedCdf::new();
        c.add_weighted(10.0, 1.0);
        c.add_weighted(20.0, 1.0);
        c.add_weighted(30.0, 2.0);
        c.seal();
        assert!((c.fraction_below(10.0) - 0.25).abs() < 1e-12);
        assert!((c.fraction_below(25.0) - 0.5).abs() < 1e-12);
        assert_eq!(c.quantile(0.5), 20.0);
        assert_eq!(c.quantile(1.0), 30.0);
    }

    #[test]
    #[should_panic(expected = "CDF queried before it was sealed")]
    fn weighted_cdf_query_before_seal_panics() {
        let mut c = WeightedCdf::new();
        c.add(3.0);
        c.add(1.0);
        c.fraction_below(2.0);
    }

    #[test]
    fn weighted_cdf_curve() {
        let mut c = WeightedCdf::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            c.add(x);
        }
        c.seal();
        let curve = c.curve(&[0.5, 2.0, 10.0]);
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[0].1, 0.0);
        assert!((curve[1].1 - 0.5).abs() < 1e-12);
        assert_eq!(curve[2].1, 1.0);
    }

    #[test]
    fn zero_weight_samples_ignored() {
        let mut c = WeightedCdf::new();
        c.add_weighted(5.0, 0.0);
        assert!(c.is_empty());
    }

    #[test]
    fn log_points_cover_range() {
        let pts = log_points(1.0, 1000.0, 2);
        assert_eq!(pts.len(), 7);
        assert!((pts[0] - 1.0).abs() < 1e-9);
        assert!((pts[6] - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn log_hist_bucket_mapping_is_monotone_and_total() {
        // Contiguity and monotonicity around every power-of-two boundary.
        let mut prev = 0usize;
        for bits in 0..24 {
            for delta in [-1i64, 0, 1] {
                let v = ((1u64 << bits) as i64 + delta).max(0) as u64;
                let idx = log_bucket_of(v);
                assert!(idx >= prev || v < (1u64 << bits), "non-monotone at {v}");
                assert!(v <= log_bucket_upper(idx), "{v} above its bucket bound");
                prev = prev.max(idx);
            }
        }
        assert_eq!(log_bucket_of(u64::MAX), LOG_HIST_BUCKETS - 1);
        assert_eq!(log_bucket_upper(log_bucket_of(u64::MAX)), u64::MAX);
    }

    #[test]
    fn log_hist_exact_below_sub() {
        let mut h = LogHistogram::new();
        for v in 0..LOG_HIST_SUB {
            h.record(v);
        }
        // Every small value is its own bucket: quantiles are exact.
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), LOG_HIST_SUB - 1);
        assert_eq!(h.count(), LOG_HIST_SUB);
    }

    #[test]
    fn log_hist_single_value_quantiles_exact() {
        let mut h = LogHistogram::new();
        h.record_n(6_500, 100);
        assert_eq!(h.p50(), 6_500);
        assert_eq!(h.p99(), 6_500);
        assert_eq!(h.max(), 6_500);
        assert_eq!(h.min(), 6_500);
        assert_eq!(h.sum(), 650_000);
    }

    #[test]
    fn log_hist_quantile_relative_error_bounded() {
        let mut h = LogHistogram::new();
        for v in 1..10_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 5_000u64), (0.9, 9_000), (0.99, 9_900)] {
            let got = h.quantile(q);
            let err = got.abs_diff(exact) as f64 / exact as f64;
            assert!(err <= 1.0 / LOG_HIST_SUB as f64, "q={q}: {got} vs {exact}");
            assert!(got >= exact, "bucket upper bound must not undershoot");
        }
    }

    #[test]
    fn log_hist_empty() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn log_hist_empty_quantiles_are_zero_everywhere() {
        // An empty histogram answers 0 for every quantile, including
        // the endpoints and out-of-range inputs — it never panics or
        // reports a stale min/max.
        let h = LogHistogram::new();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0, 2.0, -1.0] {
            assert_eq!(h.quantile(q), 0, "q={q}");
        }
        assert_eq!((h.p50(), h.p90(), h.p99()), (0, 0, 0));
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn log_hist_single_sample_is_exact_at_every_quantile() {
        // One observation: the [min, max] clamp collapses every bucket
        // upper bound onto the observed value, so all quantiles are
        // exact — even though 6_000_000 lives in a coarse octave.
        let mut h = LogHistogram::new();
        h.record(6_000_000);
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 6_000_000, "q={q}");
        }
        assert_eq!((h.min(), h.max(), h.count()), (6_000_000, 6_000_000, 1));
    }

    #[test]
    fn log_hist_top_octave_overflow_bucket() {
        // The last bucket's nominal upper bound is 2^64; the wrapping
        // arithmetic in `log_bucket_upper` turns it into u64::MAX (see
        // its doc comment). u64::MAX must map to the final bucket,
        // round-trip through quantiles without panicking, and coexist
        // with small values in one histogram.
        assert_eq!(log_bucket_of(u64::MAX), LOG_HIST_BUCKETS - 1);
        assert_eq!(log_bucket_upper(LOG_HIST_BUCKETS - 1), u64::MAX);
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        // Sum saturates rather than wrapping.
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        // Mixed with a small value, the median clamps to real data.
        let mut m = LogHistogram::new();
        m.record(1);
        m.record(u64::MAX);
        assert_eq!(m.quantile(0.5), 1);
        assert_eq!(m.quantile(1.0), u64::MAX);
        // The bucket walk is total: every bucket index inverts into a
        // value that maps back to the same bucket.
        for idx in [0, 15, 16, 975] {
            assert_eq!(log_bucket_of(log_bucket_upper(idx)), idx, "idx={idx}");
        }
    }

    #[test]
    fn log_hist_merge_is_exact() {
        let mut whole = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for i in 0..1_000u64 {
            let v = i * i % 77_777;
            whole.record(v);
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }
}
