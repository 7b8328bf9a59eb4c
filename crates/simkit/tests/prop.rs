//! Randomized tests for the simulation substrate, driven by the crate's
//! own seeded `SimRng` so the suite is hermetic and reproducible offline.

use sdfs_simkit::{MergeSorted, SimDuration, SimRng, SimTime, Summary, WeightedCdf};

const CASES: usize = 256;

/// Time arithmetic: (t + d) - d == t whenever no saturation occurs.
#[test]
fn time_add_sub_round_trip() {
    let mut rng = SimRng::seed_from_u64(0x5349_4d01);
    for _ in 0..CASES {
        let t = rng.below(1 << 40);
        let d = rng.below(1 << 40);
        let time = SimTime::from_micros(t);
        let dur = SimDuration::from_micros(d);
        assert_eq!((time + dur) - dur, time);
        assert_eq!((time + dur) - time, dur);
    }
}

/// since() never goes negative and is consistent with ordering.
#[test]
fn since_is_saturating() {
    let mut rng = SimRng::seed_from_u64(0x5349_4d02);
    for _ in 0..CASES {
        let a = rng.below(1 << 40);
        let b = rng.below(1 << 40);
        let ta = SimTime::from_micros(a);
        let tb = SimTime::from_micros(b);
        let d = ta.since(tb);
        if a >= b {
            assert_eq!(d.as_micros(), a - b);
        } else {
            assert_eq!(d, SimDuration::ZERO);
        }
    }
}

/// Interval indices are monotone in time.
#[test]
fn interval_index_monotone() {
    let mut rng = SimRng::seed_from_u64(0x5349_4d03);
    for _ in 0..CASES {
        let n = rng.range(2, 50) as usize;
        let mut times: Vec<u64> = (0..n).map(|_| rng.below(1 << 30)).collect();
        times.sort_unstable();
        let width = SimDuration::from_micros(rng.range(1, 1 << 20));
        let idx: Vec<u64> = times
            .iter()
            .map(|&t| SimTime::from_micros(t).interval_index(width))
            .collect();
        for pair in idx.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
    }
}

/// Welford merging equals sequential accumulation.
#[test]
fn summary_merge_equivalence() {
    let mut rng = SimRng::seed_from_u64(0x5349_4d05);
    for _ in 0..CASES {
        let n = rng.range(1, 100) as usize;
        let xs: Vec<f64> = (0..n).map(|_| rng.range_f64(-1e6, 1e6)).collect();
        let split = rng.below(n as u64) as usize;
        let mut whole = Summary::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &xs[..split] {
            a.add(x);
        }
        for &x in &xs[split..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-6);
        assert!((a.stddev() - whole.stddev()).abs() < 1e-6);
    }
}

/// A weighted CDF is monotone and normalized.
#[test]
fn cdf_monotone_and_normalized() {
    let mut rng = SimRng::seed_from_u64(0x5349_4d06);
    for _ in 0..CASES {
        let n = rng.range(1, 200) as usize;
        let samples: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.range_f64(0.0, 1e9), rng.range_f64(0.01, 1e6)))
            .collect();
        let mut cdf = WeightedCdf::new();
        for &(v, w) in &samples {
            cdf.add_weighted(v, w);
        }
        cdf.seal();
        let mut last = 0.0;
        for i in 0..20 {
            let x = 1e9 * i as f64 / 19.0;
            let f = cdf.fraction_below(x);
            assert!(f >= last - 1e-12, "CDF must be monotone");
            assert!((0.0..=1.0 + 1e-12).contains(&f));
            last = f;
        }
        assert!((cdf.fraction_below(1e10) - 1.0).abs() < 1e-12);
        // Quantiles live within the sample range.
        let min = samples.iter().map(|&(v, _)| v).fold(f64::INFINITY, f64::min);
        let max = samples.iter().map(|&(v, _)| v).fold(0.0, f64::max);
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let v = cdf.quantile(q);
            assert!(v >= min && v <= max);
        }
    }
}

/// Quantile and fraction_below are inverse-consistent.
#[test]
fn cdf_quantile_inverse() {
    let mut rng = SimRng::seed_from_u64(0x5349_4d07);
    for _ in 0..CASES {
        let n = rng.range(1, 100) as usize;
        let samples: Vec<f64> = (0..n).map(|_| rng.range_f64(0.0, 1e6)).collect();
        let q = rng.range_f64(0.01, 1.0);
        let mut cdf = WeightedCdf::new();
        for &v in &samples {
            cdf.add(v);
        }
        cdf.seal();
        let x = cdf.quantile(q);
        assert!(cdf.fraction_below(x) + 1e-12 >= q);
    }
}

/// The unmerged reference a [`WeightedCdf`] must match bit for bit: every
/// sample kept, stably sorted by value, weights summed left to right.
struct NaiveCdf {
    sorted: Vec<(f64, f64)>,
    total: f64,
}

impl NaiveCdf {
    fn new(samples: &[(f64, f64)]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN"));
        let total = samples.iter().fold(0.0, |acc, &(_, w)| acc + w);
        NaiveCdf { sorted, total }
    }

    fn fraction_below(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&(v, _)| v <= x);
        let below: f64 = self.sorted[..idx].iter().map(|&(_, w)| w).sum();
        below / self.total
    }

    fn quantile(&self, q: f64) -> f64 {
        let target = q * self.total;
        let mut acc = 0.0;
        for &(v, w) in &self.sorted {
            acc += w;
            if acc >= target {
                return v;
            }
        }
        self.sorted.last().expect("non-empty").0
    }
}

/// Merging equal values is exact for the figures' weights (1, integer
/// bytes, bytes / 16): fractions and quantiles equal an unmerged,
/// stably sorted reference by `to_bits`, on heavily duplicated values and
/// on mostly distinct ones, at sizes on both sides of the merge
/// threshold, and with a seal and a query made while samples are still
/// arriving.
#[test]
fn cdf_merging_matches_a_naive_reference_bit_for_bit() {
    use sdfs_simkit::stats::CDF_MERGE_AT;
    let mut rng = SimRng::seed_from_u64(0x5349_4d0a);
    let sizes = [
        1,
        17,
        CDF_MERGE_AT - 1,
        CDF_MERGE_AT,
        CDF_MERGE_AT + 1,
        3 * CDF_MERGE_AT + 5,
        20_000,
    ];
    let bits = |x: f64| x.to_bits();
    for n in sizes {
        // Distinct values: 3 (heavy duplication) up to 1e9 (mostly distinct).
        for distinct in [3, 60, 5_000, 1_000_000_000] {
            for weights in 0..3 {
                let samples: Vec<(f64, f64)> = (0..n)
                    .map(|_| {
                        let v = rng.range(1, distinct + 1) as f64 * 0.5;
                        let w = match weights {
                            0 => 1.0,
                            1 => rng.range(1, 1 << 30) as f64,
                            _ => rng.range(1, 1 << 30) as f64 / 16.0,
                        };
                        (v, w)
                    })
                    .collect();
                let mut cdf = WeightedCdf::new();
                for (i, &(v, w)) in samples.iter().enumerate() {
                    cdf.add_weighted(v, w);
                    if i == n / 2 {
                        // A seal mid-stream sorts and merges early.
                        cdf.seal();
                        let early = NaiveCdf::new(&samples[..=i]);
                        assert_eq!(bits(cdf.fraction_below(v)), bits(early.fraction_below(v)));
                    }
                }
                cdf.seal();
                let naive = NaiveCdf::new(&samples);
                let case = format!("n {n}, {distinct} values, weights {weights}");
                assert_eq!(cdf.len(), n, "{case}");
                assert_eq!(bits(cdf.total_weight()), bits(naive.total), "{case}");
                let mut points: Vec<f64> = samples.iter().map(|&(v, _)| v).collect();
                points.extend(samples.iter().map(|&(v, _)| v + 0.25));
                points.extend([0.0, f64::MAX]);
                for x in points.into_iter().take(4_000) {
                    assert_eq!(
                        bits(cdf.fraction_below(x)),
                        bits(naive.fraction_below(x)),
                        "{case}: fraction_below({x})"
                    );
                }
                for k in 0..=256 {
                    let q = f64::from(k) / 256.0;
                    assert_eq!(
                        bits(cdf.quantile(q)),
                        bits(naive.quantile(q)),
                        "{case}: quantile({q})"
                    );
                }
            }
        }
    }
}

/// The merge of streams equals a stable sort of the streams laid end to
/// end, item for item (each item carries its position in that buffer),
/// over many streams of few distinct keys, so ties across streams are
/// common.
#[test]
fn merge_equals_a_stable_sort_of_the_buffer() {
    let mut rng = SimRng::seed_from_u64(0x4d45_5247);
    let mut ties = 0;
    for _ in 0..CASES {
        let mut keys: Vec<u64> = Vec::new();
        let mut starts = Vec::new();
        for _ in 0..rng.range(1, 9) {
            starts.push(keys.len());
            keys.extend((0..rng.below(12)).map(|_| rng.below(5)));
            keys[*starts.last().expect("a stream")..].sort_unstable();
        }
        let items: Vec<(u64, usize)> = keys.into_iter().zip(0..).collect();
        let mut want = items.clone();
        want.sort_by_key(|&(k, _)| k);
        let stream = |i: usize| starts.partition_point(|&s| s <= i);
        ties += want
            .windows(2)
            .filter(|w| w[0].0 == w[1].0 && stream(w[0].1) != stream(w[1].1))
            .count();
        let ends = starts.iter().skip(1).copied().chain([items.len()]);
        let streams = starts.iter().zip(ends).map(|(&s, e)| items[s..e].iter());
        let got: Vec<(u64, usize)> = MergeSorted::new(streams, |&&(k, _)| k).copied().collect();
        assert_eq!(got, want, "streams start at {starts:?}");
    }
    assert!(ties > 0, "the sample must tie keys across streams");
}

/// The RNG's bounded draw stays in bounds, for any bound.
#[test]
fn rng_below_in_bounds() {
    let mut seeds = SimRng::seed_from_u64(0x5349_4d08);
    for _ in 0..CASES {
        let mut rng = seeds.fork();
        let bound = seeds.range(1, u64::MAX);
        for _ in 0..50 {
            assert!(rng.below(bound) < bound);
        }
    }
}

/// Weighted picks always return a valid index with positive weight.
#[test]
fn rng_pick_weighted_valid() {
    let mut seeds = SimRng::seed_from_u64(0x5349_4d09);
    for _ in 0..CASES {
        let mut rng = seeds.fork();
        let n = seeds.range(1, 20) as usize;
        let weights: Vec<f64> = (0..n).map(|_| seeds.range_f64(0.0, 10.0)).collect();
        if weights.iter().sum::<f64>() <= 0.0 {
            continue;
        }
        for _ in 0..50 {
            let i = rng.pick_weighted(&weights);
            assert!(i < weights.len());
            assert!(weights[i] > 0.0 || weights.iter().all(|&w| w == 0.0));
        }
    }
}
