//! The 1985 BSD study comparison (Section 4's framing).
//!
//! The paper presents most of its user-level results as *changes since*
//! Ousterhout et al.'s 1985 trace-driven analysis of 4.2 BSD: throughput
//! per user up ~20x, the largest files an order of magnitude larger,
//! open times halved while machines got ten times faster, sequentiality
//! slightly up. This module hard-codes the published 1985 values and
//! computes the same comparison factors from a measured trace.

use crate::study::TraceAnalysis;

/// Published values from the 1985 BSD study (Ousterhout et al., SOSP
/// 1985), as cited in the 1991 paper.
#[derive(Debug, Clone, Copy)]
pub struct BsdBaseline {
    /// Average throughput per active user over 10-minute intervals,
    /// bytes/second.
    pub throughput_10min: f64,
    /// Average throughput per active user over 10-second intervals,
    /// bytes/second.
    pub throughput_10sec: f64,
    /// Fraction of read-only accesses that were whole-file sequential.
    pub whole_file_read_fraction: f64,
    /// Fraction of all bytes transferred sequentially.
    pub sequential_byte_fraction: f64,
    /// Median open duration bound: 75% of opens finished within this
    /// many seconds.
    pub open_time_p75: f64,
    /// Fraction of bytes moved in sequential runs longer than 100 KB.
    pub bytes_in_runs_over_100k: f64,
    /// Approximate compute power per user, MIPS (20-50 users sharing a
    /// 1-MIPS VAX).
    pub mips_per_user: f64,
}

/// The published 1985 numbers.
pub const BSD_1985: BsdBaseline = BsdBaseline {
    throughput_10min: 400.0,   // "a few hundred bytes per second"
    throughput_10sec: 1_500.0, // Table 2's BSD column: 1.5 KB/s
    whole_file_read_fraction: 0.70,
    sequential_byte_fraction: 0.70,
    open_time_p75: 0.5,
    bytes_in_runs_over_100k: 0.10,
    mips_per_user: 1.0 / 35.0, // 20-50 users on a 1-MIPS VAX
};

/// Compute power per user in the 1991 measurements (everyone has a
/// personal 10-MIPS workstation).
pub const SPRITE_MIPS_PER_USER: f64 = 10.0;

/// The Section 4 comparison, computed from one measured trace.
#[derive(Debug, Clone)]
pub struct BsdComparison {
    /// Throughput growth over 10-minute intervals (paper: ~20x).
    pub throughput_factor_10min: f64,
    /// Throughput growth over 10-second intervals (paper: >30x).
    pub throughput_factor_10sec: f64,
    /// Compute-power growth per user (paper: 200-500x).
    pub compute_factor: f64,
    /// Measured whole-file fraction of read accesses (paper: 78% vs 70%).
    pub whole_file_read_fraction: f64,
    /// Measured sequential byte fraction (paper: >90% vs <70%).
    pub sequential_byte_fraction: f64,
    /// Measured fraction of bytes in runs > 1 MB; in 1985 only 10% of
    /// bytes moved in runs over 100 KB, so longest runs grew ~10x.
    pub bytes_in_runs_over_1m: f64,
    /// Measured 75th-percentile open duration (paper: 0.25 s vs 0.5 s).
    pub open_time_p75: f64,
}

/// Computes the comparison from one trace analysis.
pub fn compare(analysis: &TraceAnalysis) -> BsdComparison {
    let tput_10min = analysis.activity.ten_min_all.throughput_per_user.mean();
    let tput_10sec = analysis.activity.ten_sec_all.throughput_per_user.mean();
    let ro = analysis.patterns.read_only.access_percentages();
    let figures = &analysis.figures;
    let bytes_over_1m = 1.0 - figures.run_lengths.by_bytes.fraction_below(1_048_576.0);
    let open_p75 = if figures.open_times.is_empty() {
        0.0
    } else {
        figures.open_times.quantile(0.75)
    };
    BsdComparison {
        throughput_factor_10min: tput_10min / BSD_1985.throughput_10min,
        throughput_factor_10sec: tput_10sec / BSD_1985.throughput_10sec,
        compute_factor: SPRITE_MIPS_PER_USER / BSD_1985.mips_per_user,
        whole_file_read_fraction: ro[0] / 100.0,
        sequential_byte_fraction: analysis.patterns.sequential_byte_fraction(),
        bytes_in_runs_over_1m: bytes_over_1m,
        open_time_p75: open_p75,
    }
}

impl BsdComparison {
    /// The paper's qualitative claims about change since 1985, as
    /// booleans this reproduction can assert on.
    pub fn headline_claims_hold(&self) -> bool {
        // Throughput grew by an order of magnitude or more...
        self.throughput_factor_10min > 5.0
            // ...but far less than compute power did.
            && self.throughput_factor_10min < self.compute_factor
            // Access became (at least as) sequential.
            && self.whole_file_read_fraction >= BSD_1985.whole_file_read_fraction - 0.05
            && self.sequential_byte_fraction >= BSD_1985.sequential_byte_fraction
            // Megabyte runs now carry at least the share 100 KB runs did.
            && self.bytes_in_runs_over_1m >= BSD_1985.bytes_in_runs_over_100k
    }

    /// Renders the Section 4 comparison.
    pub fn render(&self) -> String {
        format!(
            "BSD-study comparison (Section 4):\n\
             \x20 throughput/user, 10-min: {:.0}x the 1985 value [paper: ~20x]\n\
             \x20 throughput/user, 10-sec: {:.0}x [paper: >30x]\n\
             \x20 compute power per user:  {:.0}x [paper: 200-500x]\n\
             \x20 -> users spent their cycles on latency, not on more data\n\
             \x20 whole-file reads: {:.0}% [1985: 70%; paper: 78%]\n\
             \x20 sequential bytes: {:.0}% [1985: <70%; paper: >90%]\n\
             \x20 bytes in runs > 1 MB: {:.0}% [1985: 10% of bytes in runs \
             > 100 KB -> runs grew ~10x]\n\
             \x20 75% of opens within: {:.2} s [1985: 0.5 s; paper: 0.25 s]",
            self.throughput_factor_10min,
            self.throughput_factor_10sec,
            self.compute_factor,
            100.0 * self.whole_file_read_fraction,
            100.0 * self.sequential_byte_fraction,
            100.0 * self.bytes_in_runs_over_1m,
            self.open_time_p75,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Study, StudyConfig};
    use sdfs_workload::TraceSpec;

    #[test]
    fn headline_claims_hold_on_generated_trace() {
        let mut cfg = StudyConfig::quick();
        cfg.workload.activity_scale = 0.6;
        let study = Study::new(cfg);
        let spec = TraceSpec {
            seed: 31,
            heavy_sim: false,
        };
        let records = study.run_trace_full(spec).records;
        let cmp = compare(&study.analyze_trace(spec, &records));
        assert!(
            cmp.headline_claims_hold(),
            "Section 4 claims failed: {cmp:?}"
        );
        let text = cmp.render();
        assert!(text.contains("throughput/user"));
    }

    #[test]
    fn constants_match_the_papers_citations() {
        assert!((BSD_1985.throughput_10min - 400.0).abs() < f64::EPSILON);
        assert!((SPRITE_MIPS_PER_USER / BSD_1985.mips_per_user - 350.0).abs() < 1.0);
    }
}
