//! A programmatic scorecard: does the reproduction still reproduce?
//!
//! Every headline claim of the paper is encoded as a named check with a
//! tolerance band. `repro check` (and CI) can run the full study and
//! fail loudly if a code change silently breaks a result — the
//! reproduction-era equivalent of a regression test suite over the
//! science rather than the code.

use crate::study::StudyResults;

/// One verified claim.
#[derive(Debug, Clone)]
pub struct Check {
    /// Short name of the claim.
    pub name: &'static str,
    /// What the paper says.
    pub paper: &'static str,
    /// The measured value.
    pub measured: f64,
    /// Accepted band (inclusive).
    pub band: (f64, f64),
}

impl Check {
    /// Whether the measured value lies in the accepted band.
    pub fn passed(&self) -> bool {
        self.measured >= self.band.0 && self.measured <= self.band.1
    }
}

/// The full scorecard.
#[derive(Debug, Clone, Default)]
pub struct Scorecard {
    /// Every check performed.
    pub checks: Vec<Check>,
}

impl Scorecard {
    /// Number of passing checks.
    pub fn passed(&self) -> usize {
        self.checks.iter().filter(|c| c.passed()).count()
    }

    /// Whether every check passed.
    pub fn all_passed(&self) -> bool {
        self.passed() == self.checks.len()
    }

    /// Renders the scorecard.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Reproduction scorecard: {}/{} checks passed",
            self.passed(),
            self.checks.len()
        );
        for c in &self.checks {
            let _ = writeln!(
                s,
                "  [{}] {:<38} measured {:>9.3} in [{}, {}]  (paper: {})",
                if c.passed() { "ok" } else { "FAIL" },
                c.name,
                c.measured,
                c.band.0,
                c.band.1,
                c.paper,
            );
        }
        s
    }
}

/// Runs every headline check against study results.
pub fn scorecard(results: &mut StudyResults) -> Scorecard {
    let mut sc = Scorecard::default();
    let mut add = |name, paper, measured, lo, hi| {
        sc.checks.push(Check {
            name,
            paper,
            measured,
            band: (lo, hi),
        });
    };

    // --- Section 4 / Table 2 ---
    let mut tput = sdfs_simkit::Summary::new();
    let mut mig_active = sdfs_simkit::Summary::new();
    for t in &results.traces {
        tput.merge(&t.activity.ten_min_all.throughput_per_user);
        mig_active.merge(&t.activity.ten_min_migrated.active_users);
    }
    add(
        "throughput factor vs 1985 (10-min)",
        "~20x",
        tput.mean() / crate::bsd::BSD_1985.throughput_10min,
        5.0,
        80.0,
    );
    let peak_total = results
        .traces
        .iter()
        .map(|t| t.activity.ten_sec_all.peak_total_throughput)
        .fold(0.0, f64::max);
    add(
        "10-sec peak total throughput, MB/s",
        "~10 MB/s (above raw Ethernet)",
        peak_total / 1e6,
        3.0,
        40.0,
    );

    // --- Table 3 ---
    let mut merged = crate::patterns::AccessPatterns::default();
    for t in &results.traces {
        crate::report::merge_patterns_public(&mut merged, &t.patterns);
    }
    add(
        "read-only access share, %",
        "88%",
        merged.type_access_percentages()[0],
        65.0,
        95.0,
    );
    add(
        "sequential byte share, %",
        ">90%",
        100.0 * merged.sequential_byte_fraction(),
        85.0,
        100.0,
    );
    let ro = merged.read_only.access_percentages();
    add("whole-file read share, %", "78%", ro[0], 60.0, 92.0);

    // --- Figures ---
    let mut f = results.traces[0].figures.clone();
    add(
        "runs under 10 KB, %",
        "~80%",
        100.0 * f.run_lengths.by_runs.fraction_below(10_240.0),
        65.0,
        95.0,
    );
    add(
        "bytes in runs over 1 MB, %",
        ">=10%",
        100.0 * (1.0 - f.run_lengths.by_bytes.fraction_below(1_048_576.0)),
        10.0,
        100.0,
    );
    add(
        "opens under 0.25 s, %",
        "~75%",
        100.0 * f.open_times.fraction_below(0.25),
        60.0,
        95.0,
    );
    let files_young = f.lifetimes.by_files.fraction_below(30.0);
    let bytes_young = f.lifetimes.by_bytes.fraction_below(30.0);
    add(
        "deleted files under 30 s, %",
        "65-80%",
        100.0 * files_young,
        35.0,
        90.0,
    );
    add(
        "byte lifetimes exceed file lifetimes",
        "bytes live longer (Fig 4)",
        (files_young - bytes_young).signum(),
        1.0,
        1.0,
    );

    // --- Tables 4-9 ---
    add(
        "mean client cache size, MB",
        "~7 MB of 24-32 MB",
        results.table4.size.mean() / 1e6,
        3.0,
        14.0,
    );
    add(
        "file read miss ratio, %",
        "41.4%",
        results.table6.read_miss_pct.0.pct,
        15.0,
        60.0,
    );
    add(
        "writeback traffic ratio, %",
        "88.4%",
        results.table6.writeback_pct.pct,
        60.0,
        120.0,
    );
    add(
        "write fetch ratio, %",
        "1.2%",
        results.table6.write_fetch_pct.0.pct,
        0.0,
        5.0,
    );
    add(
        "server/raw traffic filter, %",
        "~50%",
        100.0 * results.table7.server_over_raw,
        30.0,
        75.0,
    );
    add(
        "delay share of cleanings, %",
        "71.1%",
        results.table9.delay.blocks_pct,
        50.0,
        95.0,
    );

    // --- Tables 10-12 ---
    let t10 = results.table10_aggregate();
    add(
        "concurrent write-sharing opens, %",
        "0.34%",
        t10.cws_pct(),
        0.05,
        1.5,
    );
    add("recall opens, %", "1.7%", t10.recall_pct(), 0.3, 4.0);
    let mut e60 = 0.0;
    let mut e3 = 0.0;
    for t in &results.traces {
        e60 += t.table11.sixty.errors_per_hour;
        e3 += t.table11.three.errors_per_hour;
    }
    e60 /= results.traces.len() as f64;
    e3 /= results.traces.len() as f64;
    add("stale errors/hour at 60 s", "18", e60, 1.0, 60.0);
    add(
        "60 s errors exceed 3 s errors",
        "18 vs 0.59",
        (e60 - e3).signum(),
        1.0,
        1.0,
    );
    let sprite = results
        .traces
        .iter()
        .map(|t| t.table12.sprite.bytes_ratio())
        .fold(0.0, f64::max);
    add(
        "Sprite overhead bytes ratio",
        "exactly 1.0",
        sprite,
        0.999,
        1.001,
    );

    // --- SpriteSan (present only when the study ran sanitized) ---
    if let Some(san) = results.sanitizer_summary() {
        add(
            "SpriteSan violations",
            "consistency oracle: none",
            san.violations() as f64,
            0.0,
            0.0,
        );
    }

    // --- Crash/recovery subsystem ---
    // A deterministic availability probe at a fixed quick scale (so it is
    // identical whether the surrounding study ran quick or full size):
    // the crash must destroy volatile server data, the reboot must draw a
    // recovery storm, and the oracle must stay clean across the failure.
    let probe = crate::recovery::availability_probe();
    add(
        "recovery storm RPCs after crash",
        "clients re-register and reopen",
        probe.storm_rpcs as f64,
        1.0,
        1e9,
    );
    add(
        "server crash loses dirty cache, bytes",
        "volatile state is lost; disk survives",
        probe.lost_bytes as f64,
        1.0,
        1e12,
    );
    add(
        "SpriteSan violations across crash",
        "recovery restores consistency",
        probe.violations as f64,
        0.0,
        0.0,
    );

    // --- Partition/lease subsystem ---
    // A mid-day partition at the same fixed quick scale, run once per
    // heal protocol: the lease heal must draw strictly less traffic than
    // the conservative per-file revalidation storm, leases must actually
    // lapse and revoke during the ten-minute cut, and the oracle must
    // stay clean across the cut and the heal.
    let part = crate::recovery::partition_probe();
    add(
        "lease heal beats conservative storm",
        "renewal replaces per-file revalidation",
        (part.conservative_storm_rpcs as f64) - (part.lease_storm_rpcs as f64),
        1.0,
        1e9,
    );
    add(
        "lease-expiry recalls during partition",
        "a 600 s cut outlives the 60 s TTL",
        part.lease_recalls as f64,
        1.0,
        1e9,
    );
    add(
        "SpriteSan violations across partition",
        "revocation keeps the oracle clean",
        part.violations as f64,
        0.0,
        0.0,
    );

    // --- NVRAM durability ablation ---
    // The same crash with and without a battery-backed write buffer:
    // unbuffered the crash destroys dirty cache, and a buffer sized past
    // the dirty exposure drives the loss to exactly zero.
    let nv = crate::recovery::nvram_probe();
    add(
        "crash loss without NVRAM, bytes",
        "delayed writes are exposed",
        nv.lost_without as f64,
        1.0,
        1e12,
    );
    add(
        "crash loss with 1 GiB NVRAM, bytes",
        "the buffer absorbs the exposure",
        nv.lost_with as f64,
        0.0,
        0.0,
    );

    // --- Self-trace cross-check ---
    // The simulator writes its own Sprite-format trace, re-analyzes it,
    // and compares the analysis against its own RPC counters. Like the
    // availability probe this runs at a fixed quick scale, so the rows
    // are identical whichever study size produced `results`.
    let st = crate::selftrace::probe();
    add(
        "selftrace codec round-trip mismatches",
        "trace validated against kernel counters",
        u64::from(!st.roundtrip_exact) as f64,
        0.0,
        0.0,
    );
    add(
        "selftrace identity disagreements",
        "analysis equals the simulator's counters",
        st.disagreements() as f64,
        0.0,
        0.0,
    );
    sc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Study, StudyConfig};

    #[test]
    fn scorecard_on_quick_study_mostly_passes() {
        let mut cfg = StudyConfig::quick();
        cfg.workload.activity_scale = 0.8;
        cfg.workload.num_users = 24;
        let study = Study::new(cfg);
        let mut results = study.run_all();
        let sc = scorecard(&mut results);
        assert!(sc.checks.len() >= 18);
        // The quick configuration is small, so allow a couple of misses,
        // but the bulk of the claims must hold even there.
        assert!(
            sc.passed() + 4 >= sc.checks.len(),
            "too many failures:\n{}",
            sc.render()
        );
        assert!(sc.render().contains("scorecard"));
    }

    #[test]
    fn check_band_logic() {
        let c = Check {
            name: "x",
            paper: "y",
            measured: 5.0,
            band: (1.0, 10.0),
        };
        assert!(c.passed());
        let c2 = Check {
            measured: 11.0,
            ..c
        };
        assert!(!c2.passed());
    }

    #[test]
    fn check_band_edges_are_inclusive() {
        let base = Check {
            name: "x",
            paper: "y",
            measured: 0.0,
            band: (1.0, 10.0),
        };
        // Both endpoints are inside the band.
        assert!(Check { measured: 1.0, ..base.clone() }.passed());
        assert!(Check { measured: 10.0, ..base.clone() }.passed());
        // Values just outside either endpoint are not.
        assert!(!Check { measured: 1.0 - 1e-12, ..base.clone() }.passed());
        assert!(!Check { measured: 10.0 + 1e-12, ..base.clone() }.passed());
        // A degenerate band accepts exactly one value.
        let exact = Check {
            measured: 0.0,
            band: (0.0, 0.0),
            ..base.clone()
        };
        assert!(exact.passed());
        assert!(!Check { measured: f64::EPSILON, ..exact.clone() }.passed());
        assert!(!Check { measured: -f64::EPSILON, ..exact.clone() }.passed());
        // NaN never passes: comparisons with NaN are false.
        assert!(!Check { measured: f64::NAN, ..base }.passed());
    }
}
