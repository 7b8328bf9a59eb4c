//! Calibration tests: the distributional *shapes* the paper reports must
//! emerge from a generated trace. These deliberately use wide tolerance
//! bands — they pin the qualitative results (who dominates, which way
//! the skew goes), not the 1991 point estimates.

use sdfs_core::access::reconstruct;
use sdfs_core::figures::{all_figures, file_sizes, open_times, run_lengths};
use sdfs_core::patterns::table3;
use sdfs_core::{Study, StudyConfig};
use sdfs_workload::TraceSpec;

fn records() -> Vec<sdfs_trace::Record> {
    let mut cfg = StudyConfig::quick();
    cfg.workload.activity_scale = 0.8;
    Study::new(cfg)
        .run_trace_full(TraceSpec {
            seed: 21,
            heavy_sim: false,
        })
        .records
}

#[test]
fn most_accesses_are_read_only_and_sequential() {
    let recs = records();
    let p = table3(&recs);
    let ty = p.type_access_percentages();
    assert!(ty[0] > 60.0, "read-only accesses dominate: {ty:?}");
    assert!(ty[2] < 10.0, "read/write accesses are rare: {ty:?}");
    // The vast majority of bytes move sequentially (paper: >90%).
    assert!(
        p.sequential_byte_fraction() > 0.8,
        "sequential byte fraction {}",
        p.sequential_byte_fraction()
    );
    // Most read-only accesses are whole-file (paper: ~78%).
    let ro = p.read_only.access_percentages();
    assert!(ro[0] > 55.0, "whole-file reads {ro:?}");
}

#[test]
fn small_files_dominate_accesses_but_large_files_dominate_bytes() {
    let recs = records();
    let accesses = reconstruct(&recs);
    let fs = file_sizes(&accesses);
    let small_access = fs.by_accesses.fraction_below(10_240.0);
    let small_bytes = fs.by_bytes.fraction_below(10_240.0);
    assert!(
        small_access > 0.45,
        "accesses to small files: {small_access}"
    );
    assert!(
        small_bytes < small_access,
        "byte weighting must shift toward large files"
    );
    let big_bytes = 1.0 - fs.by_bytes.fraction_below(1_048_576.0);
    assert!(big_bytes > 0.15, "megabyte files carry bytes: {big_bytes}");
}

#[test]
fn runs_are_short_but_long_runs_carry_bytes() {
    let recs = records();
    let accesses = reconstruct(&recs);
    let rl = run_lengths(&accesses);
    let short_runs = rl.by_runs.fraction_below(10_240.0);
    assert!(short_runs > 0.6, "most runs are short: {short_runs}");
    let big_byte_share = 1.0 - rl.by_bytes.fraction_below(1_048_576.0);
    assert!(
        big_byte_share > 0.1,
        "paper: at least 10% of bytes move in runs over 1 MB ({big_byte_share})"
    );
}

#[test]
fn opens_are_brief() {
    let recs = records();
    let accesses = reconstruct(&recs);
    let ot = open_times(&accesses);
    let quick = ot.fraction_below(0.25);
    // Paper: ~75% under a quarter second. Accept a broad band.
    assert!((0.5..0.98).contains(&quick), "opens under 0.25 s: {quick}");
    // But there is a real tail of long opens (held files).
    let slow = 1.0 - ot.fraction_below(10.0);
    assert!(slow > 0.001, "some opens last many seconds: {slow}");
}

#[test]
fn deleted_files_are_young_but_deleted_bytes_are_older() {
    let recs = records();
    let figs = all_figures(&recs);
    let (by_files, by_bytes) = (&figs.lifetimes.by_files, &figs.lifetimes.by_bytes);
    assert!(by_files.len() > 50, "enough deletions to measure");
    let files_young = by_files.fraction_below(30.0);
    let bytes_young = by_bytes.fraction_below(30.0);
    assert!(files_young > 0.25, "short-lived files exist: {files_young}");
    assert!(
        bytes_young < files_young,
        "bytes must live longer than files (paper's Figure 4 contrast): \
         files {files_young} vs bytes {bytes_young}"
    );
}

#[test]
fn migration_increases_burst_intensity() {
    use sdfs_core::activity::analyze_activity;
    use sdfs_simkit::SimDuration;
    let mut cfg = StudyConfig::quick();
    cfg.workload.activity_scale = 0.8;
    cfg.workload.migration_fraction = 0.5;
    let recs = Study::new(cfg)
        .run_trace_full(TraceSpec {
            seed: 23,
            heavy_sim: false,
        })
        .records;
    let all = analyze_activity(&recs, SimDuration::from_mins(10), false);
    let mig = analyze_activity(&recs, SimDuration::from_mins(10), true);
    if mig.throughput_per_user.count() > 10 {
        assert!(
            mig.throughput_per_user.mean() > all.throughput_per_user.mean(),
            "migrated activity is more intense (paper: ~6x): {} vs {}",
            mig.throughput_per_user.mean(),
            all.throughput_per_user.mean()
        );
    }
}

#[test]
fn caches_absorb_roughly_half_the_traffic() {
    use sdfs_core::cache_tables::{table6, table7};
    let mut cfg = StudyConfig::quick();
    cfg.counter_days = 1;
    let study = Study::new(cfg);
    let data = study.run_counters();
    let t6 = table6(&data.total, &data.per_day);
    // Paper: read miss ratio ~40%; accept a broad band around it.
    assert!(
        (10.0..70.0).contains(&t6.read_miss_pct.0.pct),
        "read miss ratio {}",
        t6.read_miss_pct.0.pct
    );
    // Paper: ~90% of written bytes eventually reach the server.
    assert!(
        (50.0..120.0).contains(&t6.writeback_pct.pct),
        "writeback traffic {}",
        t6.writeback_pct.pct
    );
    // Write fetches are rare (paper: ~1%).
    assert!(t6.write_fetch_pct.0.pct < 10.0);
    let t7 = table7(&data.total, &data.per_day);
    // The cache filter: server traffic well below raw traffic.
    assert!(
        (0.2..0.9).contains(&t7.server_over_raw),
        "server/raw {}",
        t7.server_over_raw
    );
}
