//! Determinism regression for the study's work-stealing job pool.
//!
//! Workers claim jobs (the counter campaign and each trace) from a
//! shared atomic counter, so which thread runs which job varies run to
//! run. Results must not: every trace seeds its own generator from its
//! `TraceSpec` and lands in its own output slot, so the same
//! configuration must render the same report bit for bit, at any
//! worker count. (The full study uses the paper's fixed master seed
//! 0x5DF5_1991; the quick config's per-trace seeds exercise the same
//! machinery.)

use std::hash::{DefaultHasher, Hash, Hasher};

use sdfs_core::report;
use sdfs_core::{Study, StudyConfig};

fn quick_config() -> StudyConfig {
    let mut cfg = StudyConfig::quick();
    cfg.workload.activity_scale = 0.3;
    cfg
}

fn render_with_parallelism(workers: usize) -> String {
    let mut cfg = quick_config();
    cfg.parallelism = workers;
    let study = Study::new(cfg);
    report::render_all(&study.run_all())
}

fn hash_of(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

#[test]
fn same_seed_same_report_across_runs() {
    let first = render_with_parallelism(2);
    let second = render_with_parallelism(2);
    assert_eq!(
        hash_of(&first),
        hash_of(&second),
        "same-seed campaigns must hash identically"
    );
    assert_eq!(first, second, "same-seed campaigns must render identically");
}

#[test]
fn worker_count_does_not_change_the_report() {
    let serial = render_with_parallelism(1);
    let parallel = render_with_parallelism(4);
    assert_eq!(
        serial, parallel,
        "the work-stealing schedule must not leak into results"
    );
}
