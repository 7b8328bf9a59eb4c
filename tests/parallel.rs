//! Equivalence regression for the study's job pool.
//!
//! `Study::run_all` runs the counter campaign and each trace as jobs on
//! one pool of `parallelism` workers (0: one per host CPU), each job on
//! its own cluster. The contract is *byte identity*: the rendered
//! campaign, every counter, the trace records, the sanitizer verdict,
//! and the obs report must not depend on the worker count or on which
//! worker ran which job. Four jobs (three traces and the counter
//! campaign) split unevenly at three workers, and seven workers exceed
//! the job count. The traces are ordinary (not heavy-simulation) days
//! and the counter campaign is one day, to keep the test-build runtime
//! small.

use std::fmt::Debug;

use sdfs_core::report;
use sdfs_core::study::merged;
use sdfs_core::{Study, StudyConfig};
use sdfs_spritefs::{ObsReport, SanitizerStats};
use sdfs_workload::TraceSpec;

fn quick_config(workers: usize) -> StudyConfig {
    let mut cfg = StudyConfig::quick();
    cfg.workload.activity_scale = 0.3;
    cfg.traces = (1..=3)
        .map(|seed| TraceSpec {
            seed,
            heavy_sim: false,
        })
        .collect();
    cfg.counter_days = 1;
    cfg.parallelism = workers;
    cfg
}

fn render_with_workers(workers: usize) -> String {
    let study = Study::new(quick_config(workers));
    report::render_all(&study.run_all())
}

/// `Debug` renders every float in its shortest round-trip form, so two
/// equal renderings mean bit-identical values.
fn debug_of<T: Debug>(x: &T) -> String {
    format!("{x:?}")
}

#[test]
fn full_campaign_is_byte_identical_at_any_thread_count() {
    let sequential = render_with_workers(1);
    for workers in [0, 2, 7] {
        let parallel = render_with_workers(workers);
        assert_eq!(
            sequential, parallel,
            "{workers} workers (0: one per host CPU) must render the identical campaign"
        );
    }
}

#[test]
fn counters_and_samples_match_the_sequential_engine() {
    // `run_all` runs the counter campaign as one job on the pool the
    // traces run on; the result must equal the campaign run on its own.
    let study = Study::new(quick_config(3));
    let alone = study.run_counters();
    let shared = study.run_all().counters;
    assert_eq!(
        alone.total, shared.total,
        "merged client counters must match"
    );
    assert_eq!(alone.per_day, shared.per_day, "per-day deltas must match");
    assert_eq!(alone.servers, shared.servers, "server counters must match");
    assert_eq!(alone.clients.len(), shared.clients.len());
    for (a, b) in alone.clients.iter().zip(shared.clients.iter()) {
        assert_eq!(a.counters, b.counters, "per-client counters must match");
        assert_eq!(a.samples, b.samples, "cache-size samples must match");
    }
}

#[test]
fn trace_records_match_across_thread_counts() {
    // Trace workers share nothing but the `Study`: the same trace
    // simulated on several threads at once must emit exactly what a
    // lone run emits.
    let study = Study::new(quick_config(1));
    let spec = study.config().traces[0];
    let seq = study.run_trace_full(spec);
    assert!(!seq.records.is_empty(), "the trace recorded activity");
    for threads in [2, 3] {
        let runs: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| s.spawn(|| study.run_trace_full(spec)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("trace worker panicked"))
                .collect()
        });
        for par in runs {
            assert_eq!(
                seq.records, par.records,
                "{threads} concurrent runs must emit identical trace records"
            );
            assert_eq!(seq.client_counters, par.client_counters);
            assert_eq!(seq.server_counters, par.server_counters);
        }
    }
}

#[test]
fn sanitizer_and_obs_summaries_match() {
    let run = |workers: usize| {
        let mut cfg = quick_config(workers);
        cfg.cluster.sanitize = true;
        cfg.cluster.observe = true;
        let results = Study::new(cfg).run_all();
        let per_trace: Vec<String> = results.traces.iter().map(debug_of).collect();
        let (sanitizers, reports): (Vec<_>, Vec<_>) = results.checks().unzip();
        (
            merged(sanitizers, SanitizerStats::merge).expect("sanitized run"),
            merged(reports, ObsReport::merge).expect("observed run"),
            per_trace,
        )
    };
    let (san_seq, obs_seq, traces_seq) = run(1);
    let (san_par, obs_par, traces_par) = run(3);
    assert!(san_seq.is_clean(), "one-worker sanitizer verdict clean");
    assert!(san_par.is_clean(), "three-worker sanitizer verdict clean");
    assert_eq!(san_seq, san_par, "sanitizer summaries must match");
    assert_eq!(obs_seq, obs_par, "obs reports must match");
    assert_eq!(traces_seq, traces_par, "per-trace analyses must match");
}
