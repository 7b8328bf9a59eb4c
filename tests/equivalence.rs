//! Equivalence regression: the fused single-pass analysis must produce
//! output byte-identical to the original one-scan-per-table path.
//!
//! The whole point of the fused pass is speed with *zero* drift in
//! reported numbers, so this test renders the full report through both
//! paths and compares the strings outright — any float formatting
//! difference, reordering, or off-by-one shows up as a diff.

use std::fmt::Write as _;

use sdfs_core::cache_tables::{table4, table5, table6, table7, table8, table9};
use sdfs_core::report;
use sdfs_core::study::{StudyResults, TraceAnalysis};
use sdfs_core::{Study, StudyConfig};
use sdfs_simkit::stats::log_points;
use sdfs_simkit::WeightedCdf;

fn small_study() -> Study {
    let mut cfg = StudyConfig::quick();
    cfg.workload.activity_scale = 0.3;
    Study::new(cfg)
}

/// Assembles `StudyResults` from per-trace analyses produced by the
/// given analysis function, running the counter campaign fresh (the
/// campaign itself is deterministic, so both assemblies see identical
/// counter data).
fn results_via(study: &Study, fused: bool) -> StudyResults {
    let traces = study
        .config()
        .traces
        .iter()
        .map(|&spec| {
            let records = study.run_trace_full(spec).records;
            if fused {
                study.analyze_trace(spec, &records)
            } else {
                study.analyze_trace_separate(spec, &records)
            }
        })
        .collect();
    let counters = study.run_counters();
    let table4 = table4(&counters.clients);
    let table5 = table5(&counters.total, &counters.per_day);
    let table6 = table6(&counters.total, &counters.per_day);
    let table7 = table7(&counters.total, &counters.per_day);
    let table8 = table8(&counters.total);
    let table9 = table9(&counters.total);
    StudyResults {
        traces,
        counters,
        table4,
        table5,
        table6,
        table7,
        table8,
        table9,
    }
}

#[test]
fn fused_and_separate_paths_render_identically() {
    let study = small_study();
    let rendered_fused = report::render_all(&results_via(&study, true));
    let rendered_separate = report::render_all(&results_via(&study, false));
    assert!(
        !rendered_fused.is_empty(),
        "report must render something"
    );
    assert_eq!(
        rendered_fused, rendered_separate,
        "fused single-pass analysis must be byte-identical to the \
         separate-pass reference"
    );
}

#[test]
fn run_all_uses_the_fused_path_faithfully() {
    // `run_all` (work-stealing scheduler + fused analysis) must agree
    // with a by-hand serial assembly of the same study.
    let study = small_study();
    assert_eq!(
        report::render_all(&study.run_all()),
        report::render_all(&results_via(&study, true)),
        "run_all must render identically to a serial fused assembly"
    );
}

/// At paper scale, each trace streamed from its cluster into the fused
/// analysis (`run_traces`, 2 workers) equals the fused analysis of the
/// same trace materialised and merged (`run_trace_full`), every field
/// and every float bit (`Debug` prints floats in shortest round-trip
/// form).
#[test]
fn streamed_analysis_equals_the_materialised_trace_at_paper_scale() {
    let study = Study::new(StudyConfig {
        parallelism: 2,
        ..sdfs_bench::paper_config()
    });
    let streamed = study.run_traces();
    assert_eq!(streamed.len(), 8);
    std::thread::scope(|scope| {
        for worker in 0..2 {
            let (study, streamed) = (&study, &streamed);
            scope.spawn(move || {
                for got in streamed.iter().skip(worker).step_by(2) {
                    let run = study.run_trace_full(got.spec);
                    let mut want = study.analyze_trace(got.spec, &run.records);
                    want.sanitizer = run.sanitizer;
                    want.obs = run.obs;
                    assert!(
                        format!("{got:?}") == format!("{want:?}"),
                        "{:?}: streamed analysis differs from the materialised trace's",
                        got.spec
                    );
                }
            });
        }
    });
}

/// Every figure CDF of `traces` at full precision (`Debug` floats): the
/// curve on its rendered grid, 33 quantiles, and the fraction at or
/// below each quantile.
fn figure_cdfs(traces: &[TraceAnalysis]) -> String {
    let size_grid = log_points(100.0, 100e6, 4);
    let time_grid = log_points(0.01, 1e6, 4);
    let open_grid = log_points(0.001, 1e4, 4);
    let mut out = String::new();
    for t in traces {
        let f = &t.figures;
        let cdfs: [(&str, &WeightedCdf, &[f64]); 7] = [
            ("fig1 by runs", &f.run_lengths.by_runs, &size_grid),
            ("fig1 by bytes", &f.run_lengths.by_bytes, &size_grid),
            ("fig2 by accesses", &f.file_sizes.by_accesses, &size_grid),
            ("fig2 by bytes", &f.file_sizes.by_bytes, &size_grid),
            ("fig3", &f.open_times, &open_grid),
            ("fig4 by files", &f.lifetimes.by_files, &time_grid),
            ("fig4 by bytes", &f.lifetimes.by_bytes, &time_grid),
        ];
        for (name, cdf, grid) in cdfs {
            let _ = writeln!(
                out,
                "trace {:#x} {name}: {} samples, weight {:?}",
                t.spec.seed,
                cdf.len(),
                cdf.total_weight()
            );
            if cdf.is_empty() {
                continue;
            }
            let _ = writeln!(out, "  curve {:?}", cdf.curve(grid));
            let quantiles: Vec<f64> = (0..=32)
                .map(|k| cdf.quantile(f64::from(k) / 32.0))
                .collect();
            let below: Vec<f64> = quantiles.iter().map(|&v| cdf.fraction_below(v)).collect();
            let _ = writeln!(out, "  quantiles {quantiles:?}");
            let _ = writeln!(out, "  fraction at or below each {below:?}");
        }
    }
    out
}

/// The report prints figure checkpoints in whole percents, so a change
/// in the last bit of a CDF would pass every other gate. This golden
/// pins both quick traces' figure CDFs, as `run_traces` computes them,
/// to every bit.
#[test]
fn figure_cdfs_match_the_golden_to_every_bit() {
    let got = figure_cdfs(&Study::new(StudyConfig::quick()).run_traces());
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/quick_figure_cdfs.txt"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file (run with BLESS=1 to create)");
    for (k, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{path} line {} differs", k + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{path}: line count"
    );
}
