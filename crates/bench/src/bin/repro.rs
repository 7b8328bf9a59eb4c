//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] [--traces N] [--days N] [--threads N|auto] [--sanitize]
//!       [--observe]
//!       [all|table1|table2|table3|table10|table11|table12|cache|
//!        figures [--csv DIR]|bsd|check|ablations|extensions|faults|
//!        latency|gen-trace OUT|obs [--json]|profile|selftrace]
//! ```
//!
//! With no arguments the full study runs at paper scale (eight 24-hour
//! traces, 14 counter days) and prints every table with the published
//! values alongside. `--quick` uses the reduced configuration (useful
//! for smoke tests). `--sanitize` runs SpriteSan and `--observe` the
//! self-measurement layer alongside the subcommands that print the
//! study's report (`all`, the tables and figures, `cache`, `bsd`,
//! `check`) and the fault study (`faults`), plus `obs` for
//! `--observe`; the verdict and the report go to stderr so stdout stays
//! byte-identical to a plain run. Anything the parser does not
//! understand — an unknown flag, a malformed value, a zero trace or
//! worker count, a flag its subcommand does not take, `gen-trace`
//! without OUT — prints the usage synopsis and exits 2.

use std::hint::black_box;

use sdfs_core::access::AccessScanner;
use sdfs_core::activity::Table2Accumulator;
use sdfs_core::consistency::Table10Builder;
use sdfs_core::extensions::{
    crash_exposure_ablation, policy_matrix, render_crash_exposure, render_policy_matrix,
};
use sdfs_core::figures::FiguresAccumulator;
use sdfs_core::latency::latency_report;
use sdfs_core::overhead::Table12Builder;
use sdfs_core::patterns::AccessPatterns;
use sdfs_core::report;
use sdfs_core::staleness::PollingSim;
use sdfs_core::study::{merged, writeback_delay_ablation};
use sdfs_core::Study;
use sdfs_simkit::SimDuration;
use sdfs_spritefs::{Config, ObsReport, SanitizerStats};
use sdfs_trace::{Record, TraceStatsBuilder};

/// Every subcommand the CLI accepts, for validation and the usage
/// synopsis. Aliases (`fig1`, `table5`, ...) are listed explicitly so a
/// typo is distinguishable from a narrower table request.
const KNOWN_SUBCOMMANDS: &[&str] = &[
    "all",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "table10",
    "table11",
    "table12",
    "cache",
    "figures",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "bsd",
    "check",
    "ablations",
    "extensions",
    "faults",
    "latency",
    "gen-trace",
    "obs",
    "profile",
    "selftrace",
];

/// Flags that take no value. `--quick` applies to any subcommand; the
/// others belong to some ([`SCOPED_FLAGS`]).
const SWITCHES: &[&str] = &["--quick", "--sanitize", "--observe", "--json"];

/// Flags that take one value.
const VALUE_FLAGS: &[&str] = &["--traces", "--days", "--threads", "--csv"];

/// The subcommands that render Figures 1-4.
const FIGURES: &[&str] = &["figures", "fig1", "fig2", "fig3", "fig4"];

/// Whether known subcommand `what` prints SpriteSan's verdict and the
/// observer's report: the study's report, its tables and figures, the
/// BSD comparison, the scorecard and the fault study do.
fn reports(what: &str) -> bool {
    what.starts_with("table") || FIGURES.contains(&what) || REPORTERS.contains(&what)
}

/// The subcommands [`reports`] names besides the tables and figures.
const REPORTERS: &[&str] = &["all", "cache", "bsd", "check", "faults"];

/// Whether a subcommand takes a flag.
type Takes = fn(&str) -> bool;

/// Flags that only some subcommands take, with the test for those
/// subcommands. Given with any other subcommand they would do nothing,
/// or run a checker whose verdict nobody prints, so the parser rejects
/// them.
const SCOPED_FLAGS: &[(&str, Takes)] = &[
    ("--csv", |what| FIGURES.contains(&what)),
    ("--json", |what| what == "obs"),
    ("--sanitize", reports),
    ("--observe", |what| what == "obs" || reports(what)),
];

/// The usage synopsis printed on any command line the parser rejects.
fn usage() -> String {
    "usage: repro [--quick] [--traces N] [--days N] [--threads N|auto] [--sanitize] [--observe] [SUBCOMMAND]\n\
     \n\
     options:\n\
     \x20 --quick             reduced study (2 traces, 8 clients, 2 counter days)\n\
     \x20 --traces N          keep only the first N traces (N >= 1)\n\
     \x20 --days N            counter-campaign length in days\n\
     \x20 --threads N|auto    campaign workers: jobs run at once (default, auto = host CPUs)\n\
     \x20 --sanitize          run SpriteSan; verdict on stderr, exit 1 on a violation\n\
     \x20 --observe           run the self-measurement layer; report on stderr\n\
     \x20                     (both with all, table*, cache, fig*, bsd, check, faults;\n\
     \x20                      --observe also with obs)\n\
     \n\
     subcommands:\n\
     \x20 all                 full study, every table and figure (default)\n\
     \x20 table1..table12     one paper table (table4-9 render together)\n\
     \x20 cache               Tables 4-9 (cache behaviour)\n\
     \x20 figures [--csv DIR] Figures 1-4 checkpoints (and CSV export)\n\
     \x20 fig1..fig4          alias for figures\n\
     \x20 bsd                 1985 BSD study comparison\n\
     \x20 check               reproduction scorecard (exit 1 on failure)\n\
     \x20 ablations           write-back delay ablation\n\
     \x20 extensions          crash-exposure and policy-matrix studies\n\
     \x20 faults              availability under server failure\n\
     \x20 latency             modeled operation latency report\n\
     \x20 gen-trace OUT       write one trace as a binary trace file\n\
     \x20 obs [--json]        self-measurement report (implies --observe)\n\
     \x20 profile             wall-clock breakdown of the pipeline stages\n\
     \x20 selftrace           simulator self-trace cross-check (exit 1 on disagreement)\n"
        .to_string()
}

/// The parsed command line.
struct Cli {
    /// The subcommand (`all` when none is given).
    what: String,
    /// `gen-trace OUT`'s output path (always set for `gen-trace`).
    out: Option<String>,
    /// The switches given (members of [`SWITCHES`]).
    switches: Vec<String>,
    /// `--traces N`: keep only the first N traces.
    traces: Option<usize>,
    /// `--days N`: counter-campaign length in days.
    days: Option<u32>,
    /// `--threads N|auto`: campaign workers, 0 for `auto`.
    threads: Option<usize>,
    /// `figures --csv DIR`.
    csv: Option<String>,
}

impl Cli {
    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}

/// Parses the command line, rejecting unknown flags, malformed or
/// missing values, zero trace/worker counts, unknown subcommands, flags
/// the subcommand does not take, a missing `gen-trace` OUT, and stray
/// positional arguments. The error is the one-line diagnostic.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let count = |flag: &str, v: &str| match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("{flag} expects a positive integer, got `{v}`")),
    };
    let mut cli = Cli {
        what: String::from("all"),
        out: None,
        switches: Vec::new(),
        traces: None,
        days: None,
        threads: None,
        csv: None,
    };
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            positional.push(a);
            continue;
        }
        if SWITCHES.contains(&a.as_str()) {
            cli.switches.push(a.clone());
            continue;
        }
        if !VALUE_FLAGS.contains(&a.as_str()) {
            return Err(format!("unknown flag `{a}`"));
        }
        let v = match it.next() {
            Some(v) if !v.starts_with("--") => v,
            _ => return Err(format!("{a} requires a value")),
        };
        match a.as_str() {
            "--traces" => cli.traces = Some(count(a, v)?),
            "--days" => {
                cli.days = Some(
                    v.parse()
                        .map_err(|_| format!("--days expects a whole number, got `{v}`"))?,
                )
            }
            "--threads" => cli.threads = Some(if v == "auto" { 0 } else { count(a, v)? }),
            _ => cli.csv = Some(v.clone()),
        }
    }
    let mut positional = positional.into_iter();
    if let Some(what) = positional.next() {
        cli.what = what.clone();
    }
    if !KNOWN_SUBCOMMANDS.contains(&cli.what.as_str()) {
        return Err(format!("unknown subcommand `{}`", cli.what));
    }
    // A value never starts with `--`, so any argument equal to a flag is
    // that flag.
    for &(flag, takes) in SCOPED_FLAGS {
        if args.iter().any(|a| a == flag) && !takes(&cli.what) {
            return Err(format!("`{flag}` does not apply to `{}`", cli.what));
        }
    }
    if cli.what == "gen-trace" {
        let out = positional
            .next()
            .ok_or("`gen-trace` requires an output path OUT")?;
        cli.out = Some(out.clone());
    }
    if let Some(extra) = positional.next() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&args).unwrap_or_else(|msg| {
        eprint!("repro: {msg}\n\n{}", usage());
        std::process::exit(2);
    });
    let what = cli.what.as_str();

    let quick = cli.has("--quick");
    let mut cfg = if quick {
        sdfs_bench::bench_config()
    } else {
        sdfs_bench::paper_config()
    };
    // `--traces N` / `--days N` shrink the campaign for calibration runs.
    if let Some(n) = cli.traces {
        cfg.traces.truncate(n);
    }
    if let Some(n) = cli.days {
        cfg.counter_days = n;
    }
    // `--threads N|auto` sets how many campaign jobs (the counter
    // campaign and each trace) run at once, each on its own worker;
    // `auto`, like the default, is one worker per host CPU. Output is
    // byte-identical at any value.
    if let Some(n) = cli.threads {
        cfg.parallelism = n;
    }
    // `--sanitize` runs SpriteSan alongside the simulation. The verdict
    // goes to stderr so stdout stays byte-identical to a plain run.
    cfg.cluster.sanitize = cli.has("--sanitize");
    // `--observe` runs the self-measurement layer the same way: report
    // to stderr, stdout untouched. `repro obs` implies it.
    cfg.cluster.observe = cli.has("--observe") || what == "obs";
    let study = Study::new(cfg);

    // Open the output paths before any simulation runs, so an
    // unwritable one fails at once rather than after the whole study.
    let trace_out = cli.out.as_ref().map(|out| {
        let writer = sdfs_trace::TraceWriter::create(out).unwrap_or_else(|e| cannot_write(out, e));
        (out, writer)
    });
    if let Some(dir) = &cli.csv {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| cannot_write(dir, e));
    }

    if what == "profile" {
        run_profile(&study);
        return;
    }

    if what == "selftrace" {
        // The simulator writes its own Sprite-format trace, re-reads it,
        // and cross-checks the analysis against its own counters.
        let spec = study.config().traces[0];
        let rep = sdfs_core::selftrace::run(&study, spec);
        print!("{}", rep.render());
        if !rep.all_agree() {
            std::process::exit(1);
        }
        return;
    }

    let t0 = stopwatch();
    eprintln!(
        "running study: {} traces, {} counter days ({} clients)...",
        study.config().traces.len(),
        study.config().counter_days,
        study.config().cluster.num_clients
    );

    if what == "ablations" {
        let rows = writeback_delay_ablation(study.config(), &[5, 30, 120, 600]);
        println!("Writeback-delay ablation (delay s -> writeback traffic %):");
        for (d, pct) in rows {
            println!("  {d:>4} s: {pct:6.1}%");
        }
        return;
    }

    if what == "extensions" {
        let mut cfg = study.config().clone();
        cfg.workload.activity_scale = cfg.workload.activity_scale.min(0.5);
        println!(
            "{}",
            render_crash_exposure(&crash_exposure_ablation(&cfg, &[5, 30, 120, 600]))
        );
        println!("{}", render_policy_matrix(&policy_matrix(&cfg)));
        return;
    }

    if what == "faults" {
        // `repro faults`: the availability study — one day under a
        // deterministic fault plan, plus the loss-vs-delay and
        // storm-vs-cluster-size sweeps, the partition/lease comparison
        // with its duration × TTL sweep, and the NVRAM ablation.
        // `--sanitize` and `--observe` check the outage day and both
        // partition days; the sweep days run unchecked.
        use sdfs_core::recovery;
        let mut cfg = study.config().clone();
        cfg.workload.activity_scale = cfg.workload.activity_scale.min(0.5);
        let plan = recovery::default_plan();
        let outcome = recovery::run_outage_day(&cfg, &plan);
        let loss = recovery::loss_vs_writeback_delay(&cfg, &plan, &[5, 30, 120, 600]);
        let storm = recovery::storm_vs_cluster_size(&cfg, &plan, &[4, 8, 16, 32]);
        println!(
            "{}",
            recovery::render_availability(&plan, &outcome, &loss, &storm)
        );
        let n = cfg.cluster.num_clients;
        let [lease, cons] = [false, true]
            .map(|c| recovery::run_partition_day(&cfg, &recovery::partition_plan(n, c)));
        let sweep = recovery::lease_ttl_sweep(&cfg, &[120, 600, 1800], &[60, 900]);
        println!(
            "{}",
            recovery::render_partition(&recovery::partition_plan(n, false), &lease, &cons, &sweep)
        );
        println!(
            "{}",
            recovery::render_nvram(&recovery::nvram_ablation(
                &cfg,
                &plan,
                &[0, 1 << 16, 1 << 20, 1 << 30],
            ))
        );
        print_checks(
            &cfg.cluster,
            [&outcome.sanitizer, &lease.sanitizer, &cons.sanitizer],
            [&outcome.obs, &lease.obs, &cons.obs],
        );
        return;
    }

    if let Some((out, mut writer)) = trace_out {
        // Generate one trace and write it as a binary trace file, for
        // use with `tracetool`.
        let spec = study.config().traces[0];
        let records = study.run_trace_full(spec).records;
        for rec in &records {
            writer.write(rec).unwrap_or_else(|e| cannot_write(out, e));
        }
        let n = writer.count();
        writer.finish().unwrap_or_else(|e| cannot_write(out, e));
        eprintln!("wrote {n} records to {out}");
        return;
    }

    if what == "latency" {
        let data = study.run_counters();
        let secs = study.config().counter_days as f64 * 86_400.0;
        let report = latency_report(&data.total, secs);
        println!("{}", report.render());
        return;
    }

    let results = study.run_all();
    eprintln!("study complete in {:.1}s", t0.elapsed().as_secs_f64());

    if what == "obs" {
        // `repro obs [--json]`: just the self-measurement report — the
        // per-RPC latency histograms, span aggregates, and retry
        // exhaustion from the whole campaign.
        let report = merged(results.checks().map(|(_, o)| o), ObsReport::merge)
            .expect("observe is forced on for `repro obs`");
        if cli.has("--json") {
            println!("{}", report.to_json());
        } else {
            print!("{}", report.render());
        }
        return;
    }

    let out = match what {
        "check" => {
            let sc = sdfs_core::check::scorecard(&results);
            let text = sc.render();
            if !sc.all_passed() {
                eprintln!("{text}");
                std::process::exit(1);
            }
            text
        }
        "bsd" => {
            let mut s = String::new();
            for (i, t) in results.traces.iter().enumerate() {
                s.push_str(&format!("trace {}:\n", i + 1));
                s.push_str(&sdfs_core::bsd::compare(t).render());
                s.push('\n');
            }
            s
        }
        "table1" => report::render_table1(&results.traces),
        "table2" => report::render_table2(&results.traces),
        "table3" => report::render_table3(&results.traces),
        "cache" | "table4" | "table5" | "table6" | "table7" | "table8" | "table9" => {
            report::render_cache_tables(&results)
        }
        "table10" | "table11" | "table12" => report::render_consistency_tables(&results),
        _ if FIGURES.contains(&what) => {
            let mut s = report::render_figure_checkpoints(&results.traces);
            if let Some(dir) = &cli.csv {
                for (i, t) in results.traces.iter().enumerate() {
                    let dir = std::path::Path::new(dir).join(format!("trace{}", i + 1));
                    let written = report::export_figures(&t.figures, &dir)
                        .unwrap_or_else(|e| cannot_write(dir.display(), e));
                    eprintln!("wrote {} CSVs to {}", written.len(), dir.display());
                }
            }
            for t in results.traces.iter().take(1) {
                for fig in t.figures.render() {
                    s.push('\n');
                    s.push_str(&report::render_figure(&fig));
                }
            }
            s
        }
        _ => report::render_all(&results),
    };
    println!("{out}");
    let (sanitizers, reports): (Vec<_>, Vec<_>) = results.checks().unzip();
    print_checks(&study.config().cluster, sanitizers, reports);
}

/// Prints on stderr SpriteSan's verdict and the observer's report, each
/// merged over every run that produced one, for whichever of the two
/// `cluster` turned on, and exits 1 on a violation. Every subcommand
/// that takes `--sanitize` or `--observe` reports through here, so its
/// stdout stays byte-identical to a plain run.
fn print_checks<'a>(
    cluster: &Config,
    sanitizers: impl IntoIterator<Item = &'a Option<SanitizerStats>>,
    reports: impl IntoIterator<Item = &'a Option<ObsReport>>,
) {
    if cluster.sanitize {
        match merged(sanitizers, SanitizerStats::merge) {
            Some(san) => {
                eprintln!("{}", san.render());
                if !san.is_clean() {
                    std::process::exit(1);
                }
            }
            None => eprintln!("sanitizer: no verdict collected"),
        }
    }
    if cluster.observe {
        match merged(reports, ObsReport::merge) {
            Some(o) => eprint!("{}", o.render()),
            None => eprintln!("observer: no report collected"),
        }
    }
}

/// Reports an output path that cannot be written and exits 2, like any
/// other rejected input.
fn cannot_write(path: impl std::fmt::Display, e: impl std::fmt::Display) -> ! {
    eprintln!("repro: cannot write {path}: {e}");
    std::process::exit(2);
}

/// Feeds every record to one streaming consumer, the way the fused pass
/// does, and returns it for finishing.
fn feed<C>(records: &[Record], mut consumer: C, record: impl Fn(&mut C, &Record)) -> C {
    for rec in records {
        record(&mut consumer, rec);
    }
    consumer
}

/// Builds one analysis consumer, feeds it a trace's records and
/// finishes it.
type RunConsumer = fn(&[Record]);

/// Every consumer the fused analysis pass drives, by the name `repro
/// profile` prints.
const CONSUMERS: [(&str, RunConsumer); 8] = [
    ("stats", |r| {
        black_box(feed(r, TraceStatsBuilder::new(), TraceStatsBuilder::record).finish());
    }),
    ("table2", |r| {
        black_box(feed(r, Table2Accumulator::new(), Table2Accumulator::record).finish());
    }),
    ("access scan + table3 + fig1-3", |r| {
        let state = (
            AccessScanner::new(),
            AccessPatterns::default(),
            FiguresAccumulator::new(),
        );
        let (_, patterns, figures) = feed(r, state, |(scanner, patterns, figures), rec| {
            if let Some(access) = scanner.record(rec) {
                patterns.add(&access);
                figures.access(&access);
            }
        });
        black_box((patterns, figures.finish()));
    }),
    ("fig4", |r| {
        black_box(feed(r, FiguresAccumulator::new(), FiguresAccumulator::record).finish());
    }),
    ("table10", |r| {
        black_box(feed(r, Table10Builder::new(), Table10Builder::record).finish());
    }),
    ("table11 60 s", |r| {
        let sim = PollingSim::new(SimDuration::from_secs(60));
        black_box(feed(r, sim, PollingSim::record).finish());
    }),
    ("table11 3 s", |r| {
        let sim = PollingSim::new(SimDuration::from_secs(3));
        black_box(feed(r, sim, PollingSim::record).finish());
    }),
    ("table12", |r| {
        black_box(feed(r, Table12Builder::new(), Table12Builder::record).finish());
    }),
];

/// `repro profile`: wall-clock breakdown of the pipeline stages on the
/// configured study, and of the fused analysis by consumer, each timed
/// alone over the same records. It times the materialised pipeline
/// (`run_trace_full`, then `analyze_trace`) so that simulation and
/// analysis can be timed apart; `run_traces` no longer runs that
/// pipeline, since it streams each trace into the analysis as the
/// cluster emits it. Its clock reads go through [`stopwatch`], like the
/// study's one timing line.
fn run_profile(study: &Study) {
    let t_total = stopwatch();

    let t = stopwatch();
    let per_trace: Vec<_> = study
        .config()
        .traces
        .iter()
        .map(|&spec| (spec, study.run_trace_full(spec).records))
        .collect();
    let simulate = t.elapsed().as_secs_f64();
    let records: usize = per_trace.iter().map(|(_, r)| r.len()).sum();

    let t = stopwatch();
    let analyses: Vec<_> = per_trace
        .iter()
        .map(|(spec, records)| study.analyze_trace(*spec, records))
        .collect();
    let analyze = t.elapsed().as_secs_f64();

    let t = stopwatch();
    let counters = study.run_counters();
    let counters_secs = t.elapsed().as_secs_f64();

    let t = stopwatch();
    let mut s = report::render_table1(&analyses);
    s.push_str(&report::render_figure_checkpoints(&analyses));
    let _ = counters.total.get(sdfs_spritefs::metrics::cache::READ_OPS);
    let render_secs = t.elapsed().as_secs_f64();
    let total = t_total.elapsed().as_secs_f64();

    let pct = |secs: f64| 100.0 * secs / total.max(1e-9);
    let per_record = |secs: f64| secs * 1e9 / records.max(1) as f64;
    println!(
        "repro profile ({} traces, {} counter days, {} records):",
        per_trace.len(),
        study.config().counter_days,
        records
    );
    println!("  {:<18} {:>8.3} s  ({:>4.1}%)", "simulate", simulate, pct(simulate));
    println!("  {:<18} {:>8.3} s  ({:>4.1}%)", "analyze (fused)", analyze, pct(analyze));
    println!(
        "  {:<18} {:>8.3} s  ({:>4.1}%)",
        "counter campaign", counters_secs, pct(counters_secs)
    );
    println!("  {:<18} {:>8.3} s  ({:>4.1}%)", "render", render_secs, pct(render_secs));
    println!("  {:<18} {:>8.3} s", "total", total);

    println!(
        "analysis by consumer, each alone over the same records (fused: {:.0} ns/record):",
        per_record(analyze)
    );
    for (name, run) in CONSUMERS {
        let t = stopwatch();
        for (_, recs) in &per_trace {
            run(recs);
        }
        let secs = t.elapsed().as_secs_f64();
        println!(
            "  {:<30} {:>8.3} s  {:>6.0} ns/record",
            name,
            secs,
            per_record(secs)
        );
    }
}

/// Starts a host-clock timer. This is the one place the workspace reads
/// the wall clock: `repro` prints how long its stages took, and no
/// reported number depends on it.
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "host timing for repro's progress line and `repro profile`, never a reported number"
)]
fn stopwatch() -> std::time::Instant {
    std::time::Instant::now()
}
