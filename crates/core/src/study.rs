//! The end-to-end study pipeline.
//!
//! One [`Study`] reproduces the paper's two measurement campaigns:
//!
//! 1. **Eight 24-hour traces** ([`Study::run_traces`]) — for each
//!    [`TraceSpec`], synthesize a day of workload, execute it on a fresh
//!    cluster, merge the per-server trace streams, and run every
//!    trace-driven analysis (Tables 1–3, 10–12, Figures 1–4).
//! 2. **A multi-day counter run** ([`Study::run_counters`]) — one cluster
//!    executing day after day with counters snapshotted at day
//!    boundaries, yielding Tables 4–9.

use sdfs_simkit::{CounterSet, SimDuration, SimTime};
use sdfs_spritefs::cluster::NullSink;
use sdfs_spritefs::metrics::MachineMetrics;
use sdfs_spritefs::{Cluster, Config, ObsReport, SanitizerStats, VecSink};
use sdfs_trace::merge::merge_vecs;
use sdfs_trace::{Record, TraceStats};
use sdfs_workload::{Generator, TraceSpec, WorkloadConfig};

use crate::activity::{table2, UserActivity};
use crate::cache_tables::{
    table4, table5, table6, table7, table8, table9, Table4, Table5, Table6, Table7, Table8, Table9,
};
use crate::consistency::{table10, Table10};
use crate::figures::{all_figures, AllFigures};
use crate::overhead::{table12, Table12};
use crate::patterns::{table3, AccessPatterns};
use crate::staleness::{table11, Table11};

/// Configuration of the whole study.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Cluster parameters (Section 2's hardware).
    pub cluster: Config,
    /// Workload parameters.
    pub workload: WorkloadConfig,
    /// The traces to gather (the paper's eight by default).
    pub traces: Vec<TraceSpec>,
    /// Length of the counter campaign in days (two weeks in the paper).
    pub counter_days: u32,
    /// Maximum traces simulated concurrently (trace-level workers, each
    /// running one trace's cluster start to finish). Output is
    /// byte-identical at any value.
    pub parallelism: usize,
    /// Unused and always 1. Kept only because the `benchkit/` harness
    /// reports it as `cluster_threads`; drop it when the benchmark is
    /// next revised.
    pub threads: usize,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            cluster: Config::default(),
            workload: WorkloadConfig::default(),
            traces: TraceSpec::paper_eight(0x5DF5_1991),
            counter_days: 14,
            parallelism: 4,
            threads: 1,
        }
    }
}

impl StudyConfig {
    /// A reduced study for tests: a small cluster, light activity, two
    /// traces (one heavy), two counter days.
    pub fn quick() -> Self {
        let wl = WorkloadConfig {
            num_clients: 8,
            num_users: 16,
            activity_scale: 0.5,
            ..WorkloadConfig::default()
        };
        let cluster = Config {
            num_clients: 8,
            num_servers: 2,
            ..Config::default()
        };
        StudyConfig {
            cluster,
            workload: wl,
            traces: vec![
                TraceSpec {
                    seed: 1,
                    heavy_sim: false,
                },
                TraceSpec {
                    seed: 2,
                    heavy_sim: true,
                },
            ],
            counter_days: 2,
            parallelism: 2,
            threads: 1,
        }
    }
}

/// Everything computed from one trace.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// The spec that produced the trace.
    pub spec: TraceSpec,
    /// Table 1 row.
    pub stats: TraceStats,
    /// Table 2 contribution.
    pub activity: UserActivity,
    /// Table 3 contribution.
    pub patterns: AccessPatterns,
    /// Figures 1–4 distributions.
    pub figures: AllFigures,
    /// Table 10 counts.
    pub table10: Table10,
    /// Table 11 simulation results.
    pub table11: Table11,
    /// Table 12 simulation results.
    pub table12: Table12,
    /// SpriteSan verdict for the cluster run that produced this trace
    /// (`None` unless the study ran with `sanitize` set).
    pub sanitizer: Option<SanitizerStats>,
    /// Self-measurement report for the cluster run that produced this
    /// trace (`None` unless the study ran with `observe` set).
    pub obs: Option<ObsReport>,
}

/// Everything one trace run produces besides the analysis: the merged
/// record stream, the run's verdicts, and the raw per-machine counters
/// (the inputs the self-trace cross-check compares against).
#[derive(Debug)]
pub struct TraceRun {
    /// Merged, time-ordered kernel-call records.
    pub records: Vec<Record>,
    /// SpriteSan verdict (`None` unless `cluster.sanitize` is set).
    pub sanitizer: Option<SanitizerStats>,
    /// Self-measurement report (`None` unless `cluster.observe` is set).
    pub obs: Option<ObsReport>,
    /// Final per-client counters.
    pub client_counters: Vec<CounterSet>,
    /// Final per-server counters.
    pub server_counters: Vec<CounterSet>,
}

/// Results of the counter campaign.
#[derive(Debug)]
pub struct CounterData {
    /// Per-client cumulative metrics (counters plus size samples).
    pub clients: Vec<MachineMetrics>,
    /// Per-day counter deltas, indexed `[day][client]`.
    pub per_day: Vec<Vec<CounterSet>>,
    /// All client counters merged.
    pub total: CounterSet,
    /// Per-server counters.
    pub servers: Vec<CounterSet>,
    /// SpriteSan verdict for the counter campaign (`None` unless the
    /// study ran with `sanitize` set).
    pub sanitizer: Option<SanitizerStats>,
    /// Self-measurement report for the counter campaign (`None` unless
    /// the study ran with `observe` set).
    pub obs: Option<ObsReport>,
    /// Always `None` (the type is uninhabited). Kept only because the
    /// `benchkit/` harness builds `CounterData` by struct literal; drop
    /// it when the benchmark is next revised.
    pub racecheck: Option<std::convert::Infallible>,
}

/// All study outputs.
#[derive(Debug)]
pub struct StudyResults {
    /// One analysis per trace.
    pub traces: Vec<TraceAnalysis>,
    /// The counter campaign.
    pub counters: CounterData,
    /// Table 4 (client cache sizes).
    pub table4: Table4,
    /// Table 5 (traffic sources).
    pub table5: Table5,
    /// Table 6 (cache effectiveness).
    pub table6: Table6,
    /// Table 7 (server traffic).
    pub table7: Table7,
    /// Table 8 (block replacement).
    pub table8: Table8,
    /// Table 9 (dirty block cleaning).
    pub table9: Table9,
}

/// The study driver.
///
/// # Examples
///
/// ```no_run
/// use sdfs_core::{Study, StudyConfig};
///
/// // The full paper campaign: eight traces plus a 14-day counter run.
/// let study = Study::new(StudyConfig::default());
/// let results = study.run_all();
/// assert_eq!(results.traces.len(), 8);
/// println!("CWS rate: {:.2}%", results.table10_aggregate().cws_pct());
/// ```
#[derive(Debug, Clone)]
pub struct Study {
    cfg: StudyConfig,
}

impl Study {
    /// Creates a study.
    pub fn new(cfg: StudyConfig) -> Self {
        Study { cfg }
    }

    /// The configuration in force.
    pub fn config(&self) -> &StudyConfig {
        &self.cfg
    }

    /// Synthesizes and executes one trace, returning the merged,
    /// time-ordered record stream.
    pub fn run_trace_records(&self, spec: TraceSpec) -> Vec<Record> {
        self.run_trace_records_sanitized(spec).0
    }

    /// Like [`Study::run_trace_records`], but also returns SpriteSan's
    /// verdict for the run (`None` unless `cluster.sanitize` is set).
    pub fn run_trace_records_sanitized(
        &self,
        spec: TraceSpec,
    ) -> (Vec<Record>, Option<SanitizerStats>) {
        let run = self.run_trace_full(spec);
        (run.records, run.sanitizer)
    }

    /// Synthesizes and executes one trace, returning the merged record
    /// stream together with the run's verdicts and final counters — the
    /// raw material the self-trace cross-check ([`crate::selftrace`])
    /// compares analysis output against.
    pub fn run_trace_full(&self, spec: TraceSpec) -> TraceRun {
        let wl = self.cfg.workload.for_trace(spec);
        let mut gen = Generator::new(wl);
        let mut cluster = Cluster::new(
            self.cfg.cluster.clone(),
            VecSink::new(self.cfg.cluster.num_servers),
        );
        cluster.preload(&gen.preload_list());
        let ops = gen.generate_day(0);
        // Let trailing delayed writes happen before the trace ends.
        cluster.run(ops, SimTime::from_secs(86_400));
        let sanitizer = cluster.take_sanitizer_stats();
        let obs = cluster.take_obs_report();
        let (sink, clients, servers) = cluster.into_parts();
        TraceRun {
            records: merge_vecs(sink.per_server),
            sanitizer,
            obs,
            client_counters: clients.into_iter().map(|c| c.data.metrics.counters).collect(),
            server_counters: servers.into_iter().map(|s| s.counters).collect(),
        }
    }

    /// Runs every analysis over one merged trace in a single fused pass.
    ///
    /// Produces output identical to [`Study::analyze_trace_separate`] —
    /// both build on the same streaming state machines — while walking
    /// the record stream once instead of ten times.
    pub fn analyze_trace(&self, spec: TraceSpec, records: &[Record]) -> TraceAnalysis {
        let fused = crate::fused::FusedAnalyzer::analyze(records);
        TraceAnalysis {
            spec,
            stats: fused.stats,
            activity: fused.activity,
            patterns: fused.patterns,
            figures: fused.figures,
            table10: fused.table10,
            table11: fused.table11,
            table12: fused.table12,
            sanitizer: None,
            obs: None,
        }
    }

    /// The original analysis path: one full scan of the record stream
    /// per table or figure. Kept as the reference implementation for the
    /// equivalence regression test and the bench comparison.
    pub fn analyze_trace_separate(&self, spec: TraceSpec, records: &[Record]) -> TraceAnalysis {
        TraceAnalysis {
            spec,
            stats: TraceStats::compute(records.iter()),
            activity: table2(records),
            patterns: table3(records),
            figures: all_figures(records),
            table10: table10(records),
            table11: table11(records),
            table12: table12(records),
            sanitizer: None,
            obs: None,
        }
    }

    /// Gathers and analyzes all configured traces on a pool of
    /// work-stealing workers.
    ///
    /// Each worker claims the next unclaimed trace from a shared atomic
    /// index, so a long trace (the heavy-simulation day) no longer
    /// stalls a whole batch the way fixed chunks did. Output order
    /// follows the spec order, and every trace seeds its own generator
    /// from its [`TraceSpec`], so results are byte-identical regardless
    /// of which worker runs which trace.
    pub fn run_traces(&self) -> Vec<TraceAnalysis> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;

        let specs = self.cfg.traces.clone();
        let n = specs.len();
        let workers = self.cfg.parallelism.max(1).min(n.max(1));
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<TraceAnalysis>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let spec = specs[i];
                    let run = self.run_trace_full(spec);
                    let mut analysis = self.analyze_trace(spec, &run.records);
                    analysis.sanitizer = run.sanitizer;
                    analysis.obs = run.obs;
                    *slots[i].lock().expect("slot lock poisoned") = Some(analysis);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock poisoned")
                    .expect("all traces ran")
            })
            .collect()
    }

    /// Runs the multi-day counter campaign.
    pub fn run_counters(&self) -> CounterData {
        let mut wl = self.cfg.workload.clone();
        wl.heavy_sim = false; // The two-week campaign is ordinary load.
        let mut gen = Generator::new(wl);
        let mut cluster = Cluster::new(self.cfg.cluster.clone(), NullSink);
        cluster.preload(&gen.preload_list());
        let mut prev: Vec<CounterSet> = (0..self.cfg.cluster.num_clients)
            .map(|_| CounterSet::new())
            .collect();
        let mut per_day: Vec<Vec<CounterSet>> = Vec::new();
        for day in 0..self.cfg.counter_days {
            let ops = gen.generate_day(day);
            cluster.run(ops, SimTime::from_secs((day as u64 + 1) * 86_400));
            // Delta in place: counters are monotonic, so folding the
            // day's delta back into the running snapshot reproduces the
            // current totals without cloning every set every day.
            let mut day_rows = Vec::with_capacity(prev.len());
            for (client, before) in cluster.clients().iter().zip(prev.iter_mut()) {
                let delta = client.metrics.counters.delta_since(before);
                before.merge(&delta);
                day_rows.push(delta);
            }
            per_day.push(day_rows);
        }
        let sanitizer = cluster.take_sanitizer_stats();
        let obs = cluster.take_obs_report();
        let (_sink, clients, servers) = cluster.into_parts();
        let metrics: Vec<MachineMetrics> = clients.into_iter().map(|c| c.data.metrics).collect();
        let mut total = CounterSet::new();
        for m in &metrics {
            total.merge(&m.counters);
        }
        CounterData {
            clients: metrics,
            per_day,
            total,
            servers: servers.into_iter().map(|s| s.counters).collect(),
            sanitizer,
            obs,
            racecheck: None,
        }
    }

    /// Runs the full study: traces plus counters plus all tables. The
    /// trace campaign and the counter campaign are independent, so they
    /// run concurrently; neither reads the other's state.
    pub fn run_all(&self) -> StudyResults {
        let (traces, counters) = std::thread::scope(|scope| {
            let counters = scope.spawn(|| self.run_counters());
            let traces = self.run_traces();
            (
                traces,
                counters.join().expect("counter campaign panicked"),
            )
        });
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
}

/// Cross-trace aggregation helpers used by the report.
impl StudyResults {
    /// Sum of Table 10 counts across traces.
    pub fn table10_aggregate(&self) -> Table10 {
        let mut agg = Table10::default();
        for t in &self.traces {
            agg.file_opens += t.table10.file_opens;
            agg.cws_opens += t.table10.cws_opens;
            agg.recall_opens += t.table10.recall_opens;
        }
        agg
    }

    /// Merged SpriteSan verdict across the trace and counter campaigns
    /// (`None` unless the study ran with `sanitize` set).
    pub fn sanitizer_summary(&self) -> Option<SanitizerStats> {
        let mut acc: Option<SanitizerStats> = None;
        for s in self
            .traces
            .iter()
            .filter_map(|t| t.sanitizer.as_ref())
            .chain(self.counters.sanitizer.as_ref())
        {
            match &mut acc {
                Some(a) => a.merge(s),
                None => acc = Some(s.clone()),
            }
        }
        acc
    }

    /// Merged self-measurement report across the trace and counter
    /// campaigns (`None` unless the study ran with `observe` set).
    pub fn obs_summary(&self) -> Option<ObsReport> {
        let mut acc: Option<ObsReport> = None;
        for o in self
            .traces
            .iter()
            .filter_map(|t| t.obs.as_ref())
            .chain(self.counters.obs.as_ref())
        {
            match &mut acc {
                Some(a) => a.merge(o),
                None => acc = Some(o.clone()),
            }
        }
        acc
    }

    /// Percent of all users affected by stale data in *any* trace, per
    /// interval (the paper's "over all traces" row). The population is
    /// the union of users seen across traces (user identities are stable
    /// across traces, as on the real cluster).
    pub fn staleness_union_pct(&self) -> (f64, f64) {
        use sdfs_simkit::FastSet;
        let mut sixty: FastSet<sdfs_trace::UserId> = FastSet::default();
        let mut three: FastSet<sdfs_trace::UserId> = FastSet::default();
        let mut population: FastSet<sdfs_trace::UserId> = FastSet::default();
        for t in &self.traces {
            sixty.extend(t.table11.sixty.users_affected.iter().copied());
            three.extend(t.table11.three.users_affected.iter().copied());
            population.extend(t.table11.sixty.users_seen.iter().copied());
        }
        let n = population.len().max(1);
        (
            100.0 * sixty.len() as f64 / n as f64,
            100.0 * three.len() as f64 / n as f64,
        )
    }
}

/// A convenience: the simulated writeback-delay ablation from DESIGN.md.
/// Runs the counter campaign at several delayed-write ages and reports
/// the write-back traffic ratio for each.
pub fn writeback_delay_ablation(base: &StudyConfig, delays_secs: &[u64]) -> Vec<(u64, f64)> {
    delays_secs
        .iter()
        .map(|&d| {
            let mut cfg = base.clone();
            cfg.cluster.writeback_delay = SimDuration::from_secs(d);
            cfg.cluster.daemon_period =
                SimDuration::from_secs(cfg.cluster.daemon_period.as_secs().min(d.max(1)));
            cfg.counter_days = cfg.counter_days.min(2);
            let study = Study::new(cfg);
            let counters = study.run_counters();
            let t6 = table6(&counters.total, &counters.per_day);
            (d, t6.writeback_pct.pct)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_study() -> Study {
        Study::new(StudyConfig::quick())
    }

    #[test]
    fn single_trace_produces_records_and_analysis() {
        let study = quick_study();
        let spec = study.config().traces[0];
        let records = study.run_trace_records(spec);
        assert!(records.len() > 1_000, "got {} records", records.len());
        // Time ordered after merge.
        for w in records.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        let analysis = study.analyze_trace(spec, &records);
        assert!(analysis.stats.open_events > 100);
        assert!(analysis.patterns.total_accesses() > 100);
        assert!(analysis.table10.file_opens > 0);
    }

    #[test]
    fn counters_campaign_accumulates() {
        let mut cfg = StudyConfig::quick();
        cfg.counter_days = 2;
        let study = Study::new(cfg);
        let data = study.run_counters();
        assert_eq!(data.per_day.len(), 2);
        assert!(!data.clients.is_empty());
        assert!(data.total.get("cache.read.ops") > 0);
        // Day deltas must sum to the cumulative totals.
        let mut summed = CounterSet::new();
        for day in &data.per_day {
            for c in day {
                summed.merge(c);
            }
        }
        assert_eq!(
            summed.get("cache.read.ops"),
            data.total.get("cache.read.ops")
        );
    }

    #[test]
    fn deterministic_trace_generation() {
        let study = quick_study();
        let spec = study.config().traces[0];
        let a = study.run_trace_records(spec);
        let b = study.run_trace_records(spec);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.first(), b.first());
        assert_eq!(a.last(), b.last());
    }
}
