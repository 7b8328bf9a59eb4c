//! The end-to-end study pipeline.
//!
//! One [`Study`] reproduces the paper's two measurement campaigns:
//!
//! 1. **Eight 24-hour traces** ([`Study::run_traces`]) — for each
//!    [`TraceSpec`], synthesize a day of workload and execute it on a
//!    fresh cluster whose servers' records stream, in merged order, into
//!    every trace-driven analysis (Tables 1–3, 10–12, Figures 1–4)
//!    through a [`FusedSink`]. No trace is kept in memory;
//!    [`Study::run_trace_full`] materialises one for the tools that need
//!    the records themselves.
//! 2. **A multi-day counter run** ([`Study::run_counters`]) — one cluster
//!    executing day after day with counters snapshotted at day
//!    boundaries, yielding Tables 4–9.
//!
//! The campaigns share nothing, and neither do the traces, so each is one
//! job on a single pool of worker threads sized to the host
//! ([`StudyConfig::parallelism`]).

use sdfs_simkit::{CounterSet, SimDuration, SimTime};
use sdfs_spritefs::cluster::NullSink;
use sdfs_spritefs::metrics::MachineMetrics;
use sdfs_spritefs::{Cluster, Config, ObsReport, SanitizerStats, TraceSink, VecSink};
use sdfs_trace::merge::merge_vecs;
use sdfs_trace::{Record, TraceStats};
use sdfs_workload::{Generator, TraceSpec, WorkloadConfig};

use crate::activity::{table2, UserActivity};
use crate::cache_tables::{
    table4, table5, table6, table7, table8, table9, Table4, Table5, Table6, Table7, Table8, Table9,
};
use crate::consistency::{table10, Table10};
use crate::figures::{all_figures, AllFigures};
use crate::fused::{FusedAnalyzer, FusedSink};
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
    /// Worker threads in the study's job pool, where the counter campaign
    /// ([`Study::run_all`]) and each trace are one job, run start to
    /// finish on one worker. 0 means one worker per host CPU
    /// ([`std::thread::available_parallelism`]), resolved when the pool
    /// starts. Output is byte-identical at any value.
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
            parallelism: 0,
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
            parallelism: 0,
            threads: 1,
        }
    }
}

/// One job on the study's pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Job {
    /// The counter campaign ([`Study::run_counters`]).
    Counters,
    /// The trace at this index of [`StudyConfig::traces`].
    Trace(usize),
}

/// Everything computed from one trace: what the fused pass
/// ([`FusedAnalyzer::finish`]) and the separate passes
/// ([`Study::analyze_trace_separate`]) produce.
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

    /// Synthesizes `spec`'s day and executes it on a fresh cluster whose
    /// servers log into `sink`, through midnight so trailing delayed
    /// writes happen before the trace ends.
    fn simulate_trace<S: TraceSink>(&self, spec: TraceSpec, sink: S) -> Cluster<S> {
        let mut gen = Generator::new(self.cfg.workload.for_trace(spec));
        let mut cluster = Cluster::new(self.cfg.cluster.clone(), sink);
        cluster.preload(&gen.preload_list());
        cluster.run(gen.generate_day(0), SimTime::from_secs(86_400));
        cluster
    }

    /// Synthesizes and executes one trace, returning the merged record
    /// stream together with the run's verdicts and final counters — the
    /// raw material the self-trace cross-check ([`crate::selftrace`])
    /// compares analysis output against.
    pub fn run_trace_full(&self, spec: TraceSpec) -> TraceRun {
        let mut cluster = self.simulate_trace(spec, VecSink::new(self.cfg.cluster.num_servers));
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
        FusedAnalyzer::analyze(spec, records)
    }

    /// Synthesizes, executes and analyzes one trace without keeping its
    /// records: the fused pass runs inside the simulation, through a
    /// [`FusedSink`]. Equal to [`Study::analyze_trace`] over
    /// [`Study::run_trace_full`]'s records, with that run's verdicts.
    fn stream_trace(&self, spec: TraceSpec) -> TraceAnalysis {
        let mut cluster = self.simulate_trace(spec, FusedSink::new());
        TraceAnalysis {
            sanitizer: cluster.take_sanitizer_stats(),
            obs: cluster.take_obs_report(),
            ..cluster.into_sink().finish(spec)
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

    /// Gathers and analyzes all configured traces on the study's job
    /// pool, each trace streamed from its cluster into the fused
    /// analysis. Output follows the spec order.
    pub fn run_traces(&self) -> Vec<TraceAnalysis> {
        self.run_jobs(false).1
    }

    /// The pool's jobs in the order workers claim them: the counter
    /// campaign (when `counters` is set), then the heavy traces, the
    /// longest, then the other traces in spec order.
    fn jobs(&self, counters: bool) -> Vec<Job> {
        let traces = &self.cfg.traces;
        let heavy = (0..traces.len()).filter(|&i| traces[i].heavy_sim);
        let other = (0..traces.len()).filter(|&i| !traces[i].heavy_sim);
        counters
            .then_some(Job::Counters)
            .into_iter()
            .chain(heavy.chain(other).map(Job::Trace))
            .collect()
    }

    /// Runs [`Study::jobs`] on a pool of [`StudyConfig::parallelism`]
    /// workers. Each worker claims the next unclaimed job from a shared
    /// atomic index, so a long job never stalls a fixed batch, and each
    /// result lands in its own slot. Every campaign seeds its own
    /// generator and runs its own cluster, so results are byte-identical
    /// whichever worker runs which job.
    fn run_jobs(&self, counters: bool) -> (Option<CounterData>, Vec<TraceAnalysis>) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;

        let jobs = self.jobs(counters);
        let workers = match self.cfg.parallelism {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let next = AtomicUsize::new(0);
        let counter_slot = Mutex::new(None);
        let trace_slots: Vec<Mutex<Option<TraceAnalysis>>> =
            self.cfg.traces.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers.min(jobs.len()) {
                scope.spawn(|| {
                    while let Some(&job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                        match job {
                            Job::Counters => {
                                let data = self.run_counters();
                                *counter_slot.lock().expect("slot lock poisoned") = Some(data);
                            }
                            Job::Trace(i) => {
                                let analysis = self.stream_trace(self.cfg.traces[i]);
                                *trace_slots[i].lock().expect("slot lock poisoned") =
                                    Some(analysis);
                            }
                        }
                    }
                });
            }
        });
        let traces = trace_slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock poisoned")
                    .expect("all traces ran")
            })
            .collect();
        (
            counter_slot.into_inner().expect("slot lock poisoned"),
            traces,
        )
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
    /// counter campaign is the first job on the pool the traces run on;
    /// no campaign reads another's state.
    pub fn run_all(&self) -> StudyResults {
        let (counters, traces) = self.run_jobs(true);
        let counters = counters.expect("the pool ran the counter campaign");
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

    /// Each campaign's SpriteSan verdict and self-measurement report,
    /// the traces' first: [`merged`] folds them into the study's one
    /// verdict and one report.
    pub fn checks(&self) -> impl Iterator<Item = (&Option<SanitizerStats>, &Option<ObsReport>)> {
        self.traces
            .iter()
            .map(|t| (&t.sanitizer, &t.obs))
            .chain([(&self.counters.sanitizer, &self.counters.obs)])
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

/// Folds several runs' SpriteSan verdicts or self-measurement reports
/// into one with `merge`; `None` when no run produced one (its check
/// was off).
pub fn merged<'a, T: Clone + 'a>(
    parts: impl IntoIterator<Item = &'a Option<T>>,
    merge: fn(&mut T, &T),
) -> Option<T> {
    let mut parts = parts.into_iter().flatten();
    let mut acc = parts.next()?.clone();
    parts.for_each(|p| merge(&mut acc, p));
    Some(acc)
}

/// What one simulated day counted: every client's counters summed,
/// every server's counters summed, and SpriteSan's and sdfs-obs's
/// reports when the cluster ran with them.
#[derive(Debug)]
pub(crate) struct DayTotals {
    /// All client counters, summed.
    pub(crate) clients: CounterSet,
    /// All server counters, summed.
    pub(crate) servers: CounterSet,
    /// SpriteSan's verdict ([`Config::sanitize`]).
    pub(crate) sanitizer: Option<SanitizerStats>,
    /// The self-measurement report ([`Config::observe`]).
    pub(crate) obs: Option<ObsReport>,
}

/// Simulates day 0 of `cfg`'s generated workload on a counter-only
/// cluster through midnight, and sums what it counted. The fault-day
/// experiments and the live policy matrix run their days here.
pub(crate) fn simulate_day(cfg: &StudyConfig) -> DayTotals {
    let mut gen = Generator::new(cfg.workload.clone());
    let mut cluster = Cluster::new(cfg.cluster.clone(), NullSink);
    cluster.preload(&gen.preload_list());
    cluster.run(gen.generate_day(0), SimTime::from_secs(86_400));
    let mut clients = CounterSet::new();
    for client in cluster.clients() {
        clients.merge(&client.metrics.counters);
    }
    let mut servers = CounterSet::new();
    for server in cluster.servers() {
        servers.merge(&server.counters);
    }
    DayTotals {
        clients,
        servers,
        sanitizer: cluster.take_sanitizer_stats(),
        obs: cluster.take_obs_report(),
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
        let records = study.run_trace_full(spec).records;
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
    fn pool_runs_counters_then_heavy_traces_then_the_rest() {
        let quick = quick_study();
        assert_eq!(
            quick.jobs(true),
            [Job::Counters, Job::Trace(1), Job::Trace(0)]
        );
        assert_eq!(quick.jobs(false), [Job::Trace(1), Job::Trace(0)]);
        // The paper's traces 3 and 4 are the heavy ones.
        let paper = Study::new(StudyConfig::default());
        let order = [2, 3, 0, 1, 4, 5, 6, 7].map(Job::Trace);
        assert_eq!(paper.jobs(true)[0], Job::Counters);
        assert_eq!(paper.jobs(true)[1..], order);
        assert_eq!(paper.jobs(false), order);
    }

    #[test]
    fn deterministic_trace_generation() {
        let study = quick_study();
        let spec = study.config().traces[0];
        let a = study.run_trace_full(spec).records;
        let b = study.run_trace_full(spec).records;
        assert_eq!(a.len(), b.len());
        assert_eq!(a.first(), b.first());
        assert_eq!(a.last(), b.last());
    }
}
