//! The traced run: every layer's public function called in turn on one
//! thread, with a span around each call.
//!
//! The run re-executes a workload's campaigns one layer call at a time:
//! per trace, `workload` generates the day, `spritefs` runs it into a
//! `NullSink`, the same ops run again into a `VecSink` (the difference
//! is the `trace` layer's emission cost), `merge_vecs` merges the
//! per-server logs and `core` analyzes them. The counter campaign is
//! timed once whole (`Study::run_counters`) and once day by day through
//! the generator and the cluster. Work counts come from the returned
//! values and the final counters, and must repeat exactly.

use std::collections::BTreeMap;

use sdfs_core::study::TraceAnalysis;
use sdfs_core::Study;
use sdfs_simkit::{CounterSet, SimTime};
use sdfs_spritefs::cluster::NullSink;
use sdfs_spritefs::{Cluster, VecSink};
use sdfs_trace::merge::merge_vecs;
use sdfs_workload::Generator;

use crate::span::{totals, NameTotal, Tracer};
use crate::workloads::{self, block_ops, rpc_msgs, Workload};

/// Span names; the leaves are the layer calls.
pub const ROOT: &str = "traced";
pub const TRACE: &str = "study.trace";
pub const COUNTER_DAYS: &str = "study.counter_days";
pub const GENERATE: &str = "workload.generate";
pub const RUN_NORMAL: &str = "spritefs.normal.run";
pub const RUN_HEAVY: &str = "spritefs.heavy.run";
pub const EMIT_RUN: &str = "trace.emit_run";
pub const MERGE: &str = "trace.merge";
pub const FUSED: &str = "core.fused";
pub const RUN_COUNTERS: &str = "core.run_counters";
pub const RENDER: &str = "core.render";
const LAYER_SPANS: [&str; 8] = [
    GENERATE,
    RUN_NORMAL,
    RUN_HEAVY,
    EMIT_RUN,
    MERGE,
    FUSED,
    RUN_COUNTERS,
    RENDER,
];

/// What one pass of the traced call sequence produced.
#[derive(Debug)]
pub struct Pass {
    /// Exact work counts (identical on every pass at one seed).
    pub counts: BTreeMap<&'static str, u64>,
    /// The rendered output.
    pub rendered: String,
    /// Spans (empty when the tracer was off).
    pub tracer: Tracer,
    /// Set if a cross-check inside the pass failed.
    pub mismatch: Option<String>,
}

#[derive(Default)]
struct Acc {
    counts: BTreeMap<&'static str, u64>,
    client_counters: Vec<CounterSet>,
    mismatch: Option<String>,
}

impl Acc {
    fn add(&mut self, k: &'static str, v: u64) {
        *self.counts.entry(k).or_default() += v;
    }

    fn fail(&mut self, why: String) {
        self.mismatch.get_or_insert(why);
    }
}

/// Runs the traced call sequence for `w` once.
pub fn pass(w: Workload, study: &Study, on: bool) -> Pass {
    let mut tr = Tracer::new(on);
    let mut acc = Acc::default();
    let rendered = tr.span(ROOT, |tr| {
        let traces = trace_campaign(study, tr, &mut acc);
        let counters = w
            .runs_counters()
            .then(|| counter_campaign(study, tr, &mut acc));
        tr.span(RENDER, |_| {
            let mut results = workloads::assemble(traces, counters);
            let rendered = workloads::render(w, &mut results);
            acc.counts
                .extend(workloads::result_counts(&results, &rendered));
            rendered
        })
    });
    let mut all = CounterSet::new();
    for c in &acc.client_counters {
        all.merge(c);
    }
    acc.add("spritefs.block_ops", block_ops(&all));
    acc.add("spritefs.rpcs", rpc_msgs(&all));
    acc.add("spritefs.read_ops", all.get("cache.read.ops"));
    acc.add("spritefs.read_miss_ops", all.get("cache.read.miss.ops"));
    Pass {
        counts: acc.counts,
        rendered,
        tracer: tr,
        mismatch: acc.mismatch,
    }
}

fn trace_campaign(study: &Study, tr: &mut Tracer, acc: &mut Acc) -> Vec<TraceAnalysis> {
    let cfg = study.config();
    let end = SimTime::from_secs(86_400);
    let mut out = Vec::with_capacity(cfg.traces.len());
    for &spec in &cfg.traces {
        let analysis = tr.span(TRACE, |tr| {
            let (preload, ops) = tr.span(GENERATE, |_| {
                let mut gen = Generator::new(cfg.workload.for_trace(spec));
                let preload = gen.preload_list();
                (preload, gen.generate_day(0))
            });
            let n_ops = ops.len() as u64;
            acc.add("workload.ops", n_ops);
            let (run, ops_key) = if spec.heavy_sim {
                (RUN_HEAVY, "spritefs.heavy.ops")
            } else {
                (RUN_NORMAL, "spritefs.normal.ops")
            };
            acc.add(ops_key, n_ops);
            let null_ops = ops.clone();
            let null_clients = tr.span(run, |_| {
                let mut cluster = Cluster::new(cfg.cluster.clone(), NullSink);
                cluster.preload(&preload);
                cluster.run(null_ops, end);
                cluster.into_parts().1
            });
            let (sink, vec_clients) = tr.span(EMIT_RUN, |_| {
                let mut cluster =
                    Cluster::new(cfg.cluster.clone(), VecSink::new(cfg.cluster.num_servers));
                cluster.preload(&preload);
                cluster.run(ops, end);
                let (sink, clients, _) = cluster.into_parts();
                (sink, clients)
            });
            let null_counters: Vec<CounterSet> = null_clients
                .into_iter()
                .map(|c| c.data.metrics.counters)
                .collect();
            let vec_counters: Vec<CounterSet> = vec_clients
                .into_iter()
                .map(|c| c.data.metrics.counters)
                .collect();
            if null_counters != vec_counters {
                acc.fail(format!(
                    "trace seed {:#x}: client counters differ between NullSink and VecSink runs",
                    spec.seed
                ));
            }
            acc.client_counters.extend(null_counters);
            let records = tr.span(MERGE, |_| merge_vecs(sink.per_server));
            acc.add("trace.records", records.len() as u64);
            tr.span(FUSED, |_| study.analyze_trace(spec, &records))
        });
        out.push(analysis);
    }
    out
}

fn counter_campaign(
    study: &Study,
    tr: &mut Tracer,
    acc: &mut Acc,
) -> sdfs_core::study::CounterData {
    let cfg = study.config();
    let data = tr.span(RUN_COUNTERS, |_| study.run_counters());
    acc.add("core.counters_days", data.per_day.len() as u64);
    // The same campaign one layer call at a time, as `run_counters`
    // makes them: the generator and the cluster alternate day by day.
    let clients = tr.span(COUNTER_DAYS, |tr| {
        let mut wl = cfg.workload.clone();
        wl.heavy_sim = false;
        let (mut gen, preload) = tr.span(GENERATE, |_| {
            let gen = Generator::new(wl);
            let preload = gen.preload_list();
            (gen, preload)
        });
        let mut cluster = tr.span(RUN_NORMAL, |_| {
            let mut cluster = Cluster::new(cfg.cluster.clone(), NullSink);
            cluster.preload(&preload);
            cluster
        });
        for day in 0..cfg.counter_days {
            let ops = tr.span(GENERATE, |_| gen.generate_day(day));
            acc.add("workload.ops", ops.len() as u64);
            acc.add("spritefs.normal.ops", ops.len() as u64);
            let end = SimTime::from_secs((u64::from(day) + 1) * 86_400);
            tr.span(RUN_NORMAL, |_| cluster.run(ops, end));
        }
        tr.span(RUN_NORMAL, |_| cluster.into_parts().1)
    });
    let counters: Vec<CounterSet> = clients
        .into_iter()
        .map(|c| c.data.metrics.counters)
        .collect();
    let mut total = CounterSet::new();
    for c in &counters {
        total.merge(c);
    }
    if total != data.total {
        acc.fail("counter campaign: day-by-day replay differs from Study::run_counters".into());
    }
    acc.client_counters.extend(counters);
    data
}

/// The per-layer metrics of one traced pass, by metric name.
pub fn layer_metrics(p: &Pass) -> BTreeMap<&'static str, f64> {
    let t = totals(p.tracer.spans());
    let secs = |name: &str| {
        t.get(name)
            .map_or(0.0, |x: &NameTotal| x.total_ns as f64 / 1e9)
    };
    let count = |name: &str| p.counts.get(name).copied().unwrap_or(0) as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let wall = secs(ROOT);
    let layer_s: f64 = LAYER_SPANS.iter().map(|n| secs(n)).sum();
    let normal_s = secs(RUN_NORMAL);
    let heavy_s = secs(RUN_HEAVY);
    // The NullSink runs of the traces only (the counter campaign has no
    // emitting twin), for the emission difference.
    let null_trace_s: f64 = p
        .tracer
        .spans()
        .iter()
        .filter(|s| {
            (s.name == RUN_NORMAL || s.name == RUN_HEAVY)
                && s.parent.is_some_and(|q| p.tracer.spans()[q].name == TRACE)
        })
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum();
    let emit_s = secs(EMIT_RUN) - null_trace_s;
    let merge_s = secs(MERGE);
    let fused_s = secs(FUSED);
    let records = count("trace.records");
    let days = count("core.counters_days");
    let read_ops = count("spritefs.read_ops");

    BTreeMap::from([
        ("workload.ops", count("workload.ops")),
        ("workload.generate_s", secs(GENERATE)),
        (
            "workload.ns_per_op",
            per(secs(GENERATE) * 1e9, count("workload.ops")),
        ),
        ("spritefs.normal.ops", count("spritefs.normal.ops")),
        ("spritefs.normal.run_s", normal_s),
        (
            "spritefs.normal.ns_per_op",
            per(normal_s * 1e9, count("spritefs.normal.ops")),
        ),
        ("spritefs.heavy.ops", count("spritefs.heavy.ops")),
        ("spritefs.heavy.run_s", heavy_s),
        (
            "spritefs.heavy.ns_per_op",
            per(heavy_s * 1e9, count("spritefs.heavy.ops")),
        ),
        ("spritefs.block_ops", count("spritefs.block_ops")),
        (
            "spritefs.ns_per_block",
            per((normal_s + heavy_s) * 1e9, count("spritefs.block_ops")),
        ),
        ("spritefs.rpcs", count("spritefs.rpcs")),
        (
            "spritefs.read_hit_ratio",
            per(read_ops - count("spritefs.read_miss_ops"), read_ops),
        ),
        ("trace.records", records),
        ("trace.emit_s", emit_s),
        ("trace.merge_s", merge_s),
        (
            "trace.ns_per_record",
            per((emit_s + merge_s) * 1e9, records),
        ),
        ("core.fused_s", fused_s),
        ("core.fused_ns_per_record", per(fused_s * 1e9, records)),
        ("core.counters_days", days),
        ("core.counters_s", secs(RUN_COUNTERS)),
        ("core.counters_s_per_day", per(secs(RUN_COUNTERS), days)),
        ("core.render_s", secs(RENDER)),
        ("traced.wall_s", wall),
        ("traced.coverage_pct", per(100.0 * layer_s, wall)),
    ])
}
