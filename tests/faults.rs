//! End-to-end determinism of the fault-injection harness.
//!
//! Two guarantees hold at the campaign level:
//!
//! 1. A faulted day is a *deterministic* experiment: the same seed and
//!    the same [`FaultPlan`] render the same availability report bit
//!    for bit, run after run. Crashes, message drops, retries, and the
//!    recovery storm are all part of the reproducible simulation, not
//!    noise layered on top of it.
//! 2. An *inert* plan (no outages, zero drop probability) is free: a
//!    cluster configured with `faults: Some(inert)` produces exactly
//!    the counters of one configured with `faults: None`. The harness
//!    only changes behaviour where the plan says so.

use sdfs_core::recovery::{
    default_plan, loss_vs_writeback_delay, render_availability, run_outage_day,
    storm_vs_cluster_size,
};
use sdfs_core::StudyConfig;
use sdfs_simkit::SimTime;
use sdfs_spritefs::cluster::NullSink;
use sdfs_spritefs::{Cluster, FaultPlan};
use sdfs_workload::Generator;

fn quick_config() -> StudyConfig {
    let mut cfg = StudyConfig::quick();
    cfg.workload.activity_scale = 0.3;
    cfg
}

fn faulted_report() -> String {
    let mut cfg = quick_config();
    cfg.cluster.sanitize = true;
    let plan = default_plan();
    let outcome = run_outage_day(&cfg, &plan);
    let loss = loss_vs_writeback_delay(&cfg, &plan, &[30, 600]);
    let storm = storm_vs_cluster_size(&cfg, &plan, &[4, 8]);
    let mut s = render_availability(&plan, &outcome, &loss, &storm);
    // Fold the sanitizer verdict in, so oracle state is covered too.
    let san = outcome.sanitizer.expect("ran sanitized");
    assert!(san.is_clean(), "oracle violations: {}", san.render());
    s.push_str(&san.render());
    s
}

#[test]
fn same_seed_fault_day_renders_identically() {
    let first = faulted_report();
    let second = faulted_report();
    assert!(
        first.contains("recovery storm RPCs:"),
        "report has storm numbers:\n{first}"
    );
    assert_eq!(
        first, second,
        "same-seed faulted campaigns must render identically"
    );
}

/// Runs one generated day and returns every counter of every machine,
/// in a deterministic order.
fn all_counters(faults: Option<FaultPlan>) -> Vec<(String, &'static str, u64)> {
    let cfg = quick_config();
    let mut cluster_cfg = cfg.cluster.clone();
    cluster_cfg.faults = faults;
    let mut gen = Generator::new(cfg.workload.clone());
    let mut cluster = Cluster::new(cluster_cfg, NullSink);
    cluster.preload(&gen.preload_list());
    let ops = gen.generate_day(0);
    cluster.run(ops, SimTime::from_secs(86_400));

    let mut out = Vec::new();
    for (i, client) in cluster.clients().iter().enumerate() {
        for (name, value) in client.metrics.counters.iter() {
            out.push((format!("client{i}"), name, value));
        }
    }
    for (i, server) in cluster.servers().iter().enumerate() {
        for (name, value) in server.counters.iter() {
            out.push((format!("server{i}"), name, value));
        }
    }
    out.sort();
    out
}

#[test]
fn inert_fault_plan_changes_nothing() {
    let inert = FaultPlan {
        outages: Vec::new(),
        drop_prob: 0.0,
        ..FaultPlan::default()
    };
    let plain = all_counters(None);
    let armed = all_counters(Some(inert));
    assert_eq!(
        plain, armed,
        "an inert fault plan must leave every counter untouched"
    );
}
