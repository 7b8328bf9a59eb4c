//! Integration tests of the consistency machinery across crates: the
//! live cluster policies and the trace-driven simulators must agree on
//! the basic invariants the paper relies on.

use sdfs_core::consistency::table10;
use sdfs_core::overhead::{simulate, Algorithm};
use sdfs_core::staleness::simulate_polling;
use sdfs_core::{Study, StudyConfig};
use sdfs_simkit::{SimDuration, SimTime};
use sdfs_spritefs::metrics::consist;
use sdfs_spritefs::{AppOp, Cluster, Config, ConsistencyPolicy, OpKind, VecSink};
use sdfs_trace::merge::merge_vecs;
use sdfs_trace::{ClientId, FileId, Handle, OpenMode, Pid, RecordKind, UserId};
use sdfs_workload::TraceSpec;

fn op(t: u64, client: u16, kind: OpKind) -> AppOp {
    AppOp {
        time: SimTime::from_secs(t),
        client: ClientId(client),
        user: UserId(client as u32),
        pid: Pid(1),
        migrated: false,
        kind,
    }
}

/// A tiny write-sharing scenario to run under every policy.
fn sharing_ops() -> Vec<AppOp> {
    vec![
        op(
            1,
            0,
            OpKind::Create {
                file: FileId(0),
                is_dir: false,
            },
        ),
        op(
            1,
            0,
            OpKind::Open {
                fd: Handle(1),
                file: FileId(0),
                mode: OpenMode::Write,
            },
        ),
        op(
            2,
            0,
            OpKind::Write {
                fd: Handle(1),
                len: 9000,
            },
        ),
        op(
            3,
            1,
            OpKind::Open {
                fd: Handle(2),
                file: FileId(0),
                mode: OpenMode::Read,
            },
        ),
        op(
            4,
            1,
            OpKind::Read {
                fd: Handle(2),
                len: 9000,
            },
        ),
        op(
            5,
            0,
            OpKind::Write {
                fd: Handle(1),
                len: 100,
            },
        ),
        op(
            6,
            1,
            OpKind::Read {
                fd: Handle(2),
                len: 100,
            },
        ),
        op(7, 0, OpKind::Close { fd: Handle(1) }),
        op(8, 1, OpKind::Close { fd: Handle(2) }),
    ]
}

fn run_policy(policy: ConsistencyPolicy) -> Cluster<VecSink> {
    let mut cfg = Config::small();
    cfg.consistency = policy;
    let mut cluster = Cluster::new(cfg, VecSink::new(1));
    cluster.run(sharing_ops(), SimTime::from_secs(120));
    cluster
}

#[test]
fn sprite_policy_passes_shared_io_through() {
    let cluster = run_policy(ConsistencyPolicy::Sprite);
    let records = merge_vecs(cluster.into_sink().per_server);
    let shared = records
        .iter()
        .filter(|r| {
            matches!(
                r.kind,
                RecordKind::SharedRead { .. } | RecordKind::SharedWrite { .. }
            )
        })
        .count();
    assert!(
        shared >= 2,
        "CWS produces pass-through records, got {shared}"
    );
}

#[test]
fn every_policy_keeps_reader_coherent() {
    // Under all strong policies the reader's total read bytes must equal
    // what it asked for — data always arrives, whatever the mechanism.
    for policy in [
        ConsistencyPolicy::Sprite,
        ConsistencyPolicy::SpriteModified,
        ConsistencyPolicy::Token,
    ] {
        let cluster = run_policy(policy);
        let records = merge_vecs(cluster.into_sink().per_server);
        let reader_close = records
            .iter()
            .filter_map(|r| match &r.kind {
                RecordKind::Close { total_read, .. } if r.client == ClientId(1) => {
                    Some(*total_read)
                }
                _ => None,
            })
            .next()
            .expect("reader closed");
        assert_eq!(reader_close, 9100, "policy {policy:?}");
    }
}

#[test]
fn token_policy_counts_recalls() {
    let cluster = run_policy(ConsistencyPolicy::Token);
    let recalls: u64 = cluster
        .clients()
        .iter()
        .map(|c| c.metrics.counters.get("rpc.token_recall.msgs"))
        .sum();
    assert!(recalls >= 1, "conflicting opens must recall tokens");
}

#[test]
fn polling_policy_counts_stale_reads() {
    // Version stamps change at open-for-write, so the reader must cache
    // *before* a later write-open to observe staleness.
    let ops = vec![
        op(
            1,
            0,
            OpKind::Create {
                file: FileId(0),
                is_dir: false,
            },
        ),
        op(
            1,
            0,
            OpKind::Open {
                fd: Handle(1),
                file: FileId(0),
                mode: OpenMode::Write,
            },
        ),
        op(
            2,
            0,
            OpKind::Write {
                fd: Handle(1),
                len: 9000,
            },
        ),
        op(3, 0, OpKind::Close { fd: Handle(1) }),
        // Reader caches fresh data.
        op(
            4,
            1,
            OpKind::Open {
                fd: Handle(2),
                file: FileId(0),
                mode: OpenMode::Read,
            },
        ),
        op(
            5,
            1,
            OpKind::Read {
                fd: Handle(2),
                len: 9000,
            },
        ),
        op(6, 1, OpKind::Close { fd: Handle(2) }),
        // Writer rewrites (new version).
        op(
            10,
            0,
            OpKind::Open {
                fd: Handle(3),
                file: FileId(0),
                mode: OpenMode::Write,
            },
        ),
        op(
            11,
            0,
            OpKind::Write {
                fd: Handle(3),
                len: 9000,
            },
        ),
        op(12, 0, OpKind::Close { fd: Handle(3) }),
        // Reader rereads within its 60-second trust window: stale.
        op(
            20,
            1,
            OpKind::Open {
                fd: Handle(4),
                file: FileId(0),
                mode: OpenMode::Read,
            },
        ),
        op(
            21,
            1,
            OpKind::Read {
                fd: Handle(4),
                len: 9000,
            },
        ),
        op(22, 1, OpKind::Close { fd: Handle(4) }),
    ];
    let mut cfg = Config::small();
    cfg.consistency = ConsistencyPolicy::Polling { interval_secs: 60 };
    let mut cluster = Cluster::new(cfg, VecSink::new(1));
    cluster.run(ops, SimTime::from_secs(120));
    let stale: u64 = cluster
        .clients()
        .iter()
        .map(|c| c.metrics.counters.get(consist::STALE_READ_OPS))
        .sum();
    assert!(stale >= 1, "reader should silently see stale data");
}

#[test]
fn generated_traces_show_paper_scale_consistency_rates() {
    let mut cfg = StudyConfig::quick();
    cfg.workload.activity_scale = 0.8;
    // The quick population is small; boost sharing so overlap exists.
    cfg.workload.num_users = 32;
    cfg.workload.sharing_scale = 3.0;
    let study = Study::new(cfg);
    let records = study
        .run_trace_full(TraceSpec {
            seed: 11,
            heavy_sim: false,
        })
        .records;
    let t10 = table10(&records);
    assert!(t10.file_opens > 1_000);
    // The paper: CWS 0.18-0.56% of opens, recalls 0.79-3.35%. Allow a
    // generous band — the invariant is the order of magnitude.
    assert!(
        (0.02..3.0).contains(&t10.cws_pct()),
        "CWS rate {}%",
        t10.cws_pct()
    );
    assert!(
        (0.2..8.0).contains(&t10.recall_pct()),
        "recall rate {}%",
        t10.recall_pct()
    );
}

#[test]
fn shorter_polling_intervals_reduce_errors() {
    let study = Study::new(StudyConfig::quick());
    let records = study
        .run_trace_full(TraceSpec {
            seed: 12,
            heavy_sim: false,
        })
        .records;
    let e60 = simulate_polling(&records, SimDuration::from_secs(60));
    let e3 = simulate_polling(&records, SimDuration::from_secs(3));
    assert!(
        e3.errors <= e60.errors,
        "3 s ({}) must not exceed 60 s ({})",
        e3.errors,
        e60.errors
    );
}

#[test]
fn sprite_overhead_is_exactly_unity() {
    let study = Study::new(StudyConfig::quick());
    let records = study
        .run_trace_full(TraceSpec {
            seed: 13,
            heavy_sim: false,
        })
        .records;
    let r = simulate(&records, Algorithm::Sprite);
    if r.app_events > 0 {
        assert!((r.bytes_ratio() - 1.0).abs() < 1e-9);
        assert!((r.rpc_ratio() - 1.0).abs() < 1e-9);
    }
}
