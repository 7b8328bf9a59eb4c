//! Consistency under mixed and conflict-storm traffic.
//!
//! Every open and close takes Sprite's exact consistency walk, so these
//! tests drive op streams that stress it — single-client reopen
//! traffic, private temp files, write-sharing flips, truncates,
//! deletes, client restarts, and server crash/recovery — under every
//! consistency policy, with SpriteSan watching. Runs must be clean, and
//! a storm must repeat exactly: the same stream gives the same records,
//! counters, and sanitizer verdict.

use sdfs_simkit::{CounterSet, SimDuration, SimRng, SimTime};
use sdfs_spritefs::metrics::SanitizerStats;
use sdfs_spritefs::{AppOp, Cluster, Config, ConsistencyPolicy, OpKind, VecSink};
use sdfs_trace::{ClientId, FileId, Handle, OpenMode, Pid, Record, ServerId, UserId};

const POLICIES: [ConsistencyPolicy; 4] = [
    ConsistencyPolicy::Sprite,
    ConsistencyPolicy::SpriteModified,
    ConsistencyPolicy::Token,
    ConsistencyPolicy::Polling { interval_secs: 10 },
];

/// Cluster-level events that are not application ops, fired just before
/// the op at the given index.
#[derive(Debug, Clone, Copy)]
enum Shock {
    ClientCrash(u16),
    ServerCrash,
    ServerRecover,
}

/// Everything observable about a finished run.
#[derive(Debug, PartialEq)]
struct Outcome {
    records: Vec<Vec<Record>>,
    client_counters: Vec<CounterSet>,
    server_counters: Vec<CounterSet>,
    sanitizer: Option<SanitizerStats>,
}

fn run_stream(
    policy: ConsistencyPolicy,
    num_clients: u16,
    ops: &[AppOp],
    shocks: &[(usize, Shock)],
) -> Outcome {
    let mut cfg = Config::small();
    cfg.consistency = policy;
    cfg.sanitize = true;
    cfg.num_clients = num_clients;
    let num_servers = cfg.num_servers;
    let mut cluster = Cluster::new(cfg, VecSink::new(num_servers));
    let mut shock_i = 0;
    for (i, op) in ops.iter().enumerate() {
        while shock_i < shocks.len() && shocks[shock_i].0 == i {
            match shocks[shock_i].1 {
                Shock::ClientCrash(c) => {
                    cluster.crash_client(ClientId(c));
                }
                Shock::ServerCrash => {
                    cluster.crash_server(ServerId(0));
                }
                Shock::ServerRecover => {
                    cluster.recover_server(ServerId(0));
                }
            }
            shock_i += 1;
        }
        cluster.apply(op);
    }
    // Bring the server back and drain the write-back daemon so delayed
    // writes land in the record stream.
    cluster.recover_server(ServerId(0));
    let end = cluster.now() + SimDuration::from_secs(120);
    cluster.run(std::iter::empty(), end);
    let sanitizer = cluster.take_sanitizer_stats();
    let client_counters = cluster
        .clients()
        .iter()
        .map(|c| c.metrics.counters.clone())
        .collect();
    let server_counters = cluster
        .servers()
        .iter()
        .map(|s| s.counters.clone())
        .collect();
    let records = cluster.into_sink().per_server;
    Outcome {
        records,
        client_counters,
        server_counters,
        sanitizer,
    }
}

fn mk(t: u64, client: u16, kind: OpKind) -> AppOp {
    AppOp {
        time: SimTime::from_micros(t * 500),
        client: ClientId(client),
        user: UserId(client as u32),
        pid: Pid(1),
        migrated: false,
        kind,
    }
}

/// A deterministic mixed stream: single-client reopen traffic plus
/// enough cross-client sharing, truncates, and deletes to exercise
/// dirty-data recalls, cache disabling, and token recalls.
fn mixed_stream() -> Vec<AppOp> {
    let mut ops = Vec::new();
    let mut t = 0u64;
    let mut tick = || {
        t += 1;
        t
    };
    for f in 0..8u64 {
        ops.push(mk(tick(), 0, OpKind::Create { file: FileId(f), is_dir: false }));
    }
    let mut fd = 1u64;
    // Calm phase: client 1 re-reads file 0 repeatedly.
    for _ in 0..200 {
        let h = Handle(fd);
        fd += 1;
        ops.push(mk(tick(), 1, OpKind::Open { fd: h, file: FileId(0), mode: OpenMode::Read }));
        ops.push(mk(tick(), 1, OpKind::Read { fd: h, len: 4096 }));
        ops.push(mk(tick(), 1, OpKind::Close { fd: h }));
    }
    // Temp-file phase: client 2 creates, writes, deletes private files.
    for i in 0..100u64 {
        let file = FileId(100 + i);
        let h = Handle(fd);
        fd += 1;
        ops.push(mk(tick(), 2, OpKind::Create { file, is_dir: false }));
        ops.push(mk(tick(), 2, OpKind::Open { fd: h, file, mode: OpenMode::Write }));
        ops.push(mk(tick(), 2, OpKind::Write { fd: h, len: 2048 }));
        ops.push(mk(tick(), 2, OpKind::Close { fd: h }));
        ops.push(mk(tick(), 2, OpKind::Delete { file }));
    }
    // Sharing phase: clients 0 and 3 alternate writes to file 1 (forces
    // recalls / cache disable / token revocation depending on policy),
    // then client 1 reads it back.
    for round in 0..50 {
        for c in [0u16, 3] {
            let h = Handle(fd);
            fd += 1;
            ops.push(mk(tick(), c, OpKind::Open { fd: h, file: FileId(1), mode: OpenMode::Write }));
            ops.push(mk(tick(), c, OpKind::Write { fd: h, len: 4096 }));
            ops.push(mk(tick(), c, OpKind::Close { fd: h }));
        }
        if round % 10 == 0 {
            ops.push(mk(tick(), 0, OpKind::Truncate { file: FileId(2) }));
        }
        let h = Handle(fd);
        fd += 1;
        ops.push(mk(tick(), 1, OpKind::Open { fd: h, file: FileId(1), mode: OpenMode::Read }));
        ops.push(mk(tick(), 1, OpKind::Read { fd: h, len: 4096 }));
        ops.push(mk(tick(), 1, OpKind::Close { fd: h }));
    }
    ops
}

/// The mixed stream runs clean under every consistency policy: the
/// sanitizer fires, and the strong policies never serve a stale read,
/// leave a block dirty on two clients, or break cache accounting.
#[test]
fn mixed_stream_is_sanitizer_clean_under_every_policy() {
    let ops = mixed_stream();
    for policy in POLICIES {
        let out = run_stream(policy, 4, &ops, &[]);
        let san = out.sanitizer.expect("sanitizer enabled");
        assert!(san.ops_checked > 0);
        if !matches!(policy, ConsistencyPolicy::Polling { .. }) {
            assert_eq!(san.stale_reads, 0, "stale read under {policy:?}");
            assert_eq!(san.multi_dirty, 0);
            assert_eq!(san.accounting, 0);
        }
    }
}

/// A seeded conflict storm: rapid write-sharing flips with truncates,
/// deletes, client restarts, and server crash/recovery mixed in. Each
/// run must repeat exactly and leave SpriteSan with no violation.
#[test]
fn conflict_storm_is_deterministic_and_sanitizer_clean() {
    for seed in [3u64, 17, 99] {
        let (ops, shocks) = storm_stream(seed, 400);
        for policy in POLICIES {
            let first = run_stream(policy, 8, &ops, &shocks);
            let again = run_stream(policy, 8, &ops, &shocks);
            assert_eq!(
                first, again,
                "storm not repeatable: seed {seed} policy {policy:?}"
            );
            let san = first.sanitizer.as_ref().expect("sanitizer enabled");
            assert!(san.ops_checked > 0);
            assert_eq!(
                san.violations(),
                0,
                "seed {seed} policy {policy:?}: {:?}",
                san.first_violation
            );
        }
    }
}

/// Generates one storm: 8 clients, 6 hot files, `rounds` bursts chosen
/// by the workspace's deterministic [`SimRng`].
fn storm_stream(seed: u64, rounds: usize) -> (Vec<AppOp>, Vec<(usize, Shock)>) {
    let mut rng = SimRng::seed_from_u64(seed);
    let n_files = 6u64;
    let mut ops = Vec::new();
    let mut shocks = Vec::new();
    let mut t = 0u64;
    let tick = |t: &mut u64| {
        *t += 1;
        *t
    };
    let mut exists = [true; 6];
    for f in 0..n_files {
        ops.push(mk(tick(&mut t), 0, OpKind::Create { file: FileId(f), is_dir: false }));
    }
    let mut fd = 1u64;
    let mut server_up = true;
    for _ in 0..rounds {
        match rng.below(12) {
            0..=3 => {
                // Write-share flip: two clients write the same file
                // back to back.
                let f = rng.below(n_files);
                if !exists[f as usize] {
                    continue;
                }
                for _ in 0..2 {
                    let c = rng.below(8) as u16;
                    let h = Handle(fd);
                    fd += 1;
                    ops.push(mk(tick(&mut t), c, OpKind::Open { fd: h, file: FileId(f), mode: OpenMode::Write }));
                    ops.push(mk(tick(&mut t), c, OpKind::Write { fd: h, len: 4096 + rng.below(8192) }));
                    ops.push(mk(tick(&mut t), c, OpKind::Close { fd: h }));
                }
            }
            4..=7 => {
                // Calm burst: one client re-reads a file a few times
                // between the conflicts.
                let c = rng.below(8) as u16;
                let f = rng.below(n_files);
                if !exists[f as usize] {
                    continue;
                }
                for _ in 0..3 {
                    let h = Handle(fd);
                    fd += 1;
                    ops.push(mk(tick(&mut t), c, OpKind::Open { fd: h, file: FileId(f), mode: OpenMode::Read }));
                    ops.push(mk(tick(&mut t), c, OpKind::Read { fd: h, len: 4096 }));
                    ops.push(mk(tick(&mut t), c, OpKind::Close { fd: h }));
                }
            }
            8 => {
                let f = rng.below(n_files);
                if exists[f as usize] {
                    ops.push(mk(tick(&mut t), 0, OpKind::Truncate { file: FileId(f) }));
                }
            }
            9 => {
                let f = rng.below(n_files);
                if exists[f as usize] {
                    ops.push(mk(tick(&mut t), 0, OpKind::Delete { file: FileId(f) }));
                    exists[f as usize] = false;
                } else {
                    ops.push(mk(tick(&mut t), 0, OpKind::Create { file: FileId(f), is_dir: false }));
                    exists[f as usize] = true;
                }
            }
            10 => {
                shocks.push((ops.len(), Shock::ClientCrash(rng.below(8) as u16)));
            }
            _ => {
                if server_up {
                    shocks.push((ops.len(), Shock::ServerCrash));
                } else {
                    shocks.push((ops.len(), Shock::ServerRecover));
                }
                server_up = !server_up;
            }
        }
    }
    (ops, shocks)
}
