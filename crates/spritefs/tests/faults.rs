//! Integration tests for the fault subsystem: network partitions, the
//! lease protocol, and their interaction with crashes. Everything here
//! is seeded through the workspace `SimRng`, so the suite is hermetic.

use sdfs_simkit::{FastSet, SimDuration, SimRng, SimTime};
use sdfs_spritefs::metrics::fault;
use sdfs_spritefs::rpc::RpcKind;
use sdfs_spritefs::{
    AppOp, Cluster, Config, ConsistencyPolicy, FaultPlan, OpKind, Partition, ServerOutage, VecSink,
};
use sdfs_trace::{ClientId, FileId, Handle, OpenMode, Pid, Record, UserId};

/// Builds a deterministic, well-formed op script: opens, reads, writes,
/// closes, and the occasional fsync across `num_clients` clients and a
/// small shared file set, one op every 250 ms. Small file ids collide
/// across clients, so the script exercises sharing and recalls — the
/// paths partitions gate.
fn op_script(seed: u64, steps: u64, num_clients: u16) -> Vec<AppOp> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut ops = Vec::new();
    // (fd, writable): writes and fsyncs only target writable handles,
    // so the consistency protocol always sees the write intent and the
    // oracle's multi-dirty check holds on the baseline.
    let mut live: Vec<Vec<(Handle, bool)>> = vec![Vec::new(); num_clients as usize];
    let mut exists = [false; 8];
    let mut next_fd = 1u64;
    for t in 1..=steps {
        let now = SimTime::from_millis(t * 250);
        let c = rng.below(num_clients as u64) as u16;
        let mk = |kind| AppOp {
            time: now,
            client: ClientId(c),
            user: UserId(c as u32),
            pid: Pid(0),
            migrated: false,
            kind,
        };
        match rng.below(10) {
            0 => {
                let f = rng.below(8);
                ops.push(mk(OpKind::Create {
                    file: FileId(f),
                    is_dir: false,
                }));
                exists[f as usize] = true;
            }
            1 | 2 => {
                let f = rng.below(8);
                if exists[f as usize] {
                    let fd = Handle(next_fd);
                    next_fd += 1;
                    let mode = match rng.below(3) {
                        0 => OpenMode::Read,
                        1 => OpenMode::Write,
                        _ => OpenMode::ReadWrite,
                    };
                    ops.push(mk(OpKind::Open {
                        fd,
                        file: FileId(f),
                        mode,
                    }));
                    live[c as usize].push((fd, mode != OpenMode::Read));
                }
            }
            3..=5 => {
                if let Some(&(fd, _)) = live[c as usize].last() {
                    ops.push(mk(OpKind::Read {
                        fd,
                        len: rng.range(1, 50_000),
                    }));
                }
            }
            6 | 7 => {
                if let Some(&(fd, true)) = live[c as usize].last() {
                    ops.push(mk(OpKind::Write {
                        fd,
                        len: rng.range(1, 50_000),
                    }));
                }
            }
            8 => {
                if let Some(&(fd, true)) = live[c as usize].last() {
                    ops.push(mk(OpKind::Fsync { fd }));
                }
            }
            _ => {
                if let Some((fd, _)) = live[c as usize].pop() {
                    ops.push(mk(OpKind::Close { fd }));
                }
            }
        }
    }
    ops
}

/// A second seeded script over the rest of the vocabulary, one op every
/// 250 ms: process starts and exits (code and initialized data faulted
/// from two shared executables), page-ins and page-outs to a per-client
/// backing file, deletes and truncates of the small shared file set,
/// seeks, and directory reads, mixed with the creates, opens, reads,
/// writes and closes that give the deletes and truncates cached and
/// open files to hit.
fn lifecycle_script(seed: u64, steps: u64, num_clients: u16) -> Vec<AppOp> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut ops = Vec::new();
    let mut live: Vec<Vec<(Handle, bool)>> = vec![Vec::new(); num_clients as usize];
    let mut procs: Vec<Vec<Pid>> = vec![Vec::new(); num_clients as usize];
    let mut exists = [false; 8];
    let (mut next_fd, mut next_pid) = (1u64, 1u32);
    for t in 1..=steps {
        let now = SimTime::from_millis(t * 250);
        let c = rng.below(num_clients as u64) as u16;
        let ci = c as usize;
        let mk = |pid, kind| AppOp {
            time: now,
            client: ClientId(c),
            user: UserId(c as u32),
            pid,
            migrated: false,
            kind,
        };
        let f = rng.below(8);
        let page = |rng: &mut SimRng| (rng.below(64) * 4096, rng.range(1, 8) * 4096);
        match rng.below(14) {
            0 => {
                ops.push(mk(
                    Pid(0),
                    OpKind::Create {
                        file: FileId(f),
                        is_dir: false,
                    },
                ));
                exists[f as usize] = true;
            }
            1 if exists[f as usize] => {
                let fd = Handle(next_fd);
                next_fd += 1;
                let mode =
                    [OpenMode::Read, OpenMode::Write, OpenMode::ReadWrite][rng.below(3) as usize];
                ops.push(mk(
                    Pid(0),
                    OpKind::Open {
                        fd,
                        file: FileId(f),
                        mode,
                    },
                ));
                live[ci].push((fd, mode != OpenMode::Read));
            }
            2 => {
                if let Some(&(fd, writable)) = live[ci].last() {
                    let len = rng.range(1, 30_000);
                    let kind = if writable {
                        OpKind::Write { fd, len }
                    } else {
                        OpKind::Read { fd, len }
                    };
                    ops.push(mk(Pid(0), kind));
                }
            }
            3 => {
                if let Some(&(fd, _)) = live[ci].last() {
                    ops.push(mk(
                        Pid(0),
                        OpKind::Seek {
                            fd,
                            to: rng.below(60_000),
                        },
                    ));
                }
            }
            4 => {
                if let Some((fd, _)) = live[ci].pop() {
                    ops.push(mk(Pid(0), OpKind::Close { fd }));
                }
            }
            5 if exists[f as usize] => {
                ops.push(mk(Pid(0), OpKind::Delete { file: FileId(f) }));
                exists[f as usize] = false;
            }
            6 if exists[f as usize] => {
                ops.push(mk(Pid(0), OpKind::Truncate { file: FileId(f) }));
            }
            7 | 8 if procs[ci].len() < 3 => {
                let pid = Pid(next_pid);
                next_pid += 1;
                ops.push(mk(
                    pid,
                    OpKind::ProcStart {
                        exec: FileId(100 + rng.below(2)),
                        code_bytes: rng.range(1, 8) * 4096,
                        data_bytes: rng.range(0, 4) * 4096,
                        heap_bytes: rng.range(1, 16) * 4096,
                    },
                ));
                procs[ci].push(pid);
            }
            9 => {
                if let Some(pid) = procs[ci].pop() {
                    ops.push(mk(pid, OpKind::ProcExit));
                }
            }
            10 | 11 => {
                let (offset, bytes) = page(&mut rng);
                let file = FileId(200 + u64::from(c));
                ops.push(mk(
                    Pid(0),
                    OpKind::PageOut {
                        file,
                        offset,
                        bytes,
                    },
                ));
            }
            12 => {
                let (offset, bytes) = page(&mut rng);
                let file = FileId(200 + u64::from(c));
                ops.push(mk(
                    Pid(0),
                    OpKind::PageIn {
                        file,
                        offset,
                        bytes,
                    },
                ));
            }
            _ => {
                let bytes = rng.range(512, 4096);
                ops.push(mk(
                    Pid(0),
                    OpKind::ReadDir {
                        dir: FileId(300),
                        bytes,
                    },
                ));
            }
        }
    }
    ops
}

/// Runs `script` on a fresh cluster and returns the emitted trace
/// records, every counter of every machine (canonically ordered), and
/// whether the sanitizer (if enabled) came back clean.
type ScriptOutcome = (
    Vec<Vec<Record>>,
    Vec<(&'static str, u64)>,
    Option<sdfs_spritefs::SanitizerStats>,
);

fn run_script(cfg: Config, script: &[AppOp], end: SimTime) -> ScriptOutcome {
    let sink = VecSink::new(cfg.num_servers);
    let mut cl = Cluster::new(cfg, sink);
    for op in script {
        cl.apply(op);
    }
    cl.run(std::iter::empty(), end);
    let mut counters: Vec<(&'static str, u64)> = Vec::new();
    for c in cl.clients() {
        counters.extend(c.metrics.counters.iter());
    }
    for s in cl.servers() {
        counters.extend(s.counters.iter());
    }
    counters.sort_unstable();
    let san = cl.take_sanitizer_stats();
    (cl.into_sink().per_server, counters, san)
}

fn partition_plan(conservative: bool) -> FaultPlan {
    FaultPlan {
        partitions: vec![Partition {
            at: SimTime::from_secs(30),
            heal_after: SimDuration::from_secs(60),
            edges: vec![(0, 0), (1, 0)],
        }],
        lease_ttl: SimDuration::from_secs(10),
        conservative_recovery: conservative,
        ..FaultPlan::default()
    }
}

/// Same seed, same partition plan: two runs are byte-identical, and the
/// partition actually bit (edges cut, RPCs stalled) while the oracle
/// stayed clean across the cut, the revocations, and the heal.
#[test]
fn partitioned_day_is_byte_identical_across_runs() {
    let script = op_script(0x504c_414e, 600, 4);
    let end = SimTime::from_secs(300);
    let mut cfg = Config::small();
    cfg.sanitize = true;
    cfg.faults = Some(partition_plan(false));
    let (rec_a, cnt_a, san_a) = run_script(cfg.clone(), &script, end);
    let (rec_b, cnt_b, _) = run_script(cfg, &script, end);
    assert_eq!(rec_a, rec_b, "same seed, same plan: identical records");
    assert_eq!(cnt_a, cnt_b, "same seed, same plan: identical counters");
    let san = san_a.expect("sanitized run");
    assert!(
        san.is_clean(),
        "oracle clean across the partition: {}",
        san.render()
    );
    let total = |key: &str| -> u64 {
        cnt_a
            .iter()
            .filter(|&&(k, _)| k == key)
            .map(|&(_, v)| v)
            .sum()
    };
    assert_eq!(total(fault::PART_CUT_EDGES), 2, "both edges were cut");
    assert!(total(fault::PART_CUT_US) > 0, "cut time accumulated");
    assert!(
        total(fault::PART_STALLED_RPCS) > 0,
        "cut clients kept issuing RPCs"
    );
}

/// An inert plan — faults enabled, but no outages, no partitions, no
/// drops — moves nothing: records and every counter are identical to a
/// run with the fault machinery compiled out of the configuration.
#[test]
fn inert_plan_leaves_every_counter_alone() {
    let script = op_script(0x494e_4552, 600, 4);
    let end = SimTime::from_secs(300);
    let off = Config::small();
    let mut inert = Config::small();
    inert.faults = Some(FaultPlan::default());
    let (rec_off, cnt_off, _) = run_script(off, &script, end);
    let (rec_inert, cnt_inert, _) = run_script(inert, &script, end);
    assert_eq!(rec_off, rec_inert, "inert plan: identical records");
    assert_eq!(cnt_off, cnt_inert, "inert plan: identical counters");
}

/// Conservative partition recovery is a pure accounting overlay: the
/// cut changes stall and heal-storm *counters*, but every operation
/// still executes semantically, so the emitted trace records are
/// byte-identical to a fault-free run of the same script.
#[test]
fn conservative_partition_is_pure_accounting() {
    let script = op_script(0x4f56_4c59, 600, 4);
    let end = SimTime::from_secs(300);
    let off = Config::small();
    let mut cut = Config::small();
    cut.faults = Some(partition_plan(true));
    let (rec_off, _, _) = run_script(off, &script, end);
    let (rec_cut, cnt_cut, _) = run_script(cut, &script, end);
    assert_eq!(
        rec_off, rec_cut,
        "conservative mode never changes data flow, only counters"
    );
    let total = |key: &str| -> u64 {
        cnt_cut
            .iter()
            .filter(|&&(k, _)| k == key)
            .map(|&(_, v)| v)
            .sum()
    };
    assert!(total(fault::PART_STALLED_RPCS) > 0, "the cut was charged");
    assert_eq!(
        total(fault::LEASE_EXPIRY_RECALLS),
        0,
        "conservative mode never revokes"
    );
}

/// A conservative heal re-registers once, then revalidates every file
/// the client still caches at the server, one round trip each: client 0
/// reads and closes three files before the cut, so the heal storm is one
/// Reregister plus three Reopens.
#[test]
fn conservative_heal_revalidates_every_cached_file() {
    let mut cfg = Config::small();
    cfg.faults = Some(FaultPlan {
        partitions: vec![Partition {
            at: SimTime::from_secs(30),
            heal_after: SimDuration::from_secs(60),
            edges: vec![(0, 0)],
        }],
        conservative_recovery: true,
        ..FaultPlan::default()
    });
    let mut cl = Cluster::new(cfg, VecSink::new(1));
    cl.preload(&[
        (FileId(0), 4096, false),
        (FileId(1), 4096, false),
        (FileId(2), 4096, false),
    ]);
    let op = |secs, kind| AppOp {
        time: SimTime::from_secs(secs),
        client: ClientId(0),
        user: UserId(0),
        pid: Pid(0),
        migrated: false,
        kind,
    };
    let mut script = Vec::new();
    for f in 0..3 {
        let (fd, file) = (Handle(f + 1), FileId(f));
        let mode = OpenMode::Read;
        script.push(op(3 * f + 1, OpKind::Open { fd, file, mode }));
        script.push(op(3 * f + 2, OpKind::Read { fd, len: 4096 }));
        script.push(op(3 * f + 3, OpKind::Close { fd }));
    }
    cl.run(script, SimTime::from_secs(120));
    let server = &cl.servers()[0].counters;
    assert_eq!(server.get(fault::HEAL_REREGISTERS), 1);
    assert_eq!(server.get(fault::HEAL_REOPENS), 3);
    assert_eq!(server.get(fault::HEAL_STORM_RPCS), 4);
}

/// A Token-mode read downgrade aimed across a cut edge passes the same
/// gate as every other server→client action: client 0 writes a file on
/// server 0, closes it and keeps the write token; a 300 s partition cuts
/// it off at t=10, and its 30 s lease lapses long before client 1 opens
/// the file for read at t=100. The server revokes the grant instead of
/// delivering a token recall, so the dirty 4 KB are lost.
#[test]
fn token_read_downgrade_across_a_cut_revokes_the_lapsed_writer() {
    let mut cfg = Config::small();
    cfg.consistency = ConsistencyPolicy::Token;
    cfg.faults = Some(FaultPlan {
        partitions: vec![Partition {
            at: SimTime::from_secs(10),
            heal_after: SimDuration::from_secs(300),
            edges: vec![(0, 0)],
        }],
        lease_ttl: SimDuration::from_secs(30),
        ..FaultPlan::default()
    });
    let mut cl = Cluster::new(cfg, VecSink::new(1));
    let op = |secs, client, kind| AppOp {
        time: SimTime::from_secs(secs),
        client: ClientId(client),
        user: UserId(u32::from(client)),
        pid: Pid(0),
        migrated: false,
        kind,
    };
    let (file, is_dir) = (FileId(0), false);
    let open = |fd, mode| OpKind::Open { fd, file, mode };
    let (w, r) = (Handle(1), Handle(2));
    cl.run(
        vec![
            op(1, 0, OpKind::Create { file, is_dir }),
            op(2, 0, open(w, OpenMode::Write)),
            op(3, 0, OpKind::Write { fd: w, len: 4096 }),
            op(4, 0, OpKind::Close { fd: w }),
            op(100, 1, open(r, OpenMode::Read)),
        ],
        SimTime::from_secs(120),
    );
    let server = &cl.servers()[0].counters;
    assert_eq!(server.get(fault::LEASE_EXPIRY_RECALLS), 1);
    assert_eq!(server.get(fault::LEASE_LOST_BYTES), 4096);
    let writer = &cl.clients()[0].metrics.counters;
    assert_eq!(writer.get(RpcKind::TokenRecall.msgs_key()), 0);
}

const POLICIES: [ConsistencyPolicy; 4] = [
    ConsistencyPolicy::Sprite,
    ConsistencyPolicy::SpriteModified,
    ConsistencyPolicy::Token,
    ConsistencyPolicy::Polling { interval_secs: 10 },
];

/// The seed of the fuzz cases the sanitizer, sample-count and first
/// digest checks replay.
const FUZZ_SEED: u64 = 0x4655_5a5a_5041_5254;

/// A second seed, whose plans, heal protocols and client crashes the
/// second pair of digest goldens pins.
const FUZZ_SEED_2: u64 = 0x5345_4544_5457_4f00;

/// The fuzzer's cases, replayed in order from an RNG seeded with `seed`:
/// `script`'s ops under random partition plans (random windows, edges, TTLs, both
/// heal protocols) interleaved with scheduled server outages and
/// imperative client crashes, rotating through every consistency
/// policy. Each step checks the cache bounds; `finish` receives every
/// case's cluster once it has run far past every heal and reboot, so
/// queued work has drained.
fn for_each_fuzz_case(
    seed: u64,
    script: fn(u64, u64, u16) -> Vec<AppOp>,
    mut finish: impl FnMut(u64, Cluster<VecSink>),
) {
    let mut rng = SimRng::seed_from_u64(seed);
    for case in 0..32u64 {
        let mut cfg = Config::small();
        cfg.consistency = POLICIES[case as usize % POLICIES.len()];
        cfg.sanitize = true;
        cfg.observe = true;

        let mut plan = FaultPlan::default();
        // 1-3 partitions with random windows inside the 150 s script.
        for _ in 0..rng.range(1, 3) {
            let at = rng.range(5, 100);
            let heal_after = rng.range(5, 60);
            let mut edges = Vec::new();
            for c in 0..cfg.num_clients {
                if rng.below(2) == 0 {
                    edges.push((c, 0u16));
                }
            }
            if edges.is_empty() {
                edges.push((rng.below(cfg.num_clients as u64) as u16, 0));
            }
            plan.partitions.push(Partition {
                at: SimTime::from_secs(at),
                heal_after: SimDuration::from_secs(heal_after),
                edges,
            });
        }
        // Sometimes a server outage overlapping the partitions.
        if rng.below(2) == 0 {
            let at = rng.range(10, 80);
            plan.outages.push(ServerOutage {
                server: 0,
                at: SimTime::from_secs(at),
                down_for: SimDuration::from_secs(rng.range(5, 30)),
            });
        }
        plan.lease_ttl = SimDuration::from_secs(rng.range(1, 30));
        plan.conservative_recovery = rng.below(2) == 0;
        cfg.faults = Some(plan);
        cfg.validate().expect("fuzzed plan is well-formed");

        let script = script(0x4655_5a5a ^ case, 600, cfg.num_clients);
        let total_mem = cfg.client_mem_bytes;
        let sink = VecSink::new(cfg.num_servers);
        let mut cl = Cluster::new(cfg, sink);
        // Handles die with their client: skip script ops that target an
        // fd opened before that client's last crash (the kernel would
        // have returned EBADF; do_fsync is strict about it).
        let mut live_fds: Vec<FastSet<Handle>> = vec![FastSet::default(); 4];
        for (i, op) in script.iter().enumerate() {
            let ci = op.client.raw() as usize;
            let alive = match op.kind {
                OpKind::Open { fd, .. } => {
                    live_fds[ci].insert(fd);
                    true
                }
                OpKind::Close { fd } => live_fds[ci].remove(&fd),
                OpKind::Read { fd, .. }
                | OpKind::Write { fd, .. }
                | OpKind::Fsync { fd }
                | OpKind::Seek { fd, .. } => live_fds[ci].contains(&fd),
                _ => true,
            };
            if alive {
                cl.apply(op);
            }
            // Imperative client crashes interleave with the scheduled
            // partitions and outages.
            if i % 97 == 96 {
                let victim = rng.below(4) as usize;
                cl.crash_client(ClientId(victim as u16));
                live_fds[victim].clear();
            }
            for client in cl.clients() {
                let cache_bytes = client.cache.len() as u64 * 4096;
                assert!(cache_bytes <= total_mem, "cache exceeds physical memory");
                assert!(client.cache.dirty_len() <= client.cache.len());
            }
        }
        cl.run(std::iter::empty(), SimTime::from_secs(400));
        finish(case, cl);
    }
}

/// Property fuzz over [`for_each_fuzz_case`] with `script`'s ops: the
/// cluster must survive every case, keep its cache invariants, and —
/// because revocation rolls the oracle's expectations back like a client
/// crash does — SpriteSan must stay clean through every interleaving.
/// Every counted RPC, storm and heal RPCs included, carries exactly one
/// latency sample: each kind's sample count equals its summed client
/// `rpc.<kind>.msgs`. Returns each kind's message count summed over
/// every case, in [`RpcKind::ALL`] order.
fn fuzz_stays_clean_and_samples_every_rpc(script: fn(u64, u64, u16) -> Vec<AppOp>) -> Vec<u64> {
    let mut total = vec![0; RpcKind::ALL.len()];
    for_each_fuzz_case(FUZZ_SEED, script, |case, mut cl| {
        let san = cl.take_sanitizer_stats().expect("sanitized run");
        assert!(
            san.is_clean(),
            "case {case}: oracle dirty across partition/crash interleaving: {}",
            san.render()
        );
        let obs = cl.take_obs_report().expect("observed run");
        for (kind, total) in RpcKind::ALL.into_iter().zip(&mut total) {
            let msgs: u64 = cl
                .clients()
                .iter()
                .map(|c| c.metrics.counters.get(kind.msgs_key()))
                .sum();
            assert_eq!(
                obs.rpc_hist(kind).count(),
                msgs,
                "case {case}: {} latency samples vs rpc.{}.msgs",
                kind.name(),
                kind.name()
            );
            *total += msgs;
        }
    });
    total
}

#[test]
fn fuzz_partitions_interleave_with_crashes() {
    fuzz_stays_clean_and_samples_every_rpc(op_script);
}

/// The same fuzz over process, paging, delete, truncate, seek and
/// directory traffic; code-page faults travel as `page_in` RPCs.
#[test]
fn fuzz_lifecycle_ops_under_partitions_and_crashes() {
    let total = fuzz_stays_clean_and_samples_every_rpc(lifecycle_script);
    for (kind, msgs) in RpcKind::ALL.into_iter().zip(total) {
        if matches!(
            kind,
            RpcKind::PageIn
                | RpcKind::PageOut
                | RpcKind::Delete
                | RpcKind::Truncate
                | RpcKind::ReadDir
        ) {
            assert!(msgs > 0, "the script issued no {} RPC", kind.name());
        }
    }
}

/// Pins the exact outcome of every fuzz case of `script` at `seed`: under all
/// four policies and both heal protocols, each crash rebuild, recovery
/// storm, heal storm, revocation and client crash must leave the same
/// records and counters. One digest per case covers each server's
/// records (as text lines), every client counter, every server counter
/// except `rpc.*` (RPCs are counted once, at the client), and SpriteSan's
/// violation count. `golden` is the contents of `tests/golden/{name}`;
/// on a mismatch the message lists this run's digests.
fn assert_paths_match_golden(
    seed: u64,
    script: fn(u64, u64, u16) -> Vec<AppOp>,
    name: &str,
    golden: &str,
) {
    use std::hash::Hasher;
    let mut got = String::new();
    for_each_fuzz_case(seed, script, |case, mut cl| {
        let mut h = sdfs_simkit::hash::FastHasher::default();
        let counter = |h: &mut sdfs_simkit::hash::FastHasher, (name, value): (&str, u64)| {
            h.write(name.as_bytes());
            h.write_u64(value);
        };
        for c in cl.clients() {
            h.write_u8(b'c');
            c.metrics.counters.iter().for_each(|kv| counter(&mut h, kv));
        }
        for s in cl.servers() {
            h.write_u8(b's');
            s.counters
                .iter()
                .filter(|(name, _)| !name.starts_with("rpc."))
                .for_each(|kv| counter(&mut h, kv));
        }
        let san = cl.take_sanitizer_stats().expect("sanitized run");
        h.write_u64(san.violations());
        for records in cl.into_sink().per_server {
            h.write_u8(b'r');
            for rec in &records {
                h.write(sdfs_trace::codec::to_text_line(rec).as_bytes());
                h.write_u8(b'\n');
            }
        }
        got.push_str(&format!("case {case:02} {:016x}\n", h.finish()));
    });
    assert!(
        got == golden,
        "fault-path digests drifted from tests/golden/{name}; \
         this run produced:\n{got}"
    );
}

/// The create, open, read, write, fsync and close paths of
/// [`op_script`].
#[test]
fn fault_paths_match_golden_digests() {
    assert_paths_match_golden(
        FUZZ_SEED,
        op_script,
        "fault_paths.txt",
        include_str!("golden/fault_paths.txt"),
    );
}

/// [`op_script`]'s paths under the second seed's plans and crashes.
#[test]
fn fault_paths_match_golden_digests_at_a_second_seed() {
    assert_paths_match_golden(
        FUZZ_SEED_2,
        op_script,
        "fault_paths_seed2.txt",
        include_str!("golden/fault_paths_seed2.txt"),
    );
}

/// The process, paging, delete, truncate, seek and directory paths of
/// [`lifecycle_script`].
#[test]
fn lifecycle_paths_match_golden_digests() {
    assert_paths_match_golden(
        FUZZ_SEED,
        lifecycle_script,
        "lifecycle_paths.txt",
        include_str!("golden/lifecycle_paths.txt"),
    );
}

/// [`lifecycle_script`]'s paths under the second seed's plans and
/// crashes.
#[test]
fn lifecycle_paths_match_golden_digests_at_a_second_seed() {
    assert_paths_match_golden(
        FUZZ_SEED_2,
        lifecycle_script,
        "lifecycle_paths_seed2.txt",
        include_str!("golden/lifecycle_paths_seed2.txt"),
    );
}
