//! Randomized tests for the cache and memory-manager invariants, driven
//! by the workspace's seeded `SimRng` so the suite is hermetic offline.

use sdfs_simkit::{SimRng, SimTime};
use sdfs_spritefs::cache::{BlockCache, BlockKey};
use sdfs_spritefs::config::BLOCK_SIZE;
use sdfs_spritefs::vm::{FcGrant, MemoryManager};
use sdfs_trace::FileId;

mod cluster_fuzz {
    use sdfs_simkit::{SimRng, SimTime};
    use sdfs_spritefs::{AppOp, Cluster, Config, ConsistencyPolicy, OpKind, VecSink};
    use sdfs_trace::{ClientId, FileId, Handle, OpenMode, Pid, ServerId, UserId};

    /// A compact alphabet of operations; handles and files are small so
    /// sequences collide and exercise sharing, recalls, and staleness.
    /// Client crashes, server crashes, and server recoveries interleave
    /// freely with regular traffic.
    #[derive(Debug, Clone)]
    enum Step {
        Create(u8),
        Open(u8, u8, u8), // client, file, mode
        Read(u8, u8, u32),
        Write(u8, u8, u32),
        Seek(u8, u8, u32),
        Close(u8, u8),
        Fsync(u8, u8),
        Delete(u8),
        Truncate(u8),
        Crash(u8),
        Proc(u8),
        SrvCrash,
        SrvRecover,
    }

    fn random_step(rng: &mut SimRng) -> Step {
        let b = |rng: &mut SimRng| rng.below(256) as u8;
        match rng.below(13) {
            0 => Step::Create(b(rng)),
            1 => Step::Open(b(rng), b(rng), b(rng)),
            2 => Step::Read(b(rng), b(rng), rng.next_u64() as u32),
            3 => Step::Write(b(rng), b(rng), rng.next_u64() as u32),
            4 => Step::Seek(b(rng), b(rng), rng.next_u64() as u32),
            5 => Step::Close(b(rng), b(rng)),
            6 => Step::Fsync(b(rng), b(rng)),
            7 => Step::Delete(b(rng)),
            8 => Step::Truncate(b(rng)),
            9 => Step::Crash(b(rng)),
            10 => Step::Proc(b(rng)),
            11 => Step::SrvCrash,
            _ => Step::SrvRecover,
        }
    }

    const POLICIES: [ConsistencyPolicy; 4] = [
        ConsistencyPolicy::Sprite,
        ConsistencyPolicy::SpriteModified,
        ConsistencyPolicy::Token,
        ConsistencyPolicy::Polling { interval_secs: 10 },
    ];

    /// The cluster survives arbitrary (well-formed-enough) op sequences
    /// under every policy, with its core invariants intact.
    #[test]
    fn cluster_survives_random_streams() {
        let mut rng = SimRng::seed_from_u64(0x5350_5249_5445);
        for case in 0..64 {
            let policy = POLICIES[case % POLICIES.len()];
            let n_steps = rng.below(250) as usize;
            let steps: Vec<Step> = (0..n_steps).map(|_| random_step(&mut rng)).collect();
            run_case(steps, policy);
        }
    }

    fn run_case(steps: Vec<Step>, policy: ConsistencyPolicy) {
        let mut cfg = Config::small();
        cfg.consistency = policy;
        let total_mem = cfg.client_mem_bytes;
        let mut cluster = Cluster::new(cfg, VecSink::new(1));
        // fd bookkeeping so Read/Write/Close target live handles.
        let mut live: Vec<Vec<Handle>> = vec![Vec::new(); 4];
        let mut exists = [false; 8];
        let mut next_fd = 1u64;
        let mut t = 0u64;
        let mut proc_live: Vec<Vec<Pid>> = vec![Vec::new(); 4];
        let mut next_pid = 1u32;
        for s in steps {
            t += 1;
            let now = SimTime::from_millis(t * 250);
            let mk = |client: u16, kind| AppOp {
                time: now,
                client: ClientId(client),
                user: UserId(client as u32),
                pid: Pid(0),
                migrated: false,
                kind,
            };
            match s {
                Step::Create(f) => {
                    let f = f % 8;
                    cluster.apply(&mk(
                        0,
                        OpKind::Create {
                            file: FileId(f as u64),
                            is_dir: false,
                        },
                    ));
                    exists[f as usize] = true;
                }
                Step::Open(c, f, m) => {
                    let c = c % 4;
                    let f = f % 8;
                    if !exists[f as usize] {
                        continue;
                    }
                    let fd = Handle(next_fd);
                    next_fd += 1;
                    let mode = match m % 3 {
                        0 => OpenMode::Read,
                        1 => OpenMode::Write,
                        _ => OpenMode::ReadWrite,
                    };
                    cluster.apply(&mk(
                        c as u16,
                        OpKind::Open {
                            fd,
                            file: FileId(f as u64),
                            mode,
                        },
                    ));
                    live[c as usize].push(fd);
                }
                Step::Read(c, slot, n) => {
                    let c = (c % 4) as usize;
                    if let Some(&fd) = live[c].get(slot as usize % live[c].len().max(1)) {
                        cluster.apply(&mk(
                            c as u16,
                            OpKind::Read {
                                fd,
                                len: (n % 100_000) as u64,
                            },
                        ));
                    }
                }
                Step::Write(c, slot, n) => {
                    let c = (c % 4) as usize;
                    if let Some(&fd) = live[c].get(slot as usize % live[c].len().max(1)) {
                        cluster.apply(&mk(
                            c as u16,
                            OpKind::Write {
                                fd,
                                len: (n % 100_000) as u64,
                            },
                        ));
                    }
                }
                Step::Seek(c, slot, n) => {
                    let c = (c % 4) as usize;
                    if let Some(&fd) = live[c].get(slot as usize % live[c].len().max(1)) {
                        cluster.apply(&mk(
                            c as u16,
                            OpKind::Seek {
                                fd,
                                to: (n % 1_000_000) as u64,
                            },
                        ));
                    }
                }
                Step::Close(c, slot) => {
                    let c = (c % 4) as usize;
                    if live[c].is_empty() {
                        continue;
                    }
                    let idx = slot as usize % live[c].len();
                    let fd = live[c].remove(idx);
                    cluster.apply(&mk(c as u16, OpKind::Close { fd }));
                }
                Step::Fsync(c, slot) => {
                    let c = (c % 4) as usize;
                    if let Some(&fd) = live[c].get(slot as usize % live[c].len().max(1)) {
                        cluster.apply(&mk(c as u16, OpKind::Fsync { fd }));
                    }
                }
                Step::Delete(f) => {
                    let f = f % 8;
                    if exists[f as usize] {
                        cluster.apply(&mk(
                            0,
                            OpKind::Delete {
                                file: FileId(f as u64),
                            },
                        ));
                        exists[f as usize] = false;
                    }
                }
                Step::Truncate(f) => {
                    let f = f % 8;
                    if exists[f as usize] {
                        cluster.apply(&mk(
                            0,
                            OpKind::Truncate {
                                file: FileId(f as u64),
                            },
                        ));
                    }
                }
                Step::Crash(c) => {
                    let c = (c % 4) as usize;
                    cluster.crash_client(ClientId(c as u16));
                    // Handles on this client are gone.
                    live[c].clear();
                    proc_live[c].clear();
                }
                Step::SrvCrash => {
                    // Config::small has one server; a crash while clients
                    // hold opens and dirty blocks exercises the volatile
                    // state rebuild. Both calls are idempotent no-ops when
                    // the server is already in the requested state.
                    cluster.crash_server(ServerId(0));
                }
                Step::SrvRecover => {
                    cluster.recover_server(ServerId(0));
                }
                Step::Proc(c) => {
                    let c = (c % 4) as usize;
                    if proc_live[c].len() < 3 {
                        let pid = Pid(next_pid);
                        next_pid += 1;
                        let mut op = mk(
                            c as u16,
                            OpKind::ProcStart {
                                exec: FileId(200 + c as u64),
                                code_bytes: 64 << 10,
                                data_bytes: 16 << 10,
                                heap_bytes: 64 << 10,
                            },
                        );
                        op.pid = pid;
                        cluster.apply(&op);
                        proc_live[c].push(pid);
                    } else if let Some(pid) = proc_live[c].pop() {
                        let mut op = mk(c as u16, OpKind::ProcExit);
                        op.pid = pid;
                        cluster.apply(&op);
                    }
                }
            }
            // Invariants after every step.
            for client in cluster.clients() {
                let cache_bytes = client.cache.len() as u64 * 4096;
                assert!(cache_bytes <= total_mem, "cache exceeds physical memory");
                assert!(client.cache.dirty_len() <= client.cache.len());
                let c = &client.metrics.counters;
                assert!(c.get("cache.read.miss.ops") <= c.get("cache.read.ops"));
            }
        }
        // Bring the server back (a no-op if it is up) so the drain below
        // can actually deliver queued write-backs.
        cluster.recover_server(ServerId(0));
        // Drain: advance time so the daemon flushes everything.
        let end = SimTime::from_millis((t + 1) * 250) + sdfs_simkit::SimDuration::from_secs(120);
        cluster.run(std::iter::empty(), end);
        for (c, fds) in live.iter().enumerate() {
            for &fd in fds {
                cluster.apply(&AppOp {
                    time: end,
                    client: ClientId(c as u16),
                    user: UserId(c as u32),
                    pid: Pid(0),
                    migrated: false,
                    kind: OpKind::Close { fd },
                });
            }
        }
    }
}

#[derive(Debug, Clone)]
enum CacheOp {
    Insert(u8, u8),
    Touch(u8, u8),
    Dirty(u8, u8),
    Clean(u8, u8),
    Remove(u8, u8),
    PopLru,
}

fn random_cache_op(rng: &mut SimRng) -> CacheOp {
    let b = |rng: &mut SimRng| rng.below(256) as u8;
    match rng.below(6) {
        0 => CacheOp::Insert(b(rng), b(rng)),
        1 => CacheOp::Touch(b(rng), b(rng)),
        2 => CacheOp::Dirty(b(rng), b(rng)),
        3 => CacheOp::Clean(b(rng), b(rng)),
        4 => CacheOp::Remove(b(rng), b(rng)),
        _ => CacheOp::PopLru,
    }
}

fn key(f: u8, b: u8) -> BlockKey {
    BlockKey {
        file: FileId(f as u64 % 8),
        index: b as u64 % 8,
    }
}

/// The cache never loses track of itself: per-file views agree with the
/// global view, dirty is a subset, and LRU pops drain it fully.
#[test]
fn cache_invariants() {
    let mut rng = SimRng::seed_from_u64(0x4341_4348_4501);
    for _ in 0..256 {
        let n_ops = rng.below(200) as usize;
        let mut cache = BlockCache::new();
        let mut t = 0u64;
        for _ in 0..n_ops {
            let op = random_cache_op(&mut rng);
            t += 1;
            let now = SimTime::from_secs(t);
            match op {
                CacheOp::Insert(f, b) => cache.insert(key(f, b), now),
                CacheOp::Touch(f, b) => {
                    cache.touch(key(f, b), now);
                }
                CacheOp::Dirty(f, b) => {
                    if cache.contains(key(f, b)) {
                        cache.mark_dirty(key(f, b), now, 1);
                    }
                }
                CacheOp::Clean(f, b) => {
                    cache.clean(key(f, b));
                }
                CacheOp::Remove(f, b) => {
                    cache.remove(key(f, b));
                }
                CacheOp::PopLru => {
                    cache.pop_lru();
                }
            }
            assert!(cache.dirty_len() <= cache.len());
            let by_file: usize = (0..8).map(|f| cache.blocks_of(FileId(f)).len()).sum();
            assert_eq!(by_file, cache.len(), "per-file view diverged");
            let dirty_by_file: usize = (0..8)
                .map(|f| cache.dirty_blocks_of(FileId(f)).len())
                .sum();
            assert_eq!(dirty_by_file, cache.dirty_len());
        }
        // Draining via LRU empties everything.
        let mut drained = 0;
        while cache.pop_lru().is_some() {
            drained += 1;
            assert!(drained <= 64, "more blocks than possible keys");
        }
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.dirty_len(), 0);
    }
}

/// LRU order: after touching everything in a known order, pops come back
/// in that order.
#[test]
fn lru_order_is_touch_order() {
    for n in 2usize..20 {
        let mut cache = BlockCache::new();
        for i in 0..n {
            cache.insert(
                BlockKey {
                    file: FileId(i as u64),
                    index: 0,
                },
                SimTime::from_secs(i as u64),
            );
        }
        // Touch in reverse: file n-1 .. 0 at later times.
        for (step, i) in (0..n).rev().enumerate() {
            cache.touch(
                BlockKey {
                    file: FileId(i as u64),
                    index: 0,
                },
                SimTime::from_secs((n + step) as u64),
            );
        }
        // The least recently touched is the one touched first in the
        // reverse pass: n-1.
        for i in (0..n).rev() {
            let (k, _) = cache.pop_lru().expect("non-empty");
            assert_eq!(k.file, FileId(i as u64));
        }
    }
}

/// Memory conservation: fc + free never exceed total, and every grant
/// path keeps the books balanced.
#[test]
fn memory_manager_conserves_pages() {
    let mut rng = SimRng::seed_from_u64(0x4d45_4d01);
    for _ in 0..256 {
        let n_ops = rng.below(100) as usize;
        let total_pages = 64u64;
        let mut mm = MemoryManager::new(total_pages * BLOCK_SIZE, 0);
        let mut t = 0u64;
        let mut active = 0u64; // VM pages we believe are active
        for _ in 0..n_ops {
            let op = rng.below(4) as u8;
            let n = rng.range(1, 16);
            t += 60;
            let now = SimTime::from_secs(t);
            match op {
                0 => {
                    // File cache wants n pages.
                    for _ in 0..n {
                        match mm.fc_acquire(now) {
                            FcGrant::FromFree | FcGrant::FromIdleVm => {}
                            FcGrant::MustEvict => {
                                if mm.fc_pages() > 0 {
                                    // Caller would evict + reuse: no-op here.
                                }
                            }
                        }
                    }
                }
                1 => {
                    // VM wants n pages.
                    let steal = mm.vm_acquire(n);
                    for _ in 0..steal {
                        if mm.fc_pages() > 0 {
                            mm.fc_release(1);
                            mm.force_grow(1);
                        } else {
                            mm.force_grow(1);
                        }
                    }
                    active += n;
                }
                2 => {
                    // VM releases up to what is active.
                    let rel = n.min(active);
                    if rel > 0 {
                        mm.vm_release(now, rel);
                        active -= rel;
                    }
                }
                _ => {
                    // File cache shrinks.
                    let rel = n.min(mm.fc_pages());
                    mm.fc_release(rel);
                }
            }
            assert!(mm.idle_vm_pages() <= mm.vm_pages());
            // Free never exceeds the machine (saturating arithmetic is
            // allowed to clamp under overcommit, never to exceed).
            assert!(mm.free_pages() <= total_pages);
            assert!(mm.fc_pages() <= total_pages);
        }
    }
}

/// The differential test of the block cache: a reference model built
/// from ordered std collections, with the semantics the cache must keep
/// — LRU order by `(last_ref, insertion sequence)`, dirty blocks ordered
/// by `(dirty_since, key)`.
mod cache_model {
    use std::collections::{BTreeMap, BTreeSet};

    use sdfs_simkit::{SimRng, SimTime};
    use sdfs_spritefs::cache::{BlockCache, BlockEntry, BlockKey};
    use sdfs_trace::FileId;

    /// `(last_ref, dirty, dirty_since, last_write, dirty_app_bytes)`.
    type Fields = (SimTime, bool, SimTime, SimTime, u64);

    fn fields(e: &BlockEntry) -> Fields {
        (
            e.last_ref,
            e.dirty,
            e.dirty_since,
            e.last_write,
            e.dirty_app_bytes,
        )
    }

    #[derive(Default)]
    struct Model {
        /// Key → (entry fields, LRU sequence number).
        entries: BTreeMap<BlockKey, (Fields, u64)>,
        lru: BTreeSet<(SimTime, u64, BlockKey)>,
        dirty: BTreeSet<(SimTime, BlockKey)>,
        seq: u64,
    }

    impl Model {
        fn touch(&mut self, key: BlockKey, now: SimTime) -> bool {
            let Some((f, seq)) = self.entries.get_mut(&key) else {
                return false;
            };
            self.lru.remove(&(f.0, *seq, key));
            self.seq += 1;
            (f.0, *seq) = (now, self.seq);
            self.lru.insert((now, self.seq, key));
            true
        }

        fn insert(&mut self, key: BlockKey, now: SimTime) {
            if self.touch(key, now) {
                return;
            }
            self.seq += 1;
            let f = (now, false, SimTime::ZERO, SimTime::ZERO, 0);
            self.entries.insert(key, (f, self.seq));
            self.lru.insert((now, self.seq, key));
        }

        fn mark_dirty(&mut self, key: BlockKey, now: SimTime, bytes: u64) -> bool {
            if !self.touch(key, now) {
                return false;
            }
            let f = &mut self.entries.get_mut(&key).expect("touched").0;
            if !f.1 {
                (f.1, f.2, f.4) = (true, now, 0);
                self.dirty.insert((now, key));
            }
            f.3 = now;
            f.4 += bytes;
            true
        }

        fn clean(&mut self, key: BlockKey) -> Option<Fields> {
            let f = &mut self.entries.get_mut(&key)?.0;
            if !f.1 {
                return None;
            }
            let before = *f;
            (f.1, f.4) = (false, 0);
            self.dirty.remove(&(before.2, key));
            Some(before)
        }

        fn remove(&mut self, key: BlockKey) -> Option<Fields> {
            let (f, seq) = self.entries.remove(&key)?;
            self.lru.remove(&(f.0, seq, key));
            if f.1 {
                self.dirty.remove(&(f.2, key));
            }
            Some(f)
        }

        fn peek_lru(&self) -> Option<BlockKey> {
            self.lru.first().map(|&(_, _, k)| k)
        }

        fn blocks_of(&self, file: FileId, dirty_only: bool) -> Vec<u64> {
            self.entries
                .iter()
                .filter(|(k, (f, _))| k.file == file && (!dirty_only || f.1))
                .map(|(k, _)| k.index)
                .collect()
        }

        fn files_with_dirty_before(&self, cutoff: SimTime) -> Vec<FileId> {
            let files: BTreeSet<FileId> = self
                .dirty
                .iter()
                .take_while(|&&(t, _)| t <= cutoff)
                .map(|&(_, k)| k.file)
                .collect();
            files.into_iter().collect()
        }
    }

    const FILES: u64 = 4;
    /// Far-apart indices: distant groups, and the last group of all.
    const FAR: [u64; 5] = [1 << 20, (1 << 20) + 63, 1 << 50, u64::MAX - 1, u64::MAX];

    /// Half the time a cached key (so clean, remove and touch find
    /// something), otherwise any key.
    fn random_key(rng: &mut SimRng, model: &Model) -> BlockKey {
        if !model.entries.is_empty() && rng.chance(0.5) {
            let n = rng.below(model.entries.len() as u64) as usize;
            return *model.entries.keys().nth(n).expect("n < len");
        }
        let file = FileId(rng.below(FILES));
        // Mostly three adjacent 64-block groups, sometimes a far index.
        let index = if rng.chance(0.85) {
            rng.below(3 * 64)
        } else {
            *rng.pick(&FAR)
        };
        BlockKey { file, index }
    }

    fn compare(cache: &BlockCache, model: &Model, now: SimTime, step: usize) {
        let at = format!("step {step} at {now}");
        assert_eq!(cache.audit(), Ok(()), "{at}");
        assert_eq!(cache.len(), model.entries.len(), "{at}");
        assert_eq!(cache.dirty_len(), model.dirty.len(), "{at}");
        assert_eq!(cache.peek_lru().map(|(k, _)| k), model.peek_lru(), "{at}");
        if let Some((k, e)) = cache.peek_lru() {
            assert_eq!(fields(e), model.entries[&k].0, "{at}");
        }
        for f in 0..FILES {
            let file = FileId(f);
            assert_eq!(cache.blocks_of(file), model.blocks_of(file, false), "{at}");
            assert_eq!(
                cache.dirty_blocks_of(file),
                model.blocks_of(file, true),
                "{at}"
            );
        }
        for back in [0, 1, 3, 10] {
            let cutoff = SimTime::from_secs(now.as_secs().saturating_sub(back));
            assert_eq!(
                cache.files_with_dirty_before(cutoff),
                model.files_with_dirty_before(cutoff),
                "{at}, cutoff {cutoff}"
            );
        }
        assert_eq!(cache.oldest_dirty(), model.dirty.first().copied(), "{at}");
    }

    /// Random `insert`/`touch`/`mark_dirty`/`clean`/`remove`/`pop_lru`
    /// sequences with repeated timestamps leave the cache observably
    /// identical to the model after every step.
    #[test]
    fn cache_matches_ordered_reference_model() {
        let mut rng = SimRng::seed_from_u64(0x4752_4f55_5053);
        for _ in 0..48 {
            let mut cache = BlockCache::new();
            let mut model = Model::default();
            let mut secs = 0;
            for step in 0..250 {
                // Time stands still about a third of the time.
                secs += rng.below(3);
                let now = SimTime::from_secs(secs);
                let key = random_key(&mut rng, &model);
                match rng.below(7) {
                    0 | 1 => {
                        cache.insert(key, now);
                        model.insert(key, now);
                    }
                    2 => assert_eq!(cache.touch(key, now), model.touch(key, now)),
                    3 => {
                        let bytes = rng.below(4096);
                        assert_eq!(
                            cache.mark_dirty_if_present(key, now, bytes),
                            model.mark_dirty(key, now, bytes)
                        );
                    }
                    4 => assert_eq!(cache.clean(key).as_ref().map(fields), model.clean(key)),
                    5 => assert_eq!(cache.remove(key).as_ref().map(fields), model.remove(key)),
                    _ => {
                        let want = model.peek_lru();
                        let got = cache.pop_lru();
                        assert_eq!(got.as_ref().map(|(k, _)| *k), want);
                        if let Some((k, e)) = got {
                            assert_eq!(Some(fields(&e)), model.remove(k));
                        }
                    }
                }
                compare(&cache, &model, now, step);
            }
        }
    }
}
