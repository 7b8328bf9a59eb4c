//! The top-level workload generator.
//!
//! [`Generator::new`] builds the population: ~70 users in four groups,
//! their personal files, the shared system files, and the per-group
//! shared files — all "preloaded" (existing before the trace starts).
//! [`Generator::generate_day`] then produces one day's time-ordered
//! operation stream ([`DayOps`]): present users get diurnal sessions;
//! within a session they alternate application bursts and think time;
//! the two heavy simulation users (when enabled) grind all day.

use sdfs_simkit::{SimDuration, SimRng, SimTime};
use sdfs_spritefs::ops::AppOp;
use sdfs_trace::{ClientId, FileId, Pid, UserId};

use crate::apps::{
    self, build_group_files, build_system_files, Ctx, GroupFiles, SimProfile, SystemFiles,
};
use crate::codec::DayEncoder;
pub use crate::codec::DayOps;
use crate::config::{
    WorkloadConfig, DAILY_PRESENCE, PMAKE_FANOUT, REGULAR_FRACTION, THINK_MEAN_SECS,
};
use crate::namespace::Namespace;
use crate::user::{build_user_files, schedule_sessions, Group, User};

/// The workload generator.
pub struct Generator {
    cfg: WorkloadConfig,
    ns: Namespace,
    sys: SystemFiles,
    groups: Vec<GroupFiles>,
    users: Vec<User>,
    /// System housekeeping: the log the hourly daemon appends to.
    daemon_log: FileId,
    daemon_rng: SimRng,
}

impl Generator {
    /// Builds the population from the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: WorkloadConfig) -> Self {
        cfg.validate().expect("invalid workload configuration");
        let mut master = SimRng::seed_from_u64(cfg.seed);
        let mut ns = Namespace::new();
        let sys = build_system_files(&mut ns, &mut master, cfg.num_clients);
        let groups = (0..4)
            .map(|_| build_group_files(&mut ns, &mut master))
            .collect();
        let mut users = Vec::with_capacity(cfg.num_users as usize);
        for i in 0..cfg.num_users {
            let mut rng = master.fork();
            let group = Group::of(i);
            let mut files = build_user_files(&mut ns, &mut rng, group);
            let heavy_sim = cfg.heavy_sim && (i == 1 || i == 5); // Two Arch/Vlsi users.
            if heavy_sim {
                // Trace 3–4 class projects: user 1 reads 20-Mbyte inputs,
                // user 5 produces 10-Mbyte outputs from a small input.
                let input_size = if i == 1 { 20 << 20 } else { 2 << 20 };
                // The class-project users rerun one fixed input.
                let f = ns.alloc(input_size, false, true);
                files.sim_inputs = vec![f];
            }
            let home_client = ClientId(i as u16 % cfg.num_clients);
            let uses_migration = rng.chance(0.25);
            let uses_db = rng.chance(0.5);
            let n_hosts = rng.range(2, 1 + PMAKE_FANOUT as u64) as usize;
            let migration_hosts = (0..n_hosts)
                .map(|_| {
                    // Prefer a stable set of hosts distinct from home.
                    let mut h = ClientId(rng.below(cfg.num_clients as u64) as u16);
                    if h == home_client {
                        h = ClientId((h.raw() + 1) % cfg.num_clients);
                    }
                    h
                })
                .collect();
            users.push(User {
                id: UserId(i),
                home_client,
                group,
                regular: (i as f64 / cfg.num_users as f64) < REGULAR_FRACTION,
                heavy_sim,
                uses_migration,
                uses_db,
                migration_hosts,
                files,
                rng,
            });
        }
        let daemon_log = ns.alloc(40 << 10, false, true);
        let daemon_rng = master.fork();
        Generator {
            cfg,
            ns,
            sys,
            groups,
            users,
            daemon_log,
            daemon_rng,
        }
    }

    /// The files that must exist in the cluster before the trace starts.
    pub fn preload_list(&self) -> Vec<(FileId, u64, bool)> {
        self.ns.preload_list().to_vec()
    }

    /// The configuration in force.
    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }

    /// Generates one day's operations (day 0 covers `[0, 24 h)`, day 1
    /// `[24 h, 48 h)`, ...), in time order: the order a stable sort by
    /// time of every stream concatenated would give. Each stream is
    /// encoded as soon as it is generated, so the day is held as bytes
    /// (DESIGN §7).
    pub fn generate_day(&mut self, day: u32) -> DayOps {
        let mut encoder = DayEncoder::default();
        self.generate_streams(day, |stream| encoder.push_stream(stream));
        encoder.finish()
    }

    /// Generates one day's operations stream by stream into one reused
    /// buffer, and hands each stream, unsorted, to `each`: every present
    /// user's sessions, then the housekeeping daemon's.
    fn generate_streams(&mut self, day: u32, mut each: impl FnMut(&mut [AppOp])) {
        let mut ops: Vec<AppOp> = Vec::new();
        let day_start = SimTime::from_secs(day as u64 * 86_400);
        // Stage per-user plans first (which users appear, their session
        // windows) so user randomness stays in per-user streams.
        for ui in 0..self.users.len() {
            let (present, sessions) = {
                let user = &mut self.users[ui];
                let presence = if user.heavy_sim {
                    1.0
                } else if user.regular {
                    DAILY_PRESENCE
                } else {
                    DAILY_PRESENCE / 3.0
                };
                let present = user.rng.chance(presence);
                let sessions = if user.heavy_sim {
                    // Heavy users grind from early morning to late night.
                    vec![crate::user::Session {
                        start: day_start + SimDuration::from_secs_f64(3600.0 * 1.5),
                        len_secs: 3600.0 * 20.0,
                    }]
                } else {
                    schedule_sessions(&mut self.users[ui].rng)
                        .into_iter()
                        .map(|mut s| {
                            s.start = day_start + (s.start - SimTime::ZERO);
                            s
                        })
                        .collect()
                };
                (present, sessions)
            };
            if !present {
                continue;
            }
            ops.clear();
            // Sessions must not overlap for one user (their personal
            // timeline is sequential); clamp each to start no earlier
            // than the previous one ended, and keep everything inside
            // the day.
            let day_cap = day_start + SimDuration::from_secs_f64(3600.0 * 23.4);
            let mut cursor = day_start;
            for mut session in sessions {
                if session.start < cursor {
                    session.start = cursor;
                }
                if session.start >= day_cap {
                    break;
                }
                let max_len = (day_cap - session.start).as_secs_f64();
                session.len_secs = session.len_secs.min(max_len);
                if session.len_secs < 30.0 {
                    continue;
                }
                cursor = self.run_session(&mut ops, ui, session);
            }
            each(&mut ops);
        }
        // System housekeeping: an hourly daemon runs around the clock
        // (the measured cluster was never fully quiet; the nightly tape
        // backup was scrubbed from the traces, but other system activity
        // remained). This also gives the traces their ~24-hour span.
        ops.clear();
        self.run_daemon(&mut ops, day_start);
        each(&mut ops);
    }

    /// Hourly housekeeping on client 0 by a system user: read a couple
    /// of configuration files, list a directory, append to the log.
    fn run_daemon(&mut self, ops: &mut Vec<AppOp>, day_start: SimTime) {
        let daemon_user = UserId(self.cfg.num_users);
        let log = self.daemon_log;
        for hour in 0..24 {
            let mut ctx = Ctx {
                ops,
                ns: &mut self.ns,
                rng: &mut self.daemon_rng,
                cfg: &self.cfg,
                now: day_start
                    + SimDuration::from_secs(hour * 3600)
                    + SimDuration::from_secs_f64(17.0),
                user: daemon_user,
                client: ClientId(0),
                pid: Pid(0),
                migrated: false,
                io_scale: 1.0,
            };
            let cmd = *ctx.rng.pick(&self.sys.shell_cmds);
            ctx.with_process(cmd, |ctx| {
                let cfg_file = *ctx.rng.pick(&self.sys.headers);
                ctx.read_whole(cfg_file);
                ctx.list_dir(self.sys.tmp_dir);
                let n = ctx.rng.range(200, 2_000);
                ctx.append(log, n);
            });
        }
        // Keep the log from growing without bound: weekly truncation.
        if self.ns.size(log) > 1 << 20 {
            let mut ctx = Ctx {
                ops,
                ns: &mut self.ns,
                rng: &mut self.daemon_rng,
                cfg: &self.cfg,
                now: day_start + SimDuration::from_secs(23 * 3600 + 1800),
                user: daemon_user,
                client: ClientId(0),
                pid: Pid(0),
                migrated: false,
                io_scale: 1.0,
            };
            ctx.truncate(log);
        }
    }

    /// Runs one user session, pushing operations into `ops`. Returns the
    /// time the session's last burst actually finished.
    fn run_session(
        &mut self,
        ops: &mut Vec<AppOp>,
        ui: usize,
        session: crate::user::Session,
    ) -> SimTime {
        let user = &mut self.users[ui];
        let end = session.start + SimDuration::from_secs_f64(session.len_secs);
        let group_idx = match user.group {
            Group::Os => 0,
            Group::Arch => 1,
            Group::Vlsi => 2,
            Group::Misc => 3,
        };
        // Pick another user's mailbox for outgoing mail ahead of time to
        // avoid double borrows.
        let other_mailbox = {
            let n = self.users.len() as u64;
            let j = self.users[ui].rng.below(n) as usize;
            if j != ui {
                Some(self.users[j].files.mailbox)
            } else {
                None
            }
        };
        let user = &mut self.users[ui];
        let heavy_profile = if user.heavy_sim {
            if user.id.raw() == 1 {
                Some(SimProfile::HeavyReader)
            } else {
                Some(SimProfile::HeavyWriter)
            }
        } else {
            None
        };
        let mut now = session.start;
        let think_mean = THINK_MEAN_SECS / self.cfg.activity_scale;

        // Session environment: the user logs in, the window system and
        // shell start (steady VM pressure for the whole session), and the
        // change of activity produces a small paging burst — the paper
        // observed that much paging happens at such transitions.
        let (bg_pids, backing) = {
            let mut ctx = Ctx {
                ops,
                ns: &mut self.ns,
                rng: &mut user.rng,
                cfg: &self.cfg,
                now,
                user: user.id,
                client: user.home_client,
                pid: Pid(0),
                migrated: false,
                io_scale: 1.0,
            };
            let w = ctx.spawn_background(self.sys.winsys);
            let sh = ctx.spawn_background(self.sys.shell);
            let backing = self.sys.backing[user.home_client.raw() as usize];
            if ctx.rng.chance(0.7) {
                let pages = ctx.rng.range(32, 320);
                ctx.backing_io(backing, pages * 4096);
            }
            now = ctx.now;
            (vec![w, sh], backing)
        };

        while now < end {
            let mut ctx = Ctx {
                ops,
                ns: &mut self.ns,
                rng: &mut user.rng,
                cfg: &self.cfg,
                now,
                user: user.id,
                client: user.home_client,
                pid: Pid(0),
                migrated: false,
                io_scale: 1.0,
            };
            if let Some(profile) = heavy_profile {
                // The class-project users just rerun their simulators.
                apps::sim_burst(&mut ctx, &mut user.files, &self.sys, profile);
            } else {
                let weights: &[f64] = match user.group {
                    // edit, compile, mail, shell, doc, db, sim, psim, mailcheck, collab
                    Group::Os => &[0.24, 0.21, 0.07, 0.14, 0.04, 0.08, 0.03, 0.00, 0.15, 0.04],
                    Group::Arch => &[0.22, 0.15, 0.06, 0.12, 0.04, 0.08, 0.05, 0.00, 0.24, 0.04],
                    Group::Vlsi => &[0.22, 0.16, 0.06, 0.12, 0.03, 0.08, 0.04, 0.015, 0.225, 0.04],
                    Group::Misc => &[0.20, 0.06, 0.16, 0.24, 0.10, 0.06, 0.00, 0.00, 0.14, 0.04],
                };
                let scaled: Vec<f64> = {
                    let mut w = weights.to_vec();
                    w[5] *= self.cfg.sharing_scale;
                    w[9] *= self.cfg.sharing_scale;
                    if !user.uses_db {
                        // Sharing is concentrated: half the users never
                        // touch the group database or notes; the other
                        // half use them twice as much.
                        w[5] = 0.0;
                        w[9] = 0.0;
                    } else {
                        w[5] *= 2.6;
                        w[9] *= 2.6;
                    }
                    w
                };
                match ctx.rng.pick_weighted(&scaled) {
                    0 => apps::edit_burst(&mut ctx, &mut user.files, &self.sys),
                    1 => apps::compile_burst(
                        &mut ctx,
                        &mut user.files,
                        &self.sys,
                        &self.groups[group_idx],
                        &user.migration_hosts,
                        user.uses_migration,
                    ),
                    2 => apps::mail_burst(&mut ctx, &mut user.files, &self.sys, other_mailbox),
                    3 => apps::shell_burst(&mut ctx, &mut user.files, &self.sys),
                    4 => apps::doc_burst(&mut ctx, &mut user.files, &self.sys),
                    5 => apps::shared_db_burst(&mut ctx, &self.groups[group_idx]),
                    6 => apps::sim_burst(&mut ctx, &mut user.files, &self.sys, SimProfile::Normal),
                    7 => apps::parallel_sim_burst(
                        &mut ctx,
                        &mut user.files,
                        &self.sys,
                        &user.migration_hosts,
                    ),
                    8 => apps::mail_check_burst(&mut ctx, &mut user.files),
                    _ => apps::collab_burst(&mut ctx, &self.groups[group_idx]),
                }
            }
            now = ctx.now;
            // Think time between bursts.
            let think = -think_mean * user.rng.f64_open().ln();
            now += SimDuration::from_secs_f64(think.max(0.5));
        }

        // Log out: background processes exit; a returning user (or
        // migrated work) will reclaim the memory later.
        {
            let mut ctx = Ctx {
                ops,
                ns: &mut self.ns,
                rng: &mut user.rng,
                cfg: &self.cfg,
                now,
                user: user.id,
                client: user.home_client,
                pid: Pid(0),
                migrated: false,
                io_scale: 1.0,
            };
            for pid in bg_pids {
                ctx.exit_background(pid);
            }
            if ctx.rng.chance(0.3) {
                let pages = ctx.rng.range(16, 128);
                ctx.backing_io(backing, pages * 4096);
            }
            now = ctx.now;
        }
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfs_simkit::{FastMap, FastSet};
    use sdfs_spritefs::ops::OpKind;

    #[test]
    fn day_is_sorted_and_nonempty() {
        let mut gen = Generator::new(WorkloadConfig::small());
        let ops: Vec<AppOp> = gen.generate_day(0).collect();
        assert!(ops.len() > 100, "got {} ops", ops.len());
        for w in ops.windows(2) {
            assert!(w[0].time <= w[1].time, "unsorted ops");
        }
    }

    #[test]
    fn day_boundaries_respected() {
        let mut gen = Generator::new(WorkloadConfig::small());
        let end0 = gen.generate_day(0).last().expect("day 0 ops").time;
        let start1 = gen.generate_day(1).next().expect("day 1 ops").time;
        assert!(end0 < SimTime::from_secs(86_400), "day 0 spills over");
        assert!(start1 >= SimTime::from_secs(86_400), "day 1 starts early");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Generator::new(WorkloadConfig::small());
        let mut b = Generator::new(WorkloadConfig::small());
        assert!(a.generate_day(0).eq(b.generate_day(0)));
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = WorkloadConfig::small();
        let mut a = Generator::new(cfg.clone());
        cfg.seed ^= 0xFFFF;
        let mut b = Generator::new(cfg);
        assert!(a.generate_day(0).ne(b.generate_day(0)));
    }

    #[test]
    fn heavy_sim_adds_big_reads() {
        let mut cfg = WorkloadConfig::small();
        cfg.heavy_sim = true;
        let mut gen = Generator::new(cfg);
        let big_read = gen.generate_day(0).any(|o| match o.kind {
            OpKind::Read { len, .. } => len >= (20 << 20) / 8,
            _ => false,
        });
        assert!(big_read, "no 20 MB-input chunk reads found");
    }

    #[test]
    fn clients_stay_in_range() {
        let cfg = WorkloadConfig::small();
        let n = cfg.num_clients;
        let mut gen = Generator::new(cfg);
        assert!(gen.generate_day(0).all(|o| o.client.raw() < n));
    }

    #[test]
    fn handles_are_unique_per_open() {
        let mut gen = Generator::new(WorkloadConfig::small());
        let mut seen = FastSet::default();
        for op in gen.generate_day(0) {
            if let OpKind::Open { fd, .. } = op.kind {
                assert!(seen.insert(fd), "handle {fd} reused");
            }
        }
    }

    #[test]
    fn daemon_runs_around_the_clock() {
        let mut gen = Generator::new(WorkloadConfig::small());
        let daemon_user = UserId(WorkloadConfig::small().num_users);
        let daemon_ops: Vec<AppOp> = gen
            .generate_day(0)
            .filter(|o| o.user == daemon_user)
            .collect();
        assert!(!daemon_ops.is_empty(), "daemon activity exists");
        // It spans the whole day (first hour and last hour).
        let first = daemon_ops.first().expect("ops").time;
        let last = daemon_ops.last().expect("ops").time;
        assert!(first < SimTime::from_secs(2 * 3600));
        assert!(last > SimTime::from_secs(22 * 3600));
    }

    #[test]
    fn background_processes_start_and_exit_in_pairs() {
        let mut gen = Generator::new(WorkloadConfig::small());
        let mut live: FastMap<(u16, u32), u32> = FastMap::default();
        for op in gen.generate_day(0) {
            match op.kind {
                OpKind::ProcStart { .. } => {
                    *live.entry((op.client.raw(), op.pid.raw())).or_insert(0) += 1;
                }
                OpKind::ProcExit => {
                    let e = live
                        .get_mut(&(op.client.raw(), op.pid.raw()))
                        .expect("exit without start");
                    *e -= 1;
                }
                _ => {}
            }
        }
        let dangling: u32 = live.values().sum();
        assert_eq!(dangling, 0, "every process exits by end of day");
    }

    #[test]
    fn multi_day_generation_keeps_namespace_consistent() {
        let mut gen = Generator::new(WorkloadConfig::small());
        let mut created: FastSet<u64> = gen
            .preload_list()
            .iter()
            .map(|&(f, _, _)| f.raw())
            .collect();
        for day in 0..3 {
            for op in gen.generate_day(day) {
                match op.kind {
                    OpKind::Create { file, .. } => {
                        created.insert(file.raw());
                    }
                    OpKind::Delete { file } => {
                        assert!(
                            created.remove(&file.raw()),
                            "day {day}: delete of never-created {file}"
                        );
                    }
                    OpKind::Open { file, .. } => {
                        assert!(
                            created.contains(&file.raw()),
                            "day {day}: open of missing {file}"
                        );
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn preload_covers_initial_files() {
        let gen = Generator::new(WorkloadConfig::small());
        let preload = gen.preload_list();
        assert!(!preload.is_empty());
        // Preloaded ids must be unique.
        let mut ids: Vec<_> = preload.iter().map(|p| p.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), preload.len());
    }

    /// One day's streams as generated, unsorted, laid end to end:
    /// stream `s` starts at `starts[s]` and ends where the next starts.
    fn streams_end_to_end(gen: &mut Generator, day: u32) -> (Vec<AppOp>, Vec<usize>) {
        let mut ops = Vec::new();
        let mut starts = Vec::new();
        gen.generate_streams(day, |stream| {
            starts.push(ops.len());
            ops.extend_from_slice(stream);
        });
        (ops, starts)
    }

    /// `ops` cut at `starts`, encoded stream by stream as `generate_day`
    /// does, and merged.
    fn encode_and_merge(mut ops: Vec<AppOp>, starts: &[usize]) -> DayOps {
        let mut encoder = DayEncoder::default();
        let ends = starts.iter().skip(1).copied().chain([ops.len()]);
        for (&start, end) in starts.iter().zip(ends) {
            encoder.push_stream(&mut ops[start..end]);
        }
        encoder.finish()
    }

    /// Ops tagged with their stream, in the reference order: every
    /// stream concatenated, then stably sorted by time (the global sort
    /// `generate_day` replaced).
    fn reference_order(ops: Vec<AppOp>, starts: &[usize]) -> Vec<(usize, AppOp)> {
        let stream_of = |i: usize| starts.partition_point(|&s| s <= i) - 1;
        let mut tagged: Vec<(usize, AppOp)> = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| (stream_of(i), op))
            .collect();
        tagged.sort_by_key(|(_, op)| op.time);
        tagged
    }

    /// Adjacent reference-order pairs at one time from two streams: the
    /// ties the merge must resolve to the earlier stream.
    fn cross_stream_ties(tagged: &[(usize, AppOp)]) -> usize {
        tagged
            .windows(2)
            .filter(|w| w[0].1.time == w[1].1.time && w[0].0 != w[1].0)
            .count()
    }

    #[test]
    fn streamed_day_equals_a_stable_sort_of_the_whole_day() {
        let mut ties = 0;
        for heavy_sim in [false, true] {
            for seed in [0x5DF5, 0x1991] {
                let cfg = WorkloadConfig {
                    heavy_sim,
                    seed,
                    ..WorkloadConfig::small()
                };
                let mut streamed = Generator::new(cfg.clone());
                let mut reference = Generator::new(cfg);
                for day in 0..3 {
                    let got: Vec<AppOp> = streamed.generate_day(day).collect();
                    let (ops, starts) = streams_end_to_end(&mut reference, day);
                    let want = reference_order(ops, &starts);
                    ties += cross_stream_ties(&want);
                    assert!(
                        got.iter().eq(want.iter().map(|(_, op)| op)),
                        "heavy_sim {heavy_sim}, seed {seed:#x}, day {day}: merge order differs"
                    );
                }
            }
        }
        assert!(ties > 0, "the sample must tie times across streams");
    }

    #[test]
    fn merge_breaks_time_ties_by_stream_then_position() {
        // Three streams, each out of order, with equal times within and
        // across streams; `pid` records each op's place in the buffer.
        let times = [5, 3, 5, 3, 3, 5, 1, 5, 3, 3];
        let starts = [0, 4, 7];
        let ops: Vec<AppOp> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| AppOp {
                time: SimTime::from_secs(t),
                client: ClientId(0),
                user: UserId(0),
                pid: Pid(i as u32),
                migrated: false,
                kind: OpKind::ProcExit,
            })
            .collect();
        let got: Vec<u32> = encode_and_merge(ops.clone(), &starts)
            .map(|op| op.pid.raw())
            .collect();
        let want = reference_order(ops, &starts);
        assert!(cross_stream_ties(&want) > 0);
        assert_eq!(
            got,
            want.iter().map(|(_, op)| op.pid.raw()).collect::<Vec<_>>()
        );
        assert_eq!(got, [6, 1, 3, 4, 8, 9, 0, 2, 5, 7]);
    }

    /// A day cloned part way resumes exactly where it was taken, and
    /// `len()` counts down by one per op: a run and its replay (BenchKit,
    /// `examples/pmake_burst.rs`) read the length and clone the day.
    #[test]
    fn a_day_cloned_mid_day_resumes_identically() {
        let mut gen = Generator::new(WorkloadConfig::small());
        let mut day = gen.generate_day(0);
        let total = day.len();
        let mut taken = Vec::with_capacity(total);
        let mut rest = Vec::new();
        while let Some(op) = day.next() {
            taken.push(op);
            assert_eq!(day.len(), total - taken.len());
            if taken.len() == total / 3 {
                rest = day.clone().collect();
            }
        }
        assert!(total > 100 && rest.len() == total - total / 3);
        assert_eq!(rest, taken[total / 3..]);
    }

    /// A paper-scale day (trace 0 of the eight) is held in at most 16
    /// bytes per op, against 64 for an `AppOp`, in a buffer trimmed to
    /// what it holds.
    #[test]
    fn a_paper_day_encodes_in_at_most_16_bytes_per_op() {
        let base = WorkloadConfig::default();
        let spec = crate::TraceSpec::paper_eight(base.seed)[0];
        let mut gen = Generator::new(base.for_trace(spec));
        let mut encoder = DayEncoder::default();
        let mut ops = 0;
        gen.generate_streams(0, |stream| {
            ops += stream.len();
            encoder.push_stream(stream);
        });
        let bytes = encoder.seal().0;
        assert!(ops > 300_000, "a paper day, not {ops} ops");
        assert!(
            bytes.len() <= 16 * ops,
            "{} bytes for {ops} ops",
            bytes.len()
        );
        assert_eq!(bytes.capacity(), bytes.len(), "spare buffer capacity");
    }
}
