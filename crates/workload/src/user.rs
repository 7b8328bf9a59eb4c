//! The user population: groups, per-user files, and session scheduling.
//!
//! Section 2 of the paper: "The users fall into four groups of roughly
//! the same size: operating system researchers, architecture researchers
//! working on the design and simulation of new I/O subsystems, a group of
//! students and faculty working on VLSI circuit design and parallel
//! processing, and a collection of miscellaneous other people including
//! administrators and graphics researchers."

use sdfs_simkit::{SimRng, SimTime};
use sdfs_trace::{ClientId, FileId, UserId};

use crate::config::{SESSIONS_PER_DAY, SESSION_HOURS};
use crate::namespace::Namespace;

/// The four user groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Group {
    /// Operating system researchers (kernel development, big binaries).
    Os,
    /// Architecture researchers simulating I/O subsystems (large
    /// simulation inputs and outputs).
    Arch,
    /// VLSI circuit design and parallel processing (parallel simulation
    /// sweeps via pmake).
    Vlsi,
    /// Administrators, graphics researchers, and other miscellaneous
    /// users (mail- and document-heavy).
    Misc,
}

impl Group {
    /// Assigns user `i` to a group, round-robin (groups were of roughly
    /// equal size).
    pub fn of(i: u32) -> Group {
        match i % 4 {
            0 => Group::Os,
            1 => Group::Arch,
            2 => Group::Vlsi,
            _ => Group::Misc,
        }
    }
}

/// A user's personal files.
#[derive(Debug, Clone)]
pub struct UserFiles {
    /// Home directory.
    pub home_dir: FileId,
    /// Source files (.c/.h-like, small).
    pub sources: Vec<FileId>,
    /// Object files, parallel to `sources` (created by compiles).
    pub objects: Vec<Option<FileId>>,
    /// Documents (papers, notes).
    pub docs: Vec<FileId>,
    /// The mailbox (append-heavy, seek-heavy).
    pub mailbox: FileId,
    /// The program binary this user builds (can grow to megabytes).
    pub binary: FileId,
    /// This user's simulation input files, cycled across runs (empty
    /// for groups that do not simulate). Large inputs bust the cache.
    pub sim_inputs: Vec<FileId>,
    /// Index of the next input to use.
    pub sim_cursor: usize,
    /// The most recent editor backup file (deleted at the next save, so
    /// backups live minutes, not seconds).
    pub last_backup: Option<FileId>,
}

/// One user.
#[derive(Debug)]
pub struct User {
    /// Identity.
    pub id: UserId,
    /// The workstation this user sits at.
    pub home_client: ClientId,
    /// Group membership.
    pub group: Group,
    /// Whether this user is a day-to-day regular.
    pub regular: bool,
    /// Whether this user is one of the heavy simulation users of traces
    /// 3–4.
    pub heavy_sim: bool,
    /// Whether this user's pmake setup uses process migration.
    pub uses_migration: bool,
    /// Whether this user participates in the group's shared database
    /// and notes (sharing was concentrated in part of the population).
    pub uses_db: bool,
    /// The idle hosts this user's migrated jobs prefer (host selection
    /// "tends to reuse the same hosts over and over", which is what keeps
    /// migrated cache hit ratios high).
    pub migration_hosts: Vec<ClientId>,
    /// Personal files.
    pub files: UserFiles,
    /// Private randomness stream.
    pub rng: SimRng,
}

/// Builds a user's personal files (all preloaded: they predate the
/// trace).
pub fn build_user_files(ns: &mut Namespace, rng: &mut SimRng, group: Group) -> UserFiles {
    let home_dir = ns.alloc(rng.range(3_000, 9_000), true, true);
    let n_sources = rng.range(8, 40) as usize;
    let sources = (0..n_sources)
        .map(|_| {
            // Log-normal-ish source sizes: median ~4 KB, tail to ~100 KB.
            let size = sample_small_size(rng);
            ns.alloc(size, false, true)
        })
        .collect::<Vec<_>>();
    let objects = vec![None; n_sources];
    let n_docs = rng.range(3, 12) as usize;
    let docs = (0..n_docs)
        .map(|_| ns.alloc(rng.range(2_000, 30_000), false, true))
        .collect();
    let mailbox = ns.alloc(rng.range(20_000, 500_000), false, true);
    let binary = ns.alloc(rng.range(100_000, 2_000_000), false, true);
    let sim_inputs = match group {
        Group::Arch | Group::Vlsi => {
            // Several simulation inputs, hundreds of Kbytes to 8 Mbytes;
            // cycling through them is what keeps cache miss ratios high
            // despite multi-megabyte caches (Section 5.2).
            let n = rng.range(2, 5) as usize;
            (0..n)
                .map(|_| ns.alloc(rng.range(200_000, 5_000_000), false, true))
                .collect()
        }
        _ => Vec::new(),
    };
    UserFiles {
        home_dir,
        sources,
        objects,
        docs,
        mailbox,
        binary,
        sim_inputs,
        sim_cursor: 0,
        last_backup: None,
    }
}

/// Samples a "small file" size: the body of the paper's Figure 2 (most
/// accessed files are a few kilobytes).
pub fn sample_small_size(rng: &mut SimRng) -> u64 {
    // Log-normal with median 3 KB and a wide shape.
    let x = (2_500.0_f64.ln() + 1.3 * rng.normal()).exp();
    (x as u64).clamp(64, 400_000)
}

/// One work session: the user is at the machine from `start` for
/// `len_secs`.
#[derive(Debug, Clone, Copy)]
pub struct Session {
    /// Session start time within the day.
    pub start: SimTime,
    /// Session length in seconds.
    pub len_secs: f64,
}

/// Schedules a user's sessions for one day with a diurnal shape: most
/// sessions start mid-morning or early afternoon, a few in the evening.
pub fn schedule_sessions(rng: &mut SimRng) -> Vec<Session> {
    let mut sessions = Vec::new();
    // Poisson-ish count with the configured mean.
    let mut expected = SESSIONS_PER_DAY;
    while expected > 0.0 {
        if rng.f64() < expected.min(1.0) {
            let peak = rng.pick_weighted(&[0.55, 0.33, 0.12]);
            let center_h = match peak {
                0 => 10.5,
                1 => 14.5,
                _ => 20.0,
            };
            // Keep sessions clear of midnight so a burst that slightly
            // overruns its session still lands inside this day's trace
            // (day batches must stay time-ordered).
            let start_h = (center_h + rng.normal() * 1.4).clamp(0.2, 22.0);
            let len_h = (SESSION_HOURS * (0.3 + 1.4 * rng.f64())).max(0.2);
            let len_secs = (len_h * 3600.0).min((23.2 - start_h) * 3600.0);
            if len_secs > 60.0 {
                sessions.push(Session {
                    start: SimTime::from_secs_f64(start_h * 3600.0),
                    len_secs,
                });
            }
        }
        expected -= 1.0;
    }
    sessions.sort_by_key(|s| s.start);
    sessions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_round_robin() {
        assert_eq!(Group::of(0), Group::Os);
        assert_eq!(Group::of(1), Group::Arch);
        assert_eq!(Group::of(2), Group::Vlsi);
        assert_eq!(Group::of(3), Group::Misc);
        assert_eq!(Group::of(4), Group::Os);
    }

    #[test]
    fn user_files_are_preloaded() {
        let mut ns = Namespace::new();
        let mut rng = SimRng::seed_from_u64(7);
        let files = build_user_files(&mut ns, &mut rng, Group::Arch);
        assert!(!files.sources.is_empty());
        assert!(!files.sim_inputs.is_empty());
        assert_eq!(ns.preload_list().len(), ns.len());
        // All source sizes are plausible small files.
        for &s in &files.sources {
            let size = ns.size(s);
            assert!((64..=400_000).contains(&size));
        }
    }

    #[test]
    fn misc_group_has_no_sim_input() {
        let mut ns = Namespace::new();
        let mut rng = SimRng::seed_from_u64(8);
        let files = build_user_files(&mut ns, &mut rng, Group::Misc);
        assert!(files.sim_inputs.is_empty());
    }

    #[test]
    fn small_sizes_are_mostly_small() {
        let mut rng = SimRng::seed_from_u64(3);
        let n = 10_000;
        let small = (0..n)
            .filter(|_| sample_small_size(&mut rng) < 10_000)
            .count();
        let frac = small as f64 / n as f64;
        assert!(frac > 0.6, "small-file fraction {frac}");
    }

    #[test]
    fn sessions_fit_in_day() {
        let mut rng = SimRng::seed_from_u64(11);
        let midnight = SimTime::from_secs(24 * 3600);
        for _ in 0..200 {
            for s in schedule_sessions(&mut rng) {
                let end = s.start + sdfs_simkit::SimDuration::from_secs_f64(s.len_secs);
                assert!(end <= midnight, "session past midnight");
                assert!(s.len_secs > 0.0);
            }
        }
    }
}
