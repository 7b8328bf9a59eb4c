//! Synthetic workload generation for the SDFS study.
//!
//! The original study traced ~70 real users on the Berkeley Sprite
//! cluster for eight 24-hour periods. Those traces no longer exist, so
//! this crate synthesizes a workload with the same *structure*: four user
//! groups (operating systems, architecture/I-O simulation, VLSI/parallel
//! processing, and miscellaneous), the applications the paper names
//! (interactive editors, program development with `pmake` and process
//! migration, electronic mail, document production, and multi-megabyte
//! simulations), diurnal sessions, and heavy-tailed file sizes.
//!
//! The generator emits the application-level operation stream
//! (`sdfs_spritefs::AppOp`) that the cluster simulator executes. Every
//! distributional *shape* the paper reports — small files dominating
//! accesses while large files dominate bytes, sequential whole-file
//! access, sub-second opens, short lifetimes, migration bursts,
//! infrequent-but-real write sharing — should emerge from these models
//! rather than being painted on afterwards.
//!
//! Determinism: the generator is a pure function of
//! [`config::WorkloadConfig`] (including its seed). Day-by-day generation
//! ([`gen::Generator::generate_day`]) keeps memory bounded for the
//! two-week counter runs. Each user's day, and the housekeeping daemon's,
//! is generated into one reused buffer, sorted on its own and appended
//! to one shared byte buffer ([`codec`]: about 6 bytes an operation,
//! against 64 for an `AppOp`). The day's [`gen::DayOps`] is
//! simkit's one k-way merge ([`sdfs_simkit::MergeSorted`]) over a
//! decoder per stream, which yields the operations in time order as the
//! cluster takes them, in exactly the order a stable sort of the whole
//! day would give.

pub mod apps;
pub mod codec;
pub mod config;
pub mod gen;
pub mod namespace;
pub mod user;

pub use config::{TraceSpec, WorkloadConfig};
pub use gen::Generator;
