//! A discrete-event simulator of the Sprite distributed file system.
//!
//! This crate models the system measured by Baker et al. (SOSP 1991): a
//! cluster of diskless client workstations and a handful of file servers
//! sharing a single file hierarchy. The pieces that shaped the paper's
//! results are all here:
//!
//! * **Client block caches** ([`cache`]) — 4-Kbyte blocks, LRU
//!   replacement, and *dynamic sizing*: the file cache and the virtual
//!   memory system trade physical pages, with VM receiving preference (a
//!   VM page cannot be taken by the file cache until it has been
//!   unreferenced for 20 minutes).
//! * **Delayed writes** ([`cluster`]) — dirty blocks are written back by a
//!   daemon that runs every 5 seconds and cleans blocks once any block of
//!   the file has been dirty for 30 seconds; `fsync` forces write-through.
//! * **Cache consistency** ([`server`], [`config::ConsistencyPolicy`]) —
//!   version stamps on open, server recall of dirty data from the last
//!   writer, and cache disabling under concurrent write-sharing, plus the
//!   two alternatives the paper simulates (a modified-Sprite scheme and a
//!   token scheme) and an NFS-style polling mode.
//! * **Virtual memory paging** ([`vm`]) — code, initialized-data, and
//!   backing-file page classes; code pages are retained after exit and
//!   re-used by new invocations; backing files are never cached on
//!   clients.
//! * **Process migration** — migrated work is attributed and counted
//!   separately throughout, enabling the paper's migrated-vs-all
//!   comparisons.
//!
//! The simulator consumes a time-ordered stream of application-level
//! operations ([`ops::AppOp`], produced by `sdfs-workload`), executes them
//! against the cluster state, emits kernel-call trace records
//! (`sdfs-trace`) on the server that owns each file, and maintains the
//! per-machine counters behind Tables 4–9 of the paper.

pub mod cache;
pub mod client;
pub mod cluster;
pub mod config;
pub mod fs;
pub mod metrics;
pub mod obs;
pub mod ops;
pub mod rpc;
pub mod sanitizer;
pub mod server;
pub mod vm;

pub use cluster::{Cluster, FastPathStats, TraceSink, VecSink};
pub use config::{Config, ConsistencyPolicy, FaultPlan, Partition, ServerOutage};
pub use metrics::SanitizerStats;
pub use obs::{Obs, ObsEventKind, ObsReport, SpanKind};
pub use ops::{AppOp, OpKind, PageClass};
