//! The measurement study of Baker et al. (SOSP 1991), reproduced.
//!
//! This crate is the paper: given traces and counters from the simulated
//! Sprite cluster, it computes every table and figure of the original
//! study.
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Table 1 — overall trace statistics | `sdfs_trace::stats` (re-exported via [`study`]) |
//! | Table 2 — user activity | [`activity`] |
//! | Table 3 — file access patterns | [`patterns`] |
//! | Figure 1 — sequential run lengths | [`figures`] |
//! | Figure 2 — dynamic file sizes | [`figures`] |
//! | Figure 3 — file open times | [`figures`] |
//! | Figure 4 — file lifetimes | [`figures`] |
//! | Tables 4–9 — cache behaviour | [`cache_tables`] |
//! | Table 10 — consistency actions | [`consistency`] |
//! | Table 11 — stale data under polling | [`staleness`] |
//! | Table 12 — consistency algorithm overhead | [`overhead`] |
//!
//! [`study::Study`] wires the full pipeline: synthesize workload → run the
//! cluster → merge per-server traces → analyze. [`report`] renders
//! paper-style tables with the original numbers alongside for comparison.

pub mod access;
pub mod activity;
pub mod bsd;
pub mod cache_tables;
pub mod check;
pub mod consistency;
pub mod extensions;
pub mod figures;
pub mod fused;
pub mod latency;
pub mod overhead;
pub mod patterns;
pub mod recovery;
pub mod report;
pub mod selftrace;
pub mod staleness;
pub mod study;

pub use study::{Study, StudyConfig, StudyResults};
