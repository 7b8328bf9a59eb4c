//! Simulation substrate for the SDFS study.
//!
//! This crate provides the building blocks shared by every other crate in
//! the workspace:
//!
//! * [`SimTime`] and [`SimDuration`] — a microsecond-resolution simulated
//!   clock (the study spans multi-day traces, so `u64` microseconds gives
//!   over half a million years of headroom).
//! * [`SimRng`] — a seeded random-number generator; the workload
//!   generator draws sizes and think times from it directly, and file
//!   popularity from the [`dist`] module's Zipf.
//! * [`stats`] — streaming summaries (Welford), log-bucketed histograms,
//!   and weighted CDFs used to build the paper's figures.
//! * [`counters`] — named counter sets mirroring Sprite's ~50 kernel
//!   counters.
//! * [`MergeSorted`] — the one deterministic k-way merge of sorted
//!   streams, lazy, over streams laid end to end in one buffer.
//!
//! Everything here is deterministic given a seed: no wall-clock time, no
//! global state, no threads.

pub mod counters;
pub mod dist;
pub mod hash;
pub mod merge;
pub mod rng;
pub mod stats;
pub mod time;

pub use counters::CounterSet;
pub use hash::{FastMap, FastSet};
pub use merge::MergeSorted;
pub use rng::SimRng;
pub use stats::{LogHistogram, Summary, WeightedCdf};
pub use time::{SimDuration, SimTime};
