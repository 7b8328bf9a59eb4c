//! Discrete-event simulation substrate for the SDFS study.
//!
//! This crate provides the building blocks shared by every other crate in
//! the workspace:
//!
//! * [`SimTime`] and [`SimDuration`] — a microsecond-resolution simulated
//!   clock (the study spans multi-day traces, so `u64` microseconds gives
//!   over half a million years of headroom).
//! * [`EventQueue`] — a deterministic priority queue of timestamped events
//!   with FIFO tie-breaking.
//! * [`SimRng`] and the [`dist`] module — a seeded random-number generator
//!   plus the distributions the workload generator needs (log-normal,
//!   bounded Pareto, Zipf, empirical CDFs, exponential).
//! * [`stats`] — streaming summaries (Welford), log-spaced histograms, and
//!   weighted CDFs used to build the paper's figures.
//! * [`counters`] — named counter sets mirroring Sprite's ~50 kernel
//!   counters.
//! * [`merge_sorted_by`] — a deterministic k-way merge of sorted streams.
//! * [`obs`] — self-measurement primitives: span aggregates over
//!   simulated durations.
//!
//! Everything here is deterministic given a seed: no wall-clock time, no
//! global state, no threads.

pub mod counters;
pub mod dist;
pub mod hash;
pub mod merge;
pub mod obs;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use counters::CounterSet;
pub use hash::{FastMap, FastSet};
pub use merge::merge_sorted_by;
pub use obs::SpanStat;
pub use queue::EventQueue;
pub use rng::SimRng;
pub use stats::{Histogram, LogHistogram, Summary, WeightedCdf};
pub use time::{SimDuration, SimTime};
