//! Self-measurement primitives: span aggregates over [`SimDuration`]s.
//!
//! The observability layer (`sdfs-obs`) is always compiled but
//! off-by-default; when enabled it keeps per-kind counts, histograms
//! and these span aggregates. Everything here is deterministic: no
//! wall-clock reads, no OS entropy, no iteration over unordered maps.

use crate::time::SimDuration;

/// Aggregate statistics for one span kind: how many spans closed, their
/// total duration, and the longest one. Durations are in simulated
/// microseconds; merge is exact integer addition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of spans recorded.
    pub count: u64,
    /// Sum of span durations in microseconds (saturating).
    pub total_us: u64,
    /// Longest recorded span in microseconds.
    pub max_us: u64,
}

impl SpanStat {
    /// Records one closed span.
    #[inline]
    pub fn record(&mut self, d: SimDuration) {
        let us = d.as_micros();
        self.count += 1;
        self.total_us = self.total_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Merges another aggregate into this one (exact).
    pub fn merge(&mut self, other: &SpanStat) {
        self.count += other.count;
        self.total_us = self.total_us.saturating_add(other.total_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Mean span duration in microseconds, or 0 if empty.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_stat_record_and_merge() {
        let mut a = SpanStat::default();
        a.record(SimDuration::from_micros(10));
        a.record(SimDuration::from_micros(30));
        let mut b = SpanStat::default();
        b.record(SimDuration::from_micros(50));
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.total_us, 90);
        assert_eq!(a.max_us, 50);
        assert!((a.mean_us() - 30.0).abs() < 1e-12);
    }
}
