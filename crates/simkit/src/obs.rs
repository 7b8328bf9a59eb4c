//! Self-measurement primitives: a fixed-capacity structured-event ring
//! and span aggregates, all stamped with [`SimTime`] only.
//!
//! The observability layer (`sdfs-obs`) is always compiled but
//! off-by-default; when enabled it records compact POD events into a
//! pre-allocated ring (`push` never allocates — the ring overwrites its
//! oldest entry once full and counts what it dropped) plus aggregate
//! span statistics. Everything here is deterministic: no wall-clock
//! reads, no OS entropy, no iteration over unordered maps. Event kinds
//! are plain `u8` codes so this crate stays ignorant of the file-system
//! vocabulary defined one layer up in `spritefs::obs`.

use crate::time::{SimDuration, SimTime};

/// One structured observability event: a sim-time stamp, a kind code
/// (assigned by the layer that owns the vocabulary), source/destination
/// machine ids, and one kind-specific argument (bytes, microseconds,
/// retry count, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsEvent {
    /// Simulated time at which the event occurred.
    pub time: SimTime,
    /// Kind code; the vocabulary lives in the instrumenting crate.
    pub kind: u8,
    /// Source machine id (client index, usually).
    pub src: u16,
    /// Destination machine id (server index, usually).
    pub dst: u16,
    /// Kind-specific argument.
    pub arg: u64,
}

/// A fixed-capacity overwrite-oldest ring of [`ObsEvent`]s.
///
/// The buffer is allocated once at construction; the hot-path `push` is
/// an indexed store plus two counter bumps. When the ring wraps, the
/// oldest events are overwritten and [`EventRing::dropped`] counts how
/// many were lost — analysis can always tell whether it is looking at a
/// complete event stream or a suffix.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: Vec<ObsEvent>,
    capacity: usize,
    next: usize,
    recorded: u64,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventRing {
            buf: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            recorded: 0,
        }
    }

    /// Appends an event, overwriting the oldest once the ring is full.
    #[inline]
    pub fn push(&mut self, ev: ObsEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
        }
        self.next = (self.next + 1) % self.capacity;
        self.recorded += 1;
    }

    /// Total events ever pushed (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events lost to overwriting (`recorded - len`).
    pub fn dropped(&self) -> u64 {
        self.recorded - self.buf.len() as u64
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates retained events oldest → newest.
    pub fn iter_in_order(&self) -> impl Iterator<Item = &ObsEvent> {
        let split = if self.buf.len() < self.capacity {
            0
        } else {
            self.next
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }
}

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

    fn ev(t: u64, kind: u8) -> ObsEvent {
        ObsEvent {
            time: SimTime::from_micros(t),
            kind,
            src: 1,
            dst: 2,
            arg: t * 10,
        }
    }

    #[test]
    fn ring_retains_newest_and_counts_drops() {
        let mut r = EventRing::with_capacity(4);
        for t in 0..10u64 {
            r.push(ev(t, 0));
        }
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        let times: Vec<u64> = r.iter_in_order().map(|e| e.time.as_micros()).collect();
        assert_eq!(times, vec![6, 7, 8, 9]);
    }

    #[test]
    fn ring_under_capacity_in_order() {
        let mut r = EventRing::with_capacity(8);
        for t in 0..3u64 {
            r.push(ev(t, 1));
        }
        assert_eq!(r.dropped(), 0);
        let times: Vec<u64> = r.iter_in_order().map(|e| e.time.as_micros()).collect();
        assert_eq!(times, vec![0, 1, 2]);
    }

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
