//! Fused single-pass trace analysis.
//!
//! The separate analyses ([`crate::study::Study::analyze_trace_separate`])
//! each scan the whole record stream: Table 1 stats, Table 2 activity,
//! Table 3 patterns, Figures 1–4, Table 10 consistency, two Table 11
//! polling simulations, and three Table 12 overhead simulations — and
//! three of them (Table 3 and Figures 1–3 via `reconstruct`) repeat the
//! open/close access reconstruction. [`FusedAnalyzer`] dispatches each
//! record once to every consumer and fans completed accesses out from a
//! single shared [`AccessScanner`], so the stream is walked once and the
//! reconstruction runs once.
//!
//! Every consumer is the *same* streaming state machine the standalone
//! entry points delegate to, fed records (and accesses) in the same
//! order, so the fused results are identical — bit-for-bit, including
//! floating-point summaries — to the separate passes. The equivalence
//! regression test in `tests/equivalence.rs` checks this end to end on
//! rendered output.
//!
//! [`FusedSink`] runs the same pass while the cluster simulates, so the
//! study never materialises a trace: it receives each record as a server
//! logs it and feeds the analyzer in the order
//! [`sdfs_trace::merge::merge_vecs`] would have produced.

use sdfs_simkit::SimDuration;
use sdfs_spritefs::TraceSink;
use sdfs_trace::{Record, ServerId, TraceStatsBuilder};
use sdfs_workload::TraceSpec;

use crate::access::AccessScanner;
use crate::activity::Table2Accumulator;
use crate::consistency::Table10Builder;
use crate::figures::FiguresAccumulator;
use crate::overhead::Table12Builder;
use crate::patterns::AccessPatterns;
use crate::staleness::{PollingSim, Table11};
use crate::study::TraceAnalysis;

/// Single-pass driver: every trace-driven analysis registered on one
/// record stream.
#[derive(Debug)]
pub struct FusedAnalyzer {
    stats: TraceStatsBuilder,
    activity: Table2Accumulator,
    scanner: AccessScanner,
    patterns: AccessPatterns,
    figures: FiguresAccumulator,
    table10: Table10Builder,
    sixty: PollingSim,
    three: PollingSim,
    table12: Table12Builder,
}

impl FusedAnalyzer {
    /// Creates a driver with every consumer registered.
    pub fn new() -> Self {
        FusedAnalyzer {
            stats: TraceStatsBuilder::new(),
            activity: Table2Accumulator::new(),
            scanner: AccessScanner::new(),
            patterns: AccessPatterns::default(),
            figures: FiguresAccumulator::new(),
            table10: Table10Builder::new(),
            sixty: PollingSim::new(SimDuration::from_secs(60)),
            three: PollingSim::new(SimDuration::from_secs(3)),
            table12: Table12Builder::new(),
        }
    }

    /// Dispatches one record to every consumer. Completed accesses fan
    /// out to the access-level consumers in close-completion order — the
    /// same order `reconstruct` emits.
    pub fn record(&mut self, rec: &Record) {
        self.stats.record(rec);
        self.activity.record(rec);
        self.figures.record(rec);
        self.table10.record(rec);
        self.sixty.record(rec);
        self.three.record(rec);
        self.table12.record(rec);
        if let Some(access) = self.scanner.record(rec) {
            self.patterns.add(&access);
            self.figures.access(&access);
        }
    }

    /// Finalizes every consumer into `spec`'s analysis, with no
    /// verdicts attached.
    pub fn finish(self, spec: TraceSpec) -> TraceAnalysis {
        TraceAnalysis {
            spec,
            stats: self.stats.finish(),
            activity: self.activity.finish(),
            patterns: self.patterns,
            figures: self.figures.finish(),
            table10: self.table10.finish(),
            table11: Table11 {
                sixty: self.sixty.finish(),
                three: self.three.finish(),
            },
            table12: self.table12.finish(),
            sanitizer: None,
            obs: None,
        }
    }

    /// Runs the fused pass over `spec`'s full record stream.
    pub fn analyze(spec: TraceSpec, records: &[Record]) -> TraceAnalysis {
        let mut fused = FusedAnalyzer::new();
        for rec in records {
            fused.record(rec);
        }
        fused.finish(spec)
    }
}

impl Default for FusedAnalyzer {
    fn default() -> Self {
        FusedAnalyzer::new()
    }
}

/// A [`TraceSink`] that analyzes records as the cluster emits them.
///
/// `merge_vecs` orders the per-server streams by time, then by server,
/// then by each server's emission order. The cluster emits records in
/// non-decreasing time across all servers, so that order is the emission
/// order with each timestamp's records stably sorted by server. The sink
/// therefore holds only the records of the current timestamp (at most 4
/// at paper scale) and releases them to [`FusedAnalyzer::record`], stably
/// sorted by server, when a later timestamp arrives or at
/// [`FusedSink::finish`].
///
/// # Panics
///
/// [`TraceSink::emit`] panics, in release builds too, on a record
/// earlier than the held timestamp: the stream would no longer be the
/// merged trace, and every analysis downstream would be wrong.
#[derive(Debug, Default)]
pub struct FusedSink {
    analyzer: FusedAnalyzer,
    /// The current timestamp's records, in emission order.
    held: Vec<(ServerId, Record)>,
}

impl FusedSink {
    /// Creates a sink feeding a fresh [`FusedAnalyzer`].
    pub fn new() -> Self {
        FusedSink::default()
    }

    fn release(&mut self) {
        self.held.sort_by_key(|(server, _)| server.raw());
        for (_, rec) in self.held.drain(..) {
            self.analyzer.record(&rec);
        }
    }

    /// Releases the held records and finalizes every consumer into
    /// `spec`'s analysis, with no verdicts attached.
    pub fn finish(mut self, spec: TraceSpec) -> TraceAnalysis {
        self.release();
        self.analyzer.finish(spec)
    }
}

impl TraceSink for FusedSink {
    fn emit(&mut self, server: ServerId, rec: Record) {
        if let Some((_, first)) = self.held.first() {
            let held = first.time;
            assert!(
                rec.time >= held,
                "record at {} emitted after one at {held}: the cluster must emit in time order",
                rec.time
            );
            if rec.time > held {
                self.release();
            }
        }
        self.held.push((server, rec));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfs_simkit::SimTime;
    use sdfs_trace::merge::merge_vecs;
    use sdfs_trace::{ClientId, FileId, Handle, OpenMode, Pid, RecordKind, UserId};

    const SPEC: TraceSpec = TraceSpec {
        seed: 7,
        heavy_sim: false,
    };

    /// A small hand-rolled trace exercising every record kind.
    fn sample_trace() -> Vec<Record> {
        let rec = |t: u64, client: u16, kind: RecordKind| Record {
            time: SimTime::from_secs(t),
            client: ClientId(client),
            user: UserId(client as u32 + 1),
            pid: Pid(0),
            migrated: client == 1,
            kind,
        };
        vec![
            rec(
                0,
                0,
                RecordKind::Open {
                    fd: Handle(1),
                    file: FileId(7),
                    mode: OpenMode::ReadWrite,
                    size: 4096,
                    is_dir: false,
                },
            ),
            rec(
                1,
                1,
                RecordKind::Open {
                    fd: Handle(2),
                    file: FileId(7),
                    mode: OpenMode::Read,
                    size: 4096,
                    is_dir: false,
                },
            ),
            rec(
                2,
                0,
                RecordKind::SharedWrite {
                    file: FileId(7),
                    offset: 0,
                    len: 512,
                },
            ),
            rec(
                3,
                1,
                RecordKind::SharedRead {
                    file: FileId(7),
                    offset: 0,
                    len: 512,
                },
            ),
            rec(
                4,
                0,
                RecordKind::Reposition {
                    fd: Handle(1),
                    file: FileId(7),
                    from: 512,
                    to: 2048,
                    run_read: 0,
                    run_written: 512,
                },
            ),
            rec(
                5,
                0,
                RecordKind::Close {
                    fd: Handle(1),
                    file: FileId(7),
                    offset: 2560,
                    run_read: 0,
                    run_written: 512,
                    total_read: 0,
                    total_written: 1024,
                    size: 4096,
                    opened_at: SimTime::ZERO,
                },
            ),
            rec(
                6,
                1,
                RecordKind::Close {
                    fd: Handle(2),
                    file: FileId(7),
                    offset: 512,
                    run_read: 512,
                    run_written: 0,
                    total_read: 512,
                    total_written: 0,
                    size: 4096,
                    opened_at: SimTime::from_secs(1),
                },
            ),
            rec(
                7,
                0,
                RecordKind::Delete {
                    file: FileId(7),
                    size: 4096,
                    is_dir: false,
                    oldest_age: sdfs_simkit::SimDuration::from_secs(100),
                    newest_age: sdfs_simkit::SimDuration::from_secs(2),
                },
            ),
        ]
    }

    /// Both passes return a `TraceAnalysis`, so they compare whole:
    /// every field, and every float to the bit (`Debug` prints floats in
    /// shortest round-trip form).
    #[test]
    fn fused_matches_separate_passes() {
        let records = sample_trace();
        let fused = FusedAnalyzer::analyze(SPEC, &records);
        let study = crate::Study::new(crate::StudyConfig::quick());
        let separate = study.analyze_trace_separate(SPEC, &records);
        assert_eq!(format!("{fused:?}"), format!("{separate:?}"));
    }

    /// Same-timestamp records from servers 2, 0, 1 and 0 reach the
    /// analyzer in `merge_vecs`'s order.
    #[test]
    fn fused_sink_analyzes_the_merged_order() {
        let times = [0, 1, 3, 3, 3, 3, 6, 7];
        let servers = [1, 0, 2, 0, 1, 0, 3, 2];
        let mut sink = FusedSink::new();
        let mut per_server: Vec<Vec<Record>> = vec![Vec::new(); 4];
        let mut emitted = Vec::new();
        for ((mut rec, t), server) in sample_trace().into_iter().zip(times).zip(servers) {
            rec.time = SimTime::from_secs(t);
            per_server[server].push(rec.clone());
            emitted.push(rec.clone());
            sink.emit(ServerId(server as u16), rec);
        }
        let streamed = format!("{:?}", sink.finish(SPEC));
        let merged = FusedAnalyzer::analyze(SPEC, &merge_vecs(per_server));
        assert_eq!(streamed, format!("{merged:?}"));
        // The case is order-sensitive: analyzing the emission order as is
        // would give a different result.
        let as_emitted = FusedAnalyzer::analyze(SPEC, &emitted);
        assert_ne!(streamed, format!("{as_emitted:?}"));
    }

    #[test]
    #[should_panic(expected = "must emit in time order")]
    fn fused_sink_rejects_a_record_earlier_than_the_held_timestamp() {
        let mut records = sample_trace().into_iter();
        let mut sink = FusedSink::new();
        let mut later = records.next().expect("a record");
        later.time = SimTime::from_secs(5);
        sink.emit(ServerId(0), later);
        let mut earlier = records.next().expect("a second record");
        earlier.time = SimTime::from_secs(4);
        sink.emit(ServerId(1), earlier);
    }

    #[test]
    fn empty_trace_is_safe() {
        let fused = FusedAnalyzer::analyze(SPEC, &[]);
        assert_eq!(fused.stats.open_events, 0);
        assert_eq!(fused.table10.file_opens, 0);
        assert_eq!(fused.patterns.total_accesses(), 0);
    }
}
