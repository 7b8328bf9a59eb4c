//! End-to-end pipeline integration tests: workload generation → cluster
//! simulation → trace files → merge → analysis.

use sdfs_core::access::reconstruct;
use sdfs_core::{Study, StudyConfig};
use sdfs_simkit::{FastSet, SimTime};
use sdfs_spritefs::{Cluster, TraceSink, VecSink};
use sdfs_trace::file::{from_bytes, to_bytes};
use sdfs_trace::merge::{merge_vecs, Scrub};
use sdfs_trace::{Record, RecordKind, ServerId, TraceStats};
use sdfs_workload::{Generator, TraceSpec};

fn tiny_study() -> Study {
    let mut cfg = StudyConfig::quick();
    cfg.workload.activity_scale = 0.3;
    Study::new(cfg)
}

#[test]
fn trace_round_trips_through_the_binary_format() {
    let study = tiny_study();
    let records = study
        .run_trace_full(TraceSpec {
            seed: 5,
            heavy_sim: false,
        })
        .records;
    assert!(records.len() > 500);
    let bytes = to_bytes(&records).expect("encode");
    let back = from_bytes(&bytes).expect("decode");
    assert_eq!(back, records, "binary round trip is lossless");
}

#[test]
fn merged_trace_is_time_ordered_and_consistent() {
    let study = tiny_study();
    let records = study
        .run_trace_full(TraceSpec {
            seed: 6,
            heavy_sim: false,
        })
        .records;
    for w in records.windows(2) {
        assert!(w[0].time <= w[1].time, "merge must be time ordered");
    }
    let stats = TraceStats::compute(records.iter());
    assert_eq!(
        stats.open_events,
        stats.close_events + count_unclosed(&records)
    );
    assert!(stats.different_users > 1);
    assert!(stats.bytes_read_files > 0);
}

fn count_unclosed(records: &[sdfs_trace::Record]) -> u64 {
    let mut open: FastSet<sdfs_trace::Handle> = FastSet::default();
    for r in records {
        match &r.kind {
            RecordKind::Open { fd, .. } => {
                open.insert(*fd);
            }
            RecordKind::Close { fd, .. } => {
                open.remove(fd);
            }
            _ => {}
        }
    }
    open.len() as u64
}

#[test]
fn accesses_reconstruct_with_conserved_bytes() {
    let study = tiny_study();
    let records = study
        .run_trace_full(TraceSpec {
            seed: 7,
            heavy_sim: false,
        })
        .records;
    let accesses = reconstruct(&records);
    assert!(!accesses.is_empty());
    // Total bytes from closes must equal total bytes from accesses.
    let stats = TraceStats::compute(records.iter());
    let access_read: u64 = accesses.iter().map(|a| a.total_read).sum();
    let access_written: u64 = accesses.iter().map(|a| a.total_written).sum();
    assert_eq!(access_read, stats.bytes_read_files);
    assert_eq!(access_written, stats.bytes_written_files);
    // Run totals never exceed access totals.
    for a in &accesses {
        let run_total: u64 = a.runs.iter().map(|r| r.len()).sum();
        assert_eq!(
            run_total,
            a.total_read + a.total_written,
            "run bytes must partition access bytes"
        );
    }
}

#[test]
fn scrubbing_removes_a_user_completely() {
    let study = tiny_study();
    let records = study
        .run_trace_full(TraceSpec {
            seed: 8,
            heavy_sim: false,
        })
        .records;
    let victim = records[0].user;
    let scrub = Scrub::new().exclude_user(victim);
    let kept: Vec<_> = scrub.filter(records.iter().cloned()).collect();
    assert!(kept.iter().all(|r| r.user != victim));
    assert!(kept.len() < records.len());
}

#[test]
fn counter_campaign_is_internally_consistent() {
    let study = tiny_study();
    let data = study.run_counters();
    let c = &data.total;
    // Misses cannot exceed operations.
    assert!(c.get("cache.read.miss.ops") <= c.get("cache.read.ops"));
    assert!(c.get("cache.write.fetch.ops") <= c.get("cache.write.ops"));
    assert!(
        c.get("mig.cache.read.miss.ops") <= c.get("mig.cache.read.ops"),
        "migrated misses bounded"
    );
    // Bytes written back + cancelled should not exceed bytes written
    // plus block-padding slack (padding is bounded by one block per
    // write-back).
    let written = c.get("cache.write.bytes");
    let back = c.get("cache.writeback.bytes");
    let cancelled = c.get("cache.cancelled.bytes");
    assert!(cancelled <= written, "cancelled bytes bounded by writes");
    assert!(back > 0 && written > 0);
    // Cache sizes never exceed client memory.
    for m in &data.clients {
        for s in &m.samples {
            assert!(s.bytes <= 32 << 20, "cache larger than memory");
        }
    }
}

#[test]
fn cluster_time_is_monotone_through_daemons() {
    let study = tiny_study();
    let spec = TraceSpec {
        seed: 9,
        heavy_sim: false,
    };
    let records = study.run_trace_full(spec).records;
    let last = records.last().expect("records").time;
    assert!(last <= SimTime::from_secs(86_400), "trace fits in a day");
}

/// Keeps every record in emission order, besides the per-server vectors
/// the study merges.
struct Recording {
    emitted: Vec<(ServerId, Record)>,
    servers: VecSink,
}

impl TraceSink for Recording {
    fn emit(&mut self, server: ServerId, rec: Record) {
        self.emitted.push((server, rec.clone()));
        self.servers.emit(server, rec);
    }
}

/// The cluster emits records in time order across all servers, so the
/// merged trace is the emission order with equal times grouped by
/// server. Streaming records straight from the simulator into analysis
/// relies on the first property.
#[test]
fn cluster_emits_records_in_time_order() {
    let cfg = StudyConfig::quick();
    for &spec in &cfg.traces {
        let mut gen = Generator::new(cfg.workload.for_trace(spec));
        let sink = Recording {
            emitted: Vec::new(),
            servers: VecSink::new(cfg.cluster.num_servers),
        };
        let mut cluster = Cluster::new(cfg.cluster.clone(), sink);
        cluster.preload(&gen.preload_list());
        cluster.run(gen.generate_day(0), SimTime::from_secs(86_400));
        let sink = cluster.into_sink();
        assert!(sink.emitted.len() > 1_000, "{spec:?}: too few records");

        let mut server_ties_reversed = 0;
        for w in sink.emitted.windows(2) {
            let ((s0, r0), (s1, r1)) = (&w[0], &w[1]);
            assert!(r0.time <= r1.time, "{spec:?}: emitted {r1:?} after {r0:?}");
            if r0.time == r1.time && s0.raw() > s1.raw() {
                server_ties_reversed += 1;
            }
        }
        // Without such pairs the comparison below would not exercise the
        // merge's tie-break.
        assert!(server_ties_reversed > 0, "{spec:?}: no reversed ties");

        let mut want = sink.emitted;
        want.sort_by_key(|(server, rec)| (rec.time, server.raw()));
        let want: Vec<Record> = want.into_iter().map(|(_, rec)| rec).collect();
        assert_eq!(merge_vecs(sink.servers.per_server), want, "{spec:?}");
    }
}
