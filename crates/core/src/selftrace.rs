//! The self-trace cross-check: the simulator measures itself.
//!
//! Baker et al. validated their tracing kernel by comparing trace-derived
//! counts against the kernel's own counters. This module is the
//! reproduction-era equivalent: the simulator writes its own kernel-call
//! records through the trace-file writer `tracetool` uses (`sdfs-trace`),
//! reads them back through its reader, computes the Table 1 statistics
//! over the decoded stream, and then checks a set of exact integer
//! identities between those statistics and the cluster's own RPC
//! counters — e.g. every open event in the trace must correspond to
//! exactly one `rpc.open.msgs` tick on some client.
//!
//! All identities are sums over *client* counters: every RPC is counted
//! once, by the client that issues it (servers keep no RPC tally).
//!
//! [`probe`] runs the whole pass at a fixed quick scale so the
//! scorecard rows it feeds are identical whether the surrounding study
//! ran the quick or the full-size campaign.

use sdfs_spritefs::rpc::RpcKind;
use sdfs_trace::file::{from_bytes, to_bytes};
use sdfs_trace::TraceStats;
use sdfs_workload::TraceSpec;

use crate::study::{Study, StudyConfig, TraceRun};

/// One exact integer identity between trace analysis and counters.
#[derive(Debug, Clone)]
pub struct SelftraceIdentity {
    /// What is being equated.
    pub name: &'static str,
    /// The value the decoded self-trace's statistics give.
    pub analysis: u64,
    /// The value summed from the cluster's own client counters.
    pub counters: u64,
}

impl SelftraceIdentity {
    /// Whether the two sides agree exactly.
    pub fn agrees(&self) -> bool {
        self.analysis == self.counters
    }
}

/// The result of one self-trace round trip.
#[derive(Debug, Clone)]
pub struct SelftraceReport {
    /// Records written and re-read.
    pub records: u64,
    /// Encoded size of the self-trace, bytes.
    pub encoded_bytes: u64,
    /// Whether decode(encode(records)) reproduced the records exactly.
    pub roundtrip_exact: bool,
    /// Every identity checked.
    pub identities: Vec<SelftraceIdentity>,
}

impl SelftraceReport {
    /// Number of identities that do not hold.
    pub fn disagreements(&self) -> usize {
        self.identities.iter().filter(|i| !i.agrees()).count()
    }

    /// Whether the round trip was exact and every identity holds.
    pub fn all_agree(&self) -> bool {
        self.roundtrip_exact && self.disagreements() == 0
    }

    /// Renders the report as an aligned text block.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "Self-trace: {} records, {} bytes encoded, round trip {}",
            self.records,
            self.encoded_bytes,
            if self.roundtrip_exact {
                "exact"
            } else {
                "MISMATCH"
            }
        );
        for id in &self.identities {
            let _ = writeln!(
                s,
                "  [{}] {:<34} analysis {:>12}  counters {:>12}",
                if id.agrees() { "ok" } else { "FAIL" },
                id.name,
                id.analysis,
                id.counters,
            );
        }
        let _ = writeln!(
            s,
            "Self-trace verdict: {}",
            if self.all_agree() {
                "agree"
            } else {
                "DISAGREE"
            }
        );
        s
    }
}

/// Runs one trace with the given study configuration and cross-checks
/// it against itself. The identities compare counters, which are always
/// maintained, so the study's `cluster.observe` setting does not
/// change the result.
pub fn run(study: &Study, spec: TraceSpec) -> SelftraceReport {
    cross_check(&study.run_trace_full(spec))
}

/// The core pass: encode a run's records into an in-memory trace file,
/// decode them back, compute their statistics, and compare those
/// against the run's own client counters.
pub fn cross_check(run: &TraceRun) -> SelftraceReport {
    // The simulator writes its own trace into memory, through the same
    // writer (time-order check included) `gen-trace` and `tracetool`
    // use for trace files, and reads it back.
    let buf = to_bytes(&run.records).expect("the cluster emits records in time order");
    let decoded = from_bytes(&buf).expect("self-written records decode");
    let roundtrip_exact = decoded == run.records;
    let stats = TraceStats::compute(&decoded);

    let sum = |key: &str| -> u64 { run.client_counters.iter().map(|c| c.get(key)).sum() };
    let id = |name, analysis, counters| SelftraceIdentity {
        name,
        analysis,
        counters,
    };
    let identities = vec![
        id(
            "open events == open RPCs",
            stats.open_events,
            sum(RpcKind::Open.msgs_key()),
        ),
        id(
            "close events == close RPCs",
            stats.close_events,
            sum(RpcKind::Close.msgs_key()),
        ),
        id(
            "create events == create RPCs",
            stats.create_events,
            sum(RpcKind::Create.msgs_key()),
        ),
        id(
            "delete events == delete RPCs",
            stats.delete_events,
            sum(RpcKind::Delete.msgs_key()),
        ),
        id(
            "truncate events == truncate RPCs",
            stats.truncate_events,
            sum(RpcKind::Truncate.msgs_key()),
        ),
        id(
            "shared reads == shared-read RPCs",
            stats.shared_read_events,
            sum(RpcKind::SharedRead.msgs_key()),
        ),
        id(
            "shared writes == shared-write RPCs",
            stats.shared_write_events,
            sum(RpcKind::SharedWrite.msgs_key()),
        ),
        id(
            "dir bytes read == raw dir counter",
            stats.bytes_read_dirs,
            sum(sdfs_spritefs::metrics::raw::DIR_READ),
        ),
    ];
    SelftraceReport {
        records: run.records.len() as u64,
        encoded_bytes: buf.len() as u64,
        roundtrip_exact,
        identities,
    }
}

/// The fixed quick-scale probe the scorecard uses: a deterministic
/// configuration independent of whatever study size the caller ran, so
/// its rows are byte-identical across quick and full campaigns.
pub fn probe() -> SelftraceReport {
    let cfg = StudyConfig::quick();
    let spec = cfg.traces[0];
    run(&Study::new(cfg), spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_selftrace_round_trips_and_agrees() {
        let rep = probe();
        assert!(rep.records > 1_000, "got {} records", rep.records);
        assert!(rep.encoded_bytes > rep.records, "records encode to bytes");
        assert!(rep.roundtrip_exact, "codec round trip must be exact");
        assert_eq!(rep.identities.len(), 8);
        assert!(
            rep.all_agree(),
            "identities must hold exactly:\n{}",
            rep.render()
        );
        let txt = rep.render();
        assert!(txt.contains("round trip exact"));
        assert!(txt.contains("verdict: agree"));
    }

    #[test]
    fn probe_is_deterministic() {
        let a = probe();
        let b = probe();
        assert_eq!(a.records, b.records);
        assert_eq!(a.encoded_bytes, b.encoded_bytes);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn disagreement_is_reported() {
        let mut rep = probe();
        rep.identities[0].counters += 1;
        assert_eq!(rep.disagreements(), 1);
        assert!(!rep.all_agree());
        assert!(rep.render().contains("FAIL"));
    }
}
