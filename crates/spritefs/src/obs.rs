//! sdfs-obs: the cluster's self-measurement layer.
//!
//! The paper's contribution is instrumentation — kernel tracing plus
//! ~50 per-machine counters — and this module turns the same
//! methodology back on the simulator itself. The paper split the job:
//! always-on counters said "how much", traces said "what happened".
//! "How much" here has one owner, each machine's
//! [`sdfs_simkit::CounterSet`]. When [`crate::Config`] `observe` is
//! set, the cluster records what counters cannot hold into an
//! [`ObsReport`]:
//!
//! * **integer log-bucketed latency histograms**
//!   ([`sdfs_simkit::LogHistogram`]) for per-[`RpcKind`] latency,
//!   retry/backoff waits, write-back queue dwell, and recovery-storm
//!   reopen latency, with exact deterministic merge. Every counted RPC
//!   gets exactly one latency sample, so a kind's sample count equals
//!   the summed client `rpc.<kind>.msgs`;
//! * **span durations** (file-open, RPC stall, server outage,
//!   recovery storm) in the same histograms, whose exact count, sum and
//!   max the report prints;
//! * **per-kind retry exhaustion**, which the counters only total.
//!
//! Every duration is simulated microseconds, never the wall clock, so
//! the determinism bans (`clippy.toml`) hold and an observed run is
//! replayable bit-for-bit. With `observe` off the report is never
//! allocated and stdout is byte-identical to an unobserved build.

use sdfs_simkit::{LogHistogram, SimDuration};

use crate::metrics;
use crate::rpc::RpcKind;

/// The span vocabulary: durations the layer histograms rather than
/// streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Open → close of one file handle.
    FileOpen,
    /// A client blocked on a down server (timeout + backoff retries).
    Stall,
    /// Server crash → end of recovery.
    ServerOutage,
    /// The reregister/reopen burst after a server reboot.
    RecoveryStorm,
}

impl SpanKind {
    /// Every span kind, exactly once, in code order.
    pub const ALL: [SpanKind; 4] = [
        SpanKind::FileOpen,
        SpanKind::Stall,
        SpanKind::ServerOutage,
        SpanKind::RecoveryStorm,
    ];

    /// Dense index into the span histograms.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Dotted lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::FileOpen => "file.open",
            SpanKind::Stall => "rpc.stall",
            SpanKind::ServerOutage => "server.outage",
            SpanKind::RecoveryStorm => "recovery.storm",
        }
    }

    /// The `metrics::obs` bookkeeping key for this span kind.
    pub fn metrics_key(self) -> &'static str {
        match self {
            SpanKind::FileOpen => metrics::obs::SPAN_FILE_OPEN,
            SpanKind::Stall => metrics::obs::SPAN_STALL,
            SpanKind::ServerOutage => metrics::obs::SPAN_SERVER_OUTAGE,
            SpanKind::RecoveryStorm => metrics::obs::SPAN_RECOVERY_STORM,
        }
    }
}

/// What one observed cluster run measured, recorded as it runs:
/// latency and span histograms and per-kind retry exhaustion. Like
/// [`crate::SanitizerStats`] it is kept out of the per-machine counter
/// sets so observed runs stay byte-identical to plain ones; it merges
/// exactly (integer addition) across clusters, days, and traces.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsReport {
    /// Per-RPC-kind latency histograms, indexed by [`RpcKind::index`].
    pub rpc: Vec<LogHistogram>,
    /// Retry/backoff waits spent on dropped or stalled RPCs.
    pub retry_wait: LogHistogram,
    /// Time dirty blocks sat in the write-back queue before cleaning.
    pub writeback_dwell: LogHistogram,
    /// Modeled per-reopen latency inside recovery storms.
    pub reopen_latency: LogHistogram,
    /// Span durations, indexed by [`SpanKind::index`].
    pub spans: Vec<LogHistogram>,
    /// RPCs that exhausted their retry budget, indexed by
    /// [`RpcKind::index`] — the per-kind breakdown of what the cluster
    /// counters only report as aggregate unavailability.
    pub retry_exhausted: Vec<u64>,
}

impl Default for ObsReport {
    fn default() -> Self {
        ObsReport::new()
    }
}

impl ObsReport {
    /// Creates an empty report. All buffers are allocated here; the
    /// record paths never allocate.
    pub fn new() -> Self {
        ObsReport {
            rpc: (0..RpcKind::ALL.len()).map(|_| LogHistogram::new()).collect(),
            retry_wait: LogHistogram::new(),
            writeback_dwell: LogHistogram::new(),
            reopen_latency: LogHistogram::new(),
            spans: (0..SpanKind::ALL.len())
                .map(|_| LogHistogram::new())
                .collect(),
            retry_exhausted: vec![0; RpcKind::ALL.len()],
        }
    }

    /// The latency histogram for one RPC kind.
    pub fn rpc_hist(&self, kind: RpcKind) -> &LogHistogram {
        &self.rpc[kind.index()]
    }

    /// The duration histogram for one span kind.
    pub fn span_hist(&self, kind: SpanKind) -> &LogHistogram {
        &self.spans[kind.index()]
    }

    /// Records one completed RPC's latency sample in the per-kind
    /// histogram.
    pub fn rpc(&mut self, kind: RpcKind, latency: SimDuration) {
        self.rpc[kind.index()].record(latency.as_micros());
    }

    /// Records one retry/backoff wait (a dropped message or a stall
    /// slice against a down server).
    pub fn retry(&mut self, wait: SimDuration) {
        self.retry_wait.record(wait.as_micros());
    }

    /// Records a write-back with the time the block dwelled dirty.
    pub fn writeback(&mut self, dwell: SimDuration) {
        self.writeback_dwell.record(dwell.as_micros());
    }

    /// Records one RPC that exhausted its retry budget against an
    /// unreachable server (down or behind a cut edge).
    pub fn exhaust(&mut self, kind: RpcKind) {
        self.retry_exhausted[kind.index()] += 1;
    }

    /// Records one storm reopen with its modeled latency.
    pub fn reopen(&mut self, latency: SimDuration) {
        self.reopen_latency.record(latency.as_micros());
    }

    /// Records a closed span.
    #[inline]
    pub fn span(&mut self, kind: SpanKind, d: SimDuration) {
        self.spans[kind.index()].record(d.as_micros());
    }

    /// Total RPC latency samples across all kinds.
    pub fn rpc_samples(&self) -> u64 {
        self.rpc.iter().map(|h| h.count()).sum()
    }

    /// Retry-budget exhaustions recorded for one RPC kind.
    pub fn exhausted(&self, kind: RpcKind) -> u64 {
        self.retry_exhausted[kind.index()]
    }

    /// Total retry-budget exhaustions across all RPC kinds.
    pub fn exhausted_total(&self) -> u64 {
        self.retry_exhausted.iter().sum()
    }

    /// Merges another report into this one (exact integer addition).
    pub fn merge(&mut self, other: &ObsReport) {
        for (a, b) in self.rpc.iter_mut().zip(other.rpc.iter()) {
            a.merge(b);
        }
        self.retry_wait.merge(&other.retry_wait);
        self.writeback_dwell.merge(&other.writeback_dwell);
        self.reopen_latency.merge(&other.reopen_latency);
        for (a, b) in self.spans.iter_mut().zip(other.spans.iter()) {
            a.merge(b);
        }
        for (a, b) in self.retry_exhausted.iter_mut().zip(other.retry_exhausted.iter()) {
            *a += b;
        }
    }

    /// Renders the full human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("sdfs-obs self-measurement report\n");
        out.push_str("\n  RPC latency (simulated microseconds):\n");
        out.push_str(&format!(
            "    {:<14} {:>10} {:>9} {:>9} {:>9} {:>9}\n",
            "kind", "count", "p50", "p90", "p99", "max"
        ));
        for k in RpcKind::ALL {
            let h = self.rpc_hist(k);
            if !h.is_empty() {
                out.push_str(&format!(
                    "    {:<14} {:>10} {:>9} {:>9} {:>9} {:>9}\n",
                    k.name(),
                    h.count(),
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.max()
                ));
            }
        }
        out.push_str(&format!(
            "\n  retry-budget exhaustion ({} = {}):\n",
            metrics::obs::EXHAUSTED_RPCS,
            self.exhausted_total(),
        ));
        for k in RpcKind::ALL {
            let n = self.exhausted(k);
            if n > 0 {
                out.push_str(&format!("    {:<14} {:>10}\n", k.name(), n));
            }
        }
        for (label, h) in [
            ("retry/backoff waits", &self.retry_wait),
            ("write-back queue dwell", &self.writeback_dwell),
            ("recovery reopen latency", &self.reopen_latency),
        ] {
            if h.is_empty() {
                out.push_str(&format!("\n  {label} (us): no samples\n"));
            } else {
                out.push_str(&format!(
                    "\n  {label} (us): count={} p50={} p90={} p99={} max={}\n",
                    h.count(),
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.max()
                ));
            }
        }
        out.push_str("\n  spans:\n");
        out.push_str(&format!(
            "    {:<16} {:>10} {:>14} {:>14}\n",
            "kind", "count", "mean(ms)", "max(ms)"
        ));
        for k in SpanKind::ALL {
            let h = self.span_hist(k);
            if !h.is_empty() {
                out.push_str(&format!(
                    "    {:<16} {:>10} {:>14.3} {:>14.3}\n",
                    k.name(),
                    h.count(),
                    h.mean() / 1_000.0,
                    h.max() as f64 / 1_000.0
                ));
            }
        }
        out
    }

    /// Serializes the report as JSON (hand-rolled; the workspace is
    /// dependency-free). Keys follow the counter-name grammar.
    pub fn to_json(&self) -> String {
        fn hist_json(h: &LogHistogram) -> String {
            format!(
                "{{\"count\":{},\"sum_us\":{},\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                h.count(),
                h.sum(),
                h.min(),
                h.p50(),
                h.p90(),
                h.p99(),
                h.max()
            )
        }
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"summary\":{{\"{}\":{},\"{}\":{},\"{}\":{},\"{}\":{}",
            metrics::obs::RPC_SAMPLES,
            self.rpc_samples(),
            metrics::obs::RETRY_SAMPLES,
            self.retry_wait.count(),
            metrics::obs::DWELL_SAMPLES,
            self.writeback_dwell.count(),
            metrics::obs::REOPEN_SAMPLES,
            self.reopen_latency.count(),
        ));
        out.push_str(&format!(
            ",\"{}\":{}",
            metrics::obs::EXHAUSTED_RPCS,
            self.exhausted_total(),
        ));
        for k in SpanKind::ALL {
            out.push_str(&format!(
                ",\"{}\":{}",
                k.metrics_key(),
                self.span_hist(k).count()
            ));
        }
        out.push_str("},\"retry_exhausted\":{");
        let mut first = true;
        for k in RpcKind::ALL {
            let n = self.exhausted(k);
            if n == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{}", k.name(), n));
        }
        out.push_str("},\"rpc_latency_us\":{");
        let mut first = true;
        for k in RpcKind::ALL {
            let h = self.rpc_hist(k);
            if h.is_empty() {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{}", k.name(), hist_json(h)));
        }
        out.push_str("},");
        out.push_str(&format!(
            "\"retry_wait_us\":{},\"writeback_dwell_us\":{},\"reopen_latency_us\":{},",
            hist_json(&self.retry_wait),
            hist_json(&self.writeback_dwell),
            hist_json(&self.reopen_latency)
        ));
        out.push_str("\"spans\":{");
        let mut first = true;
        for k in SpanKind::ALL {
            if !first {
                out.push(',');
            }
            first = false;
            let h = self.span_hist(k);
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"total_us\":{},\"max_us\":{}}}",
                k.name(),
                h.count(),
                h.sum(),
                h.max()
            ));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    #[test]
    fn kind_codes_match_all_order() {
        for (i, k) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn span_names_follow_grammar() {
        // Same grammar the metrics hygiene test enforces.
        let ok = |n: &str| {
            !n.is_empty()
                && n.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_')
                && !n.starts_with(['.', '_'])
                && !n.ends_with(['.', '_'])
                && !n.contains("..")
        };
        for k in SpanKind::ALL {
            assert!(ok(k.name()), "{:?}", k);
        }
    }

    #[test]
    fn collector_roundtrip() {
        let mut rep = ObsReport::new();
        rep.rpc(RpcKind::Open, d(1_500));
        rep.rpc(RpcKind::ReadBlock, d(6_415));
        rep.retry(d(50_000));
        rep.writeback(d(30_000_000));
        rep.reopen(d(3_000));
        rep.span(SpanKind::FileOpen, d(123_000));
        assert_eq!(rep.rpc_samples(), 2);
        assert_eq!(rep.rpc_hist(RpcKind::Open).p50(), 1_500);
        assert_eq!(rep.rpc_hist(RpcKind::ReadBlock).max(), 6_415);
        assert_eq!(rep.retry_wait.count(), 1);
        assert_eq!(rep.writeback_dwell.max(), 30_000_000);
        assert_eq!(rep.reopen_latency.count(), 1);
        assert_eq!(rep.span_hist(SpanKind::FileOpen).count(), 1);
        let txt = rep.render();
        assert!(txt.starts_with("sdfs-obs self-measurement report\n"));
        assert!(txt.contains("read_block"));
        let json = rep.to_json();
        assert!(json.contains("\"rpc_latency_us\""));
        assert!(json.contains("\"obs.span.file.open\":1"));
    }

    #[test]
    fn exhaustion_counts_per_kind() {
        let mut rep = ObsReport::new();
        rep.exhaust(RpcKind::Open);
        rep.exhaust(RpcKind::Open);
        rep.exhaust(RpcKind::WriteBlock);
        assert_eq!(rep.exhausted(RpcKind::Open), 2);
        assert_eq!(rep.exhausted(RpcKind::WriteBlock), 1);
        assert_eq!(rep.exhausted(RpcKind::Close), 0);
        assert_eq!(rep.exhausted_total(), 3);
        let txt = rep.render();
        assert!(txt.contains("retry-budget exhaustion"));
        assert!(txt.contains("obs.retry.exhausted.rpcs = 3"));
        let json = rep.to_json();
        assert!(json.contains("\"retry_exhausted\":{\"open\":2,\"write_block\":1}"));
        assert!(json.contains("\"obs.retry.exhausted.rpcs\":3"));
    }

    #[test]
    fn merge_is_exact() {
        let mut a = ObsReport::new();
        a.rpc(RpcKind::Open, d(1_500));
        a.span(SpanKind::Stall, d(10));
        let mut b = ObsReport::new();
        b.rpc(RpcKind::Open, d(2_500));
        b.retry(d(100));
        let mut whole = ObsReport::new();
        whole.rpc(RpcKind::Open, d(1_500));
        whole.span(SpanKind::Stall, d(10));
        whole.rpc(RpcKind::Open, d(2_500));
        whole.retry(d(100));
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn span_stat_record_and_merge() {
        // A span aggregate keeps an exact count, sum and max through merge.
        let mut a = ObsReport::new();
        a.span(SpanKind::Stall, d(10));
        a.span(SpanKind::Stall, d(30));
        let mut b = ObsReport::new();
        b.span(SpanKind::Stall, d(50));
        a.merge(&b);
        let stall = a.span_hist(SpanKind::Stall);
        assert_eq!(stall.count(), 3);
        assert_eq!(stall.sum(), 90);
        assert_eq!(stall.max(), 50);
        assert!((stall.mean() - 30.0).abs() < 1e-12);
    }
}
