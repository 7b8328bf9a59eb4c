//! The benchmark workloads, their configurations, rendered output and
//! output checks.

use std::collections::BTreeMap;
use std::path::Path;

use sdfs_core::cache_tables::{table4, table5, table6, table7, table8, table9};
use sdfs_core::report;
use sdfs_core::study::{CounterData, TraceAnalysis};
use sdfs_core::{StudyConfig, StudyResults};
use sdfs_simkit::CounterSet;

/// Where `quick`'s expected output lives, relative to the repository root.
pub const GOLDEN_QUICK: &str = "scripts/golden/quick_all_stdout.txt";
/// Reference digests of the paper workloads' rendered tables.
pub const REFERENCE_DIGESTS: &str = "benchkit/reference_digests.txt";

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `bench_config()` through `Study::run_all` and `render_all`.
    Quick,
    /// `paper_config()`'s eight traces through `Study::run_traces`.
    PaperTraces,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "quick" => Some(Workload::Quick),
            "paper_traces" => Some(Workload::PaperTraces),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Quick => "quick",
            Workload::PaperTraces => "paper_traces",
        }
    }

    pub fn runs_counters(self) -> bool {
        self == Workload::Quick
    }

    /// The study configuration at benchmark seed `seed`. Seed 0 is the
    /// configuration `repro` uses; any other seed re-keys the workload
    /// generator of every trace and of the counter campaign.
    pub fn config(self, seed: u64) -> StudyConfig {
        let mut cfg = match self {
            Workload::Quick => sdfs_bench::bench_config(),
            Workload::PaperTraces => StudyConfig {
                counter_days: 0,
                ..sdfs_bench::paper_config()
            },
        };
        if seed != 0 {
            let mix = splitmix64(seed);
            cfg.workload.seed ^= mix;
            for t in &mut cfg.traces {
                t.seed ^= mix;
            }
        }
        cfg
    }
}

/// The SplitMix64 finalizer: spreads nearby benchmark seeds apart.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a, the digest the reference file records.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What a run's rendered output must match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    /// Exact bytes (`quick` at seed 0: the golden stdout).
    Bytes(Vec<u8>),
    /// Digest and length of the rendered text (paper workloads at seed 0).
    Digest { fnv: u64, len: usize },
    /// No reference at this seed: `run.py` compares runs with each other.
    Peers,
}

impl Expected {
    /// Loads the reference for `w` at `seed` from the repository at `root`.
    pub fn load(root: &Path, w: Workload, seed: u64) -> Result<Expected, String> {
        if seed != 0 {
            return Ok(Expected::Peers);
        }
        if w == Workload::Quick {
            let path = root.join(GOLDEN_QUICK);
            return std::fs::read(&path)
                .map(Expected::Bytes)
                .map_err(|e| format!("cannot read {}: {e}", path.display()));
        }
        let path = root.join(REFERENCE_DIGESTS);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        parse_reference(&text, w.name())
            .ok_or_else(|| format!("no {} entry in {}", w.name(), path.display()))
    }

    /// `Some(true/false)` against a reference, `None` without one.
    pub fn check(&self, rendered: &str) -> Option<bool> {
        match self {
            Expected::Bytes(b) => Some(b.as_slice() == rendered.as_bytes()),
            Expected::Digest { fnv, len } => {
                Some(*len == rendered.len() && *fnv == fnv1a64(rendered.as_bytes()))
            }
            Expected::Peers => None,
        }
    }
}

/// Finds `<workload> <fnv hex> <length>` in the reference file; lines
/// starting with `#` are comments.
fn parse_reference(text: &str, workload: &str) -> Option<Expected> {
    text.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        match l.split_whitespace().collect::<Vec<_>>()[..] {
            [name, fnv, len] if name == workload => Some(Expected::Digest {
                fnv: u64::from_str_radix(fnv, 16).ok()?,
                len: len.parse().ok()?,
            }),
            _ => None,
        }
    })
}

/// Assembles study results from whichever campaigns a workload ran; the
/// missing campaign contributes empty data that no rendered table reads.
pub fn assemble(traces: Vec<TraceAnalysis>, counters: Option<CounterData>) -> StudyResults {
    let counters = counters.unwrap_or(CounterData {
        clients: Vec::new(),
        per_day: Vec::new(),
        total: CounterSet::new(),
        servers: Vec::new(),
        sanitizer: None,
        obs: None,
        racecheck: None,
    });
    StudyResults {
        table4: table4(&counters.clients),
        table5: table5(&counters.total, &counters.per_day),
        table6: table6(&counters.total, &counters.per_day),
        table7: table7(&counters.total, &counters.per_day),
        table8: table8(&counters.total),
        table9: table9(&counters.total),
        traces,
        counters,
    }
}

/// Renders what `w` prints: the whole report for `quick` (as `repro
/// --quick all` prints it, trailing newline included), the trace tables
/// for `paper_traces`.
pub fn render(w: Workload, results: &mut StudyResults) -> String {
    let mut s = match w {
        Workload::Quick => report::render_all(results),
        Workload::PaperTraces => {
            let mut s = report::render_table1(&results.traces);
            s.push('\n');
            s.push_str(&report::render_table2(&results.traces));
            s.push('\n');
            s.push_str(&report::render_table3(&results.traces));
            s.push('\n');
            s.push_str(&report::render_figure_checkpoints(&mut results.traces));
            s.push('\n');
            s.push_str(&report::render_consistency_tables(results));
            s
        }
    };
    s.push('\n');
    s
}

/// Client block operations in a counter set: cache reads, writes and
/// paging reads.
pub fn block_ops(c: &CounterSet) -> u64 {
    c.get("cache.read.ops") + c.get("cache.write.ops") + c.get("cache.paging.read.ops")
}

/// RPC messages in a counter set (every `rpc.*.msgs` counter).
pub fn rpc_msgs(c: &CounterSet) -> u64 {
    c.iter()
        .filter(|(name, _)| name.starts_with("rpc.") && name.ends_with(".msgs"))
        .map(|(_, v)| v)
        .sum()
}

/// Work counts visible in a workload's results, shared by the untraced
/// runs and the traced run so `run.py` can check they agree exactly.
pub fn result_counts(results: &StudyResults, rendered: &str) -> BTreeMap<&'static str, u64> {
    let events: u64 = results
        .traces
        .iter()
        .map(|t| {
            let s = &t.stats;
            s.open_events
                + s.close_events
                + s.reposition_events
                + s.create_events
                + s.delete_events
                + s.truncate_events
                + s.shared_read_events
                + s.shared_write_events
        })
        .sum();
    BTreeMap::from([
        ("result.trace_events", events),
        (
            "result.counter_block_ops",
            block_ops(&results.counters.total),
        ),
        ("result.counter_rpcs", rpc_msgs(&results.counters.total)),
        ("result.output_bytes", rendered.len() as u64),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn reference_lines_parse_and_skip_comments() {
        let text = "# comment\nquick_x 1 1\npaper_traces 00ff 12\n";
        let e = parse_reference(text, "paper_traces").expect("entry");
        assert_eq!(e, Expected::Digest { fnv: 0xff, len: 12 });
        assert_eq!(parse_reference(text, "quick"), None);
        assert_eq!(e.check("x"), Some(false));
        assert_eq!(Expected::Peers.check("x"), None);
    }

    #[test]
    fn seed_zero_is_the_repro_configuration() {
        let q = Workload::Quick.config(0);
        let b = sdfs_bench::bench_config();
        assert_eq!(q.workload.seed, b.workload.seed);
        let specs = |c: &StudyConfig| -> Vec<(u64, bool)> {
            c.traces.iter().map(|t| (t.seed, t.heavy_sim)).collect()
        };
        assert_eq!(specs(&q), specs(&b));
        let t = Workload::PaperTraces.config(7);
        assert_eq!(t.counter_days, 0);
        assert_eq!(t.traces.len(), 8);
        assert_ne!(t.traces[0].seed, sdfs_bench::paper_config().traces[0].seed);
    }
}
