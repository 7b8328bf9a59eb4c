//! Figures 1–4: the paper's cumulative distributions.
//!
//! * **Figure 1** — sequential run lengths, weighted by runs and by bytes.
//! * **Figure 2** — dynamic file sizes at close, weighted by accesses
//!   and by bytes transferred.
//! * **Figure 3** — file open durations.
//! * **Figure 4** — file lifetimes at deletion (truncation to zero counts
//!   as deletion), weighted by files and by bytes, with byte ages
//!   interpolated between the oldest and newest byte as in the paper.

use sdfs_simkit::stats::log_points;
use sdfs_simkit::WeightedCdf;
use sdfs_trace::{Record, RecordKind};

use crate::access::{reconstruct, Access};

/// A figure: one or more CDF curves sharing an x-axis.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure title.
    pub title: &'static str,
    /// X-axis label.
    pub x_label: &'static str,
    /// Curves: (label, points), where points are `(x, cumulative
    /// fraction)`.
    pub curves: Vec<(String, Vec<(f64, f64)>)>,
}

/// The two CDFs of Figure 1.
#[derive(Debug, Clone, Default)]
pub struct RunLengths {
    /// Weighted by number of runs.
    pub by_runs: WeightedCdf,
    /// Weighted by bytes transferred.
    pub by_bytes: WeightedCdf,
}

impl RunLengths {
    /// Adds one access's runs (directories excluded).
    pub fn add(&mut self, a: &Access) {
        if a.is_dir {
            return;
        }
        for run in &a.runs {
            let len = run.len();
            if len > 0 {
                self.by_runs.add(len as f64);
                self.by_bytes.add_weighted(len as f64, len as f64);
            }
        }
    }
}

/// Builds Figure 1's distributions from accesses, sealed.
pub fn run_lengths<'a>(accesses: impl IntoIterator<Item = &'a Access>) -> RunLengths {
    let mut out = RunLengths::default();
    for a in accesses {
        out.add(a);
    }
    out.by_runs.seal();
    out.by_bytes.seal();
    out
}

/// The two CDFs of Figure 2.
#[derive(Debug, Clone, Default)]
pub struct FileSizes {
    /// Weighted by number of accesses.
    pub by_accesses: WeightedCdf,
    /// Weighted by bytes transferred to or from the file.
    pub by_bytes: WeightedCdf,
}

impl FileSizes {
    /// Adds one access (directories and zero-byte accesses excluded).
    pub fn add(&mut self, a: &Access) {
        if a.is_dir {
            return;
        }
        let bytes = a.total_bytes();
        if bytes == 0 {
            return;
        }
        let size = a.size.max(1) as f64;
        self.by_accesses.add(size);
        self.by_bytes.add_weighted(size, bytes as f64);
    }
}

/// Builds Figure 2's distributions, sealed: file sizes measured when
/// files are closed, for accesses that actually transferred data.
pub fn file_sizes<'a>(accesses: impl IntoIterator<Item = &'a Access>) -> FileSizes {
    let mut out = FileSizes::default();
    for a in accesses {
        out.add(a);
    }
    out.by_accesses.seal();
    out.by_bytes.seal();
    out
}

/// Adds one access's open duration to a Figure 3 distribution
/// (directories excluded).
pub fn add_open_time(cdf: &mut WeightedCdf, a: &Access) {
    if a.is_dir {
        return;
    }
    // Clamp to a small positive floor so log-axis plots behave.
    cdf.add(a.open_duration().as_secs_f64().max(1e-4));
}

/// Figure 3: the distribution of open durations, in seconds, sealed.
pub fn open_times<'a>(accesses: impl IntoIterator<Item = &'a Access>) -> WeightedCdf {
    let mut cdf = WeightedCdf::new();
    for a in accesses {
        add_open_time(&mut cdf, a);
    }
    cdf.seal();
    cdf
}

/// The two CDFs of Figure 4.
#[derive(Debug, Clone, Default)]
pub struct Lifetimes {
    /// Weighted by files deleted; lifetime is the average of the oldest
    /// and newest byte ages.
    pub by_files: WeightedCdf,
    /// Weighted by bytes deleted; assumes sequential writing so byte age
    /// interpolates linearly from oldest (offset 0) to newest (end).
    pub by_bytes: WeightedCdf,
}

/// Number of interpolation segments for byte-age weighting.
const AGE_SEGMENTS: u32 = 16;

impl Lifetimes {
    /// Adds one record if it is a (non-directory) delete or truncate.
    pub fn add(&mut self, rec: &Record) {
        let (size, is_dir, oldest, newest) = match &rec.kind {
            RecordKind::Delete {
                size,
                is_dir,
                oldest_age,
                newest_age,
                ..
            } => (*size, *is_dir, *oldest_age, *newest_age),
            RecordKind::Truncate {
                old_size,
                oldest_age,
                newest_age,
                ..
            } => (*old_size, false, *oldest_age, *newest_age),
            _ => return,
        };
        if is_dir {
            return;
        }
        let oldest_s = oldest.as_secs_f64();
        let newest_s = newest.as_secs_f64();
        let mid = ((oldest_s + newest_s) / 2.0).max(1e-3);
        self.by_files.add(mid);
        if size > 0 {
            // Sequentially written: the byte at offset x has age
            // interpolated between oldest (x = 0) and newest (x = size).
            let seg_bytes = size as f64 / AGE_SEGMENTS as f64;
            for s in 0..AGE_SEGMENTS {
                let frac = (s as f64 + 0.5) / AGE_SEGMENTS as f64;
                let age = (oldest_s + frac * (newest_s - oldest_s)).max(1e-3);
                self.by_bytes.add_weighted(age, seg_bytes);
            }
        }
    }
}

/// Builds Figure 4's distributions from delete and truncate records,
/// sealed.
pub fn lifetimes<'a>(records: impl IntoIterator<Item = &'a Record>) -> Lifetimes {
    let mut out = Lifetimes::default();
    for rec in records {
        out.add(rec);
    }
    out.by_files.seal();
    out.by_bytes.seal();
    out
}

/// All four figures' distributions, every CDF sealed once finished;
/// rendered on standard log grids.
#[derive(Debug, Clone, Default)]
pub struct AllFigures {
    /// Figure 1 raw distributions.
    pub run_lengths: RunLengths,
    /// Figure 2 raw distributions.
    pub file_sizes: FileSizes,
    /// Figure 3 raw distribution.
    pub open_times: WeightedCdf,
    /// Figure 4 raw distributions.
    pub lifetimes: Lifetimes,
}

/// Streaming builder for all four figures: the fused single-pass driver
/// feeds it every record (Figure 4) and every reconstructed access
/// (Figures 1–3), in the same orders the standalone builders see.
#[derive(Debug, Default)]
pub struct FiguresAccumulator {
    figures: AllFigures,
}

impl FiguresAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        FiguresAccumulator::default()
    }

    /// Feeds one raw record (drives Figure 4).
    pub fn record(&mut self, rec: &Record) {
        self.figures.lifetimes.add(rec);
    }

    /// Feeds one reconstructed access (drives Figures 1–3).
    pub fn access(&mut self, a: &Access) {
        self.figures.run_lengths.add(a);
        self.figures.file_sizes.add(a);
        add_open_time(&mut self.figures.open_times, a);
    }

    /// Returns the finished figures, each CDF sealed (sorted, equal
    /// values merged, spare capacity released).
    pub fn finish(mut self) -> AllFigures {
        let f = &mut self.figures;
        for cdf in [
            &mut f.run_lengths.by_runs,
            &mut f.run_lengths.by_bytes,
            &mut f.file_sizes.by_accesses,
            &mut f.file_sizes.by_bytes,
            &mut f.open_times,
            &mut f.lifetimes.by_files,
            &mut f.lifetimes.by_bytes,
        ] {
            cdf.seal();
        }
        self.figures
    }
}

/// Computes every figure from one trace.
pub fn all_figures(records: &[Record]) -> AllFigures {
    let accesses = reconstruct(records);
    AllFigures {
        run_lengths: run_lengths(&accesses),
        file_sizes: file_sizes(&accesses),
        open_times: open_times(&accesses),
        lifetimes: lifetimes(records),
    }
}

impl AllFigures {
    /// Renders the four figures as curve sets on log-spaced grids.
    pub fn render(&self) -> Vec<Figure> {
        let size_grid = log_points(100.0, 100e6, 4);
        let time_grid = log_points(0.01, 1e6, 4);
        let open_grid = log_points(0.001, 1e4, 4);
        vec![
            Figure {
                title: "Figure 1: Sequential run length",
                x_label: "run length (bytes)",
                curves: vec![
                    (
                        "weighted by runs".into(),
                        self.run_lengths.by_runs.curve(&size_grid),
                    ),
                    (
                        "weighted by bytes".into(),
                        self.run_lengths.by_bytes.curve(&size_grid),
                    ),
                ],
            },
            Figure {
                title: "Figure 2: File size",
                x_label: "file size (bytes)",
                curves: vec![
                    (
                        "weighted by accesses".into(),
                        self.file_sizes.by_accesses.curve(&size_grid),
                    ),
                    (
                        "weighted by bytes".into(),
                        self.file_sizes.by_bytes.curve(&size_grid),
                    ),
                ],
            },
            Figure {
                title: "Figure 3: File open times",
                x_label: "open duration (seconds)",
                curves: vec![("all opens".into(), self.open_times.curve(&open_grid))],
            },
            Figure {
                title: "Figure 4: File lifetimes",
                x_label: "lifetime (seconds)",
                curves: vec![
                    (
                        "weighted by files".into(),
                        self.lifetimes.by_files.curve(&time_grid),
                    ),
                    (
                        "weighted by bytes".into(),
                        self.lifetimes.by_bytes.curve(&time_grid),
                    ),
                ],
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Run;
    use sdfs_simkit::{SimDuration, SimTime};
    use sdfs_trace::{ClientId, FileId, Pid, UserId};

    fn access(read: u64, size: u64, dur_ms: u64) -> Access {
        Access {
            file: FileId(1),
            user: UserId(1),
            client: ClientId(0),
            migrated: false,
            opened_at: SimTime::ZERO,
            closed_at: SimTime::from_millis(dur_ms),
            total_read: read,
            total_written: 0,
            size,
            size_at_open: size,
            is_dir: false,
            runs: vec![Run {
                start: 0,
                read,
                written: 0,
            }],
        }
    }

    #[test]
    fn run_length_weighting() {
        let accesses = vec![access(1_000, 1_000, 10), access(9_000, 9_000, 10)];
        let rl = run_lengths(&accesses);
        // By runs: half the runs are <= 1 000.
        assert!((rl.by_runs.fraction_below(1_000.0) - 0.5).abs() < 1e-9);
        // By bytes: only 10% of bytes are in runs <= 1 000.
        assert!((rl.by_bytes.fraction_below(1_000.0) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn file_size_weighting() {
        let accesses = vec![access(100, 100, 10), access(10_000, 10_000, 10)];
        let fs = file_sizes(&accesses);
        assert!((fs.by_accesses.fraction_below(100.0) - 0.5).abs() < 1e-9);
        let byte_frac = fs.by_bytes.fraction_below(100.0);
        assert!(byte_frac < 0.02, "byte weighting favours the big file");
    }

    #[test]
    fn open_time_distribution() {
        let accesses = vec![access(10, 10, 100), access(10, 10, 1_000)];
        let ot = open_times(&accesses);
        assert!((ot.fraction_below(0.5) - 0.5).abs() < 1e-9);
        assert!((ot.fraction_below(2.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lifetime_distribution() {
        let del = |size: u64, oldest: u64, newest: u64| Record {
            time: SimTime::from_secs(100),
            client: ClientId(0),
            user: UserId(1),
            pid: Pid(0),
            migrated: false,
            kind: RecordKind::Delete {
                file: FileId(1),
                size,
                is_dir: false,
                oldest_age: SimDuration::from_secs(oldest),
                newest_age: SimDuration::from_secs(newest),
            },
        };
        let records = vec![del(100, 10, 10), del(1_000_000, 600, 600)];
        let lt = lifetimes(&records);
        assert!((lt.by_files.fraction_below(30.0) - 0.5).abs() < 1e-9);
        // Almost all deleted bytes belong to the 10-minute-old megabyte.
        assert!(lt.by_bytes.fraction_below(30.0) < 0.001);
    }

    #[test]
    fn truncate_counts_as_delete() {
        let rec = Record {
            time: SimTime::from_secs(50),
            client: ClientId(0),
            user: UserId(1),
            pid: Pid(0),
            migrated: false,
            kind: RecordKind::Truncate {
                file: FileId(2),
                old_size: 500,
                oldest_age: SimDuration::from_secs(20),
                newest_age: SimDuration::from_secs(4),
            },
        };
        let lt = lifetimes(&[rec]);
        assert_eq!(lt.by_files.len(), 1);
        // Average of 20 and 4 is 12.
        assert!((lt.by_files.quantile(0.5) - 12.0).abs() < 1e-9);
    }

    #[test]
    fn render_produces_four_figures() {
        let all = AllFigures {
            run_lengths: run_lengths(&[access(100, 100, 5)]),
            file_sizes: file_sizes(&[access(100, 100, 5)]),
            open_times: open_times(&[access(100, 100, 5)]),
            lifetimes: Lifetimes::default(),
        };
        let figs = all.render();
        assert_eq!(figs.len(), 4);
        for f in &figs {
            assert!(!f.curves.is_empty());
        }
    }
}
