//! Paper-style rendering of the study's tables and figures.
//!
//! Each `render_*` function returns a plain-text table, with the
//! published 1991 value alongside where the paper reports one, so the
//! output doubles as the paper-vs-measured record in `EXPERIMENTS.md`.

use std::fmt::Write as _;

use crate::figures::Figure;
use crate::study::{StudyResults, TraceAnalysis};

/// Formats a byte count with a binary-ish unit, as the paper does
/// (Kbytes/Mbytes).
pub fn fmt_bytes(b: f64) -> String {
    if b >= 1e6 {
        format!("{:.1} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1} KB", b / 1e3)
    } else {
        format!("{b:.0} B")
    }
}

/// Table 1: one row per trace.
pub fn render_table1(traces: &[TraceAnalysis]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 1. Overall trace statistics (measured)");
    let _ = writeln!(
        s,
        "{:<8} {:>7} {:>6} {:>6} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8} {:>7} {:>7} {:>8} {:>8}",
        "trace",
        "hours",
        "users",
        "migr",
        "MB read",
        "MB writ",
        "MB dirs",
        "opens",
        "closes",
        "seeks",
        "deletes",
        "truncs",
        "sh.rd",
        "sh.wr"
    );
    for (i, t) in traces.iter().enumerate() {
        let st = &t.stats;
        let _ = writeln!(
            s,
            "{:<8} {:>7.1} {:>6} {:>6} {:>9.0} {:>9.0} {:>8.1} {:>8} {:>8} {:>8} {:>7} {:>7} {:>8} {:>8}",
            format!("{}{}", i + 1, if t.spec.heavy_sim { "*" } else { "" }),
            st.duration_hours(),
            st.different_users,
            st.users_of_migration,
            st.mbytes_read_files(),
            st.mbytes_written_files(),
            st.mbytes_read_dirs(),
            st.open_events,
            st.close_events,
            st.reposition_events,
            st.delete_events,
            st.truncate_events,
            st.shared_read_events,
            st.shared_write_events,
        );
    }
    let _ = writeln!(
        s,
        "(* = heavy simulation users active, as in the paper's traces 3-4)"
    );
    let _ = writeln!(
        s,
        "Paper: 23.8-24 h, 33-50 users, 6-15 migr users, 822-17754 MB read,\n\
         476-5500 MB written, 115929-278388 opens, 102114-221372 seeks."
    );
    s
}

/// Selects one interval-class activity summary out of a trace analysis.
type StatPick = fn(&TraceAnalysis) -> &crate::activity::ActivityStats;

/// Table 2: user activity, aggregated across traces.
pub fn render_table2(traces: &[TraceAnalysis]) -> String {
    use sdfs_simkit::Summary;
    let mut s = String::new();
    let _ = writeln!(s, "Table 2. User activity (measured vs paper)");
    let agg = |pick: StatPick| {
        let mut active = Summary::new();
        let mut tput = Summary::new();
        let mut max_active = 0u64;
        let mut peak_user = 0f64;
        let mut peak_total = 0f64;
        for t in traces {
            let a = pick(t);
            active.merge(&a.active_users);
            tput.merge(&a.throughput_per_user);
            max_active = max_active.max(a.max_active_users);
            peak_user = peak_user.max(a.peak_user_throughput);
            peak_total = peak_total.max(a.peak_total_throughput);
        }
        (active, tput, max_active, peak_user, peak_total)
    };
    let rows: [(&str, StatPick, [&str; 5]); 4] = [
        (
            "10-minute intervals, all users",
            |t| &t.activity.ten_min_all,
            ["9.1 (5.1)", "27", "8.0 (36) KB/s", "458 KB/s", "681 KB/s"],
        ),
        (
            "10-minute intervals, migrated",
            |t| &t.activity.ten_min_migrated,
            ["0.91 (0.98)", "5", "50.7 (96) KB/s", "458 KB/s", "616 KB/s"],
        ),
        (
            "10-second intervals, all users",
            |t| &t.activity.ten_sec_all,
            [
                "1.6 (1.5)",
                "12",
                "47.0 (268) KB/s",
                "9871 KB/s",
                "9977 KB/s",
            ],
        ),
        (
            "10-second intervals, migrated",
            |t| &t.activity.ten_sec_migrated,
            [
                "0.14 (0.4)",
                "4",
                "316 (808) KB/s",
                "9871 KB/s",
                "9871 KB/s",
            ],
        ),
    ];
    for (name, pick, paper) in rows {
        let (active, tput, max_active, peak_user, peak_total) = agg(pick);
        let _ = writeln!(s, "\n  {name}:");
        let _ = writeln!(
            s,
            "    avg active users      {:>10.2} ({:.2})   [paper: {}]",
            active.mean(),
            active.stddev(),
            paper[0]
        );
        let _ = writeln!(
            s,
            "    max active users      {max_active:>10}          [paper: {}]",
            paper[1]
        );
        let _ = writeln!(
            s,
            "    avg tput/active user  {:>10} ({})  [paper: {}]",
            fmt_bytes(tput.mean()),
            fmt_bytes(tput.stddev()),
            paper[2]
        );
        let _ = writeln!(
            s,
            "    peak user tput        {:>10}/s        [paper: {}]",
            fmt_bytes(peak_user),
            paper[3]
        );
        let _ = writeln!(
            s,
            "    peak total tput       {:>10}/s        [paper: {}]",
            fmt_bytes(peak_total),
            paper[4]
        );
    }
    s
}

/// Table 3: access patterns merged across traces.
pub fn render_table3(traces: &[TraceAnalysis]) -> String {
    let mut merged = crate::patterns::AccessPatterns::default();
    for t in traces {
        merged.merge(&t.patterns);
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table 3. File access patterns (measured, paper in brackets)"
    );
    let ty_acc = merged.type_access_percentages();
    let ty_b = merged.type_byte_percentages();
    let rows = [
        ("Read-only", &merged.read_only, ("88", "80", "78", "89")),
        ("Write-only", &merged.write_only, ("11", "19", "67", "69")),
        ("Read/write", &merged.read_write, ("1", "1", "0", "0")),
    ];
    for (i, (name, row, paper)) in rows.into_iter().enumerate() {
        let acc = row.access_percentages();
        let byt = row.byte_percentages();
        let _ = writeln!(
            s,
            "  {name:<11} accesses {:>5.1}% [{}]  bytes {:>5.1}% [{}]",
            ty_acc[i], paper.0, ty_b[i], paper.1
        );
        let _ = writeln!(
            s,
            "     whole-file: {:>5.1}% of accesses [{}], {:>5.1}% of bytes [{}]",
            acc[0], paper.2, byt[0], paper.3
        );
        let _ = writeln!(
            s,
            "     other-seq:  {:>5.1}% of accesses, {:>5.1}% of bytes; random: {:>4.1}% / {:>4.1}%",
            acc[1], byt[1], acc[2], byt[2]
        );
    }
    let _ = writeln!(
        s,
        "  sequential bytes overall: {:.1}% [paper: >90%]",
        100.0 * merged.sequential_byte_fraction()
    );
    s
}

/// Renders one figure as an ASCII-ish table of curve points.
pub fn render_figure(fig: &Figure) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{} ({})", fig.title, fig.x_label);
    for (label, points) in &fig.curves {
        let _ = writeln!(s, "  {label}:");
        for chunk in points.chunks(6) {
            let row: Vec<String> = chunk
                .iter()
                .map(|&(x, f)| format!("{:>10.3e}:{:>5.1}%", x, f * 100.0))
                .collect();
            let _ = writeln!(s, "    {}", row.join(" "));
        }
    }
    s
}

/// Key quantiles the paper calls out in its figure prose.
pub fn render_figure_checkpoints(traces: &[TraceAnalysis]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Figure checkpoints (measured vs paper prose):");
    for (i, t) in traces.iter().enumerate() {
        let f = &t.figures;
        let runs10k = f.run_lengths.by_runs.fraction_below(10_240.0) * 100.0;
        let bytes_1m = 100.0 - f.run_lengths.by_bytes.fraction_below(1_048_576.0) * 100.0;
        let small_files = f.file_sizes.by_accesses.fraction_below(10_240.0) * 100.0;
        let big_bytes = 100.0 - f.file_sizes.by_bytes.fraction_below(1_048_576.0) * 100.0;
        let opens_quarter = f.open_times.fraction_below(0.25) * 100.0;
        let lt30 = f.lifetimes.by_files.fraction_below(30.0) * 100.0;
        let bytes30 = f.lifetimes.by_bytes.fraction_below(30.0) * 100.0;
        let _ = writeln!(
            s,
            "  trace {}: runs<10K {:.0}% [~80]; bytes in runs>1MB {:.0}% [>=10];\n\
             \x20          accesses to files<10K {:.0}% [~80]; bytes from files>1MB {:.0}% [~40];\n\
             \x20          opens<0.25s {:.0}% [~75]; files dead<30s {:.0}% [65-80]; bytes dead<30s {:.0}% [4-27]",
            i + 1,
            runs10k,
            bytes_1m,
            small_files,
            big_bytes,
            opens_quarter,
            lt30,
            bytes30,
        );
    }
    s
}

/// Tables 4–9 from the counter campaign.
pub fn render_cache_tables(r: &StudyResults) -> String {
    let mut s = String::new();
    let t4 = &r.table4;
    let _ = writeln!(s, "Table 4. Client cache sizes");
    let _ = writeln!(
        s,
        "  size: mean {} (std {}), max {}   [paper: ~7 MB of 24-32 MB]",
        fmt_bytes(t4.size.mean()),
        fmt_bytes(t4.size.stddev()),
        fmt_bytes(t4.size.max())
    );
    let _ = writeln!(
        s,
        "  15-min changes: mean {} (std {}), max {}  [paper: 493 KB avg, max ~21.9 MB]",
        fmt_bytes(t4.change_15min.mean()),
        fmt_bytes(t4.change_15min.stddev()),
        fmt_bytes(t4.change_15min.max())
    );
    let _ = writeln!(
        s,
        "  60-min changes: mean {} (std {}), max {}  [paper: 1049 KB avg, max ~22.9 MB]",
        fmt_bytes(t4.change_60min.mean()),
        fmt_bytes(t4.change_60min.stddev()),
        fmt_bytes(t4.change_60min.max())
    );

    let t5 = &r.table5;
    let _ = writeln!(s, "\nTable 5. Raw traffic sources (% of all raw bytes)");
    let _ = writeln!(
        s,
        "  cached file:      read {:>5.1}% ({:.1})  write {:>5.1}% ({:.1})  [paper: ~32/~10]",
        t5.files.0.pct, t5.files.0.std, t5.files.1.pct, t5.files.1.std
    );
    let _ = writeln!(
        s,
        "  cached paging:    read {:>5.1}% ({:.1})                 [paper: ~17]",
        t5.paging_cached.pct, t5.paging_cached.std
    );
    let _ = writeln!(
        s,
        "  backing paging:   read {:>5.1}% ({:.1})  write {:>5.1}% ({:.1})  [paper: ~11/~7]",
        t5.paging_backing.0.pct,
        t5.paging_backing.0.std,
        t5.paging_backing.1.pct,
        t5.paging_backing.1.std
    );
    let _ = writeln!(
        s,
        "  write-shared:     read {:>5.1}% ({:.1})  write {:>5.1}% ({:.1})  [paper: <1 total]",
        t5.shared.0.pct, t5.shared.0.std, t5.shared.1.pct, t5.shared.1.std
    );
    let _ = writeln!(
        s,
        "  directories:      read {:>5.1}% ({:.1})                 [paper: ~1-2]",
        t5.dirs.pct, t5.dirs.std
    );
    let _ = writeln!(
        s,
        "  TOTAL reads {:.1}% writes {:.1}%  [paper: 81.7 / 18.3];  paging {:.0}% of traffic [~35];\n\
         \x20 uncacheable {:.0}% [~20]",
        t5.total.0,
        t5.total.1,
        100.0 * t5.paging_fraction,
        100.0 * t5.uncacheable_fraction
    );

    let t6 = &r.table6;
    let _ = writeln!(s, "\nTable 6. Client cache effectiveness (all / migrated)");
    let _ = writeln!(
        s,
        "  file read misses:   {:>5.1}% ({:.1}) / {:>5.1}% ({:.1})  [paper: 41.4 / 22.2]",
        t6.read_miss_pct.0.pct,
        t6.read_miss_pct.0.std,
        t6.read_miss_pct.1.pct,
        t6.read_miss_pct.1.std
    );
    let _ = writeln!(
        s,
        "  read miss traffic:  {:>5.1}% ({:.1}) / {:>5.1}% ({:.1})  [paper: 37.1 / 31.7]",
        t6.read_miss_traffic_pct.0.pct,
        t6.read_miss_traffic_pct.0.std,
        t6.read_miss_traffic_pct.1.pct,
        t6.read_miss_traffic_pct.1.std
    );
    let _ = writeln!(
        s,
        "  writeback traffic:  {:>5.1}% ({:.1})                 [paper: 88.4]",
        t6.writeback_pct.pct, t6.writeback_pct.std
    );
    let _ = writeln!(
        s,
        "  write fetches:      {:>5.1}% ({:.1}) / {:>5.1}% ({:.1})  [paper: 1.2 / 1.6]",
        t6.write_fetch_pct.0.pct,
        t6.write_fetch_pct.0.std,
        t6.write_fetch_pct.1.pct,
        t6.write_fetch_pct.1.std
    );
    let _ = writeln!(
        s,
        "  paging read misses: {:>5.1}% ({:.1}) / {:>5.1}% ({:.1})  [paper: 28.7 / 8.8]",
        t6.paging_miss_pct.0.pct,
        t6.paging_miss_pct.0.std,
        t6.paging_miss_pct.1.pct,
        t6.paging_miss_pct.1.std
    );

    let t7 = &r.table7;
    let _ = writeln!(s, "\nTable 7. Client-to-server traffic (% of server bytes)");
    let _ = writeln!(
        s,
        "  file:    read {:>5.1}% ({:.1})  write {:>5.1}% ({:.1})",
        t7.files.0.pct, t7.files.0.std, t7.files.1.pct, t7.files.1.std
    );
    let _ = writeln!(
        s,
        "  paging:  read {:>5.1}% ({:.1})  write {:>5.1}% ({:.1})  [paper: paging ~35% total]",
        t7.paging.0.pct, t7.paging.0.std, t7.paging.1.pct, t7.paging.1.std
    );
    let _ = writeln!(
        s,
        "  shared:  read {:>5.1}% ({:.1})  write {:>5.1}% ({:.1})  [paper: ~1%]",
        t7.shared.0.pct, t7.shared.0.std, t7.shared.1.pct, t7.shared.1.std
    );
    let _ = writeln!(
        s,
        "  dirs:    read {:>5.1}% ({:.1})",
        t7.dirs.pct, t7.dirs.std
    );
    let _ = writeln!(
        s,
        "  non-paging read:write = {:.1}:1 [paper ~2:1];  server/raw = {:.0}% [paper ~50%]",
        t7.nonpaging_read_write_ratio,
        100.0 * t7.server_over_raw
    );
    let sc = crate::cache_tables::server_cache_stats(&r.counters.servers);
    let _ = writeln!(
        s,
        "  server caches: {:.0}% read hit ratio; disks see {:.0}% of the          read bytes clients request",
        100.0 * sc.hit_ratio(),
        100.0 * sc.disk_over_served()
    );

    let t8 = &r.table8;
    let _ = writeln!(s, "\nTable 8. Cache block replacement");
    let _ = writeln!(
        s,
        "  for file data: {:>5.1}% of blocks, age {:>6.1} min  [paper: 79.4%, 47.6 min]",
        t8.file_pct, t8.file_age_mins
    );
    let _ = writeln!(
        s,
        "  given to VM:   {:>5.1}% of blocks, age {:>6.1} min  [paper: 20.6%, 27.2 min]",
        t8.vm_pct, t8.vm_age_mins
    );

    let t9 = &r.table9;
    let _ = writeln!(s, "\nTable 9. Dirty block cleaning");
    let rows = [
        ("30-second delay", &t9.delay, "71.1%, ~79 s"),
        ("fsync", &t9.fsync, "16.2%, ~16 s"),
        ("server recall", &t9.recall, "12.6%, ~19 s"),
        ("given to VM", &t9.vm, "1.3%, ~12 s"),
        ("dirty eviction", &t9.evict, "~0"),
    ];
    for (name, row, paper) in rows {
        let _ = writeln!(
            s,
            "  {name:<16} {:>5.1}% of blocks, age {:>6.1} s  [paper: {paper}]",
            row.blocks_pct, row.age_secs
        );
    }
    s
}

/// Tables 10–12 across traces.
pub fn render_consistency_tables(r: &StudyResults) -> String {
    let mut s = String::new();
    let agg = r.table10_aggregate();
    let (min_cws, max_cws) = min_max(r, |t| t.table10.cws_pct());
    let (min_rec, max_rec) = min_max(r, |t| t.table10.recall_pct());
    let _ = writeln!(s, "Table 10. Consistency actions (% of file opens)");
    let _ = writeln!(
        s,
        "  concurrent write-sharing: {:.2}% ({:.2}-{:.2})  [paper: 0.34 (0.18-0.56)]",
        agg.cws_pct(),
        min_cws,
        max_cws
    );
    let _ = writeln!(
        s,
        "  server recall:            {:.2}% ({:.2}-{:.2})  [paper: 1.7 (0.79-3.35)]",
        agg.recall_pct(),
        min_rec,
        max_rec
    );

    let _ = writeln!(s, "\nTable 11. Stale data errors under polling");
    for (name, pick, paper) in [
        (
            "60-second interval",
            &|t: &TraceAnalysis| &t.table11.sixty as &crate::staleness::PollingOutcome,
            "18/h, 48% users, 0.34% opens",
        ),
        (
            "3-second interval",
            &|t: &TraceAnalysis| &t.table11.three as &crate::staleness::PollingOutcome,
            "0.59/h, 7.1% users, 0.011% opens",
        ),
    ]
        as [(
            &str,
            &dyn Fn(&TraceAnalysis) -> &crate::staleness::PollingOutcome,
            &str,
        ); 2]
    {
        let mut per_hour = sdfs_simkit::Summary::new();
        let mut users = sdfs_simkit::Summary::new();
        let mut opens = sdfs_simkit::Summary::new();
        let mut mig = sdfs_simkit::Summary::new();
        for t in &r.traces {
            let o = pick(t);
            per_hour.add(o.errors_per_hour);
            users.add(o.users_affected_pct());
            opens.add(o.opens_with_error_pct());
            mig.add(o.migrated_opens_with_error_pct());
        }
        let _ = writeln!(
            s,
            "  {name}: {:.2} errors/h, {:.0}% users affected, {:.3}% opens, {:.3}% migrated opens",
            per_hour.mean(),
            users.mean(),
            opens.mean(),
            mig.mean()
        );
        let _ = writeln!(s, "     [paper: {paper}]");
    }
    let (u60, u3) = r.staleness_union_pct();
    let _ = writeln!(
        s,
        "  users affected over all traces: {u60:.0}% (60 s) / {u3:.0}% (3 s)  [paper: 63 / 20]"
    );

    let _ = writeln!(
        s,
        "\nTable 12. Consistency algorithm overhead on shared files"
    );
    for (name, pick, paper) in [
        (
            "Sprite",
            &|t: &TraceAnalysis| t.table12.sprite as crate::overhead::OverheadResult,
            "bytes 1.00, RPCs 1.00",
        ),
        (
            "Modified Sprite",
            &|t: &TraceAnalysis| t.table12.modified,
            "~= Sprite",
        ),
        (
            "Token-based",
            &|t: &TraceAnalysis| t.table12.token,
            "bytes ~0.98, RPCs ~0.80 (high variance)",
        ),
    ]
        as [(
            &str,
            &dyn Fn(&TraceAnalysis) -> crate::overhead::OverheadResult,
            &str,
        ); 3]
    {
        let mut total = crate::overhead::OverheadResult::default();
        let mut min_b = f64::INFINITY;
        let mut max_b: f64 = 0.0;
        let mut min_r = f64::INFINITY;
        let mut max_r: f64 = 0.0;
        for t in &r.traces {
            let o = pick(t);
            total.app_bytes += o.app_bytes;
            total.app_events += o.app_events;
            total.alg_bytes += o.alg_bytes;
            total.alg_rpcs += o.alg_rpcs;
            min_b = min_b.min(o.bytes_ratio());
            max_b = max_b.max(o.bytes_ratio());
            min_r = min_r.min(o.rpc_ratio());
            max_r = max_r.max(o.rpc_ratio());
        }
        let _ = writeln!(
            s,
            "  {name:<16} bytes ratio {:.2} ({:.2}-{:.2}), RPC ratio {:.2} ({:.2}-{:.2})  [paper: {paper}]",
            total.bytes_ratio(),
            min_b,
            max_b,
            total.rpc_ratio(),
            min_r,
            max_r
        );
    }
    s
}

fn min_max(r: &StudyResults, f: impl Fn(&TraceAnalysis) -> f64) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for t in &r.traces {
        let v = f(t);
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if lo > hi {
        (0.0, 0.0)
    } else {
        (lo, hi)
    }
}

/// Writes one figure's curves as CSV: `x,curve1,curve2,...` — ready for
/// gnuplot or a spreadsheet.
pub fn write_figure_csv(fig: &Figure, path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let labels: Vec<&str> = fig.curves.iter().map(|(l, _)| l.as_str()).collect();
    writeln!(f, "# {}", fig.title)?;
    writeln!(f, "{},{}", fig.x_label, labels.join(","))?;
    let n = fig.curves.first().map(|(_, pts)| pts.len()).unwrap_or(0);
    for i in 0..n {
        let x = fig.curves[0].1[i].0;
        let row: Vec<String> = fig
            .curves
            .iter()
            .map(|(_, pts)| format!("{:.6}", pts.get(i).map(|p| p.1).unwrap_or(f64::NAN)))
            .collect();
        writeln!(f, "{x:.3},{}", row.join(","))?;
    }
    f.flush()
}

/// Exports every figure of a trace analysis into `dir` as
/// `fig1.csv`..`fig4.csv`.
pub fn export_figures(
    figures: &crate::figures::AllFigures,
    dir: &std::path::Path,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for (i, fig) in figures.render().iter().enumerate() {
        let path = dir.join(format!("fig{}.csv", i + 1));
        write_figure_csv(fig, &path)?;
        written.push(path);
    }
    Ok(written)
}

/// Renders the whole study.
pub fn render_all(results: &StudyResults) -> String {
    let mut s = String::new();
    s.push_str(&render_table1(&results.traces));
    s.push('\n');
    s.push_str(&render_table2(&results.traces));
    s.push('\n');
    s.push_str(&render_table3(&results.traces));
    s.push('\n');
    s.push_str(&render_figure_checkpoints(&results.traces));
    s.push('\n');
    s.push_str(&render_cache_tables(results));
    s.push('\n');
    s.push_str(&render_consistency_tables(results));
    s.push('\n');
    if let Some(first) = results.traces.first() {
        s.push_str(&crate::bsd::compare(first).render());
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_export_round_trips_structure() {
        let fig = Figure {
            title: "Test figure",
            x_label: "x",
            curves: vec![
                ("a".into(), vec![(1.0, 0.1), (2.0, 0.5)]),
                ("b".into(), vec![(1.0, 0.2), (2.0, 0.9)]),
            ],
        };
        let dir = std::env::temp_dir().join("sdfs-report-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("fig.csv");
        write_figure_csv(&fig, &path).expect("write csv");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(text.contains("Test figure"));
        assert!(text.contains("x,a,b"));
        assert!(text.lines().count() >= 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(512.0), "512 B");
        assert_eq!(fmt_bytes(2_048.0), "2.0 KB");
        assert_eq!(fmt_bytes(7.5e6), "7.5 MB");
    }
}
