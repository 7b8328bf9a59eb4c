//! End-to-end tests of the `repro` command-line surface.
//!
//! These run the actual binary (Cargo builds it for integration tests
//! and exposes the path via `CARGO_BIN_EXE_repro`), so they check what
//! a user at a shell sees: exit statuses, the usage synopsis, and the
//! observability contract that `--observe` never changes stdout.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn unknown_subcommand_prints_usage_and_exits_2() {
    let out = repro(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "unknown subcommand exits 2");
    assert!(out.stdout.is_empty(), "usage goes to stderr, not stdout");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand `frobnicate`"), "{err}");
    assert!(err.contains("usage: repro"), "{err}");
    // The synopsis must list every subcommand, including the
    // observability surface added with the self-measurement layer.
    for name in [
        "all", "cache", "figures", "bsd", "check", "ablations", "extensions", "faults", "latency",
        "gen-trace", "obs", "profile", "selftrace",
    ] {
        assert!(err.contains(name), "usage must list `{name}`:\n{err}");
    }
}

#[test]
fn misspelled_flagless_table_exits_2() {
    let out = repro(&["--quick", "table13"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("table13"));
}

#[test]
fn observe_never_changes_stdout() {
    // The acceptance bar for the self-measurement layer: an observed
    // run's stdout is byte-identical to a plain run's; the report rides
    // on stderr.
    let plain = repro(&["--quick", "--traces", "1", "--days", "1", "table1"]);
    let observed = repro(&[
        "--quick", "--traces", "1", "--days", "1", "--observe", "table1",
    ]);
    assert!(plain.status.success());
    assert!(observed.status.success());
    assert_eq!(
        plain.stdout, observed.stdout,
        "--observe must not perturb stdout"
    );
    let err = String::from_utf8_lossy(&observed.stderr);
    assert!(
        err.contains("sdfs-obs self-measurement report"),
        "observed run reports on stderr:\n{err}"
    );
}

#[test]
fn threads_auto_is_accepted_and_changes_nothing() {
    // `--threads 0` is rejected (see below); `auto` asks for one worker
    // per host CPU, like the default.
    let run = |threads: &str| {
        let out = repro(&["--quick", "--traces", "1", "--threads", threads, "table1"]);
        assert!(
            out.status.success(),
            "--threads {threads} exits 0:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    assert_eq!(run("1"), run("auto"), "--threads auto changed stdout");
}

#[test]
fn profile_trace_out_unwritable_exits_2_without_panic() {
    // `profile` takes no file argument: `--trace-out` is an unknown
    // flag, diagnosed before any simulation runs and before the path
    // is touched, never a panic.
    let out = repro(&[
        "--quick",
        "--traces",
        "1",
        "--days",
        "1",
        "profile",
        "--trace-out",
        "/nonexistent-dir-for-cli-test/trace.json",
    ]);
    assert_eq!(out.status.code(), Some(2), "--trace-out exits 2");
    assert!(out.stdout.is_empty(), "no profile on stdout");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag `--trace-out`"), "{err}");
    assert!(err.contains("usage: repro"), "usage synopsis on stderr:\n{err}");
    assert!(!err.contains("panicked"), "must not panic:\n{err}");
}

#[test]
fn unwritable_output_path_exits_2_before_the_study() {
    // An output path that cannot be created is diagnosed before any
    // simulation runs: exit 2 naming the path, never a panic after the
    // whole study. A directory below a regular file cannot be created
    // even by a privileged user.
    let trace = "/nonexistent-dir-for-cli-test/trace.bin";
    let csv = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/csv");
    let cases: &[(&[&str], &str)] = &[
        (&["gen-trace", trace], trace),
        (&["figures", "--csv", csv], csv),
    ];
    for &(sub, path) in cases {
        let mut args = vec!["--quick", "--traces", "1", "--days", "1"];
        args.extend_from_slice(sub);
        let out = repro(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(out.stdout.is_empty(), "{args:?}: nothing on stdout");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("repro: cannot write {path}: ")),
            "{args:?}: diagnostic names the path:\n{err}"
        );
        assert!(!err.contains("running study"), "{args:?}: fails first:\n{err}");
        assert!(!err.contains("panicked"), "{args:?}: must not panic:\n{err}");
    }
}

#[test]
fn profile_prints_one_row_per_analysis_consumer() {
    let out = repro(&["--quick", "--traces", "1", "--days", "1", "profile"]);
    assert!(
        out.status.success(),
        "profile exits 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let txt = String::from_utf8_lossy(&out.stdout);
    for consumer in [
        "stats",
        "table2",
        "access scan + table3 + fig1-3",
        "fig4",
        "table10",
        "table11 60 s",
        "table11 3 s",
        "table12",
    ] {
        let rows = txt
            .lines()
            .filter(|l| l.trim_start().starts_with(consumer) && l.ends_with(" ns/record"))
            .count();
        assert_eq!(rows, 1, "one `{consumer}` row:\n{txt}");
    }
}

#[test]
fn trace_out_missing_value_exits_2() {
    let out = repro(&["--quick", "profile", "--trace-out"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag `--trace-out`"), "{err}");
}

#[test]
fn unknown_causal_family_flags_are_rejected() {
    // No `--causal` flag exists; neither it nor its near-misses may
    // parse as a profiled run (worse: silently as an unprofiled one).
    for flag in ["--causal", "--causally", "--causal-path", "--causal=1"] {
        let out = repro(&["--quick", flag, "profile"]);
        assert_eq!(out.status.code(), Some(2), "`{flag}` exits 2");
        assert!(out.stdout.is_empty(), "`{flag}`: nothing on stdout");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown flag `{flag}`")),
            "`{flag}`:\n{err}"
        );
    }
}

#[test]
fn rejected_input_exits_2_with_usage() {
    // Input the parser does not understand is a usage error, diagnosed
    // before any simulation runs — never silently ignored. Each case
    // names the token the diagnostic must quote.
    let cases: &[(&[&str], &str)] = &[
        // Typos of real flags.
        (&["--quick", "--sanitise", "all"], "--sanitise"),
        (&["--quik", "table1"], "--quik"),
        (&["--quick", "--observ", "table1"], "--observ"),
        // Flags whose subject was removed.
        (&["--quick", "--racecheck", "all"], "--racecheck"),
        (&["--quick", "--no-fastpath", "all"], "--no-fastpath"),
        (&["--quick", "--audit", "all"], "`--audit`"),
        (&["--quick", "--root", ".", "all"], "`--root`"),
        // Subcommands whose subject was removed.
        (&["--quick", "bench"], "bench"),
        (&["lint"], "unknown subcommand `lint`"),
        // Unparseable, zero, and missing values.
        (&["--quick", "--traces", "abc", "table1"], "abc"),
        (&["--quick", "--threads", "two", "table1"], "two"),
        (&["--quick", "--traces", "0", "all"], "--traces"),
        (&["--quick", "--threads", "0", "all"], "--threads"),
        (&["--quick", "--days", "-1", "table1"], "--days"),
        (&["--quick", "table1", "--traces"], "--traces"),
        // A stray positional argument.
        (&["--quick", "table1", "table2"], "table2"),
        // Flags the subcommand does not take would do nothing.
        (&["--quick", "--csv", "x", "table1"], "`--csv`"),
        (&["--quick", "--json", "table1"], "`--json`"),
        // SpriteSan's verdict and the observer's report are printed
        // only by the report subcommands and `faults` (and `obs`).
        (&["--quick", "--sanitize", "extensions"], "`--sanitize`"),
        (&["--quick", "--sanitize", "ablations"], "`--sanitize`"),
        (&["--quick", "--sanitize", "latency"], "`--sanitize`"),
        (
            &["--quick", "--sanitize", "gen-trace", "x.bin"],
            "`--sanitize`",
        ),
        (&["--quick", "--sanitize", "selftrace"], "`--sanitize`"),
        (&["--quick", "--sanitize", "profile"], "`--sanitize`"),
        (&["--quick", "--sanitize", "obs"], "`--sanitize`"),
        (&["--quick", "--observe", "extensions"], "`--observe`"),
        (&["--quick", "--observe", "ablations"], "`--observe`"),
        (&["--quick", "--observe", "latency"], "`--observe`"),
        (
            &["--quick", "--observe", "gen-trace", "x.bin"],
            "`--observe`",
        ),
        (&["--quick", "--observe", "selftrace"], "`--observe`"),
        (&["--quick", "--observe", "profile"], "`--observe`"),
        // `gen-trace` without its output path.
        (&["--quick", "gen-trace"], "`gen-trace`"),
    ];
    for &(args, token) in cases {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        assert!(out.stdout.is_empty(), "{args:?}: nothing on stdout");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(token),
            "{args:?}: diagnostic names `{token}`:\n{err}"
        );
        assert!(
            err.contains("usage: repro"),
            "{args:?}: usage on stderr:\n{err}"
        );
        assert!(
            !err.contains("panicked"),
            "{args:?}: must not panic:\n{err}"
        );
    }
}

/// Extract every key path from a JSON document, in document order.
///
/// No JSON parser is available in-tree, so this is a minimal scanner:
/// a quoted string followed by `:` is a key; `{`/`[` push the pending
/// key onto the path stack, `}`/`]` pop. Good enough for the schema
/// golden below, which only cares about key names and nesting.
fn json_key_paths(doc: &str) -> Vec<String> {
    let b: Vec<char> = doc.chars().collect();
    let mut i = 0;
    let mut stack: Vec<String> = Vec::new();
    let mut pending = String::new();
    let mut paths = Vec::new();
    while i < b.len() {
        match b[i] {
            '"' => {
                let start = i + 1;
                i += 1;
                while i < b.len() && b[i] != '"' {
                    if b[i] == '\\' {
                        i += 1;
                    }
                    i += 1;
                }
                let s: String = b[start..i].iter().collect();
                let mut j = i + 1;
                while j < b.len() && b[j].is_whitespace() {
                    j += 1;
                }
                if j < b.len() && b[j] == ':' {
                    let prefix: Vec<&str> = stack
                        .iter()
                        .filter(|p| !p.is_empty())
                        .map(String::as_str)
                        .collect();
                    paths.push(if prefix.is_empty() {
                        s.clone()
                    } else {
                        format!("{}/{}", prefix.join("/"), s)
                    });
                    pending = s;
                }
            }
            '{' | '[' => stack.push(std::mem::take(&mut pending)),
            '}' | ']' => {
                stack.pop();
            }
            _ => {}
        }
        i += 1;
    }
    paths
}

#[test]
fn obs_json_schema_matches_golden() {
    // The `obs --json` document is for machines to read (dashboards
    // and other external tools), so its key set AND ordering are a
    // contract. The golden file holds one key path per line; a drift
    // shows up as a readable line diff, not a wall of JSON.
    let out = repro(&["--quick", "--traces", "1", "--days", "1", "obs", "--json"]);
    assert!(out.status.success());
    let doc = String::from_utf8_lossy(&out.stdout);
    let got = json_key_paths(&doc);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/obs_json_keys.txt"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, got.join("\n") + "\n").expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file (run with BLESS=1 to create)");
    let want: Vec<&str> = golden.lines().collect();
    if got != want {
        let mut diff = String::new();
        let n = got.len().max(want.len());
        for k in 0..n {
            let g = got.get(k).map(String::as_str).unwrap_or("<missing>");
            let w = want.get(k).copied().unwrap_or("<missing>");
            if g != w {
                diff.push_str(&format!("  line {}: got `{g}`, golden `{w}`\n", k + 1));
            }
        }
        panic!(
            "obs --json key schema drifted from {path}\n\
             (if intentional, re-bless with BLESS=1 cargo test obs_json_schema)\n{diff}"
        );
    }
}

#[test]
fn selftrace_round_trip_agrees() {
    let out = repro(&["--quick", "selftrace"]);
    assert!(
        out.status.success(),
        "selftrace must agree: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let txt = String::from_utf8_lossy(&out.stdout);
    assert!(txt.contains("round trip exact"), "{txt}");
    assert!(txt.contains("Self-trace verdict: agree"), "{txt}");
}

/// `repro --sanitize --observe faults` checks the outage day and both
/// partition days: stdout stays the plain golden, stderr carries one
/// merged SpriteSan verdict, and the one observer report holds the
/// lease-protocol heal's `lease_renew` and `reassert` RPCs and a stall
/// span for every stalled RPC the three days count on stdout.
#[test]
fn sanitized_observed_faults_report_every_headline_day() {
    let out = repro(&["--quick", "--sanitize", "--observe", "faults"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout == include_str!("../scripts/golden/quick_faults_stdout.txt"),
        "--sanitize --observe changed the faults report:\n{stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let verdicts: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("sanitizer: "))
        .collect();
    assert!(
        verdicts.len() == 1 && verdicts[0].starts_with("sanitizer: clean"),
        "one clean verdict over the three days, got {verdicts:?}"
    );
    let row = |name: &str| {
        stderr
            .lines()
            .find_map(|l| {
                let mut fields = l.split_whitespace();
                (fields.next() == Some(name)).then(|| fields.next()?.parse::<u64>().ok())?
            })
            .unwrap_or(0)
    };
    assert!(row("lease_renew") > 0, "no lease_renew row:\n{stderr}");
    assert!(row("reassert") > 0, "no reassert row:\n{stderr}");
    // "stalled RPCs: 988 (stall seconds ...)" for the outage day, then
    // "stalled RPCs  544  545" for the two partition days.
    let stalled: u64 = stdout
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("stalled RPCs"))
        .flat_map(|rest| {
            rest.trim_start_matches(':')
                .split_whitespace()
                .map_while(|t| t.parse::<u64>().ok())
        })
        .sum();
    assert_eq!(stalled, 988 + 544 + 545, "stalled RPCs on stdout");
    assert!(
        row("rpc.stall") >= stalled,
        "{} rpc.stall spans for {stalled} stalled RPCs:\n{stderr}",
        row("rpc.stall")
    );
}
