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
        "all", "cache", "figures", "bsd", "check", "lint", "ablations", "extensions", "faults",
        "latency", "gen-trace", "obs", "profile", "selftrace", "bench",
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
        err.contains("obs.events.recorded"),
        "observed run reports on stderr:\n{err}"
    );
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
        // A flag whose subject was removed.
        (&["--quick", "--racecheck", "all"], "--racecheck"),
        // Unparseable, zero, and missing values.
        (&["--quick", "--traces", "abc", "table1"], "abc"),
        (&["--quick", "--threads", "two", "table1"], "two"),
        (&["--quick", "--traces", "0", "all"], "--traces"),
        (&["--quick", "--threads", "0", "all"], "--threads"),
        (&["--quick", "--days", "-1", "table1"], "--days"),
        (&["--quick", "table1", "--traces"], "--traces"),
        // A stray positional argument.
        (&["--quick", "table1", "table2"], "table2"),
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
    // The `obs --json` document is machine-read by scripts/verify.sh
    // and external dashboards, so its key set AND ordering are a
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
