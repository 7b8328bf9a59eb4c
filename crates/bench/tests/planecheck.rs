//! The determinism bans of DESIGN §9.1, checked with the toolchain's
//! clippy and the root `clippy.toml`: the workspace lints clean, every
//! suppression is an `#[expect]` and only the four documented ones open
//! a hole in a ban, and each seeded violation in `scripts/clippy_fixture`
//! is reported with its file and line.

use std::path::Path;
use std::process::Command;

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Runs `cargo clippy … -- -D warnings` on the manifest at `manifest`
/// (relative to the repository root) and returns whether it passed and
/// its short-format report. Each call has its own target directory, so
/// it never waits on the lock of the build running this test.
fn clippy(manifest: &str, target: &str, args: &[&str]) -> (bool, String) {
    let root = repo_root();
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(root)
        .args(["clippy", "--offline", "--message-format=short"])
        .arg("--manifest-path")
        .arg(root.join(manifest))
        .arg("--target-dir")
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join(target))
        .args(args)
        .args(["--", "-D", "warnings"])
        .output()
        .expect("spawn cargo clippy");
    let report = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.success(), report)
}

#[test]
fn seeded_mutation_is_caught_with_file_and_line() {
    let fixture = std::fs::read_to_string(repo_root().join("scripts/clippy_fixture/src/lib.rs"))
        .expect("read the fixture");
    let marked = |tag: &str| -> Vec<usize> {
        (1..)
            .zip(fixture.lines())
            .filter(|(_, line)| line.contains(tag))
            .map(|(n, _)| n)
            .collect()
    };
    let seeded = marked("// seeded:");
    let scoped = marked("// scoped:");
    assert_eq!(seeded.len(), 14, "one seeded line per ban: {seeded:?}");
    assert_eq!(scoped.len(), 1, "one scoped thread: {scoped:?}");

    let (passed, report) = clippy("scripts/clippy_fixture/Cargo.toml", "clippy_fixture", &[]);
    assert!(!passed, "clippy must reject the seeded fixture:\n{report}");
    for line in &seeded {
        assert!(
            report.contains(&format!("src/lib.rs:{line}:")),
            "clippy missed seeded line {line}:\n{report}"
        );
    }
    assert!(
        !report.contains(&format!("src/lib.rs:{}:", scoped[0])),
        "clippy flagged the scoped thread on line {}:\n{report}",
        scoped[0]
    );
}

#[test]
fn full_workspace_lint_is_clean() {
    let (passed, report) = clippy(
        "Cargo.toml",
        "clippy_workspace",
        &["--workspace", "--all-targets"],
    );
    assert!(passed, "clippy rejects the workspace:\n{report}");
}

/// Every attribute in the `.rs` files under `dir`, recursively, as
/// `(path relative to the repository root, attribute on one line)`.
fn attributes(dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).expect("read a source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            attributes(&path, out);
            continue;
        }
        if !path.extension().is_some_and(|e| e == "rs") {
            continue;
        }
        let rel = path.strip_prefix(repo_root()).expect("under the root");
        let source = std::fs::read_to_string(&path).expect("read a source file");
        let mut lines = source.lines().map(str::trim);
        while let Some(line) = lines.next() {
            if !line.starts_with("#[") && !line.starts_with("#![") {
                continue;
            }
            let mut attr = line.to_string();
            while !attr.ends_with(']') {
                let Some(next) = lines.next() else { break };
                attr.push_str(next);
            }
            out.push((rel.display().to_string(), attr));
        }
    }
}

#[test]
fn workspace_audit_has_no_stale_allows() {
    // An `#[allow]` stays silent once nothing triggers it and can later
    // hide a new hit; an `#[expect]` that stops firing fails the clippy
    // run above (`unfulfilled_lint_expectations`). So no suppression may
    // be an `allow`, and the expectations that open a hole in a ban must
    // be exactly the ones DESIGN §9.1 lists.
    let mut sites = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        attributes(&repo_root().join(dir), &mut sites);
    }
    let allows: Vec<_> = sites.iter().filter(|(_, a)| a.contains("allow(")).collect();
    assert!(
        allows.is_empty(),
        "suppress with #[expect], not #[allow]: {allows:?}"
    );
    let mut holes: Vec<&str> = sites
        .iter()
        .filter(|(_, a)| a.starts_with("#[expect(") && a.contains("clippy::disallowed_"))
        .map(|(file, _)| file.as_str())
        .collect();
    holes.sort_unstable();
    assert_eq!(
        holes,
        [
            "crates/bench/src/bin/repro.rs",
            "crates/simkit/src/hash.rs",
            "crates/simkit/src/hash.rs",
            "crates/simkit/src/hash.rs",
        ],
        "the suppressed determinism bans changed; update DESIGN §9.1 with them"
    );
}
