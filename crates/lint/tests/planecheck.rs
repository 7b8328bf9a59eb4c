//! Fixture tests for the determinism linter over the real workspace
//! sources: the workspace lints clean with no stale allows, a seeded
//! mutation in the real `spritefs` tree is caught with file and line,
//! and reports are byte-deterministic.

use std::path::Path;

use sdfs_lint::{lint_str, Rule, Violation};

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// The real `spritefs` sources as `(workspace-relative path, source)`,
/// sorted by path.
fn real_spritefs() -> Vec<(String, String)> {
    let src = repo_root().join("crates/spritefs/src");
    let mut paths: Vec<_> = std::fs::read_dir(&src)
        .expect("read spritefs src")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let rel = format!(
                "crates/spritefs/src/{}",
                p.file_name().expect("file name").to_string_lossy()
            );
            (rel, std::fs::read_to_string(p).expect("read source"))
        })
        .collect()
}

/// Lints the real `spritefs` tree plus one seeded file.
fn lint_with_seed(seed: &str) -> Vec<Violation> {
    let mut files = real_spritefs();
    files.push((
        "crates/spritefs/src/seeded.rs".to_string(),
        seed.to_string(),
    ));
    files
        .iter()
        .flat_map(|(rel, source)| lint_str("spritefs", rel, source))
        .collect()
}

#[test]
fn seeded_mutation_is_caught_with_file_and_line() {
    // The real tree is clean, so every finding must come from the one
    // seeded mutation: an iteration-order-leaking map on line 5.
    let v = lint_with_seed(
        "pub fn tally(ops: &[u64]) -> u64 {\n\
             let mut total = 0;\n\
             for op in ops { total += op; }\n\
             let _ = total;\n\
             let m: std::collections::HashMap<u64, u64> = Default::default();\n\
             m.len() as u64\n\
         }\n",
    );
    assert_eq!(v.len(), 1, "exactly the seeded finding: {v:?}");
    assert_eq!(v[0].file, "crates/spritefs/src/seeded.rs");
    assert_eq!(v[0].line, 5);
    assert_eq!(v[0].rule, Rule::DefaultHasher);
}

#[test]
fn report_bytes_are_deterministic() {
    let render = || {
        lint_with_seed(
            "pub fn f() -> std::time::Instant { std::time::Instant::now() }\n\
             pub fn g(x: Option<u8>) -> u8 { x.unwrap() }\n",
        )
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join("\n")
    };
    let a = render();
    let b = render();
    assert_eq!(a, b);
    assert!(a.contains("seeded.rs:1: [wall-clock]"), "{a}");
    assert!(a.contains("seeded.rs:2: [unwrap]"), "{a}");
}

#[test]
fn workspace_audit_has_no_stale_allows() {
    let sites = sdfs_lint::audit_workspace(repo_root()).expect("audit");
    assert!(!sites.is_empty(), "expected known allow sites in simkit");
    let stale: Vec<_> = sites.iter().filter(|s| s.stale).collect();
    assert!(stale.is_empty(), "stale allows on main: {stale:?}");
}

#[test]
fn full_workspace_lint_is_clean() {
    let v = sdfs_lint::lint_workspace(repo_root()).expect("lint");
    assert!(
        v.is_empty(),
        "lint violations on main:\n{}",
        v.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
