//! `sdfs-lint`: project-specific determinism lints.
//!
//! The scorecard (`core::check`) validates the simulator's *outputs*
//! against the paper; this crate guards the *sources* against the ways
//! nondeterminism sneaks back in. A hand-rolled lexer ([`lexer`])
//! tokenizes each workspace source file, and a rule engine ([`rules`])
//! flags wall-clock reads, OS entropy, default-hasher maps, library
//! `.unwrap()`s, `f32` statistics, and detached threads — each scoped
//! to the crates where it matters. [`parse`] reads the rule names out
//! of `lint:allow` directives. Run it as `repro lint`;
//! `scripts/verify.sh` gates on it.
//!
//! Zero dependencies by design: the linter must never be the thing that
//! drags a nondeterministic dependency into the workspace.

pub mod lexer;
pub mod parse;
pub mod rules;

pub use rules::{AllowSite, Rule, ScanOutput, Violation};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lints a single source string as if it lived in crate `crate_name` at
/// `rel_path`. This is the unit-testable core; [`lint_workspace`] is the
/// filesystem walker over it.
pub fn lint_str(crate_name: &str, rel_path: &str, source: &str) -> Vec<Violation> {
    rules::scan(&lexer::lex(source), crate_name, rel_path)
}

/// One workspace source file, read and keyed for the scan.
struct WorkspaceFile {
    crate_name: String,
    rel: String,
    source: String,
}

/// Walks `<root>/crates/*/{src,benches}/**/*.rs` (sorted, so report
/// order is byte-stable) and reads every file. Integration-test
/// directories are not scanned: the rules exempt test code anyway.
fn collect_workspace(root: &Path) -> io::Result<Vec<WorkspaceFile>> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut out = Vec::new();
    for dir in crate_dirs {
        let crate_name = match dir.file_name().and_then(|n| n.to_str()) {
            Some(n) => n.to_string(),
            None => continue,
        };
        let mut files = Vec::new();
        for sub in ["src", "benches"] {
            let sub = dir.join(sub);
            if sub.is_dir() {
                collect_rs_files(&sub, &mut files)?;
            }
        }
        files.sort();
        for file in files {
            let source = fs::read_to_string(&file)?;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(WorkspaceFile {
                crate_name: crate_name.clone(),
                rel,
                source,
            });
        }
    }
    Ok(out)
}

/// Lints every workspace file against the rules scoped to its crate.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let files = collect_workspace(root)?;
    Ok(files
        .iter()
        .flat_map(|f| rules::scan(&lexer::lex(&f.source), &f.crate_name, &f.rel))
        .collect())
}

/// Lists every `lint:allow` / `lint:allow-file` site in the workspace
/// with its staleness verdict (`repro lint --audit`), sorted by
/// `(file, line)`.
pub fn audit_workspace(root: &Path) -> io::Result<Vec<AllowSite>> {
    let files = collect_workspace(root)?;
    let mut out = Vec::new();
    for f in &files {
        out.extend(rules::scan_full(&lexer::lex(&f.source), &f.crate_name, &f.rel).allows);
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_violation_in_fake_tree_is_caught() {
        // Build a fake workspace in a temp dir and seed one violation,
        // mirroring the acceptance criterion for `repro lint`.
        let base = std::env::temp_dir().join(format!("sdfs_lint_test_{}", std::process::id()));
        let src = base.join("crates/simkit/src");
        fs::create_dir_all(&src).expect("create temp tree");
        fs::write(
            src.join("lib.rs"),
            "pub fn now() -> std::time::SystemTime { std::time::SystemTime::now() }\n",
        )
        .expect("write seed file");
        let v = lint_workspace(&base).expect("walk temp tree");
        fs::remove_dir_all(&base).ok();
        assert_eq!(v.len(), 2, "both SystemTime mentions flagged: {v:?}");
        assert!(v.iter().all(|x| x.rule == Rule::WallClock));
        assert_eq!(v[0].file, "crates/simkit/src/lib.rs");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn clean_fake_tree_passes() {
        let base = std::env::temp_dir().join(format!("sdfs_lint_clean_{}", std::process::id()));
        let src = base.join("crates/core/src");
        fs::create_dir_all(&src).expect("create temp tree");
        fs::write(src.join("lib.rs"), "pub fn f() -> u64 { 42 }\n").expect("write file");
        let v = lint_workspace(&base).expect("walk temp tree");
        fs::remove_dir_all(&base).ok();
        assert!(v.is_empty(), "clean tree must produce no violations: {v:?}");
    }

    #[test]
    fn bench_benches_dir_is_scanned() {
        let base = std::env::temp_dir().join(format!("sdfs_lint_bench_{}", std::process::id()));
        let benches = base.join("crates/bench/benches");
        fs::create_dir_all(&benches).expect("create temp tree");
        fs::write(
            benches.join("tables.rs"),
            "use std::collections::HashMap;\nfn main() {}\n",
        )
        .expect("write bench file");
        let v = lint_workspace(&base).expect("walk temp tree");
        fs::remove_dir_all(&base).ok();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::DefaultHasher);
        assert_eq!(v[0].file, "crates/bench/benches/tables.rs");
    }

    #[test]
    fn audit_reports_stale_and_live_sites() {
        let base = std::env::temp_dir().join(format!("sdfs_lint_audit_{}", std::process::id()));
        let src = base.join("crates/simkit/src");
        fs::create_dir_all(&src).expect("create temp tree");
        fs::write(
            src.join("lib.rs"),
            "// lint:allow(default-hasher)\nuse std::collections::HashMap;\n\
             // lint:allow(wall-clock)\npub fn f() {}\n",
        )
        .expect("write seed file");
        let sites = audit_workspace(&base).expect("walk temp tree");
        fs::remove_dir_all(&base).ok();
        assert_eq!(sites.len(), 2, "{sites:?}");
        assert!(!sites[0].stale, "live default-hasher allow: {:?}", sites[0]);
        assert!(sites[1].stale, "stale wall-clock allow: {:?}", sites[1]);
    }
}
