//! The lint rules and the per-file scan engine.
//!
//! Each rule guards one way nondeterminism (or an unchecked panic) can
//! creep back into the simulator. Rules are scoped per crate: the
//! analysis and simulation crates are held to the determinism contract,
//! while the bench harness may freely read the wall clock to time
//! itself.
//!
//! Suppression: a comment containing `lint:allow(<rule>)` silences that
//! rule on the comment's own line and the following line; a comment
//! containing `lint:allow-file(<rule>)` silences it for the whole file.

use std::collections::BTreeSet;
use std::fmt;

use crate::lexer::Event;

/// The lint rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// No wall-clock reads (`SystemTime`, `Instant`) in simulation or
    /// analysis code: simulated time must come from `SimTime`.
    WallClock,
    /// No OS entropy (`RandomState`, `thread_rng`, `OsRng`, ...):
    /// randomness must come from the seeded `simkit` RNG.
    OsEntropy,
    /// No default-hasher `HashMap`/`HashSet`: their per-process random
    /// seed makes iteration order differ between runs, and an iteration
    /// order that leaks into results breaks byte-identical output. Use
    /// `FastMap`/`FastSet` or a sorted collection.
    DefaultHasher,
    /// No `.unwrap()` in library code: convert to a typed error, or use
    /// `expect` with an invariant message.
    Unwrap,
    /// No `f32` in statistics paths: accumulating in single precision
    /// makes reductions sensitive to association order.
    FloatStats,
    /// No detached `thread::spawn` in simulation or analysis code: a
    /// worker that can outlive its caller breaks the deterministic
    /// join-then-merge discipline the trace workers depend on. Use
    /// `std::thread::scope` (whose `s.spawn` is allowed) so every
    /// worker provably joins before results are read.
    UnscopedThread,
    /// A `lint:allow(<name>)` / `lint:allow-file(<name>)` directive
    /// names a rule that does not exist: the suppression silently does
    /// nothing, which is worse than no suppression at all.
    UnknownAllow,
}

impl Rule {
    /// All rules, in reporting order.
    pub const ALL: [Rule; 7] = [
        Rule::WallClock,
        Rule::OsEntropy,
        Rule::DefaultHasher,
        Rule::Unwrap,
        Rule::FloatStats,
        Rule::UnscopedThread,
        Rule::UnknownAllow,
    ];

    /// Looks a rule up by its report name.
    pub fn by_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }

    /// The rule's name as used in reports and `lint:allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::OsEntropy => "os-entropy",
            Rule::DefaultHasher => "default-hasher",
            Rule::Unwrap => "unwrap",
            Rule::FloatStats => "float-stats",
            Rule::UnscopedThread => "unscoped-thread",
            Rule::UnknownAllow => "unknown-allow",
        }
    }

    /// The crates the rule applies to. The bench harness may read the
    /// wall clock (it times itself) and, as binary code, may `.unwrap()`
    /// on startup errors — but entropy, order-leaking hashers, and
    /// detached threads would corrupt its reports just as surely as the
    /// simulator's, so those rules bind it too.
    pub fn scope(self) -> &'static [&'static str] {
        const DETERMINISM: &[&str] = &["simkit", "spritefs", "core", "trace", "workload"];
        const DETERMINISM_AND_BENCH: &[&str] =
            &["simkit", "spritefs", "core", "trace", "workload", "bench"];
        const STATISTICS: &[&str] = &["simkit", "core"];
        const WORKSPACE: &[&str] =
            &["simkit", "spritefs", "core", "trace", "workload", "bench", "lint"];
        match self {
            Rule::WallClock | Rule::Unwrap => DETERMINISM,
            Rule::OsEntropy | Rule::DefaultHasher | Rule::UnscopedThread => {
                DETERMINISM_AND_BENCH
            }
            Rule::FloatStats => STATISTICS,
            Rule::UnknownAllow => WORKSPACE,
        }
    }

    /// Identifiers whose appearance in code triggers the rule.
    fn trigger_idents(self) -> &'static [&'static str] {
        match self {
            Rule::WallClock => &["SystemTime", "Instant"],
            Rule::OsEntropy => &[
                "RandomState",
                "thread_rng",
                "OsRng",
                "ThreadRng",
                "getrandom",
                "from_entropy",
            ],
            Rule::DefaultHasher => &["HashMap", "HashSet"],
            Rule::Unwrap => &[], // matched as `.unwrap`, not a bare ident
            Rule::FloatStats => &["f32"],
            Rule::UnscopedThread => &[], // matched as `thread::spawn`, not a bare ident
            Rule::UnknownAllow => &[],   // produced by the allow-directive parse
        }
    }

    /// Substrings that trigger the rule inside doc-comment code fences
    /// (doctests compile and run, so they are held to the same bar).
    fn doc_triggers(self) -> &'static [&'static str] {
        match self {
            Rule::Unwrap => &[".unwrap()"],
            Rule::WallClock => &["SystemTime::now", "Instant::now"],
            Rule::UnscopedThread => &["thread::spawn("],
            _ => &[],
        }
    }

    /// One-line explanation used in reports.
    pub fn message(self) -> &'static str {
        match self {
            Rule::WallClock => {
                "wall-clock read; simulation/analysis code must use SimTime, not host time"
            }
            Rule::OsEntropy => "OS entropy source; use the seeded simkit RNG",
            Rule::DefaultHasher => {
                "default-hasher map; use FastMap/FastSet or a sorted collection so \
                 iteration order cannot leak into results"
            }
            Rule::Unwrap => ".unwrap() in library code; use a typed error or expect(\"invariant\")",
            Rule::FloatStats => "f32 in a statistics path; accumulate in f64",
            Rule::UnscopedThread => {
                "detached thread::spawn; use std::thread::scope so every worker \
                 joins before results are merged"
            }
            Rule::UnknownAllow => {
                "lint:allow names an unknown rule, so it suppresses nothing; \
                 fix the name or remove the directive"
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path of the offending file, relative to the workspace root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The rule violated.
    pub rule: Rule,
    /// Finding-specific detail (unknown-allow findings name the unknown
    /// rule here); `None` for plain token-scan findings.
    pub detail: Option<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.name(),
            self.rule.message()
        )?;
        if let Some(detail) = &self.detail {
            write!(f, " \u{2014} {detail}")?;
        }
        Ok(())
    }
}

/// One `lint:allow` / `lint:allow-file` suppression site, with the
/// staleness verdict the audit reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowSite {
    /// Path of the file carrying the directive.
    pub file: String,
    /// 1-based line of the directive's comment.
    pub line: u32,
    /// The suppressed rule.
    pub rule: Rule,
    /// Whether the directive is file-wide (`lint:allow-file`).
    pub file_wide: bool,
    /// `true` when the rule no longer fires on the guarded range (the
    /// directive's line and the next for line allows; anywhere in the
    /// file for file allows): the suppression suppresses nothing.
    pub stale: bool,
}

impl fmt::Display for AllowSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: lint:allow{}({}){}",
            self.file,
            self.line,
            if self.file_wide { "-file" } else { "" },
            self.rule.name(),
            if self.stale { " STALE: rule no longer fires here" } else { "" }
        )
    }
}

/// Full scan output: findings plus every suppression site.
#[derive(Debug, Default)]
pub struct ScanOutput {
    /// Lint findings, sorted by line.
    pub violations: Vec<Violation>,
    /// Allow directives seen, sorted by line.
    pub allows: Vec<AllowSite>,
}

/// Scans one lexed file. `crate_name` selects which rules apply (the
/// `sdfs-` prefix and any path decoration must already be stripped,
/// e.g. `"spritefs"`).
pub fn scan(events: &[Event], crate_name: &str, rel_path: &str) -> Vec<Violation> {
    scan_full(events, crate_name, rel_path).violations
}

/// Scans one lexed file, also reporting every suppression site with
/// its staleness verdict (`repro lint --audit`).
pub fn scan_full(events: &[Event], crate_name: &str, rel_path: &str) -> ScanOutput {
    let active: Vec<Rule> = Rule::ALL
        .into_iter()
        .filter(|r| r.scope().contains(&crate_name))
        .collect();

    // Pass 1: collect allow directives from comments. A directive
    // naming a rule that does not exist is itself a violation — a typo
    // here would otherwise disable nothing while looking like it
    // disables something.
    let mut allowed_lines: BTreeSet<(Rule, u32)> = BTreeSet::new();
    let mut allowed_file: BTreeSet<Rule> = BTreeSet::new();
    let mut allow_sites: Vec<(Rule, u32, bool)> = Vec::new();
    let mut unknown: Vec<(u32, String)> = Vec::new();
    for ev in events {
        let (line, text) = match ev {
            Event::Comment { line, text } | Event::Doc { line, text } => (*line, text.as_str()),
            _ => continue,
        };
        for name in crate::parse::directive_names(text, "lint:allow-file(") {
            match Rule::by_name(name) {
                Some(rule) => {
                    allowed_file.insert(rule);
                    allow_sites.push((rule, line, true));
                }
                None => unknown.push((line, name.to_string())),
            }
        }
        for name in crate::parse::directive_names(text, "lint:allow(") {
            match Rule::by_name(name) {
                Some(rule) => {
                    allowed_lines.insert((rule, line));
                    allowed_lines.insert((rule, line + 1));
                    allow_sites.push((rule, line, false));
                }
                None => unknown.push((line, name.to_string())),
            }
        }
    }

    let mut output = ScanOutput::default();
    if active.is_empty() && allow_sites.is_empty() {
        return output;
    }

    // Rules whose triggers must be tracked: the active set, plus any
    // rule named by an allow directive (so staleness can be judged
    // even for a directive outside the rule's crate scope — which is
    // stale by definition unless the rule fires).
    let mut checked: Vec<Rule> = active.clone();
    for (rule, _, _) in &allow_sites {
        if !checked.contains(rule) {
            checked.push(*rule);
        }
    }

    // Unknown-allow findings (suppressible like any other rule).
    if active.contains(&Rule::UnknownAllow) {
        for (line, name) in &unknown {
            if allowed_file.contains(&Rule::UnknownAllow)
                || allowed_lines.contains(&(Rule::UnknownAllow, *line))
            {
                continue;
            }
            output.violations.push(Violation {
                file: rel_path.to_string(),
                line: *line,
                rule: Rule::UnknownAllow,
                detail: Some(format!("unknown rule `{name}`")),
            });
        }
    }

    // Raw trigger hits, recorded before suppression so the audit can
    // tell a working allow from a stale one.
    let mut raw_hits: Vec<(Rule, u32)> = Vec::new();

    // Pass 2: walk the token stream tracking brace depth and test
    // regions (`#[cfg(test)]`, `#[test]`, `mod tests`): code inside them
    // is exempt from every rule.
    let mut depth: i64 = 0;
    let mut test_until: Option<i64> = None;
    let mut pending_test = false;
    let mut in_fence = false;
    let mut prev_significant: Option<&Event> = None;

    // Matches the token tail against a fixed ident/punct pattern.
    let mut recent: Vec<(u32, String)> = Vec::new(); // (line, token text) ring
    let tail_matches = |recent: &[(u32, String)], pat: &[&str]| {
        recent.len() >= pat.len()
            && recent[recent.len() - pat.len()..]
                .iter()
                .zip(pat)
                .all(|((_, t), p)| t == p)
    };

    for ev in events {
        match ev {
            Event::Doc { line, text } => {
                let trimmed = text.trim_start();
                if trimmed.starts_with("```") {
                    in_fence = !in_fence;
                    continue;
                }
                // Lines inside a fence are doctest code unless the fence
                // opened as non-Rust (`text`, `ignore` fences still
                // compile unless marked `text`/`sh`; being strict here
                // is fine for this codebase).
                if in_fence && test_until.is_none() {
                    for &rule in &checked {
                        if rule.doc_triggers().iter().any(|t| text.contains(t)) {
                            raw_hits.push((rule, *line));
                            if active.contains(&rule)
                                && !allowed_file.contains(&rule)
                                && !allowed_lines.contains(&(rule, *line))
                            {
                                output.violations.push(Violation {
                                    file: rel_path.to_string(),
                                    line: *line,
                                    rule,
                                    detail: None,
                                });
                            }
                        }
                    }
                }
            }
            Event::Comment { .. } => {}
            Event::Punct { line: _, ch } => {
                in_fence = false;
                match ch {
                    '{' => {
                        depth += 1;
                        if pending_test && test_until.is_none() {
                            test_until = Some(depth - 1);
                        }
                        pending_test = false;
                    }
                    '}' => {
                        depth -= 1;
                        if test_until == Some(depth) {
                            test_until = None;
                        }
                    }
                    ';' => pending_test = false,
                    _ => {}
                }
                recent.push((ev.line(), ch.to_string()));
                prev_significant = Some(ev);
            }
            Event::Ident { line, text } => {
                in_fence = false;
                recent.push((*line, text.clone()));
                if recent.len() > 16 {
                    recent.drain(..8);
                }
                // Entering test code?
                if tail_matches(&recent, &["#", "[", "cfg", "(", "test", ")", "]"])
                    || tail_matches(&recent, &["#", "[", "test", "]"])
                {
                    // The *closing* bracket arrives later; flag on the
                    // ident and confirm on the bracket below. Simpler:
                    // look for the full pattern when the next `{` comes.
                }
                if tail_matches(&recent, &["cfg", "(", "test"])
                    || tail_matches(&recent, &["mod", "tests"])
                    || tail_matches(&recent, &["mod", "test"])
                    || (text == "test"
                        && tail_matches(&recent, &["#", "[", "test"]))
                {
                    pending_test = true;
                }
                if test_until.is_some() {
                    prev_significant = Some(ev);
                    continue;
                }
                for &rule in &checked {
                    let hit = if rule == Rule::Unwrap {
                        text == "unwrap"
                            && matches!(prev_significant, Some(Event::Punct { ch: '.', .. }))
                    } else if rule == Rule::UnscopedThread {
                        // `thread::spawn` detaches; `thread::scope` and a
                        // scope handle's `s.spawn(..)` are the sanctioned
                        // join-before-merge form.
                        text == "spawn"
                            && tail_matches(&recent, &["thread", ":", ":", "spawn"])
                    } else {
                        rule.trigger_idents().contains(&text.as_str())
                    };
                    if hit {
                        raw_hits.push((rule, *line));
                        if active.contains(&rule)
                            && !allowed_file.contains(&rule)
                            && !allowed_lines.contains(&(rule, *line))
                        {
                            output.violations.push(Violation {
                                file: rel_path.to_string(),
                                line: *line,
                                rule,
                                detail: None,
                            });
                        }
                    }
                }
                prev_significant = Some(ev);
            }
        }
    }

    output.violations.sort_by_key(|v| v.line);

    // Staleness: a line allow must have a raw hit on its own line or
    // the next; a file allow must have one somewhere in the file.
    for (rule, line, file_wide) in allow_sites {
        let stale = if file_wide {
            !raw_hits.iter().any(|&(r, _)| r == rule)
        } else {
            !raw_hits
                .iter()
                .any(|&(r, l)| r == rule && (l == line || l == line + 1))
        };
        output.allows.push(AllowSite {
            file: rel_path.to_string(),
            line,
            rule,
            file_wide,
            stale,
        });
    }
    output.allows.sort_by_key(|a| (a.line, a.file_wide));
    output
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan_src(src: &str, krate: &str) -> Vec<Violation> {
        scan(&lex(src), krate, "x.rs")
    }

    #[test]
    fn wall_clock_flagged_in_scoped_crate() {
        let src = "fn f() { let t = std::time::SystemTime::now(); }";
        let v = scan_src(src, "simkit");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::WallClock);
    }

    #[test]
    fn wall_clock_ignored_outside_scope() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(scan_src(src, "bench").is_empty());
    }

    #[test]
    fn comments_and_strings_do_not_trigger() {
        let src = r#"
            // SystemTime::now() would be wrong here
            fn f() { let s = "Instant::now()"; let _ = s; }
        "#;
        assert!(scan_src(src, "simkit").is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = r#"
            fn lib_code() {}
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                #[test]
                fn t() { let m: HashMap<u32, u32> = HashMap::new(); let _ = m.get(&1).unwrap(); }
            }
        "#;
        assert!(scan_src(src, "spritefs").is_empty());
    }

    #[test]
    fn code_after_test_module_is_checked_again() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                fn t() {}
            }
            fn f() { let x: Option<u32> = None; let _ = x.unwrap(); }
        "#;
        let v = scan_src(src, "core");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Unwrap);
    }

    #[test]
    fn default_hasher_flagged() {
        let src = "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }";
        let v = scan_src(src, "spritefs");
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.rule == Rule::DefaultHasher));
    }

    #[test]
    fn allow_directive_silences_next_line() {
        let src = "// lint:allow(default-hasher)\nuse std::collections::HashMap;\n";
        assert!(scan_src(src, "simkit").is_empty());
        // But only that line.
        let src2 = "// lint:allow(default-hasher)\nuse std::collections::HashMap;\n\nfn f(m: HashMap<u32,u32>) {}\n";
        assert_eq!(scan_src(src2, "simkit").len(), 1);
    }

    #[test]
    fn allow_file_silences_everything() {
        let src =
            "//! lint:allow-file(default-hasher)\nuse std::collections::{HashMap, HashSet};\n";
        assert!(scan_src(src, "simkit").is_empty());
    }

    #[test]
    fn unwrap_needs_a_dot() {
        // A function *named* unwrap (or a path ending in unwrap) is not
        // a method call on a fallible value.
        let src = "fn unwrap() {}\nfn g() { unwrap(); }";
        assert!(scan_src(src, "core").is_empty());
        let src2 = "fn g(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(scan_src(src2, "core").len(), 1);
    }

    #[test]
    fn doctest_unwrap_flagged() {
        let src = r#"
            /// Frobnicates.
            ///
            /// ```
            /// let x = frob().unwrap();
            /// ```
            pub fn frob() -> Option<u32> { Some(1) }
        "#;
        let v = scan_src(src, "trace");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Unwrap);
    }

    #[test]
    fn doc_prose_unwrap_not_flagged() {
        let src = "/// Never calls .unwrap() internally.\npub fn f() {}\n";
        assert!(scan_src(src, "trace").is_empty());
    }

    #[test]
    fn f32_flagged_in_stats_scope_only() {
        let src = "pub fn mean(xs: &[f32]) -> f32 { 0.0 }";
        assert_eq!(scan_src(src, "simkit").len(), 2);
        assert!(scan_src(src, "trace").is_empty());
    }

    #[test]
    fn f32_literal_suffix_flagged() {
        let src = "pub fn f() { let x = 1.5f32; }";
        assert_eq!(scan_src(src, "core").len(), 1);
    }

    #[test]
    fn entropy_flagged() {
        let src = "use std::collections::hash_map::RandomState;";
        assert_eq!(scan_src(src, "simkit").len(), 1);
    }

    #[test]
    fn detached_thread_spawn_flagged() {
        let src = "fn f() { let h = std::thread::spawn(|| 1); let _ = h.join(); }";
        let v = scan_src(src, "spritefs");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::UnscopedThread);
    }

    #[test]
    fn scoped_threads_allowed() {
        // The trace workers' shape: thread::scope + s.spawn joins
        // every worker before results are merged — not a violation.
        let src = r#"
            fn f() {
                std::thread::scope(|s| {
                    let h = s.spawn(|| 1);
                    let _ = h.join();
                });
            }
        "#;
        assert!(scan_src(src, "spritefs").is_empty());
    }

    #[test]
    fn wall_clock_still_banned_alongside_scoped_threads() {
        // Allowing thread::scope must not relax the other rules in the
        // same module.
        let src = r#"
            fn f() {
                std::thread::scope(|s| {
                    s.spawn(|| { let _t = std::time::Instant::now(); });
                });
            }
        "#;
        let v = scan_src(src, "spritefs");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::WallClock);
    }

    #[test]
    fn detached_spawn_flagged_in_bench_too() {
        // The bench harness merges worker results just like the
        // simulator; a detached thread would corrupt its reports.
        let src = "fn f() { std::thread::spawn(|| 1); }";
        assert_eq!(scan_src(src, "bench").len(), 1);
        assert!(scan_src(src, "lint").is_empty());
    }

    #[test]
    fn unknown_allow_name_is_reported() {
        let src = "// lint:allow(wall-time)\nfn f() {}\n";
        let v = scan_src(src, "simkit");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::UnknownAllow);
        assert_eq!(v[0].line, 1);
        assert!(v[0].detail.as_deref().is_some_and(|d| d.contains("wall-time")));
    }

    #[test]
    fn unknown_allow_file_name_is_reported() {
        let src = "//! lint:allow-file(hashmap)\n";
        let v = scan_src(src, "lint");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::UnknownAllow);
    }

    #[test]
    fn unknown_allow_is_itself_suppressible() {
        let src = "// lint:allow(unknown-allow) lint:allow(wall-time)\nfn f() {}\n";
        assert!(scan_src(src, "simkit").is_empty());
    }

    #[test]
    fn doc_prose_allow_placeholder_not_reported() {
        // `<rule>` is not a directive name — prose describing the
        // grammar must not trip the unknown-allow rule.
        let src = "//! Use `lint:allow(<rule>)` to suppress a finding.\nfn f() {}\n";
        assert!(scan_src(src, "lint").is_empty());
    }

    #[test]
    fn live_allow_is_not_stale() {
        let src = "// lint:allow(default-hasher)\nuse std::collections::HashMap;\n";
        let out = scan_full(&lex(src), "simkit", "x.rs");
        assert!(out.violations.is_empty());
        assert_eq!(out.allows.len(), 1);
        assert!(!out.allows[0].stale);
        assert!(!out.allows[0].file_wide);
    }

    #[test]
    fn stale_allow_is_flagged() {
        let src = "// lint:allow(default-hasher)\nfn f() {}\n";
        let out = scan_full(&lex(src), "simkit", "x.rs");
        assert_eq!(out.allows.len(), 1);
        assert!(out.allows[0].stale);
        assert!(out.allows[0].to_string().contains("STALE"));
    }

    #[test]
    fn file_allow_staleness_judged_file_wide() {
        let live = "//! lint:allow-file(unwrap)\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let out = scan_full(&lex(live), "core", "x.rs");
        assert_eq!(out.allows.len(), 1);
        assert!(out.allows[0].file_wide);
        assert!(!out.allows[0].stale);

        let stale = "//! lint:allow-file(unwrap)\nfn f() {}\n";
        let out = scan_full(&lex(stale), "core", "x.rs");
        assert!(out.allows[0].stale || out.allows.is_empty());
        assert_eq!(out.allows.len(), 1);
        assert!(out.allows[0].stale);
    }

    #[test]
    fn out_of_scope_allow_judged_by_trigger_presence() {
        // wall-clock does not bind the bench crate, so the directive
        // suppresses nothing — but the audit still reports the site,
        // stale only when the trigger is absent.
        let src = "// lint:allow(wall-clock)\nlet t = Instant::now();\n";
        let out = scan_full(&lex(src), "bench", "x.rs");
        assert!(out.violations.is_empty());
        assert_eq!(out.allows.len(), 1);
        assert!(!out.allows[0].stale);
    }
}
