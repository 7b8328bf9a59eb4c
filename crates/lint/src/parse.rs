//! Directive parsing and item recovery on top of the lexer.
//!
//! [`directive_names`] extracts the rule names from `lint:allow(...)`
//! comments for the rule engine ([`crate::rules`]).
//!
//! [`parse`] recovers functions, impl blocks, and structs with their
//! fields: *which function* a token belongs to, which type owns a
//! method, and where a function's body starts and ends — no types, no
//! expressions — by walking the [`crate::lexer::Event`] stream with a
//! brace-depth counter. Item spans are stored as index ranges into the
//! caller's event slice, so nothing is copied. No current rule needs
//! this item model; it is the base a whole-crate analysis would build
//! on.
//!
//! Item annotations recognized by [`parse`]:
//!
//! - `// plane:coordinator-only` immediately before a `fn`, `impl`, or
//!   `trait` marks the item (and, for blocks, every method inside).
//! - `// plane:allow(<ident>)` names `<ident>` on the comment's own
//!   line and the following line, mirroring the `lint:allow` grammar.

use std::collections::BTreeSet;
use std::ops::Range;

use crate::lexer::Event;

/// One recovered `fn` item.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// 1-based line of the name.
    pub line: u32,
    /// The `impl`/`trait` self type, if the fn is a method.
    pub owner: Option<String>,
    /// Annotated `plane:coordinator-only` (directly or via its block).
    pub coordinator_only: bool,
    /// Defined inside a test region (`#[cfg(test)]` / `mod tests`).
    pub in_test: bool,
    /// Event-index range of the signature (after the name, up to the
    /// body brace or the terminating `;`).
    pub sig: Range<usize>,
    /// Event-index range of the body (inside the braces; empty for
    /// bodyless trait-method declarations).
    pub body: Range<usize>,
}

/// One recovered `struct` item.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// The struct's name.
    pub name: String,
    /// 1-based line of the name.
    pub line: u32,
    /// Named fields, in declaration order (empty for tuple/unit structs).
    pub fields: Vec<String>,
}

/// Everything recovered from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Functions, in source order.
    pub fns: Vec<FnDef>,
    /// Structs, in source order.
    pub structs: Vec<StructDef>,
    /// `plane:allow(<subject>)` sites as `(subject, guarded line)`;
    /// each directive guards its own line and the next.
    pub plane_allows: BTreeSet<(String, u32)>,
}

/// Extracts the name inside every `marker(<name>)` occurrence in `text`.
/// Names must be plain `[A-Za-z0-9_-]+` — anything else (prose like
/// `lint:allow(<rule>)` in documentation) is ignored.
pub fn directive_names<'a>(text: &'a str, marker: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find(marker) {
        rest = &rest[pos + marker.len()..];
        if let Some(end) = rest.find(')') {
            let name = &rest[..end];
            if !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
            {
                out.push(name);
            }
        }
    }
    out
}

/// Parses one lexed file into items.
pub fn parse(events: &[Event]) -> ParsedFile {
    let mut out = ParsedFile::default();

    // Flat pre-pass for `plane:allow` sites: they are line-keyed, and
    // the item walk below skips function bodies wholesale.
    for ev in events {
        if let Event::Comment { line, text } | Event::Doc { line, text } = ev {
            for name in directive_names(text, "plane:allow(") {
                out.plane_allows.insert((name.to_string(), *line));
                out.plane_allows.insert((name.to_string(), *line + 1));
            }
        }
    }

    let n = events.len();
    let mut i = 0usize;
    let mut depth: i64 = 0;
    // (depth the block opened at, owner type, coordinator-only)
    let mut impl_stack: Vec<(i64, Option<String>, bool)> = Vec::new();
    let mut test_until: Option<i64> = None;
    let mut pending_test = false;
    let mut pending_coord = false;
    let mut recent: Vec<String> = Vec::new();

    let tail = |recent: &[String], pat: &[&str]| {
        recent.len() >= pat.len()
            && recent[recent.len() - pat.len()..]
                .iter()
                .zip(pat)
                .all(|(t, p)| t == p)
    };

    while i < n {
        match &events[i] {
            Event::Comment { line: _, text } | Event::Doc { line: _, text } => {
                if text.contains("plane:coordinator-only") {
                    pending_coord = true;
                }
                i += 1;
            }
            Event::Punct { ch, .. } => {
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
                        while impl_stack.last().is_some_and(|t| t.0 == depth) {
                            impl_stack.pop();
                        }
                    }
                    ';' => pending_test = false,
                    _ => {}
                }
                recent.push(ch.to_string());
                if recent.len() > 16 {
                    recent.drain(..8);
                }
                i += 1;
            }
            Event::Ident { line: _, text } => {
                recent.push(text.clone());
                if recent.len() > 16 {
                    recent.drain(..8);
                }
                if tail(&recent, &["cfg", "(", "test"])
                    || tail(&recent, &["mod", "tests"])
                    || tail(&recent, &["mod", "test"])
                    || tail(&recent, &["#", "[", "test"])
                {
                    pending_test = true;
                }
                match text.as_str() {
                    "impl" | "trait" => {
                        let coord = pending_coord;
                        pending_coord = false;
                        let (owner, brace) = parse_block_header(events, i + 1);
                        match brace {
                            // Opening brace found: enter the block.
                            Some(b) => {
                                impl_stack.push((depth, owner, coord));
                                depth += 1;
                                if pending_test && test_until.is_none() {
                                    test_until = Some(depth - 1);
                                }
                                pending_test = false;
                                i = b + 1;
                            }
                            // `impl Trait` in type position, or EOF.
                            None => i += 1,
                        }
                    }
                    "fn" => {
                        let coord = pending_coord
                            || impl_stack.last().is_some_and(|t| t.2);
                        pending_coord = false;
                        let owner =
                            impl_stack.last().and_then(|t| t.1.clone());
                        let in_test = test_until.is_some() || pending_test;
                        pending_test = false;
                        if let Some((def, next)) =
                            parse_fn(events, i + 1, owner, coord, in_test)
                        {
                            out.fns.push(def);
                            i = next;
                        } else {
                            i += 1;
                        }
                    }
                    "struct" => {
                        pending_coord = false;
                        if let Some((def, next)) = parse_struct(events, i + 1)
                        {
                            if test_until.is_none() {
                                out.structs.push(def);
                            }
                            i = next;
                        } else {
                            i += 1;
                        }
                    }
                    _ => i += 1,
                }
            }
        }
    }
    out
}

/// Finds the next non-comment event at or after `i`.
fn next_sig(events: &[Event], mut i: usize) -> Option<usize> {
    while i < events.len() {
        match events[i] {
            Event::Comment { .. } | Event::Doc { .. } => i += 1,
            _ => return Some(i),
        }
    }
    None
}

/// Skips a balanced `<...>` group; `i` points at the opening `<`.
/// Returns the index just past the matching `>`.
fn skip_angles(events: &[Event], i: usize) -> usize {
    let mut depth = 0i64;
    let mut j = i;
    while j < events.len() {
        if let Event::Punct { ch, .. } = events[j] {
            match ch {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth <= 0 {
                        return j + 1;
                    }
                }
                // `impl Fn(..) -> T` style arrows inside generics never
                // appear in this codebase's headers; `;` or `{` means
                // the header ended unbalanced — bail out.
                ';' | '{' => return j,
                _ => {}
            }
        }
        j += 1;
    }
    j
}

/// Parses an `impl`/`trait` header starting just after the keyword.
/// Returns the recovered self-type name (last path segment, the one
/// after `for` when present) and the index of the opening `{`.
fn parse_block_header(
    events: &[Event],
    start: usize,
) -> (Option<String>, Option<usize>) {
    let mut j = start;
    let mut owner: Option<String> = None;
    while let Some(k) = next_sig(events, j) {
        match &events[k] {
            Event::Ident { text, .. } => {
                if text == "for" {
                    owner = None; // the self type follows `for`
                    j = k + 1;
                } else if text == "where" {
                    // Bounds may mention many types; the owner is fixed
                    // by now. Skip to the `{`.
                    let mut m = k + 1;
                    while let Some(p) = next_sig(events, m) {
                        if matches!(events[p], Event::Punct { ch: '{', .. }) {
                            return (owner, Some(p));
                        }
                        if matches!(events[p], Event::Punct { ch: ';', .. }) {
                            return (owner, None);
                        }
                        m = p + 1;
                    }
                    return (owner, None);
                } else {
                    owner = Some(text.clone());
                    j = k + 1;
                }
            }
            Event::Punct { ch: '<', .. } => j = skip_angles(events, k),
            Event::Punct { ch: '{', .. } => return (owner, Some(k)),
            Event::Punct { ch: ';', .. } => return (owner, None),
            Event::Punct { .. } => j = k + 1,
            _ => unreachable!("next_sig skips comments"),
        }
    }
    (owner, None)
}

/// Parses a `fn` item starting just after the keyword. Returns the def
/// and the index to resume the outer walk at (past the body).
fn parse_fn(
    events: &[Event],
    start: usize,
    owner: Option<String>,
    coordinator_only: bool,
    in_test: bool,
) -> Option<(FnDef, usize)> {
    let name_at = next_sig(events, start)?;
    let (name, line) = match &events[name_at] {
        Event::Ident { line, text } => (text.clone(), *line),
        _ => return None, // `fn` in type position (`Fn` is capitalized, so rare)
    };
    let sig_start = name_at + 1;
    // Scan the signature: no braces can appear before the body's `{`.
    let mut j = sig_start;
    while j < events.len() {
        match &events[j] {
            Event::Punct { ch: '{', .. } => {
                // Body: consume to the matching brace.
                let body_start = j + 1;
                let mut depth = 1i64;
                let mut k = body_start;
                while k < events.len() && depth > 0 {
                    if let Event::Punct { ch, .. } = events[k] {
                        match ch {
                            '{' => depth += 1,
                            '}' => depth -= 1,
                            _ => {}
                        }
                    }
                    k += 1;
                }
                let body_end = k.saturating_sub(1); // before the final `}`
                return Some((
                    FnDef {
                        name,
                        line,
                        owner,
                        coordinator_only,
                        in_test,
                        sig: sig_start..j,
                        body: body_start..body_end,
                    },
                    k,
                ));
            }
            Event::Punct { ch: ';', .. } => {
                // Bodyless trait-method declaration.
                return Some((
                    FnDef {
                        name,
                        line,
                        owner,
                        coordinator_only,
                        in_test,
                        sig: sig_start..j,
                        body: j..j,
                    },
                    j + 1,
                ));
            }
            _ => j += 1,
        }
    }
    None
}

/// Parses a `struct` item starting just after the keyword.
fn parse_struct(events: &[Event], start: usize) -> Option<(StructDef, usize)> {
    let name_at = next_sig(events, start)?;
    let (name, line) = match &events[name_at] {
        Event::Ident { line, text } => (text.clone(), *line),
        _ => return None,
    };
    let mut j = name_at + 1;
    // Skip generics, then an optional where clause, to the body.
    loop {
        let k = next_sig(events, j)?;
        match &events[k] {
            Event::Punct { ch: '<', .. } => j = skip_angles(events, k),
            Event::Punct { ch: '{', .. } => {
                // Named fields: `ident :` at relative depth 1 where the
                // colon is single (`::` is a path) and the ident is not
                // itself a path segment.
                let mut fields = Vec::new();
                let mut depth = 1i64;
                let mut m = k + 1;
                while m < events.len() && depth > 0 {
                    match &events[m] {
                        Event::Punct { ch: '{', .. } => depth += 1,
                        Event::Punct { ch: '}', .. } => depth -= 1,
                        Event::Ident { text, .. } if depth == 1 => {
                            let single_colon = matches!(
                                events.get(m + 1),
                                Some(Event::Punct { ch: ':', .. })
                            ) && !matches!(
                                events.get(m + 2),
                                Some(Event::Punct { ch: ':', .. })
                            );
                            let after_colon = matches!(
                                events.get(m.wrapping_sub(1)),
                                Some(Event::Punct { ch: ':', .. })
                            );
                            if single_colon && !after_colon && text != "pub" {
                                fields.push(text.clone());
                            }
                        }
                        _ => {}
                    }
                    m += 1;
                }
                return Some((StructDef { name, line, fields }, m));
            }
            Event::Punct { ch: '(', .. } => {
                // Tuple struct: skip to the terminating `;`.
                let mut m = k;
                while m < events.len() {
                    if matches!(events[m], Event::Punct { ch: ';', .. }) {
                        return Some((
                            StructDef {
                                name,
                                line,
                                fields: Vec::new(),
                            },
                            m + 1,
                        ));
                    }
                    m += 1;
                }
                return None;
            }
            Event::Punct { ch: ';', .. } => {
                return Some((
                    StructDef {
                        name,
                        line,
                        fields: Vec::new(),
                    },
                    k + 1,
                ));
            }
            Event::Ident { text, .. } if text == "where" => j = k + 1,
            _ => j = k + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    #[test]
    fn free_fn_and_method() {
        let src = r#"
            fn free(x: u32) -> u32 { x + 1 }
            impl Widget {
                pub fn frob(&mut self) { self.spin(); }
            }
        "#;
        let p = parse_src(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "free");
        assert_eq!(p.fns[0].owner, None);
        assert_eq!(p.fns[1].name, "frob");
        assert_eq!(p.fns[1].owner.as_deref(), Some("Widget"));
    }

    #[test]
    fn trait_impl_owner_is_the_self_type() {
        let src = r#"
            impl<S: Sink> Access for Gadget<S> {
                fn read(&self) -> u8 { 0 }
            }
            impl View for FastMap<Key, u64> {
                fn size_of(&self) -> u64 { 1 }
            }
        "#;
        let p = parse_src(src);
        assert_eq!(p.fns[0].owner.as_deref(), Some("Gadget"));
        assert_eq!(p.fns[1].owner.as_deref(), Some("FastMap"));
    }

    #[test]
    fn generic_impl_header() {
        let src = "impl<S: TraceSink> Cluster<S> { fn run(&mut self) {} }";
        let p = parse_src(src);
        assert_eq!(p.fns[0].owner.as_deref(), Some("Cluster"));
    }

    #[test]
    fn trait_decl_methods_with_and_without_bodies() {
        let src = r#"
            trait Access {
                fn read(&self, n: u64) -> bool;
                fn write(&self) { let _ = self.read(0); }
            }
        "#;
        let p = parse_src(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].owner.as_deref(), Some("Access"));
        assert!(p.fns[0].body.is_empty(), "bodyless decl");
        assert!(!p.fns[1].body.is_empty(), "default body captured");
    }

    #[test]
    fn struct_fields_recovered() {
        let src = r#"
            pub struct Meta {
                pub exists: bool,
                size: u64,
                inner: FastMap<FileId, Vec<u64>>,
            }
            struct Unit;
            struct Pair(u32, u32);
        "#;
        let p = parse_src(src);
        assert_eq!(p.structs.len(), 3);
        assert_eq!(p.structs[0].fields, vec!["exists", "size", "inner"]);
        assert!(p.structs[1].fields.is_empty());
        assert!(p.structs[2].fields.is_empty());
    }

    #[test]
    fn coordinator_annotation_binds_fn_and_block() {
        let src = r#"
            // plane:coordinator-only
            fn alone() {}
            // plane:coordinator-only — the inline path
            impl Direct {
                fn a(&self) {}
                fn b(&self) {}
            }
            fn unmarked() {}
        "#;
        let p = parse_src(src);
        assert!(p.fns[0].coordinator_only);
        assert!(p.fns[1].coordinator_only && p.fns[2].coordinator_only);
        assert!(!p.fns[3].coordinator_only);
    }

    #[test]
    fn plane_allow_sites_cover_two_lines() {
        let src = "// plane:allow(FileTable)\nfn f() {}\n";
        let p = parse_src(src);
        assert!(p.plane_allows.contains(&("FileTable".to_string(), 1)));
        assert!(p.plane_allows.contains(&("FileTable".to_string(), 2)));
    }

    #[test]
    fn directive_name_must_be_an_ident() {
        assert!(directive_names("see lint:allow(<rule>) for grammar", "lint:allow(").is_empty());
        assert_eq!(directive_names("lint:allow(wall-clock)", "lint:allow("), vec!["wall-clock"]);
        assert_eq!(
            directive_names("lint:allow(a) and lint:allow(b)", "lint:allow("),
            vec!["a", "b"]
        );
    }

    #[test]
    fn test_region_fns_are_marked() {
        let src = r#"
            fn lib_code() {}
            #[cfg(test)]
            mod tests {
                fn helper() {}
                #[test]
                fn t() {}
            }
        "#;
        let p = parse_src(src);
        let by_name = |n: &str| p.fns.iter().find(|f| f.name == n).expect("fn parsed");
        assert!(!by_name("lib_code").in_test);
        assert!(by_name("helper").in_test);
        assert!(by_name("t").in_test);
    }

    #[test]
    fn nested_braces_in_bodies_do_not_truncate() {
        let src = r#"
            fn outer() {
                match x {
                    A { y } => { if y { z(); } }
                    _ => {}
                }
            }
            fn after() {}
        "#;
        let p = parse_src(src);
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[1].name, "after");
    }
}
