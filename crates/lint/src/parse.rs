//! Directive parsing: [`directive_names`] extracts the rule names from
//! `lint:allow(...)` comments for the rule engine ([`crate::rules`]).

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directive_name_must_be_an_ident() {
        assert!(directive_names("see lint:allow(<rule>) for grammar", "lint:allow(").is_empty());
        assert_eq!(directive_names("lint:allow(wall-clock)", "lint:allow("), vec!["wall-clock"]);
        assert_eq!(
            directive_names("lint:allow(a) and lint:allow(b)", "lint:allow("),
            vec!["a", "b"]
        );
    }
}
