//! A minimal JSON object writer for the one-line reports the benchmark
//! binary prints (the package has no dependencies beyond the repository).

use std::fmt::Write as _;

/// Builds one JSON object, field by field.
#[derive(Debug, Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        push_str(&mut self.body, k);
        self.body.push(':');
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        push_str(&mut self.body, v);
        self
    }

    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.body, "{v}");
        self
    }

    /// A float; non-finite values (which JSON cannot hold) become `null`.
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.body, "{v}");
        } else {
            self.body.push_str("null");
        }
        self
    }

    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.body.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn obj(mut self, k: &str, v: Obj) -> Self {
        self.key(k);
        self.body.push_str(&v.finish());
        self
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

fn push_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_nested_objects_and_escapes() {
        let s = Obj::new()
            .str("a\"b", "x\ny")
            .u64("n", 3)
            .f64("f", 0.5)
            .f64("nan", f64::NAN)
            .bool("ok", true)
            .obj("o", Obj::new().u64("k", 1))
            .finish();
        assert_eq!(
            s,
            r#"{"a\"b":"x\u000ay","n":3,"f":0.5,"nan":null,"ok":true,"o":{"k":1}}"#
        );
    }
}
