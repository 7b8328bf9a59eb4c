//! Host-time spans recorded by the benchmark around its calls into the
//! simulator's layers.
//!
//! Spans stay in memory while the traced run executes and are written
//! once at the end as Chrome-trace JSON (the format Perfetto opens, and
//! the one `repro profile --trace-out` emits). A disabled [`Tracer`]
//! runs the same closures without reading the clock, so the traced and
//! untraced passes execute the same call sequence.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span: a named interval with the span that enclosed it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span called `name`; spans opened inside `f`
    /// become its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals: calls, summed duration, and summed self time (each
/// span's duration minus the part its direct children cover).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Time each span's direct children cover, indexed by span id.
fn child_ns(spans: &[Span]) -> Vec<u64> {
    let mut out = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            out[p] += s.dur_ns();
        }
    }
    out
}

/// Aggregates spans by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let child_ns = child_ns(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(child_ns[s.id]);
    }
    out
}

/// Chrome-trace JSON: one complete (`"ph":"X"`) event per span, with the
/// span id, parent id and self time in `args`.
pub fn to_chrome_trace(spans: &[Span]) -> String {
    let child_ns = child_ns(spans);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            parent,
            s.dur_ns().saturating_sub(child_ns[s.id]) as f64 / 1e3,
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(1), "b", 15, 35),
            span(3, Some(0), "a", 50, 60),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["root"],
            NameTotal {
                calls: 1,
                total_ns: 100,
                self_ns: 60
            }
        );
        assert_eq!(
            t["a"],
            NameTotal {
                calls: 2,
                total_ns: 40,
                self_ns: 20
            }
        );
        assert_eq!(
            t["b"],
            NameTotal {
                calls: 1,
                total_ns: 20,
                self_ns: 20
            }
        );
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut on = Tracer::new(true);
        let v = on.span("outer", |tr| tr.span("inner", |_| 7));
        assert_eq!(v, 7);
        let s = on.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |tr| tr.span("inner", |_| 7)), 7);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_carries_parent_and_self_time() {
        let spans = vec![
            span(0, None, "root", 0, 2_000),
            span(1, Some(0), "leaf", 500, 1_500),
        ];
        let json = to_chrome_trace(&spans);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains(
            "\"name\":\"root\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0.000,\"dur\":2.000,\"args\":{\"id\":0,\"parent\":null,\"self_us\":1.000}"
        ));
        assert!(json.contains(
            "\"ts\":0.500,\"dur\":1.000,\"args\":{\"id\":1,\"parent\":0,\"self_us\":1.000}"
        ));
    }
}
