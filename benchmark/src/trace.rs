//! In-memory spans and counts for the traced pass, written out as JSONL
//! when the pass ends.
//!
//! Every span is recorded *from outside* the program under test: around
//! a call the benchmark makes into a public function. A span names its
//! parent and the op it belongs to; `source` says whether it brackets
//! the real op (`report`) or a replay of the op's artefacts through one
//! layer's entry point (`probe`).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Value;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// Where a span's interval comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Around a call of the real op.
    Report,
    /// Around a replay of the op's artefacts through one layer.
    Probe,
}

impl Source {
    fn as_str(self) -> &'static str {
        match self {
            Self::Report => "report",
            Self::Probe => "probe",
        }
    }
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `None` only for the pass root.
    pub parent: Option<SpanId>,
    /// Traced-op index the span belongs to.
    pub op: usize,
    pub source: Source,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Span and count recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counts: Vec<(String, usize, f64)>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span over an interval measured elsewhere.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        op: usize,
        source: Source,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
            source,
        });
        self.spans.len() - 1
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of op `op`'s spans named `name`.
    pub fn seconds_of(&self, op: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.op == op && s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Sum of op `op`'s counts named `name`; `None` if none was taken.
    pub fn count_of(&self, op: usize, name: &str) -> Option<f64> {
        let mut taken = self
            .counts
            .iter()
            .filter(|(n, o, _)| *o == op && n == name)
            .map(|(_, _, v)| *v)
            .peekable();
        taken.peek().is_some().then(|| taken.sum())
    }

    /// Self time of every span in nanoseconds: its duration minus the
    /// part of its interval its child spans cover (children are clipped
    /// to the parent and overlapping children counted once).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let start = span.start_ns.max(p.start_ns);
                let end = span.end_ns.min(p.end_ns);
                if end > start {
                    children[parent].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for (start, end) in kids {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.end_ns.saturating_sub(span.start_ns) - covered
            })
            .collect()
    }

    /// True if `ancestor` is `id` or lies on `id`'s parent chain.
    pub fn descends_from(&self, id: SpanId, ancestor: SpanId) -> bool {
        let mut at = Some(id);
        while let Some(i) = at {
            if i == ancestor {
                return true;
            }
            at = self.spans[i].parent;
        }
        false
    }

    /// Writes every span, then every count, one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self.self_ns();
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let line = Value::obj([
                ("kind", Value::str("span")),
                ("id", Value::Num(id as f64)),
                ("name", Value::str(span.name.as_str())),
                ("start_ns", Value::Num(span.start_ns as f64)),
                ("end_ns", Value::Num(span.end_ns as f64)),
                ("self_ns", Value::Num(self_ns[id] as f64)),
                (
                    "parent",
                    span.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("op", Value::Num(span.op as f64)),
                ("source", Value::str(span.source.as_str())),
            ]);
            let _ = writeln!(out, "{}", line.render());
        }
        for (name, op, value) in &self.counts {
            let line = Value::obj([
                ("kind", Value::str("count")),
                ("name", Value::str(name.as_str())),
                ("op", Value::Num(*op as f64)),
                ("value", Value::Num(*value)),
            ]);
            let _ = writeln!(out, "{}", line.render());
        }
        std::fs::write(path, out)
    }
}

/// A [`Tracer`] bound to one traced op, so probe code names the op once.
pub struct OpTracer<'a> {
    tracer: &'a mut Tracer,
    op: usize,
}

impl Tracer {
    /// This tracer, recording for traced op `op`.
    pub fn for_op(&mut self, op: usize) -> OpTracer<'_> {
        OpTracer { tracer: self, op }
    }
}

impl OpTracer<'_> {
    /// Opens a probe span now; close it with [`OpTracer::close`].
    pub fn open(&mut self, name: &str, parent: SpanId) -> SpanId {
        let now = Instant::now();
        self.tracer
            .record(name, Some(parent), self.op, Source::Probe, now, now)
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: SpanId) {
        self.tracer.close(id);
    }

    /// Runs `f` under a probe span.
    pub fn probe<R>(&mut self, name: &str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        self.tracer
            .record(name, Some(parent), self.op, Source::Probe, start, end);
        result
    }

    /// True if this op has a span named `name`.
    pub fn has_span(&self, name: &str) -> bool {
        let op = self.op;
        self.tracer
            .spans
            .iter()
            .any(|s| s.op == op && s.name == name)
    }

    /// Records a count taken at a layer boundary.
    pub fn count(&mut self, name: &str, value: f64) {
        self.tracer.counts.push((name.to_owned(), self.op, value));
    }

    /// Total seconds of this op's spans named `name`.
    pub fn seconds_of(&self, name: &str) -> f64 {
        self.tracer.seconds_of(self.op, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Hand-built tree (times in ns from the origin):
    ///
    /// ```text
    /// root 0..1000
    ///   a 100..400
    ///     a1 150..250
    ///     a2 200..300      (overlaps a1: union covers 150..300)
    ///   b 500..900
    ///     b1 850..1200     (runs past b: clipped to 850..900)
    /// ```
    fn tree() -> (Tracer, [SpanId; 6]) {
        let mut t = Tracer::new();
        let at = |t: &Tracer, ns: u64| t.origin + Duration::from_nanos(ns);
        let add = |t: &mut Tracer, name: &str, parent, s, e| {
            let (s, e) = (at(t, s), at(t, e));
            t.record(name, parent, 0, Source::Probe, s, e)
        };
        let root = add(&mut t, "root", None, 0, 1000);
        let a = add(&mut t, "a", Some(root), 100, 400);
        let a1 = add(&mut t, "leaf", Some(a), 150, 250);
        let a2 = add(&mut t, "leaf", Some(a), 200, 300);
        let b = add(&mut t, "b", Some(root), 500, 900);
        let b1 = add(&mut t, "late", Some(b), 850, 1200);
        (t, [root, a, a1, a2, b, b1])
    }

    #[test]
    fn self_time_subtracts_clipped_union_of_children() {
        let (t, [root, a, a1, a2, b, b1]) = tree();
        let own = t.self_ns();
        assert_eq!(own[root], 1000 - 300 - 400);
        assert_eq!(own[a], 300 - 150);
        assert_eq!(own[a1], 100);
        assert_eq!(own[a2], 100);
        assert_eq!(own[b], 400 - 50);
        assert_eq!(own[b1], 350);
    }

    #[test]
    fn sums_by_name_and_ancestry() {
        let (mut t, [root, a, a1, _, b, b1]) = tree();
        assert!((t.seconds_of(0, "leaf") - 200e-9).abs() < 1e-15);
        assert_eq!(t.seconds_of(1, "leaf"), 0.0);
        assert!(t.descends_from(a1, a) && t.descends_from(a1, root));
        assert!(!t.descends_from(a1, b) && t.descends_from(b1, b));
        t.for_op(0).count("txs", 3.0);
        t.for_op(0).count("txs", 4.0);
        t.for_op(1).count("txs", 9.0);
        assert_eq!(t.count_of(0, "txs"), Some(7.0));
        assert_eq!(t.count_of(2, "txs"), None);
    }

    #[test]
    fn jsonl_names_a_parent_for_every_span_but_the_root() {
        let (mut t, _) = tree();
        t.for_op(0).count("chain.mempool.txs", 5.0);
        let dir = std::env::temp_dir().join(format!("fl-benchmark-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let lines: Vec<Value> = text
            .lines()
            .map(|l| crate::json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 7);
        let spans: Vec<&Value> = lines
            .iter()
            .filter(|l| l.get("kind").and_then(Value::as_str) == Some("span"))
            .collect();
        assert_eq!(spans.len(), 6);
        let orphans = spans
            .iter()
            .filter(|s| s.get("parent") == Some(&Value::Null))
            .count();
        assert_eq!(orphans, 1);
        assert_eq!(spans[5].get("self_ns").unwrap().as_f64(), Some(350.0));
        assert_eq!(spans[2].get("source").unwrap().as_str(), Some("probe"));
    }
}
