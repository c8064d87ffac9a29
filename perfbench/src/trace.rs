//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around its
//! calls into each layer's public functions; nothing here reads the
//! program's own `si_obs::Timings`. Every operation the client issues
//! (one query, one batch, one ingest) opens a root span; layer calls
//! made while it is open become its children. A layer's self time is
//! its span's duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for an operation root.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one client operation.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded span recorder. Disabled tracers record nothing and
/// cost one branch per call, so the untraced run uses the same code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a root span for a new client operation.
    pub fn begin_op(&mut self, name: &'static str) {
        if self.enabled {
            assert!(
                self.open.is_empty(),
                "operation {name} opened inside another"
            );
            self.next_op += 1;
            self.push(name);
        }
    }

    /// Closes the current operation's root span.
    pub fn end_op(&mut self) {
        self.exit();
        debug_assert!(!self.enabled || self.open.is_empty());
    }

    fn push(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.next_op,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn exit(&mut self) {
        if self.enabled {
            let idx = self.open.pop().expect("span exit without enter");
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a child span named after the layer it calls.
    pub fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        self.push(name);
        let out = f();
        self.exit();
        out
    }

    /// The recorded spans, to be summarized once the run ends.
    pub fn finish(self) -> Ledger {
        assert!(self.open.is_empty(), "unclosed spans at the end of the run");
        Ledger::new(self.spans)
    }
}

/// Per-name aggregates of a finished trace.
pub struct Ledger {
    spans: Vec<Span>,
    self_ns: Vec<u64>,
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub inclusive_ns: u64,
    pub self_ns: u64,
}

impl Ledger {
    fn new(spans: Vec<Span>) -> Self {
        // Children of one parent run one after another on the client
        // thread, so the time they cover is the sum of their durations.
        let mut self_ns: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
        for span in &spans {
            if let Some(p) = span.parent {
                self_ns[p] = self_ns[p].saturating_sub(span.duration_ns());
            }
        }
        Self { spans, self_ns }
    }

    /// Totals per span name, in name order.
    pub fn by_name(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, &own) in self.spans.iter().zip(&self.self_ns) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.inclusive_ns += span.duration_ns();
            t.self_ns += own;
        }
        out
    }

    /// Total nanoseconds of all operation roots: the traced wall.
    pub fn wall_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum()
    }

    /// Share of the traced wall that some layer span accounts for: the
    /// layers' summed self time over the operations' summed duration.
    pub fn coverage(&self) -> f64 {
        let layers: u64 = self
            .spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| s.parent.is_some())
            .map(|(_, &own)| own)
            .sum();
        layers as f64 / self.wall_ns().max(1) as f64
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (span, &own) in self.spans.iter().zip(&self.self_ns) {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"self_ns\":{}}}",
                span.name, span.op, span.start_ns, span.end_ns, parent, own
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "op",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                op: 1,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 50,
                parent: Some(0),
                op: 1,
            },
            Span {
                name: "b",
                start_ns: 20,
                end_ns: 30,
                parent: Some(1),
                op: 1,
            },
            Span {
                name: "a",
                start_ns: 60,
                end_ns: 90,
                parent: Some(0),
                op: 1,
            },
        ];
        let ledger = Ledger::new(spans);
        let by = ledger.by_name();
        assert_eq!(by["op"].self_ns, 30);
        assert_eq!(by["a"].self_ns, 60);
        assert_eq!(by["a"].inclusive_ns, 70);
        assert_eq!(by["b"].self_ns, 10);
        assert_eq!(ledger.wall_ns(), 100);
        assert!((ledger.coverage() - 0.7).abs() < 1e-9);
    }
}
