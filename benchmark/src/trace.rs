//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `{name, start, end, parent, op_id}`; spans of one op share
//! its `op_id`. They stay in memory during the run and are written out
//! as JSON lines afterwards. A span's *self time* is its duration minus
//! the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the log's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The op this span belongs to.
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// In-memory span log with a stack of open spans.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op_id: u64,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    /// A log over already-measured spans (parents must precede children).
    pub fn from_spans(spans: Vec<Span>) -> SpanLog {
        SpanLog {
            spans,
            ..SpanLog::new()
        }
    }

    /// Spans opened from now on belong to op `op_id`.
    pub fn set_op(&mut self, op_id: u64) {
        self.op_id = op_id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: u32) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn scoped<T>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanLog) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Record a child of the innermost open span covering that whole
    /// span so far — for work the benchmark can only detect after the
    /// call returned (a buffer flush inside an insert).
    pub fn mark_covering(&mut self, name: &'static str, parent: u32) {
        let p = &self.spans[parent as usize];
        let span = Span {
            name,
            start_ns: p.start_ns,
            end_ns: p.end_ns,
            parent: Some(parent),
            op_id: p.op_id,
        };
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Self time of every span: duration minus its children's durations
    /// (children never overlap: the log is single-threaded).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Count, total and self time per span name.
    pub fn ledger(&self) -> BTreeMap<&'static str, NameTotals> {
        let own = self.self_ns();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(own) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".into(),
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_only_from_their_parent() {
        // op [0,100) ── plan [5,25) ── catalog [6,10)
        //            └─ execute [30,90)
        let log = SpanLog::from_spans(vec![
            span("op", 0, 100, None),
            span("plan", 5, 25, Some(0)),
            span("catalog", 6, 10, Some(1)),
            span("execute", 30, 90, Some(0)),
        ]);
        assert_eq!(log.self_ns(), vec![20, 16, 4, 60]);
        let ledger = log.ledger();
        assert_eq!(
            ledger["op"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(ledger["plan"].self_ns, 16);
        // Self times partition the root's duration.
        let total: u64 = log.self_ns().iter().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn recorded_spans_nest_and_carry_the_op_id() {
        let mut log = SpanLog::new();
        log.set_op(7);
        let outer = log.begin("op");
        log.scoped("plan", |_| ());
        log.scoped("execute", |l| l.scoped("inner", |_| ()));
        log.end(outer);
        log.mark_covering("flush", outer);
        let s = log.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(s[4].parent, Some(0));
        assert_eq!((s[4].start_ns, s[4].end_ns), (s[0].start_ns, s[0].end_ns));
        assert!(s.iter().all(|x| x.op_id == 7));
        assert!(s[0].end_ns >= s[3].end_ns);
    }
}
