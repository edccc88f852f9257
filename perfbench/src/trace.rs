//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer's public functions: nothing inside the program under
//! test is instrumented. Each span has a name, a start, an end and a
//! parent; they stay in memory until the run ends and are then written
//! out as one tab-separated file. Per-layer numbers use *self* time: a
//! span's duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Parent index of a top-level span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    pub parent: u32,
}

/// A span recorder that is either on (records) or off (every call is a
/// branch on a constant flag, so the untraced replay runs the same code).
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Self time and span count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub ns: u64,
    pub count: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let idx = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        self.stack.push(idx);
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.stack.pop().expect("exit without a matching enter");
        let end = self.now();
        self.spans[idx as usize].end = end;
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.enter(name);
        let r = f(self);
        self.exit();
        r
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        self_times(&self.spans)
    }

    /// Writes every span as `index name start_ns end_ns parent` lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# index\tname\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(out, "{i}\t{}\t{}\t{}\t{parent}", s.name, s.start, s.end)?;
        }
        out.flush()
    }
}

/// Self time per span name: each span's duration minus the durations of
/// its direct children (children never outlive their parent).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let e = out.entry(s.name).or_default();
        e.ns += (s.end - s.start).saturating_sub(covered);
        e.count += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // a[0,100) > b[10,40) > c[20,30); a > d[50,70)
        let spans = [
            span("a", 0, 100, ROOT),
            span("b", 10, 40, 0),
            span("c", 20, 30, 1),
            span("d", 50, 70, 0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["a"].ns, 100 - 30 - 20);
        assert_eq!(t["b"].ns, 30 - 10);
        assert_eq!(t["c"].ns, 10);
        assert_eq!(t["d"].ns, 20);
        let total: u64 = t.values().map(|s| s.ns).sum();
        assert_eq!(total, 100, "self times of a tree add up to its root");
    }

    #[test]
    fn same_name_spans_aggregate() {
        let spans = [span("x", 0, 5, ROOT), span("x", 5, 12, ROOT)];
        let t = self_times(&spans);
        assert_eq!(t["x"], SelfTime { ns: 12, count: 2 });
    }

    #[test]
    fn tracer_off_records_nothing_and_on_nests() {
        let mut off = Tracer::new(false);
        off.span("a", |t| t.span("b", |_| ()));
        assert!(off.spans().is_empty());
        let mut on = Tracer::new(true);
        on.span("a", |t| t.span("b", |_| ()));
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[0].parent, ROOT);
        assert_eq!(on.spans()[1].parent, 0);
        assert!(on.spans()[1].end <= on.spans()[0].end);
    }
}
