//! Spans around the calls into each layer, recorded from outside the
//! crates: name, start, end, the span that caused it, and the op they
//! belong to. Kept in memory; written as a Chrome trace-event file when
//! the run ends.
//!
//! A span's layer is its name up to the first dot (`core.evaluate` →
//! `core`). A layer's self time is its spans' durations minus the parts
//! their child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.what`, e.g. `core.evaluate`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch (0 while open).
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// The op (or set-up, or probe) the span belongs to.
    pub op: u32,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// The recorder. When `enabled` is false `begin`/`end` are one branch
/// each, so the untraced ops run the same code as the traced ones.
pub struct Tracer {
    /// Record spans?
    pub enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A disabled tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Spans recorded from now on belong to `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed().as_nanos() as u64,
            end: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (ms) of every span: duration minus its direct
    /// children's durations. Indexed like [`Tracer::spans`].
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] -= s.ms();
            }
        }
        own
    }

    /// Writes the spans as a Chrome trace-event array (`ph: "X"`,
    /// microsecond timestamps; parent and op under `args`).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = s.parent.map_or(-1, i64::from);
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "{{\"name\": \"{}\", \"cat\": \"{layer}\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \
                 \"args\": {{\"id\": {i}, \"parent\": {parent}, \"op\": {}}}}}{sep}",
                s.name,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.op,
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let out = t.span("core.evaluate", || 7);
        assert_eq!(out, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new();
        t.enabled = true;
        t.set_op(3);
        let op = t.begin("bench.op");
        let a = t.begin("pattern.parse");
        t.end(a);
        let b = t.begin("core.evaluate");
        t.end(b);
        t.end(op);
        // Overwrite the clock readings with hand-made ones.
        t.spans[0].start = 0;
        t.spans[0].end = 10_000_000;
        t.spans[1].start = 1_000_000;
        t.spans[1].end = 3_000_000;
        t.spans[2].start = 3_000_000;
        t.spans[2].end = 9_000_000;
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        assert_eq!(t.self_ms(), vec![2.0, 2.0, 6.0]);
        assert!(t.spans().iter().all(|s| s.op == 3));
    }
}
