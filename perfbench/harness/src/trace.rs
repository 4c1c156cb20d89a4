//! Spans recorded by the benchmark around calls into the program's
//! layers: name, start, end and parent, kept in memory and written out
//! when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, e.g. `topology.identify`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Per-name totals: calls, total time and self time (the span's time
/// minus the part its child spans cover).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTime {
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

/// A single-threaded span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), enabled: true }
    }

    /// A tracer that records nothing, for the untraced twin of a traced
    /// run.
    pub fn disabled() -> Self {
        Tracer { enabled: false, ..Tracer::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: self.now_ns(), end_ns: 0, parent });
        self.open.push(index);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let index = self.open.pop().expect("end() matches a begin()");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`; spans `f` opens through the
    /// tracer it receives become children of this one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        self.begin(name);
        let out = f(self);
        self.end();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Calls, total and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.calls += 1;
            entry.total_ns += total;
            entry.self_ns += total.saturating_sub(children);
        }
        out
    }

    /// Writes every span as one JSON line, then one summary line per
    /// layer.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        for (name, t) in self.layers() {
            let _ = writeln!(
                out,
                "{{\"layer\":\"{name}\",\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.calls, t.total_ns, t.self_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let layers = t.layers();
        let outer = layers["outer"];
        let inner = layers["inner"];
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(inner.self_ns >= 5_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(outer.self_ns < inner.self_ns);
    }
}
