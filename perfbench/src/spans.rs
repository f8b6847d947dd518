//! Spans recorded around the benchmark's calls into each layer. They are
//! kept in memory while the run measures and written out, one JSON object
//! per line, when it ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Identifier of a recorded span.
pub type SpanId = u32;

struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    /// Request the span belongs to; spans of one request share it.
    request: Option<u64>,
    start: Instant,
    end: Instant,
    /// Calls the span covers (a probe loop records one span per pass).
    calls: u64,
}

/// The run's span log.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty log whose timestamps count from now.
    pub fn new() -> Spans {
        Spans { origin: Instant::now(), spans: Vec::new() }
    }

    /// Record a finished span and return its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
        start: Instant,
        calls: u64,
    ) -> SpanId {
        self.spans.push(Span { name, parent, request, start, end: Instant::now(), calls });
        (self.spans.len() - 1) as SpanId
    }

    /// Open a span that [`Spans::close`] finishes; children recorded in
    /// between can name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.spans.push(Span { name, parent, request: None, start: now, end: now, calls: 1 });
        (self.spans.len() - 1) as SpanId
    }

    /// Finish an open span; returns its duration.
    pub fn close(&mut self, id: SpanId) -> Duration {
        let span = &mut self.spans[id as usize];
        span.end = Instant::now();
        span.end - span.start
    }

    /// Run `f` inside a span; returns its result and duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, parent, None, start, 1);
        let span = &self.spans[id as usize];
        (out, span.end - span.start)
    }

    /// Write every span as a JSON line: id, parent, name, request, start
    /// and end in microseconds since the run began, and calls covered.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| (t - self.origin).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"request\":{request},\
                 \"start_us\":{:.3},\"end_us\":{:.3},\"calls\":{}}}",
                s.name,
                us(s.start),
                us(s.end),
                s.calls
            );
        }
        std::fs::write(path, out)
    }
}
