//! In-memory spans recorded by the benchmark around the calls it makes
//! into each layer, written out once when the traced run ends.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::clock::HostInstant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `channel.pay`.
    pub name: &'static str,
    /// Start, ns since the log began.
    pub start_ns: u64,
    /// End, ns since the log began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation the span belongs to (round or contract index).
    pub op: u64,
}

impl Span {
    /// Duration in µs.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Runs `call`, inside a span named `name` when `log` is given; returns
/// its result and host µs either way.
pub fn timed<R>(
    log: Option<&mut SpanLog>,
    name: &'static str,
    parent: Option<usize>,
    op: u64,
    call: impl FnOnce() -> R,
) -> (R, f64) {
    match log {
        Some(log) => log.time(name, parent, op, call),
        None => {
            let start = HostInstant::now();
            let result = call();
            (result, start.elapsed_us())
        }
    }
}

/// The span log of one traced session.
#[derive(Debug)]
pub struct SpanLog {
    origin: HostInstant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: HostInstant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Opens a span; close it with [`SpanLog::exit`].
    pub fn enter(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in µs.
    pub fn exit(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.us()
    }

    /// Runs `call` inside a span and returns its result and µs.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        call: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.enter(name, parent, op);
        let result = call();
        (result, self.exit(id))
    }

    /// Durations (µs) of every span named `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(Span::us)
            .collect()
    }

    /// Sum of the durations (µs) of spans named `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    fn now_ns(&self) -> u64 {
        HostInstant::now().ns_since(self.origin)
    }

    /// Writes the spans as JSON lines to
    /// `target/perfbench/spans-<workload>-<seed>.jsonl` under the working
    /// directory and returns the path.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the directory or file cannot be written.
    pub fn write(&self, workload: &str, seed: u64) -> std::io::Result<PathBuf> {
        let dir = Path::new("target").join("perfbench");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                span.name, span.start_ns, span.end_ns, span.op
            );
        }
        std::fs::write(&path, out)?;
        Ok(path)
    }
}
