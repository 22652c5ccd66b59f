//! In-memory spans for the traced run, written out when the run ends.

use serde_json::{json, Value};
use std::time::Instant;

/// One timed interval at a layer boundary.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// Spans of one run, timed from a shared base instant.
pub struct Tracer {
    base: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose times are seconds since now.
    pub fn new() -> Self {
        Tracer {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The base instant; planes that record their own times use it too.
    pub fn base(&self) -> Instant {
        self.base
    }

    /// Seconds since the base instant.
    pub fn now(&self) -> f64 {
        self.base.elapsed().as_secs_f64()
    }

    /// Record a finished span; returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start_s: f64,
        end_s: f64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start_s,
            end_s,
        });
        self.spans.len() - 1
    }

    /// Open a span that [`close`](Self::close) ends; returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.record(name, parent, now, f64::NAN)
    }

    /// End span `id`; returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.now();
        let span = &mut self.spans[id];
        span.end_s = now;
        now - span.start_s
    }

    /// Run `f` inside a span; returns its result, the span id and its
    /// duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize, f64) {
        let id = self.open(name, parent);
        let v = f();
        let secs = self.close(id);
        (v, id, secs)
    }

    /// Write every span as JSON to `path` (creating its directory).
    pub fn write(&self, path: &std::path::Path, header: Value) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "id": id,
                    "parent": s.parent,
                    "name": s.name,
                    "start_s": s.start_s,
                    "end_s": s.end_s,
                })
            })
            .collect();
        let doc = json!({"run": header, "spans": spans});
        std::fs::write(path, serde_json::to_string(&doc).expect("spans serialize"))
    }
}
