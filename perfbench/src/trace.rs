//! In-memory spans recorded around the benchmark's calls into each
//! crate, written out as JSONL when the run ends.

use crate::util::json_str;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. `parent` is `None` only for a request's root.
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub request_id: u64,
    pub parent: Option<u64>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Span recorder. When disabled, [`Tracer::time`] still runs the
/// closure but records nothing, so the same code path yields the
/// untraced baseline for the tracing-overhead figure.
pub struct Tracer {
    epoch: Instant,
    pub enabled: bool,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            next_id: 1,
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, request_id: u64, parent: Option<u64>) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_us = self.now_us();
        self.spans.push(Span {
            id,
            name,
            request_id,
            parent,
            start_us,
            end_us: start_us,
        });
        id
    }

    pub fn end(&mut self, id: u64) {
        if !self.enabled {
            return;
        }
        let now = self.now_us();
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.end_us = now;
        }
    }

    /// Run `f` inside a span named `name`, child of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request_id: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, request_id, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Durations (µs) of every span with this name.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// The spans as JSONL: `name, request_id, parent, start_us, end_us,
    /// workload` per line.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str("{\"name\":");
            json_str(&mut out, s.name);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                ",\"span_id\":{},\"request_id\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3},\"workload\":",
                s.id, s.request_id, s.start_us, s.end_us
            );
            json_str(&mut out, workload);
            out.push_str("}\n");
        }
        out
    }
}
