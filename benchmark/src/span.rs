//! Benchmark-side spans: one around every call into a layer, kept in memory
//! and written out once at exit. Spans inside the program are a later
//! issue; these are taken from outside, on the thread that made the call.

use std::io::Write;
use std::time::Instant;

struct Span {
    name: String,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

/// Open span handle returned by [`Tracer::enter`].
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A disabled tracer records nothing: what the untraced pass hands down.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = Instant::now();
        self.spans.push(Span {
            name: name.to_string(),
            start: now,
            end: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end = Instant::now();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Records a span timed on another thread (the broker thread's
    /// `engine.run` in `pull_paced`) under the innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name: name.to_string(),
                start,
                end,
                parent: self.stack.last().copied(),
            });
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (µs) of every span named `name` recorded at index
    /// `since` or later.
    pub fn durations_us(&self, name: &str, since: usize) -> Vec<f64> {
        self.spans[since..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
            .collect()
    }

    /// Writes one JSON object per span: id, parent, workload, name, start
    /// and end in µs since the tracer was made, and self time (duration
    /// minus the part its children cover).
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += (s.end - s.start).as_secs_f64() * 1e6;
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let start = (s.start - self.epoch).as_secs_f64() * 1e6;
            let end = (s.end - self.epoch).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"workload\":\"{workload}\",\"name\":\"{}\",\
                 \"start_us\":{start:.3},\"end_us\":{end:.3},\"self_us\":{:.3}}}",
                s.name,
                (end - start - child_us[id]).max(0.0)
            )?;
        }
        out.flush()
    }
}
