//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions: name, start, end (nanoseconds since the tracer was
//! created) and the id of the span that caused it (0 = root). They stay in
//! memory until [`Tracer::write_json`] dumps them at the end of the run.
//! While the tracer is off, [`Tracer::span`] reads no clock and records
//! nothing, so an untraced unit pays one atomic load per span site.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: AtomicBool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; it is recorded when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    start: Option<Instant>,
}

impl Guard<'_> {
    /// The span's id, for use as a child's parent (0 when tracing is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let end = Instant::now();
            let span = Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: start.duration_since(self.tracer.t0).as_nanos() as u64,
                end_ns: end.duration_since(self.tracer.t0).as_nanos() as u64,
            };
            if let Ok(mut spans) = self.tracer.spans.lock() {
                spans.push(span);
            }
        }
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            on: AtomicBool::new(false),
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }
}

impl Tracer {
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn span(&self, name: &'static str, parent: u64) -> Guard<'_> {
        self.span_if(true, name, parent)
    }

    /// A span recorded only when tracing is on and `on` holds (used to
    /// trace every other unit of a phase).
    pub fn span_if(&self, on: bool, name: &'static str, parent: u64) -> Guard<'_> {
        if !on || !self.is_on() {
            return Guard {
                tracer: self,
                id: 0,
                parent,
                name,
                start: None,
            };
        }
        Guard {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start: Some(Instant::now()),
        }
    }

    /// Durations in nanoseconds of every recorded span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list lock poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list lock poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}
