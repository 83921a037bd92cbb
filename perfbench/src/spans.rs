//! The traced run's instruments: in-memory spans recorded around each call
//! into a layer, and an allocator event sink that counts decisions.
//!
//! Both live in the benchmark, outside the program: spans wrap the public
//! calls the benchmark makes, and [`LayerCounts`] is attached through
//! `Simulation::with_sink`.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;
use tora::alloc::trace::{AllocEvent, EventSink};

/// One timed call. Spans of one cell, run or request share `group`.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Cell, run or request the span belongs to.
    pub group: u32,
    /// Layer call, e.g. `engine.run` or `serve.parse`.
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
}

/// Keeps spans in memory until the run ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    /// Open a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, group: u32, parent: Option<u32>) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            group,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Close span `id`.
    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Record a span from instants taken by the caller.
    pub fn push_span(
        &mut self,
        name: &'static str,
        group: u32,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            group,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        group: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, group, parent);
        let out = f();
        self.close(id);
        out
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: call count, total and self seconds. A span's self
    /// time is its duration minus the time its direct children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let total = (s.end_ns - s.start_ns) as f64 * 1e-9;
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]) as f64 * 1e-9;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += own;
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        for s in &self.spans {
            use serde_json::Value;
            let line = crate::obj([
                ("id", Value::UInt(s.id as u64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                ),
                ("group", Value::UInt(s.group as u64)),
                ("name", crate::jstr(s.name)),
                ("start_ns", Value::UInt(s.start_ns)),
                ("end_ns", Value::UInt(s.end_ns)),
            ]);
            let line = serde_json::to_string(&line).map_err(|e| e.to_string())?;
            writeln!(out, "{line}").map_err(|e| format!("{}: {e}", path.display()))?;
        }
        out.flush().map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Exact allocator decision counts, from the event stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// Predictions of every kind (first, exploratory, retry).
    pub predicts: u64,
    /// Axis escalations on retries.
    pub escalations: u64,
    /// Fault-feedback reports.
    pub feedback: u64,
    /// Bucketing rebuilds.
    pub rebuckets: u64,
    /// Records summed over every rebuild (the rebuilds' input size).
    pub rebucket_records: u64,
}

impl LayerCounts {
    /// Fold `other` into `self`.
    pub fn add(&mut self, other: &LayerCounts) {
        self.predicts += other.predicts;
        self.escalations += other.escalations;
        self.feedback += other.feedback;
        self.rebuckets += other.rebuckets;
        self.rebucket_records += other.rebucket_records;
    }
}

impl EventSink for LayerCounts {
    fn emit(&mut self, event: AllocEvent) {
        match event {
            AllocEvent::Predict { .. } => self.predicts += 1,
            AllocEvent::Escalate { .. } => self.escalations += 1,
            AllocEvent::Feedback { .. } => self.feedback += 1,
            AllocEvent::Observe { .. } => {}
            AllocEvent::Rebucket { n_records, .. } => {
                self.rebuckets += 1;
                self.rebucket_records += n_records as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::default();
        let outer = r.open("outer", 0, None);
        r.time("inner", 0, Some(outer), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.close(outer);
        let s = r.summary();
        let (n, total, own) = s["outer"];
        assert_eq!(n, 1);
        assert!(own < total);
        assert!((s["inner"].1 - (total - own)).abs() < 1e-9);
    }
}
