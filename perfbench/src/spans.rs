//! In-memory span log for the traced run.
//!
//! A span is a named interval with an optional parent and a request
//! id. Spans are appended while the traced run executes and written
//! once, as JSON lines, when it ends. A span's *self time* is its
//! duration minus the time its direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its log.
pub type SpanId = usize;

/// One recorded interval, in nanoseconds since the log's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `cooling.optimize`.
    pub name: &'static str,
    /// Start, ns since the log's origin.
    pub start: u64,
    /// End, ns since the log's origin.
    pub end: u64,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The request (cell, run, or HTTP request) this span served.
    pub request: u64,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// Append-only span log.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the log's origin.
    #[must_use]
    pub fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records an interval timed by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: u64,
        end: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now();
        self.record(name, parent, request, now, now)
    }

    /// Closes a span opened with [`open`](Self::open).
    pub fn close(&mut self, id: SpanId) {
        let now = self.now();
        if let Some(span) = self.spans.get_mut(id) {
            span.end = now;
        }
    }

    /// All spans, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span with `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64)
            .collect()
    }

    /// Time each span's direct children cover, by span index.
    fn covered(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(slot) = span.parent.and_then(|p| covered.get_mut(p)) {
                *slot += span.duration();
            }
        }
        covered
    }

    /// Count, total and self time per span name.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let covered = self.covered();
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&covered) {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration();
            entry.self_ns += span.duration().saturating_sub(*children);
        }
        totals
    }

    /// Writes the log as JSON lines (`name`, `start_ns`, `end_ns`,
    /// `parent`, `request`, `self_ns`).
    ///
    /// # Errors
    ///
    /// File creation or write failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let covered = self.covered();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (span, children)) in self.spans.iter().zip(&covered).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"self_ns\":{}}}",
                span.name,
                span.start,
                span.end,
                span.request,
                span.duration().saturating_sub(*children)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut log = SpanLog::new();
        let root = log.record("root", None, 1, 0, 100);
        let child = log.record("child", Some(root), 1, 10, 40);
        log.record("leaf", Some(child), 1, 15, 25);
        log.record("child", Some(root), 1, 50, 70);
        let t = log.totals();
        assert_eq!(t["root"].self_ns, 50);
        assert_eq!(t["child"].count, 2);
        assert_eq!(t["child"].total_ns, 50);
        assert_eq!(t["child"].self_ns, 40);
        assert_eq!(t["leaf"].self_ns, 10);
    }
}
