//! Client-side spans: recorded around the calls into each layer, kept in
//! memory, written out once at exit. Spans inside the program are a later
//! change (ROADMAP item 1).

use std::io::Write;
use std::time::Instant;

/// One span. `parent` is the index (1-based, 0 = none) of the span that
/// caused it; spans of one request share `req`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    pub parent: u32,
    pub req: u64,
}

/// An in-memory span log on one clock.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Microseconds since the log's epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Records a finished span and returns its 1-based id.
    pub fn record(
        &mut self,
        name: &'static str,
        start_us: u64,
        end_us: u64,
        parent: u32,
        req: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent,
            req,
        });
        self.spans.len() as u32
    }

    /// Sets the end of span `id` (a parent recorded before its children).
    pub fn set_end(&mut self, id: u32, end_us: u64) {
        if let Some(span) = self.spans.get_mut(id as usize - 1) {
            span.end_us = end_us;
        }
    }

    /// Times `f` as a span named `name`.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now_us();
        let value = f();
        let end = self.now_us();
        self.record(name, start, end, parent, req);
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Forgets every span recorded after the first `len`.
    pub fn truncate(&mut self, len: usize) {
        self.spans.truncate(len);
    }

    /// Appends another log's spans (same epoch), re-basing parent ids.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
    }

    /// Total self time per span name in seconds: each span's duration minus
    /// the part its direct children cover.
    pub fn self_seconds(&self, name: &str) -> f64 {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                covered[s.parent as usize - 1] += s.end_us.saturating_sub(s.start_us);
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.end_us.saturating_sub(s.start_us).saturating_sub(*c))
            .sum::<u64>() as f64
            / 1e6
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Writes one JSON object per line: `name,start_us,end_us,parent,req`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_us, s.end_us, s.parent, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new(Instant::now());
        let parent = log.record("request", 0, 100, 0, 7);
        log.record("encode", 0, 10, parent, 7);
        log.record("wait", 10, 90, parent, 7);
        assert!((log.self_seconds("request") - 10e-6).abs() < 1e-12);
        assert!((log.self_seconds("wait") - 80e-6).abs() < 1e-12);
        assert_eq!(log.count("encode"), 1);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch);
        a.record("x", 0, 1, 0, 0);
        let mut b = SpanLog::new(epoch);
        let p = b.record("request", 0, 10, 0, 1);
        b.record("child", 0, 4, p, 1);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 2);
        assert!((a.self_seconds("request") - 6e-6).abs() < 1e-12);
    }
}
