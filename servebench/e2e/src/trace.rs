//! Spans the benchmark records around its calls into the program: name,
//! start, end and the span that caused it. They are kept in memory and
//! written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One span; times in µs since the log's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was timed.
    pub name: String,
    /// Start.
    pub start_us: f64,
    /// End.
    pub end_us: f64,
    /// Index of the span that caused it.
    pub parent: Option<usize>,
    /// The server's stage clock (µs per stage), on HTTP request spans.
    pub stages_us: Option<[u64; 6]>,
}

/// Spans in the order they were opened, and the open span new ones hang
/// under.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    parent: Option<usize>,
}

impl SpanLog {
    /// An empty log timing from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            parent: None,
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span under the open one.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        stages_us: Option<[u64; 6]>,
    ) {
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.us(start),
            end_us: self.us(end),
            parent: self.parent,
            stages_us,
        });
    }

    /// Opens a span under the open one; new spans hang under it until
    /// [`SpanLog::close`].
    pub fn open(&mut self, name: &str) -> usize {
        let now = Instant::now();
        self.record(name, now, now, None);
        self.parent = Some(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes a span opened by [`SpanLog::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.us(Instant::now());
        self.parent = self.spans[id].parent;
    }

    /// Appends every span to `out`, one JSON object per line.
    pub fn write_jsonl(&self, out: &mut String) {
        for s in &self.spans {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let stages = s
                .stages_us
                .map_or_else(|| "null".to_string(), |st| format!("{st:?}"));
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"stages_us\":{stages}}}",
                s.name, s.start_us, s.end_us
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_span() {
        let origin = Instant::now();
        let mut log = SpanLog::new(origin);
        let root = log.open("root");
        log.record("child", origin, Instant::now(), Some([0, 1, 0, 2, 3, 0]));
        log.close(root);
        log.record("sibling", origin, origin, None);
        let mut out = String::new();
        log.write_jsonl(&mut out);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"name\":\"root\"") && lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("[0, 1, 0, 2, 3, 0]"));
        assert!(lines[2].contains("\"parent\":null"));
        for line in lines {
            crate::json::parse(line).unwrap();
        }
    }
}
