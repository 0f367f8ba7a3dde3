//! The benchmark's own spans: recorded around the calls the harness makes
//! into each layer, kept in memory, written out as JSON lines at the end.
//!
//! Spans inside the measured program are a later issue (ROADMAP item 5);
//! nothing here touches it.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. Spans of one operation share `op`; `parent` is the id
/// of the span that caused this one (0 for an operation's root).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An append-only span buffer owned by one thread. Ids are unique across
/// logs that were given distinct `id_base`s. While `enabled` is false the
/// log records nothing and `time` only calls through, so one call path
/// serves the traced and the untraced run.
#[derive(Debug)]
pub struct SpanLog {
    t0: Instant,
    next_id: u64,
    pub enabled: bool,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(t0: Instant, id_base: u64) -> SpanLog {
        SpanLog {
            t0,
            next_id: id_base + 1,
            enabled: true,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id, to close it by and to parent others on.
    pub fn open(&mut self, name: &'static str, op: u64, parent: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        // The span being closed is almost always the last or second-last.
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.end_ns = end_ns;
        }
    }

    /// Time one call as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }
}

/// Self time of every span, grouped by name, in nanoseconds: a span's
/// duration minus the part its direct children cover.
pub fn self_times(spans: &[Span]) -> HashMap<&'static str, Vec<f64>> {
    let mut covered: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *covered.entry(s.parent).or_insert(0) += s.end_ns - s.start_ns;
    }
    let mut by_name: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
        by_name.entry(s.name).or_default().push(own as f64);
    }
    by_name
}

/// Write spans as one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"op\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.op, s.id, s.parent, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let span = |name, id, parent, start_ns, end_ns| Span {
            name,
            op: 1,
            id,
            parent,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span("root", 1, 0, 0, 100),
            span("child", 2, 1, 10, 40),
            span("child", 3, 1, 50, 90),
            span("grandchild", 4, 3, 60, 70),
        ];
        let own = self_times(&spans);
        assert_eq!(own["root"], vec![30.0]);
        assert_eq!(own["child"], vec![30.0, 30.0]);
        assert_eq!(own["grandchild"], vec![10.0]);
    }
}
