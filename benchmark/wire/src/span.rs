//! Spans for the traced run: `{name, request_id, parent, start_ns,
//! end_ns}`, kept in memory and written out when the run ends.
//!
//! The traced run times each layer's public entry point *from outside*,
//! on a twin of the state the layer above holds, so a child span does not
//! sit inside its parent's interval: it is the same work done again one
//! layer down. A layer's self time is therefore its span's duration minus
//! the *durations* of the spans attributed to it.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub request_id: u32,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans, or — switched off — records nothing and reads no
/// clock, for the pass that measures what tracing costs.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, request_id: u32, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return SpanId::MAX;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            request_id,
            parent,
            start_ns: now,
            end_ns: now,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes the span; returns its duration (0 when tracing is off).
    pub fn end(&mut self, id: SpanId) -> u64 {
        if !self.enabled {
            return 0;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.duration_ns()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Adopts spans recorded elsewhere (tests build them by hand).
    pub fn from_spans(spans: Vec<Span>) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: true,
            spans,
        }
    }

    /// Summed durations of the spans whose parent is `id`.
    pub fn children_ns(&self, id: SpanId) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum()
    }

    /// The span's duration minus its children's. Negative when a twin ran
    /// slower than the layer above it did with the same work inside.
    pub fn self_ns(&self, id: SpanId) -> i64 {
        self.spans[id as usize].duration_ns() as i64 - self.children_ns(id) as i64
    }

    /// Share of requests in which every span's children add up to no more
    /// than the span itself, plus `allowance` of it (twins are re-runs;
    /// their timing noise is not a fault of the attribution).
    pub fn children_within_parent_share(&self, allowance: f64) -> f64 {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize] += s.duration_ns();
            }
        }
        let mut requests = std::collections::BTreeMap::new();
        for (s, &below) in self.spans.iter().zip(&children) {
            let ok = requests.entry(s.request_id).or_insert(true);
            *ok &= below as f64 <= s.duration_ns() as f64 * (1.0 + allowance);
        }
        if requests.is_empty() {
            return 1.0;
        }
        requests.values().filter(|&&ok| ok).count() as f64 / requests.len() as f64
    }

    /// One JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"request_id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request_id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        request_id: u32,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            name,
            request_id,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_durations() {
        // Request 0: handle takes 100; its twin one layer down takes 70,
        // run *after* it; that twin's own twin takes 40.
        let t = Tracer::from_spans(vec![
            span("handler.handle", 0, None, 0, 100),
            span("streaming.probe", 0, Some(0), 100, 170),
            span("cache.probe", 0, Some(1), 170, 210),
            span("candidates.fetch", 0, Some(2), 210, 211),
        ]);
        assert_eq!(t.self_ns(0), 30);
        assert_eq!(t.self_ns(1), 30);
        assert_eq!(t.self_ns(2), 39);
        assert_eq!(t.self_ns(3), 1);
        // The parts add up to the whole.
        assert_eq!((0..4).map(|i| t.self_ns(i)).sum::<i64>(), 100);
        assert_eq!(t.children_within_parent_share(0.0), 1.0);
    }

    #[test]
    fn two_children_and_a_twin_that_ran_slower() {
        let t = Tracer::from_spans(vec![
            span("handler.handle", 0, None, 0, 50),
            span("streaming.ingest", 0, Some(0), 50, 80),
            span("durable.log_ingest", 0, Some(0), 80, 90),
            span("handler.handle", 1, None, 100, 120),
            span("streaming.probe", 1, Some(3), 120, 145),
        ]);
        assert_eq!(t.children_ns(0), 40);
        assert_eq!(t.self_ns(0), 10);
        assert_eq!(t.self_ns(3), -5);
        assert_eq!(t.children_within_parent_share(0.0), 0.5);
        // 25 against 20 is within a quarter.
        assert_eq!(t.children_within_parent_share(0.25), 1.0);
    }

    #[test]
    fn a_tracer_switched_off_records_nothing() {
        let mut off = Tracer::new(false);
        let id = off.begin("x", 0, None);
        assert_eq!(off.end(id), 0);
        assert!(off.spans().is_empty());
        let mut on = Tracer::new(true);
        let root = on.begin("request", 7, None);
        let child = on.begin("decode", 7, Some(root));
        on.end(child);
        on.end(root);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(root));
        assert!(on.spans()[0].end_ns >= on.spans()[1].end_ns);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let t = Tracer::from_spans(vec![span("a", 3, None, 5, 9), span("b", 3, Some(0), 9, 12)]);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../out/test-spans-{}.jsonl", std::process::id()));
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            text,
            "{\"id\":0,\"name\":\"a\",\"request_id\":3,\"parent\":null,\"start_ns\":5,\"end_ns\":9}\n\
             {\"id\":1,\"name\":\"b\",\"request_id\":3,\"parent\":0,\"start_ns\":9,\"end_ns\":12}\n"
        );
    }
}
