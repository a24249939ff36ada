//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public API. Nothing here reaches inside the crates under test:
//! a span covers one call (or, for a served query, the interval from
//! submission to its terminal state) and names the layer it belongs to.
//! Spans are kept in memory, written out as JSON lines when the run ends,
//! and reduced to per-layer self time: a span's duration minus the part
//! of it that its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query: Option<u64>,
}

/// A span recorder for the driver thread. Disabled, it records nothing
/// and its calls cost one branch, so the timed runs use the same code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds since the tracer started for an instant taken by the
    /// caller (0 for instants before the start).
    pub fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` of `layer`, a child of the
    /// innermost span still open.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        query: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(layer, name, query);
        let out = f();
        self.exit(id);
        out
    }

    /// Opens a span the caller closes with [`Tracer::exit`]; spans opened
    /// in between become its children.
    pub fn enter(&mut self, layer: &'static str, name: &'static str, query: Option<u64>) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            query,
        });
        self.open.push(id);
        id
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records an interval measured elsewhere (a served query's time in
    /// the service), as a root span.
    pub fn record(&mut self, span: Span) {
        if self.enabled {
            self.spans.push(span);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes `header`, then every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let query = s.query.map_or("null".to_string(), |q| q.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"query\": {query}}}",
                s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per layer, in seconds: for every span, its duration minus
/// the union of its children's intervals clipped to it, summed by layer.
pub fn self_seconds_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let own = s.end_ns.saturating_sub(s.start_ns);
        let covered = covered_ns(kids, s.start_ns, s.end_ns);
        *out.entry(s.layer).or_insert(0.0) += own.saturating_sub(covered) as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: "call",
            start_ns,
            end_ns,
            parent,
            query: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("cluster", 0, 10_000, None),
            span("kvstore", 1_000, 3_000, Some(0)),
            span("kvstore", 2_000, 5_000, Some(0)),
            span("engine", 8_000, 12_000, Some(0)),
        ];
        let by_layer = self_seconds_by_layer(&spans);
        // Children cover [1, 5] and [8, 10] µs of the parent's 10 µs.
        assert!((by_layer["cluster"] - 4e-6).abs() < 1e-15);
        assert!((by_layer["kvstore"] - 5e-6).abs() < 1e-15);
        assert!((by_layer["engine"] - 4e-6).abs() < 1e-15);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut tracer = Tracer::new(true);
        assert_eq!(tracer.span("cluster", "run", Some(7), || 2), 2);
        let id = tracer.enter("service", "submit", Some(1));
        tracer.span("plan", "best_plan", None, || ());
        tracer.exit(id);
        assert_eq!(tracer.spans().len(), 3);
        assert_eq!(tracer.spans()[0].parent, None);
        assert_eq!(tracer.spans()[0].query, Some(7));
        assert_eq!(tracer.spans()[2].parent, Some(1));
        assert!(tracer.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.enter("service", "submit", None);
        tracer.span("plan", "best_plan", None, || ());
        tracer.exit(id);
        assert!(tracer.spans().is_empty());
    }
}
