//! In-memory span recording for the traced run.
//!
//! The benchmark records one span per call into a layer's public functions:
//! name, start, end, the span that caused it, and the operation it belongs
//! to. Spans live in a `Vec` until the run ends. A layer is the part of a
//! span name before the first `.`; its self time is each span's duration
//! minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub type SpanId = u32;

/// Parent of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Index of the operation (query) this span belongs to.
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Where `instant` (taken on any thread) falls on this recorder's clock.
    pub fn offset_ns(&self, instant: Instant) -> u64 {
        u64::try_from(instant.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        })
    }

    pub fn end(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Records a span whose bounds were measured elsewhere (another thread,
    /// or a duration the program itself reported).
    pub fn push(&mut self, span: Span) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(span);
        id
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one line per span: `id,parent,op,name,start_ns,end_ns`.
    pub fn write_csv(&self, out: &mut dyn Write) -> std::io::Result<()> {
        writeln!(out, "id,parent,op,name,start_ns,end_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id},{parent},{},{},{},{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

/// Self time of every span: its duration minus the summed durations of its
/// direct children (saturating, so a child measured on another clock can
/// never drive a parent negative).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = own.get_mut(span.parent as usize) {
            *parent = parent.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// The layer a span name belongs to: the text before its first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Summed self time per key, where `key` maps a span to a layer or a name.
pub fn self_time_by<'a>(
    spans: &'a [Span],
    keep: impl Fn(&Span) -> bool,
    key: impl Fn(&'a Span) -> &'a str,
) -> BTreeMap<&'a str, u64> {
    let own = self_times(spans);
    let mut totals = BTreeMap::new();
    for (span, own) in spans.iter().zip(own) {
        if keep(span) {
            *totals.entry(key(span)).or_insert(0) += own;
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("search.range", 0, 100, NO_PARENT),
            span("rtree.range", 10, 30, 0),
            span("storage.get", 30, 70, 0),
            span("storage.pool_miss", 35, 60, 2),
            span("distance.dtw_within", 70, 95, 0),
        ];
        assert_eq!(self_times(&spans), vec![15, 20, 15, 25, 25]);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);

        let layers = self_time_by(&spans, |_| true, |s| layer_of(s.name));
        assert_eq!(layers["search"], 15);
        assert_eq!(layers["rtree"], 20);
        assert_eq!(layers["storage"], 40);
        assert_eq!(layers["distance"], 25);
    }

    #[test]
    fn children_longer_than_their_parent_saturate_at_zero() {
        let spans = vec![
            span("net.call", 0, 10, NO_PARENT),
            span("search.execute", 0, 25, 0),
        ];
        assert_eq!(self_times(&spans), vec![0, 25]);
    }

    #[test]
    fn recorder_nests_and_orders_spans() {
        let mut rec = Recorder::new();
        let root = rec.begin("search.range", NO_PARENT, 7);
        let inner = rec.time("rtree.range", root, 7, || 42);
        rec.end(root);
        assert_eq!(inner, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[1].op, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);

        let mut csv = Vec::new();
        rec.write_csv(&mut csv).unwrap();
        let text = String::from_utf8(csv).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text
            .lines()
            .nth(2)
            .unwrap()
            .starts_with("1,0,7,rtree.range,"));
    }
}
