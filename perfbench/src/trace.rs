//! In-memory span recorder and self-time arithmetic.
//!
//! Spans are recorded from the benchmark's side of each layer call:
//! name, start, end, parent span and operation id. They stay in memory
//! until the run ends. A layer's self time is its span's duration
//! minus the part of that interval its child spans cover.
//!
//! Some layers time themselves and return the figure in their report
//! (`SimProfile::wall` for the event loop, `CampaignResult`'s carrier
//! and replay walls). Those become *derived* child spans of the span
//! that made the call: their length is the program's own figure, and
//! they are laid end to end from the parent's start.

use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, `layer.call` (the layer is the part
    /// before the first dot).
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation the span belongs to.
    pub op: usize,
}

impl Span {
    /// Duration, ns.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True for a zero-length span.
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }

    /// The layer the span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder. When off, every call is a no-op and records
/// nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: usize,
}

impl Tracer {
    /// A recorder that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the operation id stamped on subsequent spans.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Appends `parts` as children of span `parent`, end to end from
    /// its start, clipped to its end.
    fn derive(&mut self, parent: usize, parts: &[(&'static str, Duration)]) -> Vec<usize> {
        let mut at = self.spans[parent].start;
        let limit = self.spans[parent].end;
        let mut ids = Vec::with_capacity(parts.len());
        for &(name, dur) in parts {
            let end = (at + dur.as_nanos() as u64).min(limit);
            ids.push(self.spans.len());
            self.spans.push(Span {
                name,
                start: at,
                end,
                parent: Some(parent),
                op: self.op,
            });
            at = end;
        }
        ids
    }

    /// Attaches derived child spans (durations the program measured
    /// itself) to the most recently closed span named `parent`, laid
    /// end to end from its start and clipped to it. Returns the new
    /// spans' indices so they can carry children of their own.
    pub fn derive_last(
        &mut self,
        parent: &'static str,
        parts: &[(&'static str, Duration)],
    ) -> Vec<usize> {
        if !self.on {
            return Vec::new();
        }
        match self.spans.iter().rposition(|s| s.name == parent) {
            Some(p) => self.derive(p, parts),
            None => Vec::new(),
        }
    }

    /// Attaches derived children to the span at `parent` (an index
    /// returned by [`Tracer::derive_last`]).
    pub fn derive_under(&mut self, parent: Option<usize>, parts: &[(&'static str, Duration)]) {
        if let (true, Some(p)) = (self.on, parent) {
            self.derive(p, parts);
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start, spans[p].end);
            let (a, b) = (s.start.clamp(lo, hi), s.end.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.len() - covered
        })
        .collect()
}

/// Total self time per layer, sorted by descending time.
pub fn layer_self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        match totals.iter_mut().find(|(l, _)| *l == s.layer()) {
            Some(e) => e.1 += t,
            None => totals.push((s.layer(), t)),
        }
    }
    totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    totals
}

/// Summed duration of every span named `name`, ns.
pub fn total(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(Span::len).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // op [0, 100): lint [10, 60) with passes [10, 30) and [30, 50),
        // link [70, 90) with a derived des.loop overrunning its parent,
        // [70, 95), which counts as [70, 90) against the parent.
        let spans = vec![
            span("op.lattice", 0, 100, None),
            span("lint.run", 10, 60, Some(0)),
            span("lint.timing", 10, 30, Some(1)),
            span("lint.loops", 30, 50, Some(1)),
            span("link.run", 70, 90, Some(0)),
            span("des.loop", 70, 95, Some(4)),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![30, 10, 20, 20, 0, 25]);
        // The self times of a single-threaded tree partition the root.
        assert_eq!(st[..5].iter().sum::<u64>() + 20, 100);
        let layers = layer_self_times(&spans);
        assert_eq!(layers[0], ("lint", 50));
        assert_eq!(layers[1], ("op", 30));
        assert!(layers.contains(&("des", 25)) && layers.contains(&("link", 0)));
        assert_eq!(total(&spans, "lint.run"), 50);

        // Overlapping children are subtracted once.
        let overlap = vec![
            span("op.x", 0, 10, None),
            span("noc.new", 0, 6, Some(0)),
            span("noc.run", 4, 10, Some(0)),
        ];
        assert_eq!(self_times(&overlap)[0], 0);
    }

    #[test]
    fn derived_spans_are_laid_end_to_end_and_clipped() {
        let mut tr = Tracer::new(true);
        tr.span("sliced.campaign", |_| {
            std::thread::sleep(Duration::from_millis(2));
        });
        let parent = tr.spans()[0].clone();
        let ids = tr.derive_last(
            "sliced.campaign",
            &[
                ("sliced.carrier", Duration::from_micros(500)),
                ("sliced.replay", Duration::from_secs(5)),
            ],
        );
        tr.derive_under(
            ids.first().copied(),
            &[("des.loop", Duration::from_micros(100))],
        );
        let s = tr.spans();
        assert_eq!(
            (s[1].start, s[1].end),
            (parent.start, parent.start + 500_000)
        );
        assert_eq!((s[2].start, s[2].end), (parent.start + 500_000, parent.end));
        assert_eq!(s[3].parent, Some(1));
        assert_eq!(s[3].len(), 100_000);
        assert_eq!(
            self_times(s)[0],
            0,
            "the derived parts cover the whole call"
        );
    }

    #[test]
    fn an_untraced_recorder_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.span("noc.run", |tr| tr.span("noc.new", |_| 7));
        assert_eq!(v, 7);
        assert!(tr
            .derive_last("noc.run", &[("des.loop", Duration::ZERO)])
            .is_empty());
        assert!(tr.spans().is_empty());
    }
}
