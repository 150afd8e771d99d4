//! Spans and counts recorded at layer boundaries by the traced run.
//!
//! A span is one call the benchmark makes into a layer: name, start, end,
//! the span that caused it, and the id of the op it belongs to. Counts are
//! taken at the same boundaries. Everything stays in memory until the run
//! ends and is then written out as JSON lines. With tracing off every
//! method returns at once without reading the clock, so the untraced run
//! measures the program alone.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub parent: Option<SpanId>,
    /// The op this span belongs to; spans of one op share it.
    pub op: u64,
    /// Layer boundary, e.g. `harness.run_resident`.
    pub name: &'static str,
    /// Application the call was for, or `""`.
    pub app: &'static str,
    /// Microseconds since the tracer's origin.
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }

    pub fn overlaps(&self, other: &Span) -> bool {
        self.start_us < other.end_us && other.start_us < self.end_us
    }
}

/// A number observed at a layer boundary during op `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct Count {
    pub op: u64,
    pub name: &'static str,
    pub value: f64,
}

#[derive(Debug, Clone)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    pub counts: Vec<Count>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// A recording tracer whose timestamps count from `origin`. Tracers of
    /// concurrent clients share one origin so their spans line up.
    pub fn on(origin: Instant) -> Self {
        Tracer {
            on: true,
            origin,
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span now. `None` when tracing is off.
    pub fn enter(
        &mut self,
        name: &'static str,
        app: &'static str,
        op: u64,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let now = self.us(Instant::now());
        self.spans.push(Span {
            parent,
            op,
            name,
            app,
            start_us: now,
            end_us: now,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`enter`](Self::enter).
    pub fn exit(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_us = self.us(Instant::now());
        }
    }

    /// Runs `f` under a span of its own: for a call with no spans inside.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        app: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, app, op, parent);
        let out = f();
        self.exit(id);
        out
    }

    /// Records a span whose ends were clocked elsewhere (another thread, or
    /// a duration the callee reported).
    pub fn record(
        &mut self,
        name: &'static str,
        app: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start_us: f64,
        end_us: f64,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            parent,
            op,
            name,
            app,
            start_us,
            end_us,
        });
        Some(self.spans.len() - 1)
    }

    /// Microseconds from the origin to `t`, for [`record`](Self::record).
    pub fn at(&self, t: Instant) -> f64 {
        self.us(t)
    }

    pub fn count(&mut self, name: &'static str, op: u64, value: f64) {
        if self.on {
            self.counts.push(Count { op, name, value });
        }
    }

    /// Appends another tracer's records (a concurrent client's), keeping
    /// parent links intact.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        self.counts.extend(other.counts);
    }

    /// Durations in ms of the spans called `name` (for `app`, unless `""`).
    pub fn durations_ms(&self, name: &str, app: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && (app.is_empty() || s.app == app))
            .map(Span::ms)
            .collect()
    }

    pub fn count_values(&self, name: &str) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .collect()
    }

    /// JSON lines: one object per span (with its self time) and per count.
    pub fn to_jsonl(&self) -> String {
        let self_us = self_times_us(&self.spans);
        let mut out = String::new();
        for (id, (s, own)) in self.spans.iter().zip(&self_us).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"app\":\"{}\",\
                 \"start_us\":{:.1},\"end_us\":{:.1},\"self_us\":{own:.1}}}",
                s.op, s.name, s.app, s.start_us, s.end_us
            )
            .expect("write to String");
        }
        for c in &self.counts {
            writeln!(
                out,
                "{{\"count\":\"{}\",\"op\":{},\"value\":{}}}",
                c.name, c.op, c.value
            )
            .expect("write to String");
        }
        out
    }
}

/// Part of `[start, end]` covered by the union of `children`, each clipped
/// to the interval. Concurrent children (two replicas of one session) are
/// counted once where they overlap.
fn covered_us(start: f64, end: f64, children: &mut [(f64, f64)]) -> f64 {
    children.sort_by(|a, b| a.partial_cmp(b).expect("timestamps are never NaN"));
    let mut covered = 0.0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover. By construction self + covered = duration, so no
/// time of an op is dropped: what no child explains stays with the parent.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| (s.end_us - s.start_us) - covered_us(s.start_us, s.end_us, kids))
        .collect()
}

/// Spans that break the tree: a child that belongs to another op than its
/// parent, or that starts before / ends after it by more than `slack_us`.
/// The self-time identity only means something when this list is empty.
pub fn misplaced(spans: &[Span], slack_us: f64) -> Vec<SpanId> {
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            s.parent.is_some_and(|p| {
                let p = &spans[p];
                p.op != s.op || s.start_us < p.start_us - slack_us || s.end_us > p.end_us + slack_us
            })
        })
        .map(|(id, _)| id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_us: f64, end_us: f64) -> Span {
        Span {
            parent,
            op: 1,
            name: "t",
            app: "",
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_is_duration_minus_union_of_children() {
        let spans = vec![
            span(None, 0.0, 100.0),    // 0: root
            span(Some(0), 10.0, 40.0), // 1
            span(Some(0), 30.0, 60.0), // 2: overlaps 1 by 10
            span(Some(0), 80.0, 90.0), // 3
            span(Some(1), 15.0, 20.0), // 4: grandchild, charged to 1 only
        ];
        let own = self_times_us(&spans);
        // Children cover [10,60] and [80,90] = 60 of the root's 100.
        assert_eq!(own[0], 40.0);
        assert_eq!(own[1], 25.0);
        assert_eq!(own[2], 30.0);
        assert_eq!(own[3], 10.0);
        assert_eq!(own[4], 5.0);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span(None, 10.0, 20.0), span(Some(0), 5.0, 30.0)];
        assert_eq!(self_times_us(&spans)[0], 0.0);
        assert_eq!(misplaced(&spans, 1.0), vec![1]);
        assert!(misplaced(&spans, 10.0).is_empty());
    }

    #[test]
    fn off_records_nothing_and_merge_keeps_parents() {
        let mut off = Tracer::off();
        let id = off.enter("a", "", 1, None);
        off.exit(id);
        off.count("c", 1, 2.0);
        assert!(id.is_none() && off.spans.is_empty() && off.counts.is_empty());

        let origin = Instant::now();
        let mut a = Tracer::on(origin);
        let root = a.enter("root", "", 1, None);
        a.exit(root);
        let mut b = Tracer::on(origin);
        let root = b.enter("root", "", 2, None);
        let kid = b.enter("kid", "bfs", 2, root);
        b.exit(kid);
        b.exit(root);
        a.merge(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.durations_ms("kid", "bfs").len(), 1);
        assert!(misplaced(&a.spans, 0.0).is_empty());
        assert_eq!(a.to_jsonl().lines().count(), 3);
    }
}
