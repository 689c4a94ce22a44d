//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded around the calls the benchmark makes into each layer
//! — nothing inside the program under test is instrumented.  Each span has
//! a name, start, end, the span that caused it and the iteration it belongs
//! to; everything stays in memory until the run ends.  A recorder that is
//! switched off records nothing, so the untraced and traced runs share one
//! code path.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub iter: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::enter`]; `None` when recording is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    /// Currently open spans, innermost last.
    open: Vec<u32>,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Self {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, iter: u32) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            iter,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close a span.  Spans close innermost first.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Time `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, iter: u32, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, iter);
        let result = f();
        self.exit(id);
        result
    }

    /// Record a span from explicit timestamps (tests and synthetic spans).
    #[cfg(test)]
    fn push_raw(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            iter: 0,
        });
    }

    /// Self time of every span: its duration minus the part its children
    /// cover.  One thread records, so children of one span never overlap
    /// each other and the covered part is the sum of their durations.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let slot = &mut own[parent as usize];
                *slot = slot.saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Count, total and self time per span name.
    pub fn totals_by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let own = self.self_times_ns();
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, own_ns) in self.spans.iter().zip(own) {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += own_ns;
        }
        totals
    }

    /// Duration in nanoseconds of every span called `name`, in order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Per iteration, the summed duration in nanoseconds of the spans
    /// called `name` (iterations without such a span are left out).
    pub fn per_iteration_ns(&self, name: &str) -> Vec<f64> {
        let mut sums: BTreeMap<u32, u64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *sums.entry(span.iter).or_default() += span.duration_ns();
        }
        sums.into_values().map(|ns| ns as f64).collect()
    }

    /// Chrome-trace ("Trace Event Format") rendering of the spans of the
    /// first `max_iters` iterations: load the file in `chrome://tracing` or
    /// Perfetto.  Every span is a complete ("X") event on one thread; the
    /// causing span and the iteration are in `args`.
    pub fn chrome_trace(&self, max_iters: u32) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, span)| span.iter < max_iters)
            .map(|(id, span)| {
                Json::obj(vec![
                    ("name", Json::str(span.name)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(span.duration_ns() as f64 / 1e3)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(1)),
                    (
                        "args",
                        Json::obj(vec![
                            ("id", Json::Int(id as u64)),
                            (
                                "parent",
                                span.parent.map_or(Json::Null, |p| Json::Int(u64::from(p))),
                            ),
                            ("iter", Json::Int(u64::from(span.iter))),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ns")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root 0..100 { a 10..40 { a1 15..25 }, b 50..90 { b1 50..60, b2 70..90 } }
    fn tree() -> Recorder {
        let mut rec = Recorder::new(true);
        rec.push_raw("root", 0, 100, None);
        rec.push_raw("stage", 10, 40, Some(0));
        rec.push_raw("leaf", 15, 25, Some(1));
        rec.push_raw("stage", 50, 90, Some(0));
        rec.push_raw("leaf", 50, 60, Some(3));
        rec.push_raw("leaf", 70, 90, Some(3));
        rec
    }

    #[test]
    fn self_time_subtracts_children_not_grandchildren() {
        let own = tree().self_times_ns();
        // root: 100 - (30 + 40); first stage: 30 - 10; second: 40 - (10 + 20).
        assert_eq!(own, vec![30, 20, 10, 10, 10, 20]);
    }

    #[test]
    fn self_times_of_a_tree_sum_to_the_root() {
        let rec = tree();
        assert_eq!(rec.self_times_ns().iter().sum::<u64>(), 100);
        let totals = rec.totals_by_name();
        assert_eq!(
            totals["stage"],
            NameTotals {
                count: 2,
                total_ns: 70,
                self_ns: 30
            }
        );
        assert_eq!(totals["leaf"].self_ns, 40);
        assert_eq!(totals["root"].self_ns, 30);
    }

    #[test]
    fn live_spans_nest_under_the_innermost_open_span() {
        let mut rec = Recorder::new(true);
        let outer = rec.enter("outer", 7);
        rec.span("first", 7, || ());
        let second = rec.enter("second", 7);
        rec.span("inner", 7, || ());
        rec.exit(second);
        rec.exit(outer);
        let parents: Vec<_> = rec.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(rec
            .spans()
            .iter()
            .all(|s| s.iter == 7 && s.end_ns >= s.start_ns));
        let own = rec.self_times_ns();
        assert_eq!(own.iter().sum::<u64>(), rec.spans()[0].duration_ns());
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut rec = Recorder::off();
        let id = rec.enter("x", 0);
        assert_eq!(rec.span("y", 0, || 5), 5);
        rec.exit(id);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn per_iteration_sums_group_by_iteration() {
        let mut rec = Recorder::new(true);
        rec.push_raw("stage", 0, 10, None);
        rec.push_raw("stage", 10, 30, None);
        rec.spans[1].iter = 1;
        rec.push_raw("stage", 30, 35, None);
        rec.spans[2].iter = 1;
        assert_eq!(rec.per_iteration_ns("stage"), vec![10.0, 25.0]);
        assert_eq!(rec.durations_ns("stage"), vec![10.0, 20.0, 5.0]);
    }

    #[test]
    fn chrome_trace_keeps_only_the_first_iterations() {
        let mut rec = tree();
        rec.spans[5].iter = 3;
        let trace = rec.chrome_trace(1);
        let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 5);
        assert_eq!(events[2].get("name").and_then(Json::as_str), Some("leaf"));
        assert_eq!(
            events[2].get("args").and_then(|a| a.get("parent")),
            Some(&Json::Int(1))
        );
    }
}
