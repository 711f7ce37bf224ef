//! In-memory spans recorded from the benchmark's own files around the calls
//! into each layer, written out when the run ends.
//!
//! A span is `{name, start_ns, end_ns, parent, query}`.  Two kinds exist:
//! *measured* spans time a real call; *attributed* spans carry a duration
//! measured while replaying a layer call outside its real parent (the
//! program's `execute_plan` cannot be opened from here) and are laid end to
//! end from the parent's start, so the self-time arithmetic is the same for
//! both: a span's self time is its duration minus the part of its interval
//! that its children cover.

use std::time::{Duration, Instant};

use crate::json::Json;

/// Index of a span in its [`Spans`] recorder.
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Position of the query in the batch, for spans of one query.
    pub query: Option<u32>,
    /// True for a replayed layer time attributed to `parent`.
    pub attributed: bool,
    /// Layer calls folded into this span (1 for a measured span).
    pub calls: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a measured span; close it with [`Spans::exit`].
    pub fn enter(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        query: Option<u32>,
    ) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            query,
            attributed: false,
            calls: 1,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration.
    pub fn exit(&mut self, id: SpanId) -> Duration {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now.max(span.start_ns);
        Duration::from_nanos(span.duration_ns())
    }

    /// Times `body` as a measured span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        query: Option<u32>,
        body: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.enter(name, parent, query);
        let value = body();
        self.exit(id);
        (value, id)
    }

    /// Attributes `duration` of replayed layer time (over `calls` calls) to
    /// `parent`, placed directly after the parent's earlier attributed
    /// children (or at its start).
    pub fn attribute(
        &mut self,
        name: &'static str,
        parent: SpanId,
        duration: Duration,
        calls: u64,
    ) -> SpanId {
        let start_ns = self
            .spans
            .iter()
            .filter(|s| s.attributed && s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(self.spans[parent].start_ns);
        let query = self.spans[parent].query;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration.as_nanos() as u64,
            parent: Some(parent),
            query,
            attributed: true,
            calls,
        });
        self.spans.len() - 1
    }

    /// Self time of span `id`: its duration minus the length of the union
    /// of its children's intervals clipped to its own.  Negative when
    /// attributed children add up to more than the span itself.
    pub fn self_ns(&self, id: SpanId) -> i64 {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        children.sort_unstable();
        let mut covered = 0i64;
        let mut overflow = 0i64;
        let mut cursor = span.start_ns;
        for (start, end) in children {
            // Attributed children may run past the parent's end: that
            // excess is replayed time the parent did not contain.
            overflow += end.saturating_sub(start.max(span.end_ns)) as i64;
            let start = start.clamp(cursor, span.end_ns);
            let end = end.clamp(start, span.end_ns);
            covered += (end - start) as i64;
            cursor = cursor.max(end);
        }
        span.duration_ns() as i64 - covered - overflow
    }

    /// Sum of `(self time, duration)` over every span named `name`.
    pub fn self_and_total_ns(&self, name: &str) -> (i64, u64) {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .fold((0, 0), |(self_ns, total), (id, span)| {
                (self_ns + self.self_ns(id), total + span.duration_ns())
            })
    }

    pub fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| v.map_or(Json::Null, |n| Json::Num(n as f64));
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, span)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(span.name)),
                        ("start_ns", Json::Num(span.start_ns as f64)),
                        ("end_ns", Json::Num(span.end_ns as f64)),
                        ("parent", opt(span.parent.map(|p| p as u64))),
                        ("query", opt(span.query.map(u64::from))),
                        ("attributed", Json::Bool(span.attributed)),
                        ("calls", Json::Num(span.calls as f64)),
                        ("self_ns", Json::Num(self.self_ns(id) as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-set intervals, bypassing the clock.
    fn spans(intervals: &[(&'static str, u64, u64, Option<SpanId>, bool)]) -> Spans {
        let mut recorder = Spans::new();
        for &(name, start_ns, end_ns, parent, attributed) in intervals {
            recorder.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                query: None,
                attributed,
                calls: 1,
            });
        }
        recorder
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let s = spans(&[
            ("root", 100, 200, None, false),
            ("a", 110, 130, Some(0), false),
            ("b", 120, 150, Some(0), false), // overlaps a: union is 110..150
            ("c", 190, 200, Some(0), false),
            ("grandchild", 111, 112, Some(1), false), // not root's child
        ]);
        assert_eq!(s.self_ns(0), 100 - 40 - 10);
        assert_eq!(s.self_ns(1), 20 - 1);
        assert_eq!(s.self_ns(3), 10);
        assert_eq!(s.self_and_total_ns("root"), (50, 100));
    }

    #[test]
    fn attributed_children_are_laid_end_to_end_and_may_overrun() {
        let mut s = spans(&[("execute_plan", 1_000, 2_000, None, false)]);
        let fetch = s.attribute("fetch", 0, Duration::from_nanos(300), 4);
        let select = s.attribute("select", 0, Duration::from_nanos(500), 4);
        assert_eq!((s.get(fetch).start_ns, s.get(fetch).end_ns), (1_000, 1_300));
        assert_eq!(
            (s.get(select).start_ns, s.get(select).end_ns),
            (1_300, 1_800)
        );
        assert_eq!(s.get(select).calls, 4);
        assert_eq!(s.self_ns(0), 200);
        // Replayed layers that sum to more than the real call show up as
        // negative self time instead of being clipped away.
        s.attribute("iterate", 0, Duration::from_nanos(450), 4);
        assert_eq!(s.self_ns(0), -250);
    }

    #[test]
    fn measured_spans_nest_and_export() {
        let mut s = Spans::new();
        let outer = s.enter("outer", None, Some(7));
        let ((), inner) = s.time("inner", Some(outer), Some(7), || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        s.exit(outer);
        assert!(s.get(inner).start_ns >= s.get(outer).start_ns);
        assert!(s.get(inner).end_ns <= s.get(outer).end_ns);
        let json = s.to_json();
        let first = &json.as_arr().unwrap()[0];
        assert_eq!(first.get("name").and_then(Json::as_str), Some("outer"));
        assert_eq!(first.get("query").and_then(Json::as_f64), Some(7.0));
        assert_eq!(first.get("parent"), Some(&Json::Null));
    }
}
