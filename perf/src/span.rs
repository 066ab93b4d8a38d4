//! Benchmark-side spans: one around every call the traced run makes into
//! a layer. Spans are held in memory and written out when the run ends;
//! every span of a run carries the same run id. These are recorded from
//! the benchmark's own files — spans inside the program are a later issue.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Spans {
    run_id: u64,
    anchor: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(run_id: u64) -> Self {
        Self {
            run_id,
            anchor: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.anchor.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, a child of whichever span is
    /// open, and returns what `f` returns with the span's duration in
    /// seconds.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        (value, (end - self.spans[id].start_ns) as f64 / 1e9)
    }

    /// [`Spans::timed`] without the duration.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        self.timed(name, f).0
    }

    /// One JSON line for the run, then one per span with its self time.
    pub fn to_jsonl(&self, header: Json) -> String {
        let mut out = Json::obj([
            ("type", Json::str("run")),
            ("run", Json::Num(self.run_id as f64)),
            ("host", header),
        ])
        .to_line();
        out.push('\n');
        let own = self_times(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(
                &Json::obj([
                    ("type", Json::str("span")),
                    ("run", Json::Num(self.run_id as f64)),
                    ("id", Json::Num(i as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("name", Json::str(s.name.clone())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(own[i] as f64)),
                ])
                .to_line(),
            );
            out.push('\n');
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Each span's self time: its duration minus the part of it its direct
/// children cover. Children of one parent never overlap here (one thread,
/// properly nested), so that part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("run", 0, 100, None),
            span("setup", 10, 40, Some(0)),
            span("generate", 12, 20, Some(1)),
            span("reference", 20, 38, Some(1)),
            span("probe", 50, 90, Some(0)),
        ];
        // run: 100 − (30 + 40); setup: 30 − (8 + 18); leaves keep it all.
        assert_eq!(self_times(&spans), vec![30, 4, 8, 18, 40]);
    }

    #[test]
    fn recorder_nests_and_serializes_every_span_under_one_run_id() {
        let mut spans = Spans::new(42);
        let value = spans.scope("outer", |s| {
            s.scope("first", |_| std::hint::black_box(1));
            s.timed("second", |_| 2).0
        });
        assert_eq!(value, 2);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans.spans[1].parent, Some(0));
        assert_eq!(spans.spans[2].parent, Some(0));
        assert!(spans.spans[0].end_ns >= spans.spans[2].end_ns);
        let text = spans.to_jsonl(Json::obj([("nproc", Json::Num(2.0))]));
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].get("type").and_then(Json::as_str), Some("run"));
        for line in &lines {
            assert_eq!(line.get("run").and_then(Json::as_f64), Some(42.0));
        }
        assert_eq!(lines[2].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(lines[1].get("parent"), Some(&Json::Null));
    }
}
