//! Spans recorded from outside the library, around the calls into each
//! layer. Kept in memory and written out once, when a repetition ends.

use crate::json::Json;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Spans of one operation (one `execute`, one storm, one service
    /// run) share this id; 0 is the repetition itself.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans begun from here on belong to a new operation.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn begin(&mut self, name: &str) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close span `id`, which must be the innermost open one; returns its
    /// duration.
    pub fn end(&mut self, id: usize) -> u64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].duration_ns()
    }

    /// Time one call as a leaf span.
    pub fn time<T>(&mut self, name: &str, call: impl FnOnce() -> T) -> (T, u64) {
        let id = self.begin(name);
        let out = call();
        (out, self.end(id))
    }

    /// Summed duration of every closed span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }
}

/// Self time of each span: its duration minus that of its direct
/// children. `Tracer` closes spans innermost first, so children lie
/// inside their parent and never overlap one another.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            selfs[parent] -= span.duration_ns();
        }
    }
    selfs
}

/// Share of the root spans' time that no named child span accounts for.
pub fn unattributed_share(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let (mut total, mut own) = (0u64, 0u64);
    for (span, self_ns) in spans.iter().zip(selfs) {
        if span.parent.is_none() {
            total += span.duration_ns();
            own += self_ns;
        }
    }
    if total == 0 {
        0.0
    } else {
        own as f64 / total as f64
    }
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// ("X") event per span, microsecond timestamps, with the span's index,
/// parent index, operation id and self time under `args`.
pub fn to_chrome_trace(spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    let events = spans
        .iter()
        .zip(selfs)
        .enumerate()
        .map(|(id, (span, self_ns))| {
            let mut args = Json::obj()
                .set("id", id)
                .set("op", span.op)
                .set("self_ns", self_ns);
            if let Some(parent) = span.parent {
                args.insert("parent", parent);
            }
            Json::obj()
                .set("name", span.name.as_str())
                .set("ph", "X")
                .set("ts", span.start_ns as f64 / 1e3)
                .set("dur", span.duration_ns() as f64 / 1e3)
                .set("pid", 1u64)
                .set("tid", 1u64)
                .set("args", args)
        })
        .collect::<Vec<_>>();
    Json::obj()
        .set("displayTimeUnit", "ms")
        .set("traceEvents", events)
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
            op: 0,
        }
    }

    #[test]
    fn self_time_with_nested_and_abutting_children() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("setup", 10, 30, Some(0)),
            // abuts setup exactly: no gap, no double count
            span("run", 30, 80, Some(0)),
            span("expand", 35, 55, Some(2)),
            span("simulate", 55, 75, Some(2)),
            // grandchild: counts against "expand", not against "run" twice
            span("analysis", 40, 50, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 10, 20, 10]);
        // every nanosecond of the root is some span's self time
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        assert_eq!(unattributed_share(&spans), 0.3);
    }

    #[test]
    fn tracer_nests_and_exports() {
        let mut tr = Tracer::new();
        let rep = tr.begin("rep");
        tr.next_op();
        let ((), leaf_ns) = tr.time("leaf", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let rep_ns = tr.end(rep);
        assert!(leaf_ns >= 2_000_000 && rep_ns >= leaf_ns);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!((tr.spans[0].op, tr.spans[1].op), (0, 1));
        assert_eq!(tr.total_ns("leaf"), leaf_ns);
        let doc = to_chrome_trace(&tr.spans);
        assert_eq!(
            doc.at("traceEvents/1/args/parent").and_then(Json::num),
            Some(0.0)
        );
        assert_eq!(doc.at("traceEvents/0/ph").and_then(Json::str), Some("X"));
        assert!(doc.at("traceEvents/0/args/parent").is_none());
    }
}
