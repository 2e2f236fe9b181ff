//! Spans recorded by the benchmark around the public calls it makes into
//! each layer. Spans *inside* the program are a later change (ROADMAP
//! item 4); these are taken from outside, so they cost the program nothing
//! when tracing is off.
//!
//! Each generator thread owns one [`Tracer`] with a pre-sized vector; spans
//! are written out when the run ends. A request's spans share its
//! `request_id`; `parent` is the index of the root span in the same
//! thread's vector.

use crate::stats::percentile;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans a thread's vector is sized for before the timed window: twice what
/// the busiest generator (`hot-escrow`, about 90,000 spans per traced
/// second per thread) records in the fifth of a 15 s window that is traced.
/// A faster program records more; the vector then grows, which costs one
/// request a copy and moves no median. No request is ever dropped.
const SPAN_CAPACITY: usize = 1 << 19;

/// Marker for "not recording" / "no parent".
const NONE: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request_id: u64,
}

/// Handle of an open root span; inert when the request is not traced.
#[derive(Clone, Copy)]
pub struct Root(u32);

/// One thread's span buffer.
pub struct Tracer {
    epoch: Instant,
    thread: u64,
    spans: Vec<Span>,
    next_request: u64,
}

impl Tracer {
    /// `epoch` is shared by all threads of a run so their times line up. The
    /// buffer is allocated only when the run is `traced` (and before its
    /// timed window), so untraced runs never pay for it and every `root`
    /// call on an untraced tracer is inert.
    pub fn new(epoch: Instant, thread: u64, traced: bool) -> Tracer {
        let spans = if traced {
            Vec::with_capacity(SPAN_CAPACITY)
        } else {
            Vec::new()
        };
        Tracer {
            epoch,
            thread,
            spans,
            next_request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open the root span of one request. With `traced` false the returned
    /// handle makes every later call a plain call.
    pub fn root(&mut self, traced: bool, name: &'static str) -> Root {
        if !traced {
            return Root(NONE);
        }
        self.next_request += 1;
        let request_id = (self.thread << 48) | self.next_request;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: NONE,
            request_id,
        });
        Root(self.spans.len() as u32 - 1)
    }

    /// Run `f` as a child span of `root`.
    pub fn child<T>(&mut self, root: Root, name: &'static str, f: impl FnOnce() -> T) -> T {
        if root.0 == NONE {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let request_id = self.spans[root.0 as usize].request_id;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: root.0,
            request_id,
        });
        out
    }

    /// Close the root span.
    pub fn close(&mut self, root: Root) {
        if root.0 != NONE {
            self.spans[root.0 as usize].end_ns = self.now_ns();
        }
    }
}

/// What the spans of a run say, summed over its threads.
pub struct TraceSummary {
    /// Median duration of each span name, nanoseconds.
    pub p50_ns: BTreeMap<&'static str, u64>,
    /// Number of spans of each name.
    pub count: BTreeMap<&'static str, u64>,
    /// 1 − Σ child durations ÷ Σ root durations: the share of request time
    /// that no recorded call claims. `None` without a root span.
    pub remainder_frac: Option<f64>,
}

pub fn summarize(tracers: &[Tracer]) -> TraceSummary {
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let (mut root_ns, mut child_ns) = (0u64, 0u64);
    for s in tracers.iter().flat_map(|t| &t.spans) {
        let d = s.end_ns - s.start_ns;
        by_name.entry(s.name).or_default().push(d);
        if s.parent == NONE {
            root_ns += d;
        } else {
            child_ns += d;
        }
    }
    let mut p50_ns = BTreeMap::new();
    let mut count = BTreeMap::new();
    for (name, mut v) in by_name {
        v.sort_unstable();
        p50_ns.insert(name, percentile(&v, 50.0));
        count.insert(name, v.len() as u64);
    }
    TraceSummary {
        p50_ns,
        count,
        remainder_frac: (root_ns > 0).then(|| 1.0 - child_ns as f64 / root_ns as f64),
    }
}

/// Append the spans to `out` as a JSON object: a name table plus, per
/// thread, one `[name, start_ns, end_ns, parent, request_id]` row per span
/// (`parent` is a row index in the same thread, -1 for a root). Written as
/// text directly: a traced run holds hundreds of thousands of spans.
pub fn write_spans(out: &mut String, tracers: &[Tracer]) {
    let mut names: Vec<&'static str> = tracers
        .iter()
        .flat_map(|t| &t.spans)
        .map(|s| s.name)
        .collect();
    names.sort_unstable();
    names.dedup();
    out.push_str(
        r#"{"columns": ["name", "start_ns", "end_ns", "parent", "request_id"], "names": ["#,
    );
    for (i, name) in names.iter().enumerate() {
        // Span names are identifiers from this crate: nothing to escape.
        let _ = write!(out, "{}\"{name}\"", if i > 0 { ", " } else { "" });
    }
    out.push_str("], \"threads\": [");
    for (t, tracer) in tracers.iter().enumerate() {
        out.push_str(if t > 0 { ", [" } else { "[" });
        for (i, s) in tracer.spans.iter().enumerate() {
            let name = names.binary_search(&s.name).expect("name is in the table");
            let parent = if s.parent == NONE {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "{}[{name}, {}, {}, {parent}, {}]",
                if i > 0 { ", " } else { "" },
                s.start_ns,
                s.end_ns,
                s.request_id
            );
        }
        out.push(']');
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_requests_record_nothing() {
        let mut t = Tracer::new(Instant::now(), 0, true);
        let r = t.root(false, "txn");
        assert_eq!(t.child(r, "begin", || 7), 7);
        t.close(r);
        assert!(summarize(&[t]).count.is_empty());
    }

    #[test]
    fn children_point_at_their_root() {
        let mut t = Tracer::new(Instant::now(), 3, true);
        let r = t.root(true, "txn");
        t.child(r, "begin", || ());
        t.child(r, "commit", || ());
        t.close(r);
        let s = summarize(std::slice::from_ref(&t));
        assert_eq!(s.count["txn"], 1);
        assert_eq!(s.count["begin"], 1);
        assert!((0.0..=1.0).contains(&s.remainder_frac.expect("one root span")));
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[1].request_id, t.spans[0].request_id);
    }

    #[test]
    fn spans_are_written_as_json() {
        let mut t = Tracer::new(Instant::now(), 1, true);
        let r = t.root(true, "txn");
        t.child(r, "begin", || ());
        t.close(r);
        let mut text = String::new();
        write_spans(&mut text, &[t]);
        let doc = crate::json::Json::parse(&text).expect("valid JSON");
        let threads = doc.get("threads").expect("threads");
        let crate::json::Json::Arr(threads) = threads else {
            panic!("threads is a list")
        };
        let crate::json::Json::Arr(rows) = &threads[0] else {
            panic!("a thread is a list of rows")
        };
        assert_eq!(rows.len(), 2);
    }
}
