//! The benchmark's own tracing: spans recorded around its calls into
//! each layer, kept in memory and written out when the run ends.
//!
//! Every operation gets a root span named `stmt`; each layer call the
//! benchmark times is a child span sharing the root's operation id.
//! Spans marked `derived` are not timed by the benchmark: they are laid
//! out from durations the program reports about itself (queue wait,
//! compile and execution time in `QueryResult.metrics`), back to back
//! from the start of the call that reported them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub derived: bool,
}

/// Per-thread span buffer. Operation ids carry the thread's lane in the
/// high bits so buffers merge without renumbering.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    lane: u64,
    next_op: u64,
    next_id: u32,
    pub spans: Vec<Span>,
}

/// An open operation: its id and root span id.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub op: u64,
    pub root: u32,
    start: Instant,
}

impl Op {
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, lane: u64) -> Tracer {
        Tracer {
            on,
            epoch,
            lane,
            next_op: 0,
            next_id: 0,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn begin(&mut self) -> Op {
        self.next_op += 1;
        self.next_id += 1;
        Op {
            op: (self.lane << 40) | self.next_op,
            root: self.next_id,
            start: Instant::now(),
        }
    }

    pub fn end(&mut self, op: Op) {
        if self.on {
            let (s, e) = (self.ns(op.start), self.ns(Instant::now()));
            self.push(op.op, op.root, None, "stmt", s, e, false);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        op: u64,
        id: u32,
        parent: Option<u32>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        derived: bool,
    ) {
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            start_ns,
            end_ns,
            derived,
        });
    }

    /// Record a timed child span `[start, end)` under `parent`; returns
    /// its id so derived grandchildren can hang off it.
    pub fn child(
        &mut self,
        op: &Op,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        self.next_id += 1;
        let id = self.next_id;
        if self.on {
            let (s, e) = (self.ns(start), self.ns(end));
            self.push(op.op, id, Some(parent), name, s, e, false);
        }
        id
    }

    /// Lay out reported durations back to back from `start`, clipped to
    /// `end`, as derived children of `parent`.
    pub fn derived(
        &mut self,
        op: &Op,
        parent: u32,
        start: Instant,
        end: Instant,
        parts: &[(&'static str, u64)],
    ) {
        if !self.on {
            return;
        }
        let (mut at, limit) = (self.ns(start), self.ns(end));
        for &(name, dur) in parts {
            self.next_id += 1;
            let e = (at + dur).min(limit);
            self.push(op.op, self.next_id, Some(parent), name, at, e, true);
            at = e;
        }
    }

    /// Time `f` as a child span of the operation root.
    pub fn time<T>(&mut self, op: &Op, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.child(op, op.root, name, t0, t1);
        (out, t1 - t0)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<(u64, u32), Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children
                .entry((s.op, p))
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&(s.op, s.id)) else {
                return dur;
            };
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            dur.saturating_sub(covered)
        })
        .collect()
}

/// One JSON object per span, one per line.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::with_capacity(spans.len() * 120);
    for (s, self_ns) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"derived\":{}}}",
            s.op, s.id, parent, s.name, s.start_ns, s.end_ns, self_ns, s.derived
        )
        .expect("write to string");
    }
    out
}

/// Median self time per span name, in µs, with the span count.
pub fn self_time_summary(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        by.entry(s.name).or_default().push(self_ns as f64 / 1e3);
    }
    by.into_iter()
        .map(|(k, v)| (k, (crate::stats::median(&v).unwrap_or(0.0), v.len())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, s: u64, e: u64) -> Span {
        Span {
            op: 1,
            id,
            parent,
            name: "x",
            start_ns: s,
            end_ns: e,
            derived: false,
        }
    }

    #[test]
    fn self_time_subtracts_covered_interval_once() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50), // overlaps span 2 by 10
            span(4, Some(2), 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![60, 25, 20, 5]);
    }
}
