//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as JSON when the run ends. Spans inside the program
//! under test are a later change; these are taken from outside.

use std::collections::BTreeMap;
use std::time::Instant;

use fsc_ir::json::{Json, ObjBuilder};

/// First operation id of each kind of traced operation. The ranges are
/// disjoint, so within a trace file an id names one operation: a replayed
/// compile is `REPLAY_OPS + round * 64 + program`, a run `RUN_OPS + n`, a
/// request `REQUEST_OPS + n * clients + client`.
pub const REPLAY_OPS: u64 = 0;
pub const RUN_OPS: u64 = 1 << 32;
pub const REQUEST_OPS: u64 = 2 << 32;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Operation (program compile, run, request) the span belongs to.
    pub op: u64,
    /// True when the duration was reported by the program (a `PassStat`)
    /// and only placed on the timeline by the benchmark.
    pub reported: bool,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &str, op: u64) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op,
            reported: false,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = now;
    }

    /// Time `f` as one span.
    pub fn span<T>(&mut self, name: &str, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.open(name, op);
        let out = f(self);
        self.close(id);
        out
    }

    /// Place durations the program reported back to back under the
    /// innermost open span, starting where that span started.
    pub fn reported(&mut self, op: u64, children: &[(String, u64)]) {
        let Some(&parent) = self.open.last() else {
            return;
        };
        let mut at = self.spans[parent].start_ns;
        for (name, ns) in children {
            self.spans.push(Span {
                name: name.clone(),
                start_ns: at,
                end_ns: at + ns,
                parent: Some(parent),
                op,
                reported: true,
            });
            at += ns;
        }
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        out
    }

    /// Per span name, the total duration (ms) within each group of
    /// operations that has such a span — the samples per-layer medians
    /// are taken over. `group` maps an operation id to its group.
    pub fn ms_per_group(&self, group: impl Fn(u64) -> u64) -> BTreeMap<String, Vec<f64>> {
        let mut sums: BTreeMap<(&str, u64), u64> = BTreeMap::new();
        for s in &self.spans {
            *sums.entry((&s.name, group(s.op))).or_default() += s.end_ns - s.start_ns;
        }
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for ((name, _), ns) in sums {
            out.entry(name.to_string())
                .or_default()
                .push(ns as f64 / 1e6);
        }
        out
    }

    /// `{"spans": [{name, start_ns, end_ns, self_ns, parent, op, reported}]}`.
    pub fn to_json(&self, workload: &str) -> Json {
        let self_ns = self.self_ns();
        let spans = self
            .spans
            .iter()
            .zip(&self_ns)
            .map(|(s, own)| {
                ObjBuilder::new()
                    .str("name", &s.name)
                    .num("start_ns", s.start_ns as f64)
                    .num("end_ns", s.end_ns as f64)
                    .num("self_ns", *own as f64)
                    .set(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    )
                    .num("op", s.op as f64)
                    .bool("reported", s.reported)
                    .build()
            })
            .collect();
        ObjBuilder::new()
            .str("workload", workload)
            .set("spans", Json::Arr(spans))
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.open("root", 1);
        t.reported(1, &[("a".into(), 30), ("b".into(), 20)]);
        t.close(root);
        t.spans[root].end_ns = t.spans[root].start_ns + 100;
        assert_eq!(t.self_ns(), vec![50, 30, 20]);
        assert_eq!(t.spans()[2].start_ns, t.spans()[1].end_ns);
        assert_eq!(t.ms_per_group(|op| op)["a"], vec![30.0 / 1e6]);
    }
}
