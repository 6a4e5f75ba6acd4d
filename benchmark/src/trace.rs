//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own code only (spans inside
//! the program are a later issue), kept in memory, and written to
//! `benchmark/out/trace-<workload>.json` when the run ends. A span's self
//! time is its duration minus the part of its interval its child spans
//! cover; children from concurrent threads may overlap, so coverage is
//! the union of their intervals.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`; the layer is the crate name without `esp-`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The epoch the call worked on, when it worked on one.
    pub epoch: Option<u64>,
}

/// Span recorder. `enter`/`exit` nest on the calling thread; spans timed
/// elsewhere (generator threads) are added with [`Tracer::record`].
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder; time zero is now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since time zero.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, epoch: Option<u64>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            epoch,
        });
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close span `id` (and anything left open inside it).
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Add a span timed elsewhere, under the innermost open span.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, epoch: Option<u64>) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
            epoch,
        });
    }

    /// Time `f` as a span.
    pub fn span<T>(&mut self, name: &'static str, epoch: Option<u64>, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, epoch);
        let out = f();
        self.exit(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration per span name.
    pub fn total_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for s in &self.spans {
            *totals.entry(s.name).or_insert(0) += s.end_ns - s.start_ns;
        }
        totals
    }

    /// Self time per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for (name, ns) in self
            .spans
            .iter()
            .map(|s| s.name)
            .zip(self_times(&self.spans))
        {
            *totals.entry(name).or_insert(0) += ns;
        }
        totals
    }

    /// Render as `{"spans":[{name,start_ns,end_ns,parent,epoch,self_ns}]}`.
    pub fn to_json(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::from("{\"spans\":[");
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let _ = write!(
                out,
                "{}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"epoch\":{},\"self_ns\":{}}}",
                if i > 0 { "," } else { "" },
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.epoch),
                self_ns,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: duration minus the union of its direct
/// children's intervals, clipped to the span itself.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (start, end) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            epoch: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span(0, 100, None),    // root
            span(10, 30, Some(0)), // child
            span(30, 50, Some(0)), // adjacent child
            span(15, 25, Some(1)), // grandchild: only its parent pays
        ];
        assert_eq!(self_times(&spans), vec![60, 10, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span(100, 200, None),
            span(110, 160, Some(0)),
            span(140, 180, Some(0)), // overlaps the first by 20
            span(190, 250, Some(0)), // runs past the parent: clipped to 10
            span(150, 155, Some(0)), // inside covered ground: adds nothing
        ];
        assert_eq!(self_times(&spans)[0], 100 - (50 + 20 + 10));
    }

    #[test]
    fn enter_exit_nest_and_record_attaches_to_the_open_span() {
        let mut t = Tracer::new();
        let root = t.enter("root", None);
        let inner = t.enter("inner", Some(3));
        t.record("elsewhere", 1, 2, None);
        t.exit(inner);
        t.exit(root);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(root));
        assert_eq!(s[2].parent, Some(inner));
        assert_eq!(s[1].epoch, Some(3));
        assert!(s[0].end_ns >= s[1].end_ns);
        assert!(t.to_json().contains("\"name\":\"inner\""));
    }
}
