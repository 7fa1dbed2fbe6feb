//! The traced run's span ledger.
//!
//! Spans are kept in memory while the benchmark runs and written out once
//! at the end. Each span has a name, a start and end on one monotonic
//! clock, its parent span, and the id of the request it belongs to. A
//! span's self time is its duration minus the part of its interval that
//! its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Ledger {
    origin: Instant,
    spans: Vec<Span>,
    next_request: u64,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            origin: Instant::now(),
            spans: Vec::new(),
            // Above any request id the service hands out, whose traces
            // share the ledger.
            next_request: 1 << 48,
        }
    }
}

impl Ledger {
    /// A fresh request id for benchmark-side spans.
    pub fn request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a span whose interval is already known.
    pub fn push(
        &mut self,
        request: u64,
        parent: Option<usize>,
        name: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Set the end of an open span (a parent whose children are done).
    pub fn close(&mut self, id: usize, end_ns: u64) {
        let s = &mut self.spans[id];
        s.end_ns = end_ns.max(s.start_ns);
    }

    /// Time `f` as a span named `name`.
    pub fn time<R>(
        &mut self,
        request: u64,
        parent: Option<usize>,
        name: &str,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now_ns();
        let r = std::hint::black_box(f());
        let end = self.now_ns();
        self.push(request, parent, name, start, end);
        r
    }

    /// Self time of every span, in ns, indexed by span id.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| (s.end_ns - s.start_ns) - covered_ns(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// Self times in µs grouped by span name.
    pub fn self_us_by_name(&self) -> BTreeMap<String, Vec<f64>> {
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_times_ns()) {
            out.entry(s.name.clone())
                .or_default()
                .push(ns as f64 / 1.0e3);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `kids` clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, mut kids: Vec<(u64, u64)>) -> u64 {
    kids.sort_unstable();
    let (mut total, mut cur_end) = (0, start);
    for (s, e) in kids {
        let (s, e) = (s.max(cur_end), e.min(end));
        if e > s {
            total += e - s;
            cur_end = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut l = Ledger::default();
        let root = l.push(1, None, "request", 0, 100);
        let a = l.push(1, Some(root), "a", 10, 40);
        l.push(1, Some(a), "a.inner", 20, 30);
        // Overlaps `a` by 10 and sticks out past the root by 5.
        l.push(1, Some(root), "b", 30, 105);
        assert_eq!(l.self_times_ns(), vec![100 - 90, 30 - 10, 10, 75]);
        assert_eq!(l.self_us_by_name()["a.inner"], vec![0.01]);
    }
}
