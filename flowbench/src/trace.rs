//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions.
//!
//! Every span carries a trace id shared by all spans of one
//! (workload, seed, program, level) cell and, except for roots, the id of
//! the span that caused it. A layer's self time is its duration minus the
//! durations of its direct children.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub trace_id: u64,
    pub parent: Option<usize>,
    pub layer: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// Per-layer aggregate: inclusive time, self time and span count.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    pub busy_s: f64,
    pub self_s: f64,
    pub count: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its index; close it with [`Tracer::end`].
    pub fn begin(&mut self, trace_id: u64, parent: Option<usize>, layer: &'static str) -> usize {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            trace_id,
            parent,
            layer,
            start_ns,
            dur_ns: 0,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        let now = self.origin.elapsed().as_nanos() as u64;
        let s = &mut self.spans[span];
        s.dur_ns = now - s.start_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        trace_id: u64,
        parent: Option<usize>,
        layer: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.begin(trace_id, parent, layer);
        let r = f();
        self.end(s);
        r
    }

    /// Records an already measured interval as a closed child span.
    pub fn record(
        &mut self,
        trace_id: u64,
        parent: Option<usize>,
        layer: &'static str,
        dur_s: f64,
    ) {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let dur_ns = (dur_s * 1e9) as u64;
        self.spans.push(Span {
            trace_id,
            parent,
            layer,
            start_ns,
            dur_ns,
        });
    }

    /// Inclusive and self time per layer name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let t = out.entry(s.layer).or_default();
            t.busy_s += s.dur_ns as f64 / 1e9;
            t.self_s += s.dur_ns.saturating_sub(children) as f64 / 1e9;
            t.count += 1;
        }
        out
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"trace_id\":\"{:016x}\",\"parent\":{parent},\"layer\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.trace_id, s.layer, s.start_ns, s.dur_ns
            );
        }
        out
    }
}

/// FNV-1a over the cell's coordinates: the id shared by one cell's spans.
pub fn trace_id(workload: &str, seed: u64, program: &str, level: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{workload}/{seed}/{program}/{level}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let cell = t.begin(1, None, "cell");
        t.record(1, Some(cell), "a", 0.25);
        t.record(1, Some(cell), "b", 0.5);
        t.end(cell);
        t.spans[cell].dur_ns = 1_000_000_000;
        let totals = t.totals();
        assert!((totals["cell"].self_s - 0.25).abs() < 1e-9);
        assert!((totals["a"].self_s - 0.25).abs() < 1e-9);
        assert_eq!(totals["b"].count, 1);
    }
}
