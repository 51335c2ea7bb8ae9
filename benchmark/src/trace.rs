//! In-memory span recording and the self-time / share arithmetic.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions; the program under test is not
//! instrumented. A span's self time is its duration minus the union of
//! its children's intervals.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Index of the document the call served (`u32::MAX`: none).
    pub doc: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. Spans stay in memory until [`Tracer::write_tsv`].
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 20),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id for [`Tracer::end`] and as a parent.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, doc: u32) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            doc,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        doc: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, doc);
        let out = f();
        self.end(id);
        out
    }

    /// Write every span as `id name parent doc start_ns end_ns` lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tparent\tdoc\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let doc = if s.doc == u32::MAX { -1 } else { s.doc as i64 };
            writeln!(
                out,
                "{id}\t{}\t{parent}\t{doc}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(id);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let mut iv: Vec<(u64, u64)> = children[id]
                .iter()
                .map(|&c| {
                    let c = &spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-layer totals of a trace, relative to one root span.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// Duration of the root span.
    pub total_ns: u64,
    /// Summed self time per layer name.
    pub layer_ns: BTreeMap<&'static str, u64>,
    /// Root time covered by no layer span.
    pub residual_ns: u64,
}

impl Breakdown {
    /// Attribute the self time of every span named in `layers` to its
    /// layer; everything else under `root` (the root's own self time
    /// and that of unnamed spans such as per-document wrappers) is the
    /// residual, so layers plus residual partition the root exactly.
    pub fn of(spans: &[Span], root: usize, layers: &[&'static str]) -> Breakdown {
        let selfs = self_times(spans);
        let mut layer_ns: BTreeMap<&'static str, u64> = layers.iter().map(|&l| (l, 0)).collect();
        for (id, s) in spans.iter().enumerate() {
            if id != root && descends_from(spans, id, root) {
                if let Some(ns) = layer_ns.get_mut(s.name) {
                    *ns += selfs[id];
                }
            }
        }
        let total_ns = spans[root].dur_ns();
        let attributed: u64 = layer_ns.values().sum();
        Breakdown {
            total_ns,
            residual_ns: total_ns - attributed,
            layer_ns,
        }
    }

    /// Share of the root taken by `layer`.
    pub fn share(&self, layer: &str) -> f64 {
        self.layer_ns[layer] as f64 / self.total_ns as f64
    }

    pub fn residual_share(&self) -> f64 {
        self.residual_ns as f64 / self.total_ns as f64
    }
}

fn descends_from(spans: &[Span], mut id: usize, root: usize) -> bool {
    while let Some(p) = spans[id].parent {
        if p == root {
            return true;
        }
        id = p;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            doc: 0,
            start_ns,
            end_ns,
        }
    }

    /// pass[0,100] → doc[0,60] → {segment[5,25], chunk[25,35], match[40,50]}
    ///             → doc[60,95] → {segment[61,90]}
    ///             → slot_fill[95,99]
    fn tree() -> Vec<Span> {
        vec![
            span("pass", None, 0, 100),
            span("doc", Some(0), 0, 60),
            span("segment", Some(1), 5, 25),
            span("chunk", Some(1), 25, 35),
            span("match", Some(1), 40, 50),
            span("doc", Some(0), 60, 95),
            span("segment", Some(5), 61, 90),
            span("slot_fill", Some(0), 95, 99),
        ]
    }

    #[test]
    fn self_time_subtracts_children() {
        assert_eq!(self_times(&tree()), vec![1, 20, 20, 10, 10, 6, 29, 4]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("p", None, 10, 50),
            span("a", Some(0), 5, 20),
            span("b", Some(0), 15, 30),
            span("c", Some(0), 45, 70),
        ];
        // Covered: [10,30] ∪ [45,50] = 25 of 40.
        assert_eq!(self_times(&spans)[0], 15);
    }

    #[test]
    fn shares_plus_residual_sum_to_one() {
        let layers = ["segment", "chunk", "match", "refine", "slot_fill"];
        let b = Breakdown::of(&tree(), 0, &layers);
        assert_eq!(b.total_ns, 100);
        assert_eq!(b.layer_ns["segment"], 49);
        assert_eq!(b.layer_ns["refine"], 0);
        // pass self 1 + doc selves 20 + 6.
        assert_eq!(b.residual_ns, 27);
        let sum: f64 = layers.iter().map(|l| b.share(l)).sum::<f64>() + b.residual_share();
        assert!((sum - 1.0).abs() < 1e-12, "{sum}");
    }

    #[test]
    fn recorder_nests_and_writes() {
        let mut t = Tracer::new();
        let root = t.begin("pass", None, u32::MAX);
        let x = t.span("segment", Some(root), 0, || (0..1000).sum::<u64>());
        t.end(root);
        assert_eq!(x, 499_500);
        assert_eq!(t.spans.len(), 2);
        assert!(t.spans[1].start_ns >= t.spans[0].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
        let b = Breakdown::of(&t.spans, root, &["segment"]);
        assert_eq!(b.layer_ns["segment"] + b.residual_ns, b.total_ns);
    }
}
