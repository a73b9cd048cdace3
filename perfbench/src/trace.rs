//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer, recorded around a public entry point
//! from the benchmark's side: request id, name, parent, start and end.
//! Spans stay in memory until the run ends and are then written out as
//! JSON lines. A span's self time is its duration minus the part of its
//! interval that its children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub req: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`]. Used where children
    /// are recorded between the two calls.
    pub fn open(&mut self, req: u64, name: &'static str, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            req,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span timed elsewhere.
    pub fn record(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<usize>,
        (start, end): (Instant, Instant),
    ) -> usize {
        let id = self.spans.len();
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            req,
            name,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    /// Records `f` as one span.
    pub fn span<T>(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(req, name, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean self time in µs of the spans called `name`, or `None` if no
    /// span has that name.
    pub fn mean_self_us(&self, name: &str) -> Option<f64> {
        let st = self_times_ns(&self.spans);
        let picked: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| st[s.id] as f64 / 1e3)
            .collect();
        (!picked.is_empty()).then(|| crate::stats::mean(&picked))
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"req\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.req, s.name, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, indexed by span id: duration minus the length
/// of the union of its children's intervals clipped to its own interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            req: 0,
            name: "s",
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 60),
            span(3, Some(1), 12, 20),
        ];
        assert_eq!(self_times_ns(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Children [10,40) and [30,60) cover 50 ns together, not 60.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
        ];
        assert_eq!(self_times_ns(&spans)[0], 50);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        // A child that runs past its parent's end only covers the overlap.
        let spans = vec![span(0, None, 0, 100), span(1, Some(0), 80, 150)];
        assert_eq!(self_times_ns(&spans)[0], 80);
        // A child wholly after its parent covers nothing.
        let spans = vec![span(0, None, 0, 100), span(1, Some(0), 120, 150)];
        assert_eq!(self_times_ns(&spans)[0], 100);
    }

    #[test]
    fn tracer_records_nesting_and_means() {
        let mut t = Tracer::default();
        let root = t.open(7, "root", None);
        t.span(7, "leaf", Some(root), || std::hint::black_box(1 + 1));
        t.close(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].req, 7);
        let root_self = t.mean_self_us("root").unwrap();
        let root_total = t.spans()[0].dur_ns() as f64 / 1e3;
        assert!(root_self <= root_total);
        assert!(t.mean_self_us("missing").is_none());
    }
}
