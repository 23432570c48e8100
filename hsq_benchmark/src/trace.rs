//! Spans recorded from outside the program: one around every call into a
//! layer's public function, kept in memory and written out at exit.
//!
//! Every timed call goes through [`Tracer::leaf`] whether tracing is on or
//! not — the elapsed time it returns is what the end-to-end metrics are
//! made of — so a traced run differs from an untraced one only by the
//! span records pushed here and the extra accessor calls the workloads
//! make when [`Tracer::on`] is true.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded call. `parent` indexes the enclosing span; spans of one
/// benchmark operation (an ingest, a dashboard, an epoch open, a step
/// close) share `op`.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
}

/// A span that has begun; hand it back to [`Tracer::end`].
pub struct Open {
    started: Instant,
    index: Option<u32>,
}

pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: on.then(Vec::new),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.spans.is_some()
    }

    /// Begin a span; a span begun while no other is open starts a new op.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let index = self.spans.as_mut().map(|spans| {
            let parent = self.stack.last().copied();
            if parent.is_none() {
                self.op += 1;
            }
            let start_ns = (started - self.origin).as_nanos() as u64;
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op: self.op,
            });
            let index = (spans.len() - 1) as u32;
            self.stack.push(index);
            index
        });
        Open { started, index }
    }

    /// End `open` and return its duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> u64 {
        let ns = open.started.elapsed().as_nanos() as u64;
        if let (Some(i), Some(spans)) = (open.index, self.spans.as_mut()) {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans must nest");
            spans[i as usize].end_ns = spans[i as usize].start_ns + ns;
        }
        ns
    }

    /// Time one call into the program: its result and its nanoseconds.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let open = self.begin(name);
        let r = f();
        (r, self.end(open))
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Self time per span name: a span's duration minus its children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let spans = self.spans();
        let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, ns) in spans.iter().zip(own) {
            *by_name.entry(s.name).or_insert(0) += ns;
        }
        by_name
    }

    /// Summed duration of the spans that have no parent: the traced
    /// end-to-end time the self times must add up to.
    pub fn top_level_ns(&self) -> u64 {
        self.spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// One JSON object per span, in start order.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut tr = Tracer::new(true);
        let op = tr.begin("op.outer");
        tr.leaf("layer.a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.leaf("layer.a", || ());
        tr.end(op);
        tr.leaf("layer.b", || ());

        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[0].op, spans[2].op, spans[3].op), (1, 1, 2));
        let own = tr.self_times();
        let total: u64 = own.values().sum();
        assert_eq!(
            total,
            tr.top_level_ns(),
            "self times add up to the top level"
        );
        assert!(own["layer.a"] >= 2_000_000);
        assert!(own["op.outer"] < own["layer.a"]);
        assert_eq!(tr.durations("layer.a").len(), 2);
    }

    #[test]
    fn untraced_still_times() {
        let mut tr = Tracer::new(false);
        let ((), ns) = tr.leaf("layer.a", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(ns >= 1_000_000);
        assert!(tr.spans().is_empty() && !tr.on());
    }
}
