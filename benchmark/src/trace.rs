//! Spans recorded by the benchmark around its calls into the layers.
//!
//! The tracer times every bracketed call whether or not it is recording —
//! the end-to-end metrics come from those durations with recording off — and
//! with recording on it also keeps the span (name, start, end, parent, the
//! frame or replay id) in memory until [`Tracer::write_json`] at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, the one that caused this call.
    pub parent: Option<u32>,
    /// Frame index or replay id shared by the spans of one operation.
    pub id: u64,
}

/// A span that has begun; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open {
    start: Instant,
    index: Option<u32>,
}

pub struct Tracer {
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(recording: bool) -> Self {
        Tracer {
            recording,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switches recording on or off between operations (never inside an open
    /// span): the traced-versus-untraced comparison runs both ways in one
    /// process.
    pub fn set_recording(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "recording toggled inside a span");
        self.recording = on;
    }

    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        let start = Instant::now();
        let index = self.recording.then(|| {
            let index = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
                id,
            });
            self.stack.push(index);
            index
        });
        Open { start, index }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(index) = open.index {
            assert_eq!(self.stack.pop(), Some(index), "spans must nest");
            self.spans[index as usize].end_ns = (now - self.epoch).as_nanos() as u64;
        }
        (now - open.start).as_secs_f64()
    }

    /// Brackets one call that opens no spans of its own.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name, id);
        let r = f();
        (r, self.end(open))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the recorded spans as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"workload\":\"{workload}\",\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.id
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part of each span its child spans cover.
    pub self_ns: u64,
}

/// Total and self time per span name. A span's self time is its duration
/// minus the union of its direct children's intervals, clipped to the span.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for &(k0, k1) in kids.iter() {
            let (k0, k1) = (k0.max(reach), k1.min(s.end_ns));
            if k1 > k0 {
                covered += k1 - k0;
                reach = k1;
            }
        }
        let total = s.end_ns.saturating_sub(s.start_ns);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += total;
        t.self_ns += total - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = [
            span("step", 0, 100, None),
            span("warp", 10, 30, Some(0)),
            span("render", 40, 90, Some(0)),
            span("gather", 50, 60, Some(2)),
        ];
        let t = totals(&spans);
        assert_eq!(t["step"].total_ns, 100);
        assert_eq!(t["step"].self_ns, 100 - 20 - 50);
        // Grandchildren are charged to their own parent only.
        assert_eq!(t["render"].self_ns, 50 - 10);
        assert_eq!(t["gather"].self_ns, 10);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = [
            span("pass", 100, 200, None),
            span("lane", 110, 160, Some(0)),
            span("lane", 140, 180, Some(0)),
            // Outlives the parent: only the part inside counts.
            span("lane", 190, 250, Some(0)),
        ];
        let t = totals(&spans);
        assert_eq!(t["pass"].self_ns, 100 - (180 - 110) - (200 - 190));
        assert_eq!(t["lane"].count, 3);
    }

    #[test]
    fn tracer_nests_and_times_with_recording_off() {
        let mut off = Tracer::new(false);
        let outer = off.begin("outer", 1);
        let (v, secs) = off.time("inner", 1, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(off.end(outer) >= secs);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        let outer = on.begin("outer", 3);
        on.time("inner", 3, || ());
        on.end(outer);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].id, 3);
    }
}
