//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions; nothing inside the program is
//! instrumented. They are kept in memory and written out when the run
//! ends. Two shapes share one record:
//!
//! * an *interval* span (a session, a BFS level, a block of iterations)
//!   is busy for its whole duration;
//! * an *aggregate* span stands for every call one layer received inside
//!   its parent interval: `calls` is how many, `busy_ns` their summed
//!   duration. One record per layer per interval keeps a million-state
//!   replay to a few thousand spans.
//!
//! A span's self time is its busy time minus its children's busy time.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
    pub busy_ns: u64,
}

pub struct Recorder {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
}

/// Calls and self time of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    pub calls: u64,
    pub self_ns: u64,
}

impl Recorder {
    pub fn new(workload: &'static str) -> Recorder {
        Recorder {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Opens an interval span; [`Recorder::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
            calls: 1,
            busy_ns: 0,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.busy_ns = now - span.start_ns;
    }

    /// Records every call one layer received inside the interval `parent`.
    pub fn aggregate(&mut self, name: &'static str, parent: usize, calls: u64, busy_ns: u64) {
        if calls == 0 {
            return;
        }
        let (start_ns, end_ns) = (self.spans[parent].start_ns, self.now_ns());
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start_ns,
            end_ns,
            calls,
            busy_ns,
        });
    }

    /// Calls and self time per span name.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut child_busy = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_busy[p] += span.busy_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_busy) {
            let total = totals.entry(span.name).or_default();
            total.calls += span.calls;
            total.self_ns += span.busy_ns.saturating_sub(children);
        }
        totals
    }

    /// Writes `trace-<workload>.json` into `dir` (created if missing).
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("trace-{}.json", self.workload));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        write!(out, "{{\"workload\":\"{}\",\"spans\":[", self.workload)?;
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                write!(out, ",")?;
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            write!(
                out,
                "\n{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"workload\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"calls\":{},\"busy_ns\":{}}}",
                s.name, self.workload, s.start_ns, s.end_ns, s.calls, s.busy_ns
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()?;
        Ok(path)
    }
}

/// Where the spans of a piece of work go, if anywhere: the recorder and the
/// span to hang them under. The untraced run passes [`Under::nothing`] and
/// records no span at all.
pub struct Under<'a>(Option<(&'a mut Recorder, usize)>);

impl<'a> Under<'a> {
    pub fn nothing() -> Under<'a> {
        Under(None)
    }

    pub fn span(rec: &'a mut Recorder, parent: usize) -> Under<'a> {
        Under(Some((rec, parent)))
    }

    /// Opens an interval span under the parent.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        let (rec, parent) = self.0.as_mut()?;
        Some(rec.open(name, Some(*parent)))
    }

    /// Closes a span [`Under::open`] returned, after `fill` has hung the
    /// aggregates of the interval off it.
    pub fn close(&mut self, span: Option<usize>, fill: impl FnOnce(&mut Recorder, usize)) {
        if let (Some((rec, _)), Some(span)) = (self.0.as_mut(), span) {
            fill(rec, span);
            rec.close(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_busy_minus_children_and_the_file_parses() {
        let mut rec = Recorder::new("unit");
        let level = rec.open("level", None);
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.aggregate("model.successors", level, 10, 400_000);
        rec.aggregate("mc.fingerprint", level, 40, 100_000);
        rec.aggregate("idle", level, 0, 0);
        rec.close(level);
        let totals = rec.layer_totals();
        assert_eq!(totals["model.successors"].calls, 10);
        assert_eq!(totals["mc.fingerprint"].self_ns, 100_000);
        assert!(!totals.contains_key("idle"));
        let level_busy = rec.spans[level].busy_ns;
        assert!(level_busy >= 2_000_000);
        assert_eq!(totals["level"].self_ns, level_busy - 500_000);

        let dir = std::env::temp_dir().join(format!("bench-spans-{}", std::process::id()));
        let path = rec.write(&dir).expect("write trace");
        let text = std::fs::read_to_string(&path).expect("read trace");
        let doc = gc_trace::Json::parse(&text).expect("trace file is JSON");
        assert_eq!(
            doc.get("spans").and_then(|s| s.as_arr()).map(<[_]>::len),
            Some(3)
        );
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
