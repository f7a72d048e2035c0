//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around calls
//! into the simulator's crates; nothing inside the simulator is
//! instrumented.  Each span records its name, start, end, parent and job
//! id.  Spans stay in memory until the run ends and are then written out
//! as JSON lines.  A layer's self time is a span's duration minus the part
//! covered by its child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    job: u32,
}

/// Handle of an open span (`None` while the recorder is off).
#[must_use = "a span must be closed"]
pub struct SpanId(Option<usize>);

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub ns: u64,
    pub calls: u64,
}

/// The recorder.  While off, `open`/`close` neither read the clock nor
/// record anything.
pub struct Spans {
    origin: Instant,
    on: bool,
    job: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            on: false,
            job: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off (only between spans).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "recording toggled inside a span");
        self.on = on;
    }

    /// Tags the spans opened from now on with `job`.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span named `name` as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Closes every span still open — the ones a failed job left behind.
    pub fn close_all(&mut self) {
        let now = self.now_ns();
        for id in self.open.drain(..) {
            self.spans[id].end_ns = now;
        }
    }

    /// Self time and calls per span name, over the spans of `jobs`.
    pub fn self_times(&self, jobs: impl Fn(u32) -> bool) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            if !jobs(span.job) {
                continue;
            }
            let entry = out.entry(span.name).or_default();
            entry.ns += span.end_ns - span.start_ns - children;
            entry.calls += 1;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        assert!(self.open.is_empty(), "spans still open at export");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                text,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                span.name, span.start_ns, span.end_ns, span.job
            )
            .expect("writing to a String cannot fail");
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut spans = Spans::new();
        let ignored = spans.open("off");
        spans.close(ignored);
        spans.set_on(true);
        spans.set_job(3);
        let outer = spans.open("outer");
        let inner = spans.open("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        spans.close(inner);
        spans.close(outer);
        let times = spans.self_times(|job| job == 3);
        assert_eq!(times.len(), 2);
        assert!(times["inner"].ns >= 2_000_000);
        assert!(times["outer"].ns < times["inner"].ns);
        assert!(spans.self_times(|job| job != 3).is_empty());
    }
}
