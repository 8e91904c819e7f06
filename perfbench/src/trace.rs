//! Spans recorded by the benchmark's own code around each public call it
//! makes, and around the calls it replays on the same thread as a measured
//! call's children. Spans stay in memory and are written out when the run
//! ends.

use crate::report::{json_str, num};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// The span this one was replayed under; 0 for a measured call.
    pub parent: u64,
    pub req: u64,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// One thread's span buffer. Ids are unique across threads (the thread
/// number sits in the high bits).
pub struct Tracer {
    epoch: Instant,
    thread: u32,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, thread: u32) -> Self {
        Tracer {
            epoch,
            thread,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Open a span now; close it with [`Tracer::close`]. Returns its id, so
    /// spans opened inside it can name it as their parent.
    pub fn open(&mut self, name: &'static str, req: u64, parent: u64) -> u64 {
        self.next += 1;
        let id = (u64::from(self.thread) << 40) | self.next;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            req,
            thread: self.thread,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Close the most recently opened span with this id; returns its
    /// duration in milliseconds.
    pub fn close(&mut self, id: u64) -> f64 {
        let now = self.now_ns();
        let span = self
            .spans
            .iter_mut()
            .rev()
            .find(|s| s.id == id)
            .expect("closing a span this tracer opened");
        span.end_ns = now;
        span.ms()
    }

    /// Run `f` inside a span; returns its value and duration in ms.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, req, parent);
        let out = f();
        (out, self.close(id))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Self time of every span that has replayed children: its duration minus
/// the sum of its children's durations, grouped by span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut child_ms: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ms.entry(s.parent).or_insert(0.0) += s.ms();
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        if let Some(children) = child_ms.get(&s.id) {
            out.entry(s.name).or_default().push(s.ms() - children);
        }
    }
    out
}

/// Write every span as one JSON object per line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\": {}, \"id\": {}, \"parent\": {}, \"req\": {}, \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            json_str(s.name),
            s.id,
            s.parent,
            s.req,
            s.thread,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

/// Calls, total and mean milliseconds per span name.
pub fn span_table_json(spans: &[Span]) -> String {
    let mut by_name: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += s.ms();
    }
    let mut out = String::from("{");
    for (i, (name, (n, total))) in by_name.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"calls\": {n}, \"total_ms\": {}, \"mean_ms\": {}}}",
            json_str(name),
            num(*total),
            num(total / *n as f64)
        );
    }
    out.push('}');
    out
}
