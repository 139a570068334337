//! The benchmark's own span buffer.
//!
//! Each session thread owns a [`SpanLog`]; nothing is shared while the
//! run is measured, so no span can be lost or reordered by another
//! thread. The logs are merged and written out when the run ends.

use crate::io::IoSpan;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// What was timed.
    pub name: &'static str,
    /// The session thread that made the call.
    pub session: u32,
    /// Start, in nanoseconds since the run's clock origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// The spans of one session thread.
#[derive(Debug)]
pub struct SpanLog {
    session: u32,
    origin: Instant,
    next: u64,
    /// Spans in the order they ended.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log for `session`; start times count from `origin`.
    pub fn new(session: u32, origin: Instant) -> SpanLog {
        SpanLog {
            session,
            origin,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Record a span that ran from `start` for `dur_ns`, returning its id.
    pub fn record(&mut self, parent: u64, name: &'static str, start: Instant, dur_ns: u64) -> u64 {
        self.next += 1;
        let id = (u64::from(self.session) + 1) << 40 | self.next;
        self.spans.push(Span {
            id,
            parent,
            name,
            session: self.session,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns,
        });
        id
    }

    /// Time `f` as a child of `parent`, returning its result.
    pub fn time<T>(&mut self, parent: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        let dur_ns = t0.elapsed().as_nanos() as u64;
        self.record(parent, name, t0, dur_ns);
        out
    }
}

/// Per-name totals over a set of spans: `(count, total ns)`.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns;
    }
    out
}

/// The trace as JSON lines: program spans first, then the applier's I/O
/// spans with the batch each belongs to.
pub fn to_jsonl(spans: &[Span], io: &[IoSpan]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"session\":{},\"start_ns\":{},\"dur_ns\":{}}}",
            s.id, s.parent, s.name, s.session, s.start_ns, s.dur_ns
        );
    }
    for s in io {
        let _ = writeln!(
            out,
            "{{\"name\":\"vfs.{}\",\"thread\":\"applier\",\"batch\":{},\"start_ns\":{},\"dur_ns\":{},\"bytes\":{}}}",
            s.op, s.batch, s.start_ns, s.dur_ns, s.bytes
        );
    }
    out
}
