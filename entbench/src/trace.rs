//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions.
//!
//! A [`Tracer`] belongs to one thread and keeps a stack of open spans, so
//! a span's parent is whatever span was open when it began. Spans are
//! written out once, after the run ([`to_jsonl`]). A layer's self time
//! is its span's duration minus the durations of its children on the same
//! thread; the self time of an `op` root span is the part of the op no
//! layer span covers.

use std::fmt::Write as _;
use std::time::Instant;

/// The layers, named after the repository's modules.
pub const LAYERS: [&str; 13] = [
    "syntax.parse",
    "syntax.table",
    "core.typeck",
    "runtime.lower",
    "runtime.compile",
    "runtime.stack",
    "runtime.exec",
    "cli",
    "workloads.cache",
    "workloads.batch",
    "serve.proto",
    "serve.server",
    "serve.tcp",
];

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `syntax.parse` or `runtime.exec.warm`.
    pub name: &'static str,
    /// The recording thread's tracer id.
    pub tid: u32,
    /// Span id, unique within its tracer (ids start at 1).
    pub id: u32,
    /// The enclosing span's id on the same tracer (0 = none).
    pub parent: u32,
    /// The op this span belongs to.
    pub op: u64,
    /// Start and end, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// Source or request bytes the call consumed (0 when not applicable).
    pub bytes: u64,
    /// A count measured at the boundary: steps for `runtime.exec*`,
    /// obligations for `core.typeck` (0 otherwise).
    pub count: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer the span belongs to: the entry of [`LAYERS`] its name
    /// starts with, else the name itself (the `op`, `probe` and `setup`
    /// roots).
    #[must_use]
    pub fn layer(&self) -> &'static str {
        LAYERS
            .iter()
            .find(|l| {
                self.name
                    .strip_prefix(**l)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
            })
            .copied()
            .unwrap_or(self.name)
    }
}

/// Handle to an open span.
#[must_use]
pub struct Open(usize);

/// A per-thread span recorder.
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder for thread `tid`, timing against `epoch`.
    #[must_use]
    pub fn new(epoch: Instant, tid: u32) -> Self {
        Tracer {
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; it nests under the innermost open span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            tid: self.tid,
            id: index as u32 + 1,
            parent,
            op,
            start_ns: self.now_ns(),
            end_ns: 0,
            bytes: 0,
            count: 0,
        });
        self.open.push(index);
        Open(index)
    }

    /// Closes `span`, recording the bytes and count it measured.
    pub fn end(&mut self, span: Open, bytes: u64, count: u64) {
        let now = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(span.0), "spans close in stack order");
        let s = &mut self.spans[span.0];
        s.end_ns = now;
        s.bytes = bytes;
        s.count = count;
    }

    /// The recorded spans.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span: its duration minus its same-thread children's.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = std::collections::HashMap::<(u32, u32), u64>::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry((s.tid, s.parent)).or_default() += s.dur_ns();
    }
    spans
        .iter()
        .map(|s| {
            s.dur_ns()
                .saturating_sub(child_ns.get(&(s.tid, s.id)).copied().unwrap_or(0))
        })
        .collect()
}

/// Renders every span as one JSON object per line.
#[must_use]
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 128);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"name\": \"{}\", \"tid\": {}, \"id\": {}, \"parent\": {}, \"op\": {}, \
             \"start_ns\": {}, \"end_ns\": {}, \"bytes\": {}, \"count\": {}}}",
            s.name, s.tid, s.id, s.parent, s.op, s.start_ns, s.end_ns, s.bytes, s.count
        );
    }
    out
}
