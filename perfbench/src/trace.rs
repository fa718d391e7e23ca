//! In-memory span recorder for the traced run.
//!
//! Each worker owns one [`Tracer`]; spans (name, start, end, parent, trial
//! id) and per-trial counts are appended to plain vectors and only read
//! after the phase ends, so recording costs two clock reads and a push.
//! Span ids carry the worker index in their high bits, so ids stay unique
//! when the workers' buffers are merged.

use std::fmt::Write as _;
use std::time::Instant;

/// The trial id of the `rep`-th set-up (set-ups are not trials, but their
/// spans share the recorder).
pub fn setup_trial(rep: usize) -> u64 {
    (1 << 40) + rep as u64
}

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub trial: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A count recorded at a layer boundary of one trial.
#[derive(Debug, Clone)]
pub struct Count {
    pub trial: u64,
    pub name: &'static str,
    pub value: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    id_base: u64,
    next: u64,
    pub spans: Vec<Span>,
    pub counts: Vec<Count>,
}

impl Tracer {
    /// A recorder for worker `worker`; every worker must share `epoch`.
    pub fn new(epoch: Instant, worker: usize) -> Tracer {
        Tracer {
            epoch,
            id_base: (worker as u64 + 1) << 32,
            next: 0,
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        // rn-lint: allow(no-wall-clock) — span timestamps are the benchmark's measurement
        u64::try_from(Instant::now().duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent` and returns its id.
    pub fn begin(&mut self, name: &'static str, parent: u64, trial: u64) -> u64 {
        self.next += 1;
        let id = self.id_base | self.next;
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, trial, name, start_ns, end_ns: start_ns });
        id
    }

    /// Closes the open span `id`.
    pub fn end(&mut self, id: u64) {
        let now = self.now_ns();
        let span = self.spans.iter_mut().rev().find(|s| s.id == id).expect("span was opened");
        span.end_ns = now;
    }

    /// Runs `f` inside a leaf span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        trial: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, trial);
        let out = f();
        self.end(id);
        out
    }

    pub fn count(&mut self, trial: u64, name: &'static str, value: u64) {
        self.counts.push(Count { trial, name, value });
    }
}

/// Sum of the durations (ms) of the spans named `name` in `trial`.
pub fn total_ms(spans: &[Span], trial: u64, name: &str) -> f64 {
    spans.iter().filter(|s| s.trial == trial && s.name == name).map(Span::ms).sum()
}

/// Sum of the counts named `name` in `trial`.
pub fn total_count(counts: &[Count], trial: u64, name: &str) -> u64 {
    counts.iter().filter(|c| c.trial == trial && c.name == name).map(|c| c.value).sum()
}

/// Self time (ms) of `span`: its duration minus the part of that interval
/// its direct children cover. Children of one span run one after another on
/// the same worker, so their clipped durations do not overlap.
pub fn self_ms(spans: &[Span], span: &Span) -> f64 {
    let covered: u64 = spans
        .iter()
        .filter(|c| c.parent == span.id)
        .map(|c| c.end_ns.min(span.end_ns).saturating_sub(c.start_ns.max(span.start_ns)))
        .sum();
    (span.end_ns - span.start_ns).saturating_sub(covered) as f64 / 1e6
}

/// The recorded spans and counts as JSON lines, after `header` (one JSON
/// object, written as the first line).
pub fn to_jsonl(header: &str, spans: &[Span], counts: &[Count]) -> String {
    let mut out = String::with_capacity(128 * (spans.len() + counts.len() + 1));
    out.push_str(header);
    out.push('\n');
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"span\":\"{}\",\"id\":{},\"parent\":{},\"trial\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.trial, s.start_ns, s.end_ns
        );
    }
    for c in counts {
        let _ = writeln!(
            out,
            "{{\"count\":\"{}\",\"trial\":{},\"value\":{}}}",
            c.name, c.trial, c.value
        );
    }
    out
}
