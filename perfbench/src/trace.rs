//! The benchmark's own spans. Each thread records into a [`Recorder`]
//! it owns (no locking on the hot path); recorders hand their spans to
//! the shared [`Tracer`] when dropped, and the tracer writes them out
//! once the run ends. Spans come from the benchmark's code around its
//! calls into the program, never from inside the program.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span. `id` and `parent` are run-unique (`parent` 0 =
/// root); `req` groups the spans of one operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_thread: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: AtomicBool::new(on),
            epoch: Instant::now(),
            next_thread: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// A recorder for the calling thread.
    pub fn recorder(&self) -> Recorder<'_> {
        Recorder {
            tracer: self,
            thread: self.next_thread.fetch_add(1, Ordering::Relaxed),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span handed in so far, in id order.
    pub fn spans(&self) -> Vec<SpanRec> {
        let mut all = self.spans.lock().expect("span sink poisoned").clone();
        all.sort_by_key(|s| s.id);
        all
    }

    /// Writes every span as one JSON object per line.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name totals derived from a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part of each span its children cover.
    pub self_ns: u64,
}

/// Self time per span name: a span's duration minus its children's.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// One thread's span buffer. `begin`/`end` nest like a stack; while the
/// tracer is off they record nothing.
#[derive(Debug)]
pub struct Recorder<'t> {
    tracer: &'t Tracer,
    thread: u64,
    spans: Vec<SpanRec>,
    /// Open spans: `Some(index into spans)`, or `None` when opened with
    /// tracing off.
    stack: Vec<Option<usize>>,
}

impl Recorder<'_> {
    /// Whether spans begun now are recorded.
    pub fn tracing(&self) -> bool {
        self.tracer.is_on()
    }

    pub fn begin(&mut self, name: &'static str, req: u64) {
        if !self.tracer.is_on() {
            self.stack.push(None);
            return;
        }
        let parent = self
            .stack
            .iter()
            .rev()
            .flatten()
            .next()
            .map_or(0, |&i| self.spans[i].id);
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name,
            id: (self.thread << 40) | (idx as u64 + 1),
            parent,
            req,
            start_ns: self.tracer.now_ns(),
            end_ns: 0,
        });
        self.stack.push(Some(idx));
    }

    pub fn end(&mut self) {
        if let Some(Some(idx)) = self.stack.pop() {
            self.spans[idx].end_ns = self.tracer.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, req);
        let out = f();
        self.end();
        out
    }
}

impl Drop for Recorder<'_> {
    fn drop(&mut self) {
        let now = self.tracer.now_ns();
        for idx in self.stack.drain(..).flatten() {
            self.spans[idx].end_ns = now;
        }
        if let Ok(mut sink) = self.tracer.spans.lock() {
            sink.append(&mut self.spans);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_give_self_time() {
        let tracer = Tracer::new(true);
        {
            let mut rec = tracer.recorder();
            rec.begin("outer", 1);
            rec.span("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            rec.end();
            tracer.set_on(false);
            rec.span("hidden", 2, || ());
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        let t = self_times(&spans);
        assert!(t["outer"].self_ns < t["outer"].total_ns);
        assert_eq!(t["inner"].self_ns, t["inner"].total_ns);
        assert!(!t.contains_key("hidden"));
    }
}
