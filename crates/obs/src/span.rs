//! RAII spans and per-request traces.
//!
//! A request handler opens a [`TraceScope`]; any code it calls (down
//! through the engine's stage pipeline) wraps timed sections in
//! [`Span::enter`] guards. Spans record into a thread-local span stack
//! — parent/child nesting falls out of guard scoping — and
//! [`TraceScope::finish`] assembles the completed [`TraceRecord`],
//! ready for the flight recorder.
//!
//! Tracing is **off by default** so batch paths (sweeps, the mega-grid
//! stage bench) pay only one relaxed atomic load per would-be span.
//! Servers flip it on at bind time with [`set_enabled`]; a `Span`
//! created while disabled is a no-op (no `Instant::now`, no
//! allocation).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::hist::Histogram;

/// Global observation switch. Relaxed is enough: the flag is a
/// performance gate, not a synchronization point.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns span recording and histogram observation from [`Span`] guards
/// on or off process-wide. Servers enable it at bind; batch tools
/// leave it off and skip the instrumentation entirely.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span recording is enabled (see [`set_enabled`]).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One completed span inside a trace: a named timed section with a
/// parent index into the same trace's span list (`None` for children
/// of the request root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Section name, e.g. `"stage.layer_timing"`.
    pub name: String,
    /// Index of the enclosing span in [`TraceRecord::spans`], or
    /// `None` when the span sits directly under the request root.
    pub parent: Option<usize>,
    /// Microseconds from the start of the trace to span entry.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

/// One completed request trace: identity, outcome, and the span tree
/// (spans in entry order; parents always precede children).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The request id (`X-Mcdla-Request-Id`).
    pub id: String,
    /// The endpoint label, e.g. `"simulate"`.
    pub endpoint: String,
    /// HTTP status of the response.
    pub status: u16,
    /// Wall-clock trace start, milliseconds since the Unix epoch.
    pub started_unix_ms: u64,
    /// Total request duration in microseconds.
    pub total_us: u64,
    /// The span tree, in entry order.
    pub spans: Vec<SpanRecord>,
    /// Recorder sequence number, assigned by
    /// [`FlightRecorder::record`](crate::FlightRecorder::record)
    /// (0 until recorded).
    pub seq: u64,
}

#[derive(Debug)]
struct ActiveTrace {
    started: Instant,
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// The per-request tracing scope. Create one per request with
/// [`TraceScope::begin`], close it with [`TraceScope::finish`]; while
/// it is open, every [`Span`] entered on the same thread lands in its
/// span tree. A request that waits on I/O without holding its thread
/// [`detach`](TraceScope::detach)es the trace and adds what it measures
/// meanwhile with [`TraceScope::span`]. Dropping an unfinished scope
/// (panic paths) discards the partial trace.
#[derive(Debug)]
pub struct TraceScope {
    started: Instant,
    started_unix_ms: u64,
    /// Whether this scope installed the thread-local trace (false when
    /// tracing is disabled or a scope was already open on the thread).
    activated: bool,
    finished: bool,
    /// The trace taken off the thread by [`TraceScope::detach`].
    detached: Option<ActiveTrace>,
}

impl TraceScope {
    /// Opens a trace on the current thread. When tracing is disabled,
    /// or another scope is already open on this thread, the returned
    /// scope still measures the total duration but collects no spans.
    pub fn begin() -> TraceScope {
        let activated = enabled()
            && ACTIVE.with(|a| {
                let mut slot = a.borrow_mut();
                if slot.is_some() {
                    return false;
                }
                *slot = Some(ActiveTrace {
                    started: Instant::now(),
                    spans: Vec::new(),
                    stack: Vec::new(),
                });
                true
            });
        TraceScope {
            started: Instant::now(),
            started_unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
                .unwrap_or(0),
            activated,
            finished: false,
            detached: None,
        }
    }

    /// Takes the open trace off this thread, so the thread can serve
    /// other requests while this one waits. Spans entered on the thread
    /// afterwards no longer join it; [`TraceScope::span`] does.
    pub fn detach(&mut self) {
        if self.activated && self.detached.is_none() {
            self.detached = ACTIVE.with(|a| a.borrow_mut().take());
        }
    }

    /// Adds a span measured from `start` to `end` under the request
    /// root of a [detached](TraceScope::detach) trace (a no-op on an
    /// attached or inert one).
    pub fn span(&mut self, name: &str, start: Instant, end: Instant) {
        if let Some(trace) = &mut self.detached {
            trace.spans.push(SpanRecord {
                name: name.to_string(),
                parent: None,
                start_us: us(start.saturating_duration_since(trace.started)),
                dur_us: us(end.saturating_duration_since(start)).max(1),
            });
        }
    }

    /// Closes the trace and assembles the record. Spans still open at
    /// finish (early returns, panics caught mid-span) are closed at
    /// the trace end.
    pub fn finish(mut self, id: String, endpoint: &str, status: u16) -> TraceRecord {
        self.finished = true;
        let total_us = us(self.started.elapsed());
        let spans = if self.activated {
            let trace = match self.detached.take() {
                Some(trace) => Some(trace),
                None => ACTIVE.with(|a| a.borrow_mut().take()),
            };
            trace.map_or_else(Vec::new, |mut t| {
                for &idx in &t.stack {
                    if t.spans[idx].dur_us == 0 {
                        t.spans[idx].dur_us = total_us.saturating_sub(t.spans[idx].start_us);
                    }
                }
                t.spans
            })
        } else {
            Vec::new()
        };
        TraceRecord {
            id,
            endpoint: endpoint.to_string(),
            status,
            started_unix_ms: self.started_unix_ms,
            total_us,
            spans,
            seq: 0,
        }
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if self.activated && !self.finished && self.detached.is_none() {
            ACTIVE.with(|a| a.borrow_mut().take());
        }
    }
}

/// An RAII timed section. While a [`TraceScope`] is open on the
/// thread, entering a span pushes a node under the innermost open span
/// and dropping the guard closes it; with a histogram handle attached
/// ([`Span::enter_timed`]), the duration is also observed there. When
/// tracing is disabled the guard is free.
#[derive(Debug)]
#[must_use = "a span times the scope it lives in; dropping it immediately records nothing"]
pub struct Span {
    start: Option<Instant>,
    idx: Option<usize>,
    hist: Option<Arc<Histogram>>,
}

impl Span {
    /// Enters a named span (trace-only, no histogram).
    pub fn enter(name: &str) -> Span {
        Span::record(name, None)
    }

    /// Enters a named span whose duration is also observed into
    /// `hist` on drop.
    pub fn enter_timed(name: &str, hist: &Arc<Histogram>) -> Span {
        Span::record(name, Some(hist))
    }

    fn record(name: &str, hist: Option<&Arc<Histogram>>) -> Span {
        if !enabled() {
            return Span {
                start: None,
                idx: None,
                hist: None,
            };
        }
        let idx = ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            let trace = slot.as_mut()?;
            let idx = trace.spans.len();
            trace.spans.push(SpanRecord {
                name: name.to_string(),
                parent: trace.stack.last().copied(),
                start_us: us(trace.started.elapsed()),
                dur_us: 0,
            });
            trace.stack.push(idx);
            Some(idx)
        });
        Span {
            start: Some(Instant::now()),
            idx,
            hist: hist.cloned(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed();
        if let Some(hist) = &self.hist {
            hist.observe_duration(elapsed);
        }
        if let Some(idx) = self.idx {
            ACTIVE.with(|a| {
                let mut slot = a.borrow_mut();
                if let Some(trace) = slot.as_mut() {
                    if let Some(span) = trace.spans.get_mut(idx) {
                        span.dur_us = us(elapsed).max(1);
                    }
                    // Guards drop LIFO; tolerate a mismatched stack
                    // (a leaked guard) by popping through it.
                    while let Some(top) = trace.stack.pop() {
                        if top == idx {
                            break;
                        }
                    }
                }
            });
        }
    }
}

fn us(d: std::time::Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_reconcile() {
        set_enabled(true);
        let scope = TraceScope::begin();
        {
            let _outer = Span::enter("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = Span::enter("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let _sibling = Span::enter("sibling");
        drop(_sibling);
        let rec = scope.finish("id-1".into(), "simulate", 200);
        assert_eq!(rec.id, "id-1");
        assert_eq!(rec.endpoint, "simulate");
        assert_eq!(rec.status, 200);
        assert_eq!(rec.spans.len(), 3);
        let outer = &rec.spans[0];
        let inner = &rec.spans[1];
        let sibling = &rec.spans[2];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(0), "inner nests under outer");
        assert_eq!(sibling.parent, None);
        assert!(inner.dur_us >= 1000, "inner slept 2ms: {}", inner.dur_us);
        assert!(outer.dur_us >= inner.dur_us);
        assert!(rec.total_us >= outer.dur_us);
        assert!(inner.start_us >= outer.start_us);
    }

    #[test]
    fn nested_scopes_do_not_clobber_the_outer_trace() {
        set_enabled(true);
        let outer = TraceScope::begin();
        let _span = Span::enter("outer-span");
        let inner = TraceScope::begin();
        let rec = inner.finish("inner".into(), "x", 200);
        assert!(rec.spans.is_empty(), "inert scope collects no spans");
        drop(_span);
        let rec = outer.finish("outer".into(), "y", 200);
        assert_eq!(rec.spans.len(), 1, "outer trace survived the inner scope");
    }

    #[test]
    fn a_detached_trace_frees_the_thread_and_takes_measured_spans() {
        set_enabled(true);
        let mut waiting = TraceScope::begin();
        drop(Span::enter("before"));
        waiting.detach();
        // The thread serves another request meanwhile.
        let other = TraceScope::begin();
        drop(Span::enter("other"));
        let rec = other.finish("other".into(), "x", 200);
        assert_eq!(rec.spans.len(), 1, "the second scope owns the thread");
        let start = Instant::now();
        waiting.span(
            "measured",
            start,
            start + std::time::Duration::from_millis(3),
        );
        let rec = waiting.finish("waiting".into(), "y", 200);
        let names: Vec<&str> = rec.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["before", "measured"]);
        assert_eq!(rec.spans[1].dur_us, 3000);
    }

    #[test]
    fn unfinished_scope_clears_the_thread_slot() {
        set_enabled(true);
        {
            let _scope = TraceScope::begin();
            let _span = Span::enter("left-open");
            // Dropped unfinished (the panic path).
        }
        let scope = TraceScope::begin();
        let rec = scope.finish("clean".into(), "z", 200);
        assert!(
            rec.spans.is_empty(),
            "no spans leaked from the dropped scope"
        );
    }

    #[test]
    fn spans_without_a_scope_only_feed_histograms() {
        set_enabled(true);
        let hist = Arc::new(Histogram::new());
        {
            let _s = Span::enter_timed("free-standing", &hist);
        }
        assert_eq!(hist.snapshot().count(), 1);
    }
}
