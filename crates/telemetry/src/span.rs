//! Per-session causal tracing: span identity, the session tracer, and
//! the bounded buffer of completed session traces.
//!
//! The aggregate metrics answer "how many / how fast"; this module
//! answers *which* — which client message, on which color, passed
//! through which γ-translation and came out on the other side. A driver
//! mints one [`SessionTraceId`] per client connection; the session
//! engine opens one [`SpanId`] per [`Layer`] it crosses (wait, parse,
//! unbind, γ, bind, compose, under a `session` root) and every
//! [`TraceEvent`] it emits travels with a [`TraceMeta`]: the session id,
//! a monotonic timestamp, and the span it belongs to plus that span's
//! parent — enough to rebuild the causal tree from a flat event stream.
//!
//! Tracing is pay-for-use: an emitting layer only constructs metadata
//! when its sink opts in via [`TelemetrySink::wants_spans`], so the
//! no-op-sink deployment still costs one branch per instrumentation
//! site.

use crate::event::{Layer, TraceEvent};
use crate::sink::TelemetrySink;
use crate::snapshot::Snapshot;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identity of one mediated client connection's trace. Minted from a
/// process-global counter, so ids are unique across every host in the
/// process and strictly increasing in accept order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionTraceId(pub u64);

static NEXT_SESSION: AtomicU64 = AtomicU64::new(1);

impl SessionTraceId {
    /// Mints the next process-unique id.
    pub fn next() -> SessionTraceId {
        SessionTraceId(NEXT_SESSION.fetch_add(1, Ordering::Relaxed))
    }
}

/// Identity of one span within a session trace. `SpanId::NONE` (zero)
/// marks the absence of a parent — events recorded before any span opens
/// (e.g. the accept marker) carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span: no enclosing span.
    pub const NONE: SpanId = SpanId(0);
}

/// Causal metadata attached to a traced event: which session, when
/// (monotonic nanoseconds since the session tracer was minted), and
/// where in the span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceMeta {
    /// The session the event belongs to.
    pub session: SessionTraceId,
    /// Monotonic nanoseconds since the session's tracer was minted.
    pub ts_ns: u64,
    /// The span the event belongs to ([`SpanId::NONE`] outside any span).
    pub span: SpanId,
    /// The parent of `span` ([`SpanId::NONE`] for root spans).
    pub parent: SpanId,
}

/// Open-span state returned by [`SessionTracer::open`]; hand it back to
/// [`SessionTracer::close`] when the phase ends. Not `Drop`-based: the
/// tracer needs the sink to record the close, and keeping the guard
/// plain data lets the session core store it across park/resume cycles.
#[derive(Debug)]
pub struct SpanGuard {
    /// The opened span.
    pub id: SpanId,
    /// Its parent (restored as current on close).
    pub parent: SpanId,
    prev_parent: SpanId,
    layer: Layer,
    color: u8,
}

/// Per-session trace context: mints span ids, stamps monotonic
/// timestamps, and forwards events to a sink with their [`TraceMeta`].
///
/// One tracer lives for one client connection (it survives traversal
/// restarts, so successive traversals on a kept-alive connection share a
/// session id while each forms its own root span). Interior state is
/// atomic, so a `&SessionTracer` can be shared with short-lived adapter
/// sinks (see [`SpanScopedSink`]).
#[derive(Debug)]
pub struct SessionTracer {
    session: SessionTraceId,
    epoch: Instant,
    next_span: AtomicU64,
    current: AtomicU64,
    current_parent: AtomicU64,
}

impl SessionTracer {
    /// A tracer for a freshly minted session id, with its monotonic
    /// epoch at now.
    pub fn new() -> SessionTracer {
        SessionTracer::with_session(SessionTraceId::next())
    }

    /// A tracer for a caller-chosen session id (deterministic tests).
    pub fn with_session(session: SessionTraceId) -> SessionTracer {
        SessionTracer {
            session,
            epoch: Instant::now(),
            next_span: AtomicU64::new(1),
            current: AtomicU64::new(SpanId::NONE.0),
            current_parent: AtomicU64::new(SpanId::NONE.0),
        }
    }

    /// Mints a tracer when `sink` consumes spans or message snapshots
    /// (and is enabled at all); `None` otherwise. The shape emitting
    /// layers use to keep the untraced path branch-cheap.
    pub fn for_sink(sink: &dyn TelemetrySink) -> Option<SessionTracer> {
        (sink.enabled() && (sink.wants_spans() || sink.wants_messages())).then(SessionTracer::new)
    }

    /// The session this tracer stamps.
    pub fn session(&self) -> SessionTraceId {
        self.session
    }

    /// Monotonic nanoseconds since the tracer was minted.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn meta(&self) -> TraceMeta {
        TraceMeta {
            session: self.session,
            ts_ns: self.now_ns(),
            span: SpanId(self.current.load(Ordering::Relaxed)),
            parent: SpanId(self.current_parent.load(Ordering::Relaxed)),
        }
    }

    /// Nanoseconds from the tracer's epoch to `at` (0 before the epoch).
    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records one event inside the current span.
    pub fn record(&self, sink: &dyn TelemetrySink, event: &TraceEvent<'_>) {
        sink.record_traced(&self.meta(), event);
    }

    /// Opens a `layer` span on `color` as a child of the current span,
    /// starting at `at` (the caller's clock read), and makes it current.
    /// The open is recorded as [`TraceEvent::SpanOpened`].
    pub fn open(
        &self,
        sink: &dyn TelemetrySink,
        layer: Layer,
        color: u8,
        at: Instant,
    ) -> SpanGuard {
        let id = SpanId(self.next_span.fetch_add(1, Ordering::Relaxed));
        let parent = SpanId(self.current.load(Ordering::Relaxed));
        let prev_parent = SpanId(self.current_parent.load(Ordering::Relaxed));
        sink.record_traced(
            &TraceMeta {
                session: self.session,
                ts_ns: self.offset_ns(at),
                span: id,
                parent,
            },
            &TraceEvent::SpanOpened { layer, color },
        );
        self.current.store(id.0, Ordering::Relaxed);
        self.current_parent.store(parent.0, Ordering::Relaxed);
        SpanGuard {
            id,
            parent,
            prev_parent,
            layer,
            color,
        }
    }

    /// Closes a span opened with [`SessionTracer::open`] at `at`, after
    /// `nanos`, restoring its parent as current. Recorded as
    /// [`TraceEvent::SpanClosed`].
    pub fn close(&self, sink: &dyn TelemetrySink, guard: SpanGuard, at: Instant, nanos: u64) {
        sink.record_traced(
            &TraceMeta {
                session: self.session,
                ts_ns: self.offset_ns(at),
                span: guard.id,
                parent: guard.parent,
            },
            &TraceEvent::SpanClosed {
                layer: guard.layer,
                color: guard.color,
                nanos,
            },
        );
        self.current.store(guard.parent.0, Ordering::Relaxed);
        self.current_parent
            .store(guard.prev_parent.0, Ordering::Relaxed);
    }
}

impl Default for SessionTracer {
    fn default() -> Self {
        SessionTracer::new()
    }
}

/// Adapter lending a tracer's metadata to code that only knows the
/// plain [`TelemetrySink`] contract (the codec's probe events): `record`
/// calls become `record_traced` calls stamped with the session's current
/// span.
pub struct SpanScopedSink<'a> {
    tracer: &'a SessionTracer,
    inner: &'a dyn TelemetrySink,
}

impl<'a> SpanScopedSink<'a> {
    /// Scopes `inner` to `tracer`'s current span.
    pub fn new(tracer: &'a SessionTracer, inner: &'a dyn TelemetrySink) -> SpanScopedSink<'a> {
        SpanScopedSink { tracer, inner }
    }
}

impl TelemetrySink for SpanScopedSink<'_> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&self, event: &TraceEvent<'_>) {
        self.tracer.record(self.inner, event);
    }

    fn record_traced(&self, meta: &TraceMeta, event: &TraceEvent<'_>) {
        self.inner.record_traced(meta, event);
    }

    fn snapshot(&self) -> Option<Snapshot> {
        self.inner.snapshot()
    }

    fn wants_spans(&self) -> bool {
        self.inner.wants_spans()
    }

    fn wants_messages(&self) -> bool {
        self.inner.wants_messages()
    }
}

/// How a retained trace record relates to time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceRecordKind {
    /// A span began at `meta.ts_ns`.
    SpanOpen,
    /// A span ended at `meta.ts_ns`.
    SpanClose,
    /// A point event.
    Instant,
}

/// One retained, owned trace record: the event normalised to a name, a
/// human-readable detail line, and its timing kind.
///
/// Message payloads are deliberately *not* retained here — field values
/// go to the [`crate::FlightRecorder`], which owns redaction; the trace
/// buffer keeps only structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Causal metadata stamped at emission.
    pub meta: TraceMeta,
    /// Timing kind.
    pub kind: TraceRecordKind,
    /// Normalised event name (stable, kebab-case).
    pub name: String,
    /// Human-readable detail (state names, byte counts, …).
    pub detail: String,
}

impl TraceRecord {
    /// Normalises one event into an owned record.
    pub fn from_event(meta: TraceMeta, event: &TraceEvent<'_>) -> TraceRecord {
        use TraceRecordKind::{Instant, SpanClose, SpanOpen};
        let (kind, name, detail) = match *event {
            TraceEvent::SpanOpened { layer, color } => {
                (SpanOpen, layer.label().to_owned(), format!("color {color}"))
            }
            TraceEvent::SpanClosed {
                layer,
                color,
                nanos,
            } => (
                SpanClose,
                layer.label().to_owned(),
                format!("color {color}, {nanos} ns"),
            ),
            TraceEvent::SessionStarted => (Instant, "session-started".into(), String::new()),
            TraceEvent::SessionFinished {
                final_state,
                exchanges,
            } => (
                Instant,
                "session-finished".into(),
                format!("final_state={final_state} exchanges={exchanges}"),
            ),
            TraceEvent::SessionFailed { stage } => {
                (Instant, "session-failed".into(), format!("stage={stage}"))
            }
            TraceEvent::SessionAbandoned { reason } => (
                Instant,
                "session-abandoned".into(),
                format!("reason={}", reason.label()),
            ),
            TraceEvent::SessionAccepted => (Instant, "accepted".into(), String::new()),
            TraceEvent::Transition {
                from,
                to,
                kind,
                color,
            } => (
                Instant,
                "transition".into(),
                format!("{from} -> {to} ({}, color {color})", kind.label()),
            ),
            TraceEvent::WireIn { color, bytes } => (
                Instant,
                "wire-in".into(),
                format!("color {color}, {bytes} B"),
            ),
            TraceEvent::WireOut { color, bytes } => (
                Instant,
                "wire-out".into(),
                format!("color {color}, {bytes} B"),
            ),
            TraceEvent::MessageSnapshot { stage, message, .. } => (
                Instant,
                "message".into(),
                // Field values stay out of the trace buffer; see the
                // flight recorder for (redacted) payloads.
                format!("{stage}: {message}"),
            ),
            TraceEvent::MonitorViolation { state, action } => (
                Instant,
                "monitor-violation".into(),
                format!("state {state}, action {action}"),
            ),
            TraceEvent::DispatchProbe { outcome } => {
                (Instant, "dispatch-probe".into(), outcome.label().to_owned())
            }
            TraceEvent::ServiceConnected { color } => (
                Instant,
                "service-connected".into(),
                format!("color {color}"),
            ),
            TraceEvent::WireBufReused => (Instant, "wire-buf-reused".into(), String::new()),
            TraceEvent::WireBufAllocated => (Instant, "wire-buf-allocated".into(), String::new()),
            TraceEvent::AcceptError => (Instant, "accept-error".into(), String::new()),
            TraceEvent::WorkerPanic => (Instant, "worker-panic".into(), String::new()),
            TraceEvent::ActiveSessions { count } => {
                (Instant, "active-sessions".into(), format!("{count}"))
            }
            TraceEvent::QueueDepth { depth } => (Instant, "queue-depth".into(), format!("{depth}")),
            TraceEvent::SessionStalled { state, waited_ms } => (
                Instant,
                "session-stalled".into(),
                format!("state {state}, waited {waited_ms} ms"),
            ),
            TraceEvent::StalledSessions { count } => {
                (Instant, "stalled-sessions".into(), format!("{count}"))
            }
        };
        TraceRecord {
            meta,
            kind,
            name,
            detail,
        }
    }
}

/// One completed session trace: every traced record of one traversal on
/// one client connection, in emission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionTrace {
    /// The session's trace id.
    pub session: SessionTraceId,
    /// Records in emission order (timestamps are monotonic per session).
    pub records: Vec<TraceRecord>,
}

impl SessionTrace {
    /// The names of every span opened in this trace, in open order.
    pub fn span_names(&self) -> Vec<&str> {
        self.records
            .iter()
            .filter(|r| r.kind == TraceRecordKind::SpanOpen)
            .map(|r| r.name.as_str())
            .collect()
    }
}

/// Default number of completed traces the buffer retains.
const DEFAULT_TRACE_CAPACITY: usize = 16;
/// Default per-trace record bound (protects against a runaway session).
const DEFAULT_RECORDS_PER_TRACE: usize = 1024;
/// In-flight sessions tolerated before the oldest is evicted (leaked
/// sessions — e.g. a driver that died without closing the root span —
/// must not pin memory forever).
const MAX_ACTIVE_SESSIONS: usize = 1024;

#[derive(Default)]
struct TraceBufferState {
    active: HashMap<u64, Vec<TraceRecord>>,
    completed: VecDeque<SessionTrace>,
    truncated: u64,
}

/// A [`TelemetrySink`] retaining the last N *completed* session traces
/// (a trace completes when its root span closes). Per-trace record
/// count is bounded; overflowing records are dropped and counted.
///
/// Untraced `record` calls (no session metadata) are ignored — this
/// sink only makes sense downstream of a [`SessionTracer`].
pub struct TraceBuffer {
    capacity: usize,
    records_per_trace: usize,
    state: Mutex<TraceBufferState>,
}

impl TraceBuffer {
    /// A buffer retaining the default number of completed traces.
    pub fn new() -> TraceBuffer {
        TraceBuffer::with_capacity(DEFAULT_TRACE_CAPACITY, DEFAULT_RECORDS_PER_TRACE)
    }

    /// A buffer retaining up to `traces` completed traces of up to
    /// `records_per_trace` records each.
    pub fn with_capacity(traces: usize, records_per_trace: usize) -> TraceBuffer {
        TraceBuffer {
            capacity: traces.max(1),
            records_per_trace: records_per_trace.max(16),
            state: Mutex::new(TraceBufferState::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceBufferState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Completed traces, oldest first.
    pub fn traces(&self) -> Vec<SessionTrace> {
        self.lock().completed.iter().cloned().collect()
    }

    /// The most recently completed trace.
    pub fn latest(&self) -> Option<SessionTrace> {
        self.lock().completed.back().cloned()
    }

    /// The most recently completed trace of the given session.
    pub fn trace(&self, session: SessionTraceId) -> Option<SessionTrace> {
        self.lock()
            .completed
            .iter()
            .rev()
            .find(|t| t.session == session)
            .cloned()
    }

    /// Sessions currently being recorded (root span still open).
    pub fn active_sessions(&self) -> usize {
        self.lock().active.len()
    }

    /// Records dropped because a trace hit its per-trace record bound.
    pub fn truncated_records(&self) -> u64 {
        self.lock().truncated
    }
}

impl Default for TraceBuffer {
    fn default() -> Self {
        TraceBuffer::new()
    }
}

impl TelemetrySink for TraceBuffer {
    fn record(&self, _event: &TraceEvent<'_>) {
        // Session-less events carry no causal metadata; aggregate sinks
        // (the Recorder) own them.
    }

    fn record_traced(&self, meta: &TraceMeta, event: &TraceEvent<'_>) {
        let record = TraceRecord::from_event(*meta, event);
        let root_closed =
            record.kind == TraceRecordKind::SpanClose && record.meta.parent == SpanId::NONE;
        let mut state = self.lock();
        let records = state.active.entry(meta.session.0).or_default();
        if records.len() < self.records_per_trace {
            records.push(record);
        } else {
            state.truncated += 1;
        }
        if root_closed {
            let records = state.active.remove(&meta.session.0).unwrap_or_default();
            if state.completed.len() == self.capacity {
                state.completed.pop_front();
            }
            state.completed.push_back(SessionTrace {
                session: meta.session,
                records,
            });
        } else if state.active.len() > MAX_ACTIVE_SESSIONS {
            // Session ids are monotonic: the smallest key is the oldest.
            if let Some(&oldest) = state.active.keys().min() {
                state.active.remove(&oldest);
            }
        }
    }

    fn wants_spans(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A session root holding one parse span, closed at fresh clock
    /// reads.
    fn traced_session(buffer: &TraceBuffer, exchanges: usize) -> SessionTraceId {
        let tracer = SessionTracer::new();
        let t0 = Instant::now();
        let root = tracer.open(buffer, Layer::Session, 1, t0);
        tracer.record(buffer, &TraceEvent::SessionStarted);
        let t1 = Instant::now();
        let parse = tracer.open(buffer, Layer::Parse, 1, t1);
        let t2 = Instant::now();
        tracer.close(buffer, parse, t2, (t2 - t1).as_nanos() as u64);
        tracer.record(
            buffer,
            &TraceEvent::SessionFinished {
                final_state: "s9",
                exchanges,
            },
        );
        let t3 = Instant::now();
        tracer.close(buffer, root, t3, (t3 - t0).as_nanos() as u64);
        tracer.session()
    }

    #[test]
    fn spans_nest_and_complete_on_root_close() {
        let buffer = TraceBuffer::new();
        let session = traced_session(&buffer, 3);
        assert_eq!(buffer.active_sessions(), 0);
        let trace = buffer.trace(session).expect("trace completed");
        assert_eq!(trace.span_names(), vec!["session", "parse"]);
        // The parse span's parent is the session span.
        let spans: Vec<&TraceRecord> = trace
            .records
            .iter()
            .filter(|r| r.kind == TraceRecordKind::SpanOpen)
            .collect();
        assert_eq!(spans[0].meta.parent, SpanId::NONE);
        assert_eq!(spans[1].meta.parent, spans[0].meta.span);
        assert_eq!(spans[1].detail, "color 1");
        // The close carries the span's id and the caller's duration,
        // which matches the open/close timestamps exactly.
        let close = trace
            .records
            .iter()
            .find(|r| r.kind == TraceRecordKind::SpanClose && r.name == "parse")
            .unwrap();
        assert_eq!(close.meta.span, spans[1].meta.span);
        let nanos = close.meta.ts_ns - spans[1].meta.ts_ns;
        assert_eq!(close.detail, format!("color 1, {nanos} ns"));
        // Timestamps are monotonic.
        let ts: Vec<u64> = trace.records.iter().map(|r| r.meta.ts_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "non-monotonic: {ts:?}");
    }

    #[test]
    fn buffer_is_bounded_by_completed_traces() {
        let buffer = TraceBuffer::with_capacity(2, 64);
        let first = traced_session(&buffer, 1);
        traced_session(&buffer, 2);
        traced_session(&buffer, 3);
        assert_eq!(buffer.traces().len(), 2);
        assert!(buffer.trace(first).is_none(), "oldest trace evicted");
    }

    #[test]
    fn per_trace_record_bound_truncates() {
        let buffer = TraceBuffer::with_capacity(2, 16);
        let tracer = SessionTracer::new();
        let t0 = Instant::now();
        let root = tracer.open(&buffer, Layer::Session, 1, t0);
        for _ in 0..64 {
            tracer.record(&buffer, &TraceEvent::WireBufReused);
        }
        tracer.close(&buffer, root, Instant::now(), 0);
        let trace = buffer.latest().unwrap();
        assert_eq!(trace.records.len(), 16);
        assert!(buffer.truncated_records() > 0);
    }

    #[test]
    fn plain_records_are_ignored() {
        let buffer = TraceBuffer::new();
        buffer.record(&TraceEvent::SessionStarted);
        assert_eq!(buffer.active_sessions(), 0);
        assert!(buffer.traces().is_empty());
    }

    #[test]
    fn span_scoped_sink_stamps_metadata() {
        let buffer = TraceBuffer::new();
        let tracer = SessionTracer::new();
        let root = tracer.open(&buffer, Layer::Session, 1, Instant::now());
        {
            let scoped = SpanScopedSink::new(&tracer, &buffer);
            scoped.record(&TraceEvent::DispatchProbe {
                outcome: crate::ProbeOutcome::Hit,
            });
        }
        tracer.close(&buffer, root, Instant::now(), 0);
        let trace = buffer.latest().unwrap();
        let probe = trace
            .records
            .iter()
            .find(|r| r.name == "dispatch-probe")
            .unwrap();
        assert_eq!(probe.meta.span, trace.records[0].meta.span);
    }
}
