//! Per-session causal tracing: span identity, the session tracer, and
//! the bounded buffer of completed session traces — the one place
//! traces, message captures and failures are retained.
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
//! (and renders message captures) when its sink opts in via
//! [`TelemetrySink::wants_spans`], so the no-op-sink deployment still
//! costs one branch per instrumentation site.

use crate::event::{Layer, TraceEvent};
use crate::sink::TelemetrySink;
use crate::snapshot::Snapshot;
use std::collections::{HashMap, VecDeque};
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
        SessionTracer {
            session: SessionTraceId::next(),
            epoch: Instant::now(),
            next_span: AtomicU64::new(1),
            current: AtomicU64::new(SpanId::NONE.0),
            current_parent: AtomicU64::new(SpanId::NONE.0),
        }
    }

    /// Mints a tracer when `sink` retains traces (and is enabled at
    /// all); `None` otherwise. The shape emitting layers use to keep the
    /// untraced path branch-cheap.
    pub fn for_sink(sink: &dyn TelemetrySink) -> Option<SessionTracer> {
        (sink.enabled() && sink.wants_spans()).then(SessionTracer::new)
    }

    /// The session this tracer stamps.
    pub fn session(&self) -> SessionTraceId {
        self.session
    }

    /// Metadata for `span` (child of `parent`) at the caller's clock
    /// read `at` (0 before the epoch).
    fn meta_at(&self, at: Instant, span: SpanId, parent: SpanId) -> TraceMeta {
        let ts_ns = at.saturating_duration_since(self.epoch).as_nanos() as u64;
        TraceMeta {
            session: self.session,
            ts_ns,
            span,
            parent,
        }
    }

    /// Records one event inside the current span.
    pub fn record(&self, sink: &dyn TelemetrySink, event: &TraceEvent<'_>) {
        let span = SpanId(self.current.load(Ordering::Relaxed));
        let parent = SpanId(self.current_parent.load(Ordering::Relaxed));
        sink.record_traced(&self.meta_at(Instant::now(), span, parent), event);
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
        let meta = self.meta_at(at, id, parent);
        sink.record_traced(&meta, &TraceEvent::SpanOpened { layer, color });
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
            &self.meta_at(at, guard.id, guard.parent),
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

/// Rewrites one captured field value before retention: `(field label,
/// value) -> retained value`. Return the value unchanged to keep it, a
/// fixed marker to censor it.
pub type RedactionFn = dyn Fn(&str, &str) -> String + Send + Sync;

/// One retained, owned trace record: the event normalised to a name, a
/// human-readable detail line, and its timing kind.
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
    /// A `message` capture's `(label, value)` fields in message order,
    /// values already through the buffer's redaction hook; empty for
    /// every other record.
    pub args: Vec<(String, String)>,
}

impl TraceRecord {
    /// Normalises one event into an owned record, passing captured
    /// field values through `redact`.
    fn from_event(meta: TraceMeta, event: &TraceEvent<'_>, redact: &RedactionFn) -> TraceRecord {
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
            TraceEvent::SessionFailed { stage, layer } => (
                Instant,
                "session-failed".into(),
                format!("stage={stage} layer={}", layer.label()),
            ),
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
            TraceEvent::MessageSnapshot { stage, message, .. } => {
                (Instant, "message".into(), format!("{stage}: {message}"))
            }
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
        let args = match *event {
            TraceEvent::MessageSnapshot { fields, .. } => fields
                .lines()
                .filter_map(|line| line.split_once('='))
                .map(|(label, value)| (label.to_owned(), redact(label, value)))
                .collect(),
            _ => Vec::new(),
        };
        TraceRecord {
            meta,
            kind,
            name,
            detail,
            args,
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
/// Failed traces the failure reservoir keeps per stage label. Stage
/// labels are a small fixed set, so the reservoir stays small too.
const FAILED_PER_STAGE: usize = 4;

/// A trace still being recorded.
#[derive(Default)]
struct ActiveTrace {
    records: Vec<TraceRecord>,
    /// The failure's stage label, once the traversal has failed.
    failed: Option<String>,
}

#[derive(Default)]
struct TraceBufferState {
    active: HashMap<u64, ActiveTrace>,
    /// Completed traces in completion order, each with its failure's
    /// stage label (`None`: it did not fail): at most `capacity` that
    /// did not fail, and at most [`FAILED_PER_STAGE`] per stage label.
    completed: VecDeque<(Option<String>, SessionTrace)>,
    truncated: u64,
}

/// A [`TelemetrySink`] retaining completed session traces (a trace
/// completes when its root span closes): the last N that completed
/// without failing, and apart from them a reservoir of the last four
/// failed traces per stage label, so a failure stays explainable however
/// many good sessions follow it. Per-trace record count is bounded;
/// overflowing records are dropped and counted, except the failure and
/// the closes of spans whose opens were kept.
///
/// Message captures ([`TraceEvent::MessageSnapshot`]) are kept as
/// `message` instant records whose fields pass through a redaction hook
/// ([`TraceBuffer::with_redaction`]) before anything is retained.
///
/// Untraced `record` calls (no session metadata) are ignored — this
/// sink only makes sense downstream of a [`SessionTracer`].
pub struct TraceBuffer {
    capacity: usize,
    records_per_trace: usize,
    redact: Box<RedactionFn>,
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
            redact: Box::new(|_label, value| value.to_owned()),
            state: Mutex::new(TraceBufferState::default()),
        }
    }

    /// Installs a redaction hook, applied to every captured `(label,
    /// value)` field at capture time — redacted values never reach
    /// memory the buffer retains. The default keeps values verbatim.
    pub fn with_redaction<F>(mut self, redact: F) -> TraceBuffer
    where
        F: Fn(&str, &str) -> String + Send + Sync + 'static,
    {
        self.redact = Box::new(redact);
        self
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceBufferState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Retained traces, failed and not, oldest completion first.
    pub fn traces(&self) -> Vec<SessionTrace> {
        self.lock()
            .completed
            .iter()
            .map(|(_, t)| t.clone())
            .collect()
    }

    /// The most recently completed trace.
    pub fn latest(&self) -> Option<SessionTrace> {
        self.lock().completed.back().map(|(_, t)| t.clone())
    }

    /// The most recently completed trace of the given session.
    pub fn trace(&self, session: SessionTraceId) -> Option<SessionTrace> {
        self.lock()
            .completed
            .iter()
            .rev()
            .find(|(_, t)| t.session == session)
            .map(|(_, t)| t.clone())
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
        let record = TraceRecord::from_event(*meta, event, self.redact.as_ref());
        let root_closed =
            record.kind == TraceRecordKind::SpanClose && record.meta.parent == SpanId::NONE;
        let mut state = self.lock();
        let trace = state.active.entry(meta.session.0).or_default();
        if let TraceEvent::SessionFailed { stage, .. } = *event {
            trace.failed = Some(stage.to_owned());
        }
        // Past the bound, still keep the failure (at most one per
        // traversal) and close every span whose open was kept, so a
        // truncated trace stays balanced, keeps its root's close and
        // still says why it failed.
        let keep = trace.records.len() < self.records_per_trace
            || matches!(event, TraceEvent::SessionFailed { .. })
            || (record.kind == TraceRecordKind::SpanClose
                && trace.records.iter().any(|r| {
                    r.kind == TraceRecordKind::SpanOpen && r.meta.span == record.meta.span
                }));
        if keep {
            trace.records.push(record);
        } else {
            state.truncated += 1;
        }
        if root_closed {
            let done = state.active.remove(&meta.session.0).unwrap_or_default();
            // Evict the oldest trace of the same outcome once its class
            // is full: good traversals never evict a failure, nor do
            // failures of one stage evict those of another.
            let limit = match done.failed {
                Some(_) => FAILED_PER_STAGE,
                None => self.capacity,
            };
            let same = |(failed, _): &(Option<String>, SessionTrace)| *failed == done.failed;
            if state.completed.iter().filter(|t| same(t)).count() == limit {
                if let Some(oldest) = state.completed.iter().position(same) {
                    state.completed.remove(oldest);
                }
            }
            let trace = SessionTrace {
                session: meta.session,
                records: done.records,
            };
            state.completed.push_back((done.failed, trace));
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

    fn capture<'a>(stage: &'a str, fields: &'a str) -> TraceEvent<'a> {
        TraceEvent::MessageSnapshot {
            stage,
            message: "Add",
            fields,
        }
    }

    /// One traversal recording `events` under its root span.
    fn session_with(buffer: &TraceBuffer, events: &[TraceEvent<'_>]) -> SessionTraceId {
        let tracer = SessionTracer::new();
        let root = tracer.open(buffer, Layer::Session, 1, Instant::now());
        for event in events {
            tracer.record(buffer, event);
        }
        tracer.close(buffer, root, Instant::now(), 0);
        tracer.session()
    }

    #[test]
    fn per_trace_record_bound_truncates() {
        let buffer = TraceBuffer::with_capacity(2, 16);
        session_with(&buffer, &[capture("received", "a=1"); 64]);
        let trace = buffer.latest().unwrap();
        assert_eq!(trace.records.len(), 17, "16 kept + the root's close");
        assert_eq!(buffer.truncated_records(), 66 - 17, "open + 64 + close");

        // A failure past the bound is kept: the trace still says why.
        let mut events = vec![capture("received", "a=1"); 64];
        events.push(TraceEvent::SessionFailed {
            stage: "binding",
            layer: Layer::Unbind,
        });
        session_with(&buffer, &events);
        let trace = buffer.latest().unwrap();
        assert_eq!(trace.records.len(), 18, "16 + the failure + the close");
        assert_eq!(trace.records[16].name, "session-failed");
    }

    #[test]
    fn plain_records_are_ignored() {
        let buffer = TraceBuffer::new();
        buffer.record(&TraceEvent::SessionStarted);
        // An untraced capture carries no session to file it under.
        buffer.record(&capture("received", "a=1"));
        assert_eq!(buffer.active_sessions(), 0);
        assert!(buffer.traces().is_empty());
    }

    #[test]
    fn captures_are_instant_records_redacted_before_retention() {
        let buffer = TraceBuffer::new().with_redaction(|label, value| match label {
            "password" => "<redacted>".to_owned(),
            _ => value.to_owned(),
        });
        let events = [
            capture("received", "user=amel\npassword=hunter2"),
            capture("pre-gamma", "a=2\nb=3"),
        ];
        let trace = buffer.trace(session_with(&buffer, &events)).unwrap();
        let caps: Vec<&TraceRecord> = trace
            .records
            .iter()
            .filter(|r| !r.args.is_empty())
            .collect();
        assert_eq!(caps.len(), 2, "only captures carry fields");
        assert_eq!(
            (caps[0].kind, caps[0].name.as_str()),
            (TraceRecordKind::Instant, "message")
        );
        let pairs = |r: &TraceRecord| {
            r.args
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
        };
        assert_eq!(pairs(caps[0]), ["user=amel", "password=<redacted>"]);
        assert_eq!(caps[1].detail, "pre-gamma: Add");
        assert_eq!(pairs(caps[1]), ["a=2", "b=3"]);
        assert!(!format!("{trace:?}").contains("hunter2"));
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
